"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random

from bellbox.bell import ZooClass, chsh, classify
from bellbox.cli import main
from bellbox.hilbert import (
    CANONICAL_ISO,
    StateVector,
    born_probabilities,
    is_entangled_measurement,
    reshape,
)
from bellbox.linalg import expectation, hermiticity_residual, inner
from bellbox.models import (
    ANIMAL_ACTS_OPERATORS,
    animal_acts_data,
    animal_acts_model,
    basis_from_probabilities,
    get_fixture,
    vessels_alternative_model,
    vessels_data,
    vessels_model,
    vessels_separated_data,
)
from bellbox.report import build_report, render_machine
from bellbox.tables import (
    Experiment,
    PAIR_ORDER,
    SettingPair,
    expectation_value,
    factorization_test,
)

from oracles import (
    alternative_ab_operator_reference,
    lattice_factorization_oracle,
    np_max_entry_difference,
    outer_product_table,
    random_outer_product_table,
    random_table,
    random_unit_cvector,
)


def _check(number, description, body):
    try:
        body()
    except BaseException:
        print(f"acceptance {number}: FAIL - {description}")
        raise
    print(f"acceptance {number}: PASS - {description}")


def test_criterion_1_animal_acts_statistics():
    def body():
        e = animal_acts_data().experiment
        expected = {
            SettingPair.AB: -0.7778,
            SettingPair.AB_PRIME: 0.3580,
            SettingPair.A_PRIME_B: 0.6543,
            SettingPair.A_PRIME_B_PRIME: 0.6296,
        }
        for pair, want in expected.items():
            assert abs(expectation_value(e.table(pair)) - want) <= 2e-3, pair
        assert abs(chsh(e).reference_combination - 2.4197) <= 2e-3

    _check(1, "animal-acts expectations and CHSH 2.4197 within 2e-3", body)


def test_criterion_2_animal_acts_model():
    def body():
        model = animal_acts_model()
        data = animal_acts_data().experiment
        for pair in PAIR_ORDER:
            op = ANIMAL_ACTS_OPERATORS[pair]
            want = expectation_value(data.table(pair))
            assert abs(expectation(op, model.state.vector) - want) <= 0.05, pair
            assert hermiticity_residual(op) <= 1e-3, pair
        # independent oracle: direct 2x2 determinant of the reshaped state
        (a, b), (c, d) = reshape(model.state.vector, CANONICAL_ISO)
        det = abs(a * d - b * c)
        assert abs(det - 0.465) <= 0.01
        assert det > 1e-3  # hence non-product

    _check(2, "animal-acts model expectations within 0.05, Hermitian 1e-3, "
              "state determinant 0.465 +- 0.01", body)


def test_criterion_3_vessels_model():
    def body():
        expected_tables = {
            SettingPair.AB: (0.0, 0.5, 0.5, 0.0),
            SettingPair.AB_PRIME: (1.0, 0.0, 0.0, 0.0),
            SettingPair.A_PRIME_B: (1.0, 0.0, 0.0, 0.0),
            SettingPair.A_PRIME_B_PRIME: (1.0, 0.0, 0.0, 0.0),
        }
        rng = random.Random(1003)
        phase_pairs = [(0.0, 0.0)] + [
            (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            for _ in range(100)
        ]
        for alpha, beta in phase_pairs:
            model = vessels_model(alpha, beta)
            for pair, want in expected_tables.items():
                got = born_probabilities(model.state, model.measurements[pair]).values
                assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (pair, alpha, beta)
            verdict = model.verify()
            assert abs(verdict.chsh_from_model - 4.0) <= 1e-12, (alpha, beta)
            flags = {
                pair: is_entangled_measurement(m, CANONICAL_ISO)
                for pair, m in model.measurements.items()
            }
            assert flags == {
                SettingPair.AB: False,
                SettingPair.AB_PRIME: True,
                SettingPair.A_PRIME_B: True,
                SettingPair.A_PRIME_B_PRIME: True,
            }, (alpha, beta)

    _check(3, "vessels model exact probabilities, Bell expectation 4, "
              "entanglement flags over 100 random phase pairs", body)


def test_criterion_4_alternative_vessels_model():
    def body():
        rng = random.Random(1004)
        phase_pairs = [(0.0, 0.0)] + [
            (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            for _ in range(20)
        ]
        for alpha, beta in phase_pairs:
            model = vessels_alternative_model(alpha, beta)
            assert model.state.vector.amplitudes == (1, 0, 0, 0)
            verdict = model.verify()
            assert abs(verdict.chsh_from_model - 4.0) <= 1e-12, (alpha, beta)
            entangled = [p for p in PAIR_ORDER if verdict.measurement_entangled[p]]
            assert entangled == [SettingPair.AB], (alpha, beta)
            want = alternative_ab_operator_reference(alpha, beta, (1, -1, -1, 1))
            got = model.measurements[SettingPair.AB].operator
            assert np_max_entry_difference(got, want) <= 1e-12, (alpha, beta)

    _check(4, "alternative vessels model: combination 4 from the product "
              "state, only AB entangled, AB operator matches closed form", body)


def test_criterion_5_zoo_classification():
    def body():
        assert classify(animal_acts_data().experiment) is ZooClass.NONLOCAL_NON_MARGINAL_BOX_1
        assert classify(vessels_data().experiment) is ZooClass.NONLOCAL_NON_MARGINAL_BOX_2
        separated = vessels_separated_data().experiment
        assert classify(separated) is ZooClass.KOLMOGOROVIAN_COMPATIBLE
        assert chsh(separated).reference_combination == 2.0

    _check(5, "zoo classes for the three datasets, separated CHSH exactly 2", body)


def test_criterion_6_factorization_against_lattice_oracle():
    def body():
        rng = random.Random(1006)
        for i in range(10_000):
            table = (
                random_outer_product_table(rng) if i % 4 == 0 else random_table(rng)
            )
            ours = factorization_test(table, tol=1e-6).factorizable
            oracle = lattice_factorization_oracle(table.values, tol=1e-6)
            assert ours == oracle, table.values
        verdict = factorization_test(
            outer_product_table((1.0, 0.0), (1.0, 0.0)), tol=1e-6
        )
        assert verdict.factorizable
        f = verdict.factors
        assert (f.a, f.b, f.a_prime, f.b_prime) == (1.0, 1.0, 0.0, 0.0)

    _check(6, "factorization agrees with the lattice oracle on 10,000 tables; "
              "deterministic table gives a=b=1, a'=b'=0", body)


def test_criterion_7_product_data_within_classical_bound():
    def body():
        rng = random.Random(1007)
        for _ in range(10_000):
            first = {"A": rng.random(), "A'": rng.random()}
            second = {"B": rng.random(), "B'": rng.random()}
            tables = {}
            for pair in PAIR_ORDER:
                x = first[pair.first]
                y = second[pair.second]
                tables[pair] = outer_product_table((x, 1 - x), (y, 1 - y), pair)
            result = chsh(Experiment.from_tables(tables))
            assert result.max_abs_over_variants <= 2.0 + 1e-9

    _check(7, "10,000 experiments from setting-local marginals stay within "
              "CHSH max 2 + 1e-9", body)


def test_criterion_8_basis_synthesis():
    def body():
        rng = random.Random(1008)
        for _ in range(1_000):
            state = random_unit_cvector(rng)
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            targets = tuple(v / total for v in raw)
            measurement = basis_from_probabilities(StateVector(state), targets)
            basis = measurement.final_states
            for i in range(4):
                for j in range(4):
                    overlap = abs(inner(basis[i], basis[j]))
                    want = 1.0 if i == j else 0.0
                    assert abs(overlap - want) <= 1e-9, (i, j)
            for e_k, target in zip(basis, targets):
                assert abs(abs(inner(e_k, state)) ** 2 - target) <= 1e-9

    _check(8, "1,000 synthesized bases are orthonormal and reproduce their "
              "target probabilities within 1e-9", body)


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    def body():
        for name in ("animal-acts", "vessels", "vessels-separated"):
            fixture = get_fixture(name)
            direct = render_machine(build_report(fixture.experiment))
            path = tmp_path / f"{name}.json"
            assert main(["export", name, str(path)]) == 0
            capsys.readouterr()
            assert main(["analyze", "--format", "machine", str(path)]) == 0
            out = capsys.readouterr().out
            assert out == direct, name
            json.loads(out)  # well-formed machine report

    _check(9, "export-then-analyze reproduces each fixture's machine report "
              "byte for byte", body)
