import cmath
import math
import random

import pytest

from bellbox import hilbert, models
from bellbox.bell import ZooClass, chsh, classify
from bellbox.hilbert import (
    CANONICAL_ISO,
    SWAPPED_ISO,
    StateVector,
    born_probabilities,
    is_entangled_measurement,
    verify_model,
)
from bellbox.linalg import CANONICAL_BASIS, CVector, inner, quadratic_form
from bellbox.models import (
    ANIMAL_ACTS_OPERATORS,
    animal_acts_data,
    animal_acts_model,
    basis_from_probabilities,
    get_fixture,
    get_model,
    vessels_alternative_model,
    vessels_data,
    vessels_model,
    vessels_separated_data,
)
from bellbox.tables import (
    PAIR_ORDER,
    Experiment,
    SettingPair,
    expectation_value,
    factorization_test,
)

from oracles import random_table, random_unit_cvector

SQ = math.sqrt(0.5)


class TestAnimalActsData:
    def test_quoted_probability_survives_normalization(self):
        table = animal_acts_data().experiment.table(SettingPair.AB_PRIME)
        assert abs(table.p11 - 0.593) <= 1e-9

    def test_expectation_values(self):
        e = animal_acts_data().experiment
        expected = {
            SettingPair.AB: -0.7778,
            SettingPair.AB_PRIME: 0.3580,
            SettingPair.A_PRIME_B: 0.6543,
            SettingPair.A_PRIME_B_PRIME: 0.6296,
        }
        for pair, want in expected.items():
            assert abs(expectation_value(e.table(pair)) - want) <= 2e-3

    def test_classification(self):
        fixture = animal_acts_data()
        assert fixture.expected_class is ZooClass.NONLOCAL_NON_MARGINAL_BOX_1
        assert classify(fixture.experiment) is fixture.expected_class

    def test_chsh_matches_expected(self):
        fixture = animal_acts_data()
        value = chsh(fixture.experiment).reference_combination
        assert abs(value - fixture.expected_chsh) <= fixture.chsh_tol


class TestAnimalActsModel:
    def test_operator_hermiticity(self):
        model = animal_acts_model()
        verdict = model.verify()
        assert verdict.hermiticity_residuals[SettingPair.AB_PRIME] <= 1e-3

    def test_state_not_product(self):
        verdict = animal_acts_model().verify()
        assert verdict.state_entangled

    def test_ab_operator_expectation(self):
        model = animal_acts_model()
        value = quadratic_form(
            ANIMAL_ACTS_OPERATORS[SettingPair.AB], model.state.vector
        ).real
        assert abs(value - (-0.7778)) <= 0.05

    def test_verification_passes_at_declared_tolerance(self):
        model = animal_acts_model()
        assert model.tolerance == 0.03
        assert model.verify().passed


class TestVesselsData:
    def test_chsh(self):
        fixture = vessels_data()
        assert chsh(fixture.experiment).reference_combination == 4.0

    def test_marginal_violation(self):
        from bellbox.tables import marginal_law_report, marginals

        e = vessels_data().experiment
        first_ab = marginals(e.table(SettingPair.AB))[0]
        first_abp = marginals(e.table(SettingPair.AB_PRIME))[0]
        assert first_ab[0] == 0.5 and first_abp[0] == 1.0
        assert not marginal_law_report(e).holds

    def test_ab_table_not_factorizable(self):
        verdict = factorization_test(
            vessels_data().experiment.table(SettingPair.AB), tol=1e-9
        )
        assert not verdict.factorizable


class TestVesselsSeparatedData:
    def test_chsh_exactly_two(self):
        fixture = vessels_separated_data()
        assert chsh(fixture.experiment).reference_combination == 2.0

    def test_classification(self):
        assert (
            classify(vessels_separated_data().experiment)
            is ZooClass.KOLMOGOROVIAN_COMPATIBLE
        )

    def test_every_table_factorization_testable(self):
        e = vessels_separated_data().experiment
        verdicts = {pair: factorization_test(e.table(pair)) for pair in PAIR_ORDER}
        assert not verdicts[SettingPair.AB].factorizable
        assert verdicts[SettingPair.AB_PRIME].factorizable

    def test_flip_choice_configurable(self):
        # A'B is the correlation that flips
        fixture = vessels_separated_data()
        table = fixture.experiment.table(SettingPair.A_PRIME_B)
        assert expectation_value(table) == -1.0
        assert expectation_value(fixture.experiment.table(SettingPair.AB_PRIME)) == 1.0
        assert chsh(fixture.experiment).reference_combination == 2.0

    def test_unknown_flip_rejected(self):
        # the dataset takes no choice of flip
        with pytest.raises(TypeError):
            vessels_separated_data("A'B'")


class TestVesselsModel:
    def test_bell_expectation_at_zero_phases(self):
        verdict = vessels_model(0.0, 0.0).verify()
        assert verdict.passed
        assert abs(verdict.chsh_from_model - 4.0) <= 1e-12

    def test_bell_expectation_random_phases(self):
        rng = random.Random(321)
        for _ in range(25):
            alpha = rng.uniform(-math.pi, math.pi)
            beta = rng.uniform(-math.pi, math.pi)
            verdict = vessels_model(alpha, beta).verify()
            assert verdict.passed
            assert abs(verdict.chsh_from_model - 4.0) <= 1e-12

    def test_probabilities_phase_independent(self):
        rng = random.Random(654)
        reference = vessels_model(0.0, 0.0)
        ref_tables = {
            pair: born_probabilities(reference.state, m).values
            for pair, m in reference.measurements.items()
        }
        for _ in range(25):
            model = vessels_model(
                rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            )
            for pair, m in model.measurements.items():
                got = born_probabilities(model.state, m).values
                assert max(abs(a - b) for a, b in zip(got, ref_tables[pair])) <= 1e-12

    def test_unit_probability_outcome_on_second_setting_pair(self):
        model = vessels_model(1.1, 0.3)
        table = born_probabilities(
            model.state, model.measurements[SettingPair.A_PRIME_B]
        )
        assert abs(table.p11 - 1.0) <= 1e-12

    def test_entanglement_flags(self):
        verdict = vessels_model(0.5, 0.2).verify()
        flags = verdict.measurement_entangled
        assert not flags[SettingPair.AB]
        assert all(
            flags[p]
            for p in (
                SettingPair.AB_PRIME,
                SettingPair.A_PRIME_B,
                SettingPair.A_PRIME_B_PRIME,
            )
        )

    def test_records_its_phases(self):
        model = vessels_model(0.7, -0.3)
        assert (model.alpha, model.beta) == (0.7, -0.3)


class TestVesselsAlternativeModel:
    def test_combination_expectation(self):
        verdict = vessels_alternative_model(0.0, 0.0).verify()
        assert verdict.passed
        assert abs(verdict.chsh_from_model - 4.0) <= 1e-12

    def test_only_ab_entangled(self):
        verdict = vessels_alternative_model(0.9, -0.6).verify()
        entangled = [p for p in PAIR_ORDER if verdict.measurement_entangled[p]]
        assert entangled == [SettingPair.AB]
        assert not verdict.state_entangled

    def test_product_state(self):
        model = vessels_alternative_model(0.3, 0.3)
        assert model.state.vector == CVector([1, 0, 0, 0])

    def test_entanglement_location_depends_on_isomorphism_assertions(self):
        # per-vector product status is fixed per isomorphism chosen
        model = vessels_alternative_model(0.4, 1.0)
        for iso in (CANONICAL_ISO, SWAPPED_ISO):
            assert is_entangled_measurement(model.measurements[SettingPair.AB], iso)


class TestModelFixturePairing:
    def test_every_model_passes_its_fixture(self):
        for name in ("animal-acts", "vessels", "vessels-alt"):
            model = get_model(name, alpha=0.21, beta=-1.05)
            assert model.verify().passed, name

    def test_get_fixture_names(self):
        for name in ("animal-acts", "vessels", "vessels-separated"):
            assert get_fixture(name).name == name
        with pytest.raises(ValueError):
            get_fixture("bell-state")

    def test_get_model_unknown(self):
        with pytest.raises(ValueError):
            get_model("vessels-separated")

    def test_shipped_isomorphisms_give_the_same_flags(self):
        # SWAPPED_ISO transposes every reshaped vector and every
        # realignment, which keeps each determinant and minor: the two
        # verdicts of a construction differ in their iso and nothing else
        rng = random.Random(1105)
        phases = [(0.3, 1.1)] + [
            (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            for _ in range(9)
        ]
        for name in ("animal-acts", "vessels", "vessels-alt"):
            for alpha, beta in phases:
                model = get_model(name, alpha, beta)
                canonical = model.verify(iso=CANONICAL_ISO)
                swapped = model.verify(iso=SWAPPED_ISO)
                assert swapped.iso is SWAPPED_ISO
                assert canonical._replace(iso=SWAPPED_ISO) == swapped, (name, alpha, beta)


def _verdict_hex(verdict):
    """Every field of a verdict, floats by ``float.hex`` (so the sign of a
    zero counts)."""
    per_pair = tuple(
        (
            verdict.residuals[p].hex(),
            verdict.measurement_entangled[p],
            verdict.hermiticity_residuals[p].hex(),
        )
        for p in PAIR_ORDER
    )
    return (
        verdict.residual_kind,
        per_pair,
        verdict.state_entangled,
        verdict.chsh_from_model.hex(),
        verdict.chsh_imag_residual.hex(),
        verdict.tolerance.hex(),
        verdict.iso,
        verdict.passed,
    )


ISOS = (CANONICAL_ISO, SWAPPED_ISO)


class TestVerifyOnce:
    """A construction computes its predictions once; each verification
    adds only the comparison with its data and its isomorphism's flags."""

    def _counters(self, count_calls):
        return {
            name: count_calls(hilbert, name)
            for name in (
                "operator_from_measurement",
                "born_probabilities",
                "hermiticity_residual",
                "bell_operator",
                "is_product_operator",
            )
        }

    def test_vessel_model_under_both_isomorphisms(self, count_calls):
        # a basis-backed model is verified from its Born tables alone, each
        # from the Born kernel
        calls = self._counters(count_calls)
        calls["_born_probabilities"] = count_calls(hilbert, "_born_probabilities")
        model = vessels_model(0.3, 0.8)
        # the construction predicts when it is built
        assert calls["_born_probabilities"][0] == 4
        for iso in ISOS:
            model.verify(vessels_data().experiment, iso=iso)
        counts = {name: c[0] for name, c in calls.items()}
        assert counts == {
            "operator_from_measurement": 0,
            "born_probabilities": 0,
            "hermiticity_residual": 0,
            "bell_operator": 0,
            "is_product_operator": 0,
            "_born_probabilities": 4,
        }
        assert model.operators is None

    def test_animal_acts_model_under_both_isomorphisms(self, count_calls):
        calls = self._counters(count_calls)
        model = animal_acts_model()
        for iso in ISOS:
            model.verify(animal_acts_data().experiment, iso=iso)
        counts = {name: c[0] for name, c in calls.items()}
        assert counts == {
            "operator_from_measurement": 0,
            "born_probabilities": 0,
            "hermiticity_residual": 4,
            "bell_operator": 0,
            "is_product_operator": 4,
        }

    def test_canonical_measurements_are_built_once_and_shared(self, count_calls):
        models._canonical_measurement.cache_clear()
        first = (vessels_model(0.3, 0.8), vessels_alternative_model(-1.2, 0.4))
        measurements = count_calls(models, "Measurement")
        operators = count_calls(hilbert, "operator_from_measurement")
        second = (vessels_model(-0.7, 2.1), vessels_alternative_model(0.6, -2.5))
        # vessels checks one phase-dependent basis and reorders it for the
        # other two pairs, vessels-alt builds one, and neither builds an
        # operator
        assert (measurements[0], operators[0]) == (2, 0)
        canonical = {
            SettingPair.AB: [first[0], second[0]],
            **{pair: [first[1], second[1]] for pair in PAIR_ORDER[1:]},
        }
        for pair, built in canonical.items():
            shared = models._canonical_measurement(pair)
            assert shared.final_states == CANONICAL_BASIS
            for model in built:
                assert model.measurements[pair] is shared
                assert model.measurements[pair].operator is shared.operator
        assert models._canonical_measurement.cache_info().currsize == 4

    def test_determinants_computed_once_per_measurement_and_pairing_class(self, count_calls):
        # the canonical and swapped identifications are one pairing class: a
        # construction takes its flags under it from the determinants of its
        # 16 final states and of its state, once, whatever measurements it
        # shares with other constructions
        determinants = count_calls(hilbert, "_det_modulus")
        for build in (vessels_model, vessels_alternative_model):
            model = build(0.3, 0.8)
            for iso in ISOS + ISOS:
                model.verify(vessels_data().experiment, iso=iso)
        assert determinants[0] == 2 * (16 + 1)
        other_class = hilbert.Isomorphism("other", ((0, 0), (1, 1), (0, 1), (1, 0)))
        assert other_class._pairing != CANONICAL_ISO._pairing
        for _ in range(2):
            model.verify(iso=other_class)
        assert determinants[0] == 3 * (16 + 1)

    def test_comparing_vessel_models_builds_no_operator(self, count_calls):
        # the benchmark compares each op's output with a reference by ==
        calls = count_calls(hilbert, "operator_from_measurement")
        for build in (vessels_model, vessels_alternative_model):
            first, second = build(0.3, 0.8), build(0.3, 0.8)
            assert first == second and not first != second
            assert first != build(0.3, -0.8)
        assert calls[0] == 0

    def test_fixture_built_once_per_model(self, count_calls):
        calls = count_calls(models, "get_fixture")
        model = vessels_model(0.1, 0.2)
        verdicts = [model.verify(iso=iso) for iso in ISOS + ISOS]
        assert calls[0] == 1
        assert all(v.passed for v in verdicts)

    def test_no_cached_value_leaks_across_data_or_tolerance(self):
        builders = {
            "vessels": lambda: vessels_model(0.3, 0.8),
            "vessels-alt": lambda: vessels_alternative_model(-1.2, 0.4),
            "animal-acts": animal_acts_model,
        }
        datasets = (vessels_data().experiment, vessels_separated_data().experiment)
        for name, build in builders.items():
            model = build()
            for data in datasets:
                for tol in (1e-9, 1.0):
                    for iso in ISOS:
                        fresh = build().verify(data, tol=tol, iso=iso)
                        reused = model.verify(data, tol=tol, iso=iso)
                        assert _verdict_hex(reused) == _verdict_hex(fresh), name

    def test_reused_vessel_models_match_fresh_ones_bit_for_bit(self):
        rng = random.Random(606)
        data = vessels_data().experiment
        phases = [(0.0, -0.0), (-0.0, 0.0)] + [
            (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            for _ in range(8)
        ]
        for alpha, beta in phases:
            for build in (vessels_model, vessels_alternative_model):
                model = build(alpha, beta)
                for iso in ISOS + ISOS:
                    fresh = build(alpha, beta).verify(data, iso=iso)
                    assert _verdict_hex(model.verify(data, iso=iso)) == _verdict_hex(fresh)

    def test_reused_synthesized_models_match_fresh_ones_bit_for_bit(self):
        rng = random.Random(607)
        for _ in range(20):
            state = StateVector(random_unit_cvector(rng))
            data = Experiment.from_tables({pair: random_table(rng, pair) for pair in PAIR_ORDER})

            def synthesize():
                return {
                    pair: basis_from_probabilities(state, data.table(pair).values, pair)
                    for pair in PAIR_ORDER
                }

            measurements = synthesize()
            for iso in ISOS + ISOS:
                reused = verify_model(state, measurements, data, 1e-9, iso)
                fresh = verify_model(state, synthesize(), data, 1e-9, iso)
                assert _verdict_hex(reused) == _verdict_hex(fresh)

    def test_verdicts_do_not_share_mutable_state_with_the_model(self):
        model = vessels_model(0.5, 0.5)
        first = model.verify()
        first.hermiticity_residuals[SettingPair.AB] = 99.0
        second = model.verify()
        assert second.hermiticity_residuals[SettingPair.AB] != 99.0

    @pytest.mark.parametrize("build", [vessels_model, animal_acts_model])
    def test_verdicts_do_not_share_the_kept_flags(self, build):
        # a construction keeps its flags per pairing class; each verdict gets
        # its own dict of them
        model = build()
        first = model.verify(iso=CANONICAL_ISO)
        flags = dict(first.measurement_entangled)
        first.measurement_entangled[SettingPair.AB] = "changed"
        second = model.verify(iso=SWAPPED_ISO)
        assert second.measurement_entangled == flags


@pytest.mark.parametrize("iso", ISOS, ids=lambda iso: iso.name)
def test_every_way_to_verify_gives_the_same_verdict(iso):
    # verify_model builds a Construction, and NamedModel is one: the three
    # entry points make one check and give one verdict, bit for bit
    rng = random.Random(2323)
    cases = []
    for name in ("animal-acts", "vessels", "vessels-alt"):
        for alpha, beta in ((0.0, -0.0), (0.7, -0.3)):
            model = get_model(name, alpha, beta)
            cases.append((model, get_fixture(model.fixture_name).experiment))
    for _ in range(10):
        state = StateVector(random_unit_cvector(rng))
        data = Experiment.from_tables({pair: random_table(rng, pair) for pair in PAIR_ORDER})
        measurements = {
            pair: basis_from_probabilities(state, data.table(pair).values, pair)
            for pair in PAIR_ORDER
        }
        cases.append((models.NamedModel("s", state, measurements, None, "vessels", 1e-9), data))
    for model, data in cases:
        construction = hilbert.Construction(
            model.state, model.measurements, model.operators, model.product_tol
        )
        verdicts = [model.verify(data, iso=iso), construction.verify(data, model.tolerance, iso)]
        if model.measurements is not None:
            verdicts.append(
                verify_model(model.state, model.measurements, data, model.tolerance, iso)
            )
        assert len({_verdict_hex(v) for v in verdicts}) == 1, model.name


class TestBasisFromProbabilities:
    def test_state_already_canonical(self):
        state = StateVector(CVector([1, 0, 0, 0]))
        m = basis_from_probabilities(state, (1.0, 0.0, 0.0, 0.0))
        for k, e_k in enumerate(m.final_states):
            # canonical basis up to a phase on each vector
            overlaps = [abs(e_k[i]) for i in range(4)]
            assert abs(overlaps[k] - 1.0) <= 1e-12
            assert sum(overlaps) - overlaps[k] <= 1e-12

    def test_first_vector_collinear_with_state(self):
        state = StateVector(CVector([0, SQ * cmath.exp(0.5j), SQ * cmath.exp(-0.8j), 0]))
        m = basis_from_probabilities(state, (1.0, 0.0, 0.0, 0.0))
        overlap = abs(inner(m.final_states[0], state.vector))
        assert abs(overlap - 1.0) <= 1e-12

    def test_prescribed_overlaps(self):
        state = StateVector.of([0.4, -0.3j, 0.5, 0.1 + 0.7j], normalize=True)
        targets = (0.1, 0.2, 0.3, 0.4)
        m = basis_from_probabilities(state, targets)
        table = born_probabilities(state, m)
        assert max(abs(p - t) for p, t in zip(table.values, targets)) <= 1e-9

    def test_overlap_phase_convention(self):
        rng = random.Random(987)
        for _ in range(50):
            state = StateVector(random_unit_cvector(rng))
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            targets = tuple(v / total for v in raw)
            m = basis_from_probabilities(state, targets)
            for e_k, target in zip(m.final_states, targets):
                overlap = inner(e_k, state.vector)
                assert abs(overlap.imag) <= 1e-9
                assert overlap.real >= -1e-9
                assert abs(overlap.real - math.sqrt(target)) <= 1e-9

    def test_orthonormality(self):
        rng = random.Random(246)
        for _ in range(50):
            state = StateVector(random_unit_cvector(rng))
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            # Measurement construction validates orthonormality at 1e-9
            basis_from_probabilities(state, tuple(v / total for v in raw))

    def test_invalid_targets(self):
        state = StateVector(CVector([1, 0, 0, 0]))
        with pytest.raises(ValueError, match=r"^target probabilities must be nonnegative: "):
            basis_from_probabilities(state, (0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError, match=r"^target probabilities sum to 0\.9, not 1$"):
            basis_from_probabilities(state, (0.5, 0.4, 0.0, 0.0))

    def test_reproduces_survey_probabilities(self):
        # synthesizing bases from the survey tables gives a basis-backed
        # construction matching the dataset to machine precision
        state = animal_acts_model().state
        data = animal_acts_data().experiment
        for pair in PAIR_ORDER:
            m = basis_from_probabilities(state, data.table(pair).values, pair)
            got = born_probabilities(state, m)
            assert max(
                abs(a - b) for a, b in zip(got.values, data.table(pair).values)
            ) <= 1e-9
