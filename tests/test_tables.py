import copy
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from bellbox.tables import (
    Experiment,
    JointTable,
    NegativeEntryError,
    NotNormalizableError,
    PAIR_ORDER,
    SettingPair,
    TableError,
    expectation_value,
    factorization_test,
    marginal_law_report,
    marginals,
    normalize,
)
from bellbox.hilbert import Measurement, StateVector, born_probabilities
from bellbox.linalg import CVector
from bellbox.models import animal_acts_data, basis_from_probabilities, vessels_data
from bellbox.tables import EXACT_TOL

from oracles import (
    lattice_factorization_oracle,
    outer_product_table,
    random_outer_product_table,
    random_table,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def normalized_tables(draw):
    raw = [draw(st.floats(min_value=0.001, max_value=1.0)) for _ in range(4)]
    total = sum(raw)
    return JointTable(*(v / total for v in raw))


def uniform_experiment() -> Experiment:
    return Experiment(
        tuple(JointTable(0.25, 0.25, 0.25, 0.25, pair) for pair in PAIR_ORDER)
    )


class TestSettingPair:
    def test_labels(self):
        assert [p.label for p in PAIR_ORDER] == ["AB", "AB'", "A'B", "A'B'"]

    def test_outcome_labels_carry_primes(self):
        assert SettingPair.A_PRIME_B.outcome_labels == (
            "A'1B1",
            "A'1B2",
            "A'2B1",
            "A'2B2",
        )

    def test_from_label_round_trip(self):
        for pair in SettingPair:
            assert SettingPair.from_label(pair.label) is pair
        with pytest.raises(ValueError):
            SettingPair.from_label("BA")

    @pytest.mark.parametrize(
        "pair,label,first,second,outcome_labels",
        [
            (SettingPair.AB, "AB", "A", "B", ("A1B1", "A1B2", "A2B1", "A2B2")),
            (SettingPair.AB_PRIME, "AB'", "A", "B'", ("A1B'1", "A1B'2", "A2B'1", "A2B'2")),
            (SettingPair.A_PRIME_B, "A'B", "A'", "B", ("A'1B1", "A'1B2", "A'2B1", "A'2B2")),
            (
                SettingPair.A_PRIME_B_PRIME,
                "A'B'",
                "A'",
                "B'",
                ("A'1B'1", "A'1B'2", "A'2B'1", "A'2B'2"),
            ),
        ],
        ids=lambda v: v.name if isinstance(v, SettingPair) else None,
    )
    def test_derived_attributes(self, pair, label, first, second, outcome_labels):
        assert pair.label == pair.value == label
        assert pair.first == first
        assert pair.second == second
        assert pair.outcome_labels == outcome_labels
        assert SettingPair.from_label(pair.label) is pair

    @pytest.mark.parametrize("name", ("label", "first", "second", "outcome_labels"))
    @pytest.mark.parametrize("pair", list(SettingPair), ids=lambda p: p.name)
    def test_derived_attributes_are_read_only(self, pair, name):
        before = getattr(pair, name)
        with pytest.raises(AttributeError):
            setattr(pair, name, "X")
        with pytest.raises(AttributeError):
            delattr(pair, name)
        assert getattr(pair, name) == before

    @pytest.mark.parametrize("pair", list(SettingPair), ids=lambda p: p.name)
    def test_members_are_singletons(self, pair):
        assert pickle.loads(pickle.dumps(pair)) is pair
        assert copy.copy(pair) is pair
        assert copy.deepcopy(pair) is pair
        assert copy.deepcopy({pair: [pair]}) == {pair: [pair]}

    def test_members_are_keys(self):
        index = {pair: i for i, pair in enumerate(PAIR_ORDER)}
        assert [index[pair] for pair in PAIR_ORDER] == [0, 1, 2, 3]
        assert index[pickle.loads(pickle.dumps(SettingPair.A_PRIME_B))] == 2
        assert set(PAIR_ORDER) == set(SettingPair)
        assert len(set(PAIR_ORDER) | set(PAIR_ORDER)) == 4
        assert SettingPair.AB_PRIME in {SettingPair.AB_PRIME}
        assert SettingPair.AB_PRIME not in {SettingPair.A_PRIME_B}


class TestJointTable:
    def test_sum_far_from_one_rejected(self):
        with pytest.raises(NotNormalizableError):
            JointTable(0.5, 0.5, 0.5, 0.0)

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(TableError):
            JointTable(-0.2, 0.6, 0.3, 0.3)

    def test_quoted_sum_slack_rejected(self):
        # rows quoted to three decimals can miss 1 by a few thousandths; the
        # constructor admits only exact sums, and normalize rescales such rows
        message = r"^table AB sums to 0\.999, too far from 1$"
        with pytest.raises(NotNormalizableError, match=message):
            JointTable(0.778, 0.086, 0.086, 0.049)
        assert normalize((0.778, 0.086, 0.086, 0.049)).values == tuple(
            v / 0.999 for v in (0.778, 0.086, 0.086, 0.049)
        )


class TestAdmissionRule:
    """One rule: the constructor admits sums within a few EXACT_TOL of 1, and
    every Born table of an admitted state and basis; rounded rows are
    rescaled by normalize."""

    def test_rounded_row_is_rejected_and_normalize_rescales_it(self):
        with pytest.raises(NotNormalizableError, match="sums to 1.005, too far from 1"):
            JointTable(0.5, 0.5, 0.005, 0.0)
        table = normalize((0.5, 0.5, 0.005, 0.0))
        assert table.values == (0.5 / 1.005, 0.5 / 1.005, 0.005 / 1.005, 0.0)
        assert expectation_value(table) != -0.005

    def test_sum_within_a_few_exact_tol_is_admitted(self):
        JointTable(0.25 + 5 * EXACT_TOL, 0.25, 0.25, 0.25)
        with pytest.raises(NotNormalizableError):
            JointTable(0.25 + 10 * EXACT_TOL, 0.25, 0.25, 0.25)

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_born_tables_of_synthesized_bases_are_admitted(self, basis_state, state, weights):
        def unit(parts):
            amplitudes = [complex(parts[2 * k], parts[2 * k + 1]) for k in range(4)]
            if CVector(amplitudes).norm() < 1e-3:
                amplitudes[0] += 1.0
            return StateVector.of(amplitudes, normalize=True)

        if math.fsum(weights) < 1e-3:
            weights = [1.0, 0.0, 0.0, 0.0]
        targets = normalize(weights, tol=math.inf).values
        basis = basis_from_probabilities(unit(basis_state), targets)
        table = born_probabilities(unit(state), basis)
        assert abs(math.fsum(table.values) - 1.0) <= 8 * EXACT_TOL

    def test_born_tables_at_the_edge_of_orthonormality_are_admitted(self):
        # overlaps and squared norms each miss by just under EXACT_TOL, and the
        # state's norm too: the sum misses 1 by about 6 * EXACT_TOL
        eps = 0.99 * EXACT_TOL
        skew = [
            [(1.0 if i == k else eps / 2) for i in range(4)] for k in range(4)
        ]
        scale = math.sqrt(1.0 + eps) / math.sqrt(1.0 + 3 * (eps / 2) ** 2)
        basis = Measurement(SettingPair.AB, [CVector(v * scale for v in row) for row in skew])
        state = StateVector(CVector([0.5 * (1.0 + eps)] * 4))
        table = born_probabilities(state, basis)
        assert math.fsum(table.values) - 1.0 > 5 * EXACT_TOL


class TestNormalizeRejectsWhatCannotBeRescaled:
    """A tol of 1 or more admits a sum of 0, or one that overflows; neither
    can be rescaled into a table."""

    def test_zero_sum(self):
        message = r"^table AB' sums to 0\.0; it cannot be rescaled$"
        with pytest.raises(NotNormalizableError, match=message):
            normalize((0.0, 0.0, 0.0, 0.0), SettingPair.AB_PRIME, tol=1.0)

    def test_overflowing_sum(self):
        with pytest.raises(NotNormalizableError, match=r"sums to inf; it cannot be rescaled$"):
            normalize((1e308, 1e308, 0.0, 0.0), tol=math.inf)


class TestExpectationValue:
    def test_survey_ab_row(self):
        t = JointTable(0.049, 0.630, 0.259, 0.062)
        assert abs(expectation_value(t) - (-0.778)) < 1e-12

    def test_uniform_is_zero(self):
        assert expectation_value(JointTable(0.25, 0.25, 0.25, 0.25)) == 0

    def test_perfect_anticorrelation(self):
        assert expectation_value(JointTable(0.0, 0.5, 0.5, 0.0)) == -1

    @given(normalized_tables())
    def test_range(self, t):
        assert -1.0 - 1e-12 <= expectation_value(t) <= 1.0 + 1e-12


class TestMarginals:
    def test_anticorrelated_table(self):
        first, second = marginals(JointTable(0.0, 0.5, 0.5, 0.0))
        assert first == (0.5, 0.5)
        assert second == (0.5, 0.5)

    def test_deterministic_table(self):
        first, second = marginals(JointTable(1.0, 0.0, 0.0, 0.0))
        assert first == (1.0, 0.0)
        assert second == (1.0, 0.0)

    def test_survey_ab_row(self):
        first, second = marginals(JointTable(0.049, 0.630, 0.259, 0.062))
        assert abs(first[0] - 0.679) < 1e-12 and abs(first[1] - 0.321) < 1e-12
        assert abs(second[0] - 0.308) < 1e-12 and abs(second[1] - 0.692) < 1e-12

    @given(normalized_tables())
    def test_pairs_sum_to_one(self, t):
        first, second = marginals(t)
        assert abs(sum(first) - 1.0) <= 1e-12
        assert abs(sum(second) - 1.0) <= 1e-12


class TestMarginalLaw:
    def test_vessels_violated(self):
        report = marginal_law_report(vessels_data().experiment, tol=1e-6)
        assert not report.holds
        setting_a = report.comparisons[0]
        assert setting_a.setting == "A"
        assert setting_a.marginal_a == (0.5, 0.5)
        assert setting_a.marginal_b == (1.0, 0.0)
        assert max(setting_a.differences) == 0.5

    def test_identical_product_tables_hold(self):
        tables = {
            pair: outer_product_table((0.3, 0.7), (0.6, 0.4), pair)
            for pair in SettingPair
        }
        assert marginal_law_report(Experiment.from_tables(tables), 1e-9).holds

    def test_survey_data_violated(self):
        report = marginal_law_report(animal_acts_data().experiment, tol=1e-6)
        assert not report.holds
        setting_a = report.comparisons[0]
        # first-side marginal under setting A: 0.679 from AB vs 0.618 from AB'
        assert abs(setting_a.marginal_a[0] - 0.679) < 1e-9
        assert abs(setting_a.marginal_b[0] - 0.618) < 1e-9
        assert abs(max(setting_a.differences) - 0.061) < 1e-9


class TestFactorization:
    def test_anticorrelated_not_factorizable(self):
        verdict = factorization_test(JointTable(0.0, 0.5, 0.5, 0.0), tol=1e-9)
        assert not verdict.factorizable
        assert verdict.factors is None
        assert abs(verdict.residual - 0.25) < 1e-15

    def test_nan_tolerance_decides_not_factorizable(self):
        verdict = factorization_test(JointTable(0.0, 0.5, 0.5, 0.0), tol=float("nan"))
        assert not verdict.factorizable
        assert verdict.factors is None

    def test_deterministic_unique_solution(self):
        verdict = factorization_test(JointTable(1.0, 0.0, 0.0, 0.0), tol=1e-9)
        assert verdict.factorizable
        f = verdict.factors
        assert (f.a, f.b, f.a_prime, f.b_prime) == (1.0, 1.0, 0.0, 0.0)

    def test_uniform_table(self):
        verdict = factorization_test(JointTable(0.25, 0.25, 0.25, 0.25), tol=1e-9)
        assert verdict.factorizable
        f = verdict.factors
        assert (f.a, f.b, f.a_prime, f.b_prime) == (0.5, 0.5, 0.5, 0.5)

    def test_agrees_with_lattice_oracle_sample(self):
        # small sample here; the full 10,000-table comparison runs in the
        # acceptance suite
        rng = random.Random(404)
        for i in range(400):
            table = (
                random_outer_product_table(rng) if i % 4 == 0 else random_table(rng)
            )
            ours = factorization_test(table, tol=1e-6).factorizable
            oracle = lattice_factorization_oracle(table.values, tol=1e-6)
            assert ours == oracle, table.values

    def test_outer_products_reconstruct(self):
        rng = random.Random(77)
        for _ in range(300):
            table = random_outer_product_table(rng)
            verdict = factorization_test(table, tol=1e-9)
            assert verdict.factorizable
            assert verdict.residual <= 1e-12
            f = verdict.factors
            rebuilt = (
                f.a * f.b,
                f.a * f.b_prime,
                f.a_prime * f.b,
                f.a_prime * f.b_prime,
            )
            assert max(abs(x - y) for x, y in zip(rebuilt, table.values)) <= 1e-9
            assert abs(f.a + f.a_prime - 1.0) <= 1e-12
            assert abs(f.b + f.b_prime - 1.0) <= 1e-12


class TestNormalize:
    def test_three_decimal_row_rescaled(self):
        t = normalize((0.778, 0.086, 0.086, 0.049), SettingPair.A_PRIME_B, tol=0.01)
        assert abs(sum(t.values) - 1.0) <= 1e-15

    def test_exact_row_unchanged(self):
        t = normalize((0.5, 0.5, 0.0, 0.0), tol=0.0)
        assert t.values == (0.5, 0.5, 0.0, 0.0)

    def test_sum_too_large(self):
        with pytest.raises(NotNormalizableError):
            normalize((0.5, 0.5, 0.5, 0.0), tol=0.01)

    def test_nan_tolerance_rejects(self):
        with pytest.raises(NotNormalizableError):
            normalize((0.1, 0.1, 0.1, 0.1), tol=float("nan"))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            normalize((-0.1, 0.6, 0.3, 0.2), tol=0.01)

    def test_wrong_arity(self):
        with pytest.raises(TableError):
            normalize((0.5, 0.5), tol=0.01)

    def test_non_finite_entry(self):
        with pytest.raises(TableError):
            normalize((float("nan"), 0.5, 0.25, 0.25), tol=0.01)
        with pytest.raises(TableError):
            normalize((float("inf"), 0.0, 0.0, 0.0), tol=0.01)


class TestExperiment:
    def test_requires_all_pairs(self):
        with pytest.raises(TableError):
            Experiment.from_tables({SettingPair.AB: JointTable(1, 0, 0, 0)})

    def test_tables_must_match_order(self):
        tables = [JointTable(0.25, 0.25, 0.25, 0.25, pair) for pair in PAIR_ORDER]
        tables[0], tables[1] = tables[1], tables[0]
        with pytest.raises(TableError):
            Experiment(tuple(tables))

    def test_list_input_is_stored_as_tuples(self):
        tables = [JointTable(0.25, 0.25, 0.25, 0.25, pair) for pair in PAIR_ORDER]
        from_list = Experiment(tables, sides=[["x", "x'"], ["y", "y'"]])
        from_tuple = Experiment(tuple(tables), sides=(("x", "x'"), ("y", "y'")))
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
        assert from_list.tables == from_tuple.tables and type(from_list.tables) is tuple
        assert from_list.sides == (("x", "x'"), ("y", "y'"))
        assert all(type(side) is tuple for side in from_list.sides)
