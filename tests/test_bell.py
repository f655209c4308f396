import math
import random

import pytest
from hypothesis import given, strategies as st

from bellbox.bell import (
    AmbiguousClassError,
    BOUNDS,
    Bounds,
    ZooClass,
    chsh,
    classify,
)
from bellbox.tables import (
    Experiment,
    JointTable,
    PAIR_ORDER,
    SettingPair,
    expectation_value,
)
from bellbox.models import animal_acts_data, vessels_data, vessels_separated_data

from oracles import fine_joint_distribution_exists, outer_product_table, random_table, swap_sides

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def experiment_from_values(values_by_pair):
    return Experiment.from_tables(
        {pair: JointTable(*values_by_pair[pair.label], pair=pair) for pair in PAIR_ORDER}
    )


def correlated_table(e: float, pair: SettingPair) -> JointTable:
    """Table with correlation e and uniform one-sided marginals."""
    same = (1.0 + e) / 4.0
    diff = (1.0 - e) / 4.0
    return JointTable(same, diff, diff, same, pair)


def product_experiment(a: float, a2: float, b: float, b2: float) -> Experiment:
    """All four tables from setting-local one-sided marginals."""
    firsts = {"A": (a, 1 - a), "A'": (a2, 1 - a2)}
    seconds = {"B": (b, 1 - b), "B'": (b2, 1 - b2)}
    return Experiment.from_tables(
        {
            pair: outer_product_table(firsts[pair.first], seconds[pair.second], pair)
            for pair in PAIR_ORDER
        }
    )


def no_signaling_mixture(rng: random.Random) -> Experiment:
    """Random mixture of a Popescu-Rohrlich box (anti-correlated on one pair,
    perfectly correlated on the other three), one to three local
    deterministic boxes and white noise; every component has intact
    marginals, so the mixture does too."""
    minus_on = rng.choice(PAIR_ORDER)
    nonlocal_box = {
        p: (0.0, 0.5, 0.5, 0.0) if p is minus_on else (0.5, 0.0, 0.0, 0.5)
        for p in PAIR_ORDER
    }
    noise = {p: (0.25,) * 4 for p in PAIR_ORDER}
    components = [nonlocal_box, noise]
    for _ in range(rng.randint(1, 3)):
        outcome = {s: rng.randrange(2) for s in ("A", "A'", "B", "B'")}
        components.append({
            p: tuple(
                float(divmod(k, 2) == (outcome[p.first], outcome[p.second]))
                for k in range(4)
            )
            for p in PAIR_ORDER
        })
    raw = [rng.random() for _ in components]
    raw[0] *= rng.choice((0.0, 1.0, 4.0, 16.0))  # spread the nonlocal box's weight
    weights = [w / sum(raw) for w in raw]
    return Experiment.from_tables({
        p: JointTable(
            *(sum(w * c[p][k] for w, c in zip(weights, components)) for k in range(4)),
            pair=p,
        )
        for p in PAIR_ORDER
    })


class TestBounds:
    def test_constants(self):
        assert BOUNDS.classical == 2.0
        assert abs(BOUNDS.tsirelson - 2.0 * math.sqrt(2.0)) < 1e-15
        assert BOUNDS.algebraic == 4.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Bounds(classical=3.0, tsirelson=2.5, algebraic=4.0)


class TestChsh:
    def test_survey_value(self):
        result = chsh(animal_acts_data().experiment)
        assert abs(result.reference_combination - 2.4197) <= 2e-3
        assert result.max_abs_over_variants >= abs(result.reference_combination)

    def test_vessels_reach_algebraic_maximum(self):
        result = chsh(vessels_data().experiment)
        assert result.reference_combination == 4.0
        assert result.max_abs_over_variants == 4.0
        assert result.variant_signs[SettingPair.AB] == -1

    def test_uncorrelated_uniform(self):
        e = Experiment(
            tuple(JointTable(0.25, 0.25, 0.25, 0.25, pair) for pair in PAIR_ORDER)
        )
        result = chsh(e)
        assert result.reference_combination == 0.0
        assert result.max_abs_over_variants == 0.0

    def test_max_variant_picks_the_odd_term_out(self):
        # E(A,B') = -0.9 and the rest +0.9: the best pattern puts the
        # minus on AB', not on the reference position AB
        values = {
            "AB": correlated_table(0.9, SettingPair.AB).values,
            "AB'": correlated_table(-0.9, SettingPair.AB_PRIME).values,
            "A'B": correlated_table(0.9, SettingPair.A_PRIME_B).values,
            "A'B'": correlated_table(0.9, SettingPair.A_PRIME_B_PRIME).values,
        }
        result = chsh(experiment_from_values(values))
        # reference combination: 0.9 + 0.9 - 0.9 - 0.9
        assert abs(result.reference_combination) < 1e-12
        assert abs(result.max_abs_over_variants - 3.6) < 1e-12
        assert result.variant_signs[SettingPair.AB_PRIME] == -1
        assert result.variant_signs[SettingPair.AB] == 1

    def test_global_sign_folded_into_pattern(self):
        # all four correlations negative: every single-minus sum is
        # negative, so the reported pattern carries the global flip
        values = {
            pair.label: correlated_table(-0.5, pair).values for pair in PAIR_ORDER
        }
        result = chsh(experiment_from_values(values))
        signs = result.variant_signs
        total = sum(
            signs[pair] * (-0.5) for pair in PAIR_ORDER
        )
        assert abs(total - result.max_abs_over_variants) < 1e-12

    @given(unit, unit, unit, unit)
    def test_product_data_within_classical_bound(self, a, a2, b, b2):
        result = chsh(product_experiment(a, a2, b, b2))
        assert result.max_abs_over_variants <= 2.0 + 1e-9

    def test_carries_the_expectation_values(self):
        e = animal_acts_data().experiment
        expected = {p: expectation_value(e.table(p)) for p in PAIR_ORDER}
        assert chsh(e).expectations == expected

    def test_always_below_algebraic_bound(self):
        rng = random.Random(5150)
        for _ in range(200):
            e = Experiment(tuple(random_table(rng, pair) for pair in PAIR_ORDER))
            assert chsh(e).max_abs_over_variants <= 4.0 + 1e-12


class TestClassify:
    def test_survey_data(self):
        assert (
            classify(animal_acts_data().experiment)
            is ZooClass.NONLOCAL_NON_MARGINAL_BOX_1
        )

    def test_vessels(self):
        assert classify(vessels_data().experiment) is ZooClass.NONLOCAL_NON_MARGINAL_BOX_2

    def test_vessels_without_tube(self):
        assert (
            classify(vessels_separated_data().experiment)
            is ZooClass.KOLMOGOROVIAN_COMPATIBLE
        )

    def test_moderate_violation_with_intact_marginals(self):
        # correlations (+.8, +.8, +.8, -.8) with uniform marginals:
        # CHSH 3.2 > 2sqrt2 would be ambiguous, so use .65: CHSH 2.6
        values = {
            "AB": correlated_table(-0.65, SettingPair.AB).values,
            "AB'": correlated_table(0.65, SettingPair.AB_PRIME).values,
            "A'B": correlated_table(0.65, SettingPair.A_PRIME_B).values,
            "A'B'": correlated_table(0.65, SettingPair.A_PRIME_B_PRIME).values,
        }
        assert classify(experiment_from_values(values)) is ZooClass.NONLOCAL_BOX

    def test_extremal_box_with_intact_marginals_is_flagged(self):
        # the extremal no-signaling box: CHSH 4 yet marginals uniform;
        # outside the named classes, so it must raise instead of guess
        values = {
            "AB": (0.0, 0.5, 0.5, 0.0),
            "AB'": (0.5, 0.0, 0.0, 0.5),
            "A'B": (0.5, 0.0, 0.0, 0.5),
            "A'B'": (0.5, 0.0, 0.0, 0.5),
        }
        with pytest.raises(AmbiguousClassError):
            classify(experiment_from_values(values))

    def test_invariant_under_side_relabeling(self):
        rng = random.Random(900)
        fixtures = [
            animal_acts_data().experiment,
            vessels_data().experiment,
            vessels_separated_data().experiment,
        ]
        for _ in range(50):
            fixtures.append(
                Experiment(tuple(random_table(rng, pair) for pair in PAIR_ORDER))
            )
        for e in fixtures:
            try:
                direct = classify(e)
            except AmbiguousClassError:
                with pytest.raises(AmbiguousClassError):
                    classify(swap_sides(e))
                continue
            assert classify(swap_sides(e)) is direct

    def test_kolmogorovian_exactly_when_fine_joint_distribution_exists(self):
        # Fine's theorem: with intact marginals, a joint distribution over
        # the deterministic assignments exists exactly when no CHSH
        # variant exceeds 2
        rng = random.Random(1982)
        verdicts = []
        for _ in range(300):
            e = no_signaling_mixture(rng)
            if abs(chsh(e).max_abs_over_variants - 2.0) < 1e-4:
                continue
            try:
                kolmogorovian = classify(e) is ZooClass.KOLMOGOROVIAN_COMPATIBLE
            except AmbiguousClassError:
                kolmogorovian = False
            exists = fine_joint_distribution_exists(e)
            assert kolmogorovian == exists, [t.values for t in e.tables]
            verdicts.append(exists)
        assert 50 <= verdicts.count(True) and 50 <= verdicts.count(False)
