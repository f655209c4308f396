"""The 128 relabellings of the CHSH scenario as an oracle for the data
verdicts.

A relabelling renames the outcomes of a setting, the two settings of a
side, or the two parties (``tests/oracles.py`` ``relabel``).  It changes no
fact about a box, so the Zoo class and the marginal-law verdict stay as
they are, each table's factorizability moves with its table, and the CHSH
maximum agrees up to the rounding of its sums, which run in another order.
The boxes are the three built-in datasets, with the classes the paper
gives them, and seeded boxes of all four classes and of the unresolved
extremal box.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bellbox.bell import BOUNDS, AmbiguousClassError, ZooClass, chsh, classify
from bellbox.models import get_fixture
from bellbox.tables import PAIR_ORDER, Experiment, factorization_test, marginal_law_report, normalize

from oracles import BOX_FAMILIES, RELABELLINGS, box_rows, relabel, relabel_source

#: The class of each built-in dataset, as the paper gives it.
BUILT_IN_CLASSES = {
    "animal-acts": ZooClass.NONLOCAL_NON_MARGINAL_BOX_1,
    "vessels": ZooClass.NONLOCAL_NON_MARGINAL_BOX_2,
    "vessels-separated": ZooClass.KOLMOGOROVIAN_COMPATIBLE,
}

#: How far a relabelled box's CHSH maximum may move: its four expectations
#: add the same cells in another order, a few roundings of values up to 4.
CHSH_SLACK = 4 * math.ulp(BOUNDS.algebraic)


def _class(experiment):
    try:
        return classify(experiment)
    except AmbiguousClassError:
        return None


def _verdicts(experiment):
    return (
        _class(experiment),
        marginal_law_report(experiment).holds,
        {pair: factorization_test(experiment.table(pair)) for pair in PAIR_ORDER},
        chsh(experiment).max_abs_over_variants,
    )


def _seeded_box(family: str, seed: int) -> Experiment:
    rows = box_rows(random.Random(f"relabel/{family}/{seed}"), family)
    return Experiment([normalize(rows[pair], pair) for pair in PAIR_ORDER])


def _assert_invariant(experiment: Experiment, zoo_class) -> None:
    found, holds, factorization, chsh_max = _verdicts(experiment)
    assert found is zoo_class
    for element in RELABELLINGS:
        relabelled = relabel(experiment, element)
        found_r, holds_r, factorization_r, chsh_max_r = _verdicts(relabelled)
        assert found_r is zoo_class, element
        assert holds_r is holds, element
        for pair, source in relabel_source(element).items():
            assert factorization_r[pair].factorizable is factorization[source].factorizable
            assert factorization_r[pair].residual == factorization[source].residual, element
        assert abs(chsh_max_r - chsh_max) <= CHSH_SLACK, element


def test_relabellings_are_the_scenario_group():
    assert len(set(RELABELLINGS)) == 128
    box = _seeded_box("signalling-quantum", 0)
    images = {relabel(box, element) for element in RELABELLINGS}
    assert len(images) == 128
    # the party swap twice, and a setting swap twice, is the identity
    for element in ((False,) * 6 + (True,), (False,) * 4 + (True, False, False)):
        assert relabel(relabel(box, element), element) == box


@pytest.mark.parametrize("name", sorted(BUILT_IN_CLASSES))
def test_built_in_verdicts_survive_every_relabelling(name):
    _assert_invariant(get_fixture(name).experiment, BUILT_IN_CLASSES[name])


boxes = st.one_of(
    st.sampled_from(sorted(BUILT_IN_CLASSES)).map(
        lambda name: (get_fixture(name).experiment, BUILT_IN_CLASSES[name])
    ),
    st.tuples(st.sampled_from(sorted(BOX_FAMILIES)), st.integers(0, 2**32)).map(
        lambda box: (_seeded_box(*box), BOX_FAMILIES[box[0]])
    ),
)


@settings(max_examples=60, deadline=None)
@given(boxes)
def test_verdicts_survive_every_relabelling(box):
    experiment, zoo_class = box
    _assert_invariant(experiment, zoo_class)
