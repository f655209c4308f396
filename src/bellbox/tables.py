"""Joint probability tables for 2-setting / 2-outcome coincidence experiments.

A :class:`JointTable` holds the four outcome probabilities of one
coincidence measurement; an :class:`Experiment` bundles the four tables
belonging to the setting pairs AB, AB', A'B and A'B'.  The module also
provides expectation values, marginals, the marginal-distribution-law
(no-signaling) check and a factorizability test.

One admission rule: the :class:`JointTable` constructor admits entries in
[0, 1] (within :data:`ENTRY_EPS`) that sum to 1 within ``_SUM_TOL``.  Rounded
rows go through :func:`normalize`, which checks each raw value once, sums
once and rescales; the table it builds meets the rule by construction, so
it is made with ``JointTable._make`` and not checked again.  Sums add left
to right from 0.0, as the builtin ``sum`` does up to Python 3.11 (it is
compensated from 3.12 on).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from enum import Enum

from ._value import Value
from .linalg import _numbers, _shown

# Every tolerance behind a verdict (those of one built-in dataset are in models).
#: Normalization: how far a raw table's sum may miss 1 (rounded tables).
DEFAULT_NORM_TOL = 0.01
#: Zoo class: CHSH against 2 and 2*sqrt(2), and the marginal law.
CLASS_TOL = 1e-6
#: Machine precision: factorizability, unit/orthonormal vectors, products, exact models.
EXACT_TOL = 1e-9
#: Float noise: slack on an entry's [0, 1] range; a sum this near 1 is exact.
ENTRY_EPS = 1e-12
#: Table admission: how far a table's sum may miss 1.  A Born table of a state
#: whose norm is 1 within EXACT_TOL, in a basis orthonormal within EXACT_TOL,
#: misses by at most about 6 * EXACT_TOL (the Gram matrix is within 4 *
#: EXACT_TOL of the identity, by Gershgorin).
_SUM_TOL = 8 * EXACT_TOL


class TableError(ValueError):
    """Base class for probability-table construction errors."""


class NegativeEntryError(TableError):
    pass


class NotNormalizableError(TableError):
    pass


#: The attributes a :class:`SettingPair` member computes once.
_DERIVED = frozenset(("label", "first", "second", "outcome_labels"))


class SettingPair(Enum):
    """One of the four setting combinations of a CHSH-type experiment.

    Each member carries, read-only: ``label`` (its value, as in ``A'B``),
    ``first`` and ``second`` (the settings A or A' and B or B') and
    ``outcome_labels`` (the cell labels in table order 11, 12, 21, 22, as in
    ``A'1B2``).  They are computed once, when the member is made.
    """

    AB = "AB"
    AB_PRIME = "AB'"
    A_PRIME_B = "A'B"
    A_PRIME_B_PRIME = "A'B'"

    label: str
    first: str
    second: str
    outcome_labels: tuple[str, str, str, str]

    def __init__(self, label: str) -> None:
        split = label.index("B")
        first, second = label[:split], label[split:]
        vars(self).update(
            label=label,
            first=first,
            second=second,
            outcome_labels=tuple(
                f"{first}{i}{second}{j}" for i, j in ((1, 1), (1, 2), (2, 1), (2, 2))
            ),
        )

    def __setattr__(self, name: str, value: object) -> None:
        if name in _DERIVED:
            raise AttributeError(f"cannot assign to {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if name in _DERIVED:
            raise AttributeError(f"cannot delete {name!r}")
        super().__delattr__(name)

    # members are singletons and compare by identity
    __hash__ = object.__hash__

    @classmethod
    def from_label(cls, text: str) -> "SettingPair":
        for pair in cls:
            if pair.value == text:
                return pair
        raise ValueError(f"unknown setting pair {text!r}")


#: Display order for the four tables of an experiment.
PAIR_ORDER = (
    SettingPair.AB,
    SettingPair.AB_PRIME,
    SettingPair.A_PRIME_B,
    SettingPair.A_PRIME_B_PRIME,
)

#: Position of each setting pair in :data:`PAIR_ORDER`.
_POSITION = {pair: i for i, pair in enumerate(PAIR_ORDER)}

#: Default side labels: settings A/A' on the first side, B/B' on the second.
DEFAULT_SIDES = (("A", "A'"), ("B", "B'"))


class JointTable(Value):
    """The 2x2 joint outcome probabilities of one coincidence measurement.

    Cell order is (11, 12, 21, 22): first index for the first side's
    outcome, second for the second side's.  Entries must be probabilities
    summing to 1 within a few :data:`EXACT_TOL` (build via :func:`normalize`
    to rescale rounded or raw values to an exact sum), and ``pair`` a
    :class:`SettingPair`; a :class:`TableError` names the pair or the cell.
    """

    _fields = ("p11", "p12", "p21", "p22", "pair")

    def __init__(
        self,
        p11: float,
        p12: float,
        p21: float,
        p22: float,
        pair: SettingPair = SettingPair.AB,
    ) -> None:
        if not isinstance(pair, SettingPair):
            raise TableError(f"pair must be a SettingPair, got {pair!r}")
        total = 0.0
        try:
            for label, value in zip(pair.outcome_labels, (p11, p12, p21, p22)):
                if not (-ENTRY_EPS <= value <= 1.0 + ENTRY_EPS):
                    raise TableError(f"entry {label} = {value!r} is not a probability")
                total = total + value
        except TypeError:  # the entry does not compare with, or add to, a float
            raise TableError(f"entry {label} = {value!r} is not a probability") from None
        if not abs(total - 1.0) <= _SUM_TOL:
            raise NotNormalizableError(
                f"table {pair.label} sums to {total!r}, too far from 1"
            )
        vars(self).update(p11=p11, p12=p12, p21=p21, p22=p22, pair=pair)

    @property
    def values(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p12, self.p21, self.p22)


def normalize(
    values: Sequence[float],
    pair: SettingPair = SettingPair.AB,
    tol: float = DEFAULT_NORM_TOL,
) -> JointTable:
    """Build a :class:`JointTable` from raw probabilities, rescaling to sum 1.

    Sums already within :data:`ENTRY_EPS` of 1 are taken as exact:
    rescaling by such a factor is a floating-point no-op that would only
    break bitwise file round-trips.

    Raises :class:`NegativeEntryError` for negative entries and
    :class:`NotNormalizableError` when the raw sum misses 1 by more than
    ``tol`` (always when ``tol`` is NaN), or is 0 or overflows, which only a
    ``tol`` of 1 or more lets through.  A ``pair`` that is not a
    :class:`SettingPair` raises a :class:`TableError`, as in the constructor,
    and so do ``values`` that are not four numbers by ``linalg._numbers``,
    converted with ``float``: decimal strings, and byte strings that hold
    one, are entries.
    """
    if not isinstance(pair, SettingPair):
        raise TableError(f"pair must be a SettingPair, got {pair!r}")
    vals = _numbers(values, float)
    if vals is None:
        raise TableError(f"values: expected 4 probabilities, got {_shown(values)}")
    p11, p12, p21, p22 = vals
    inf = math.inf
    if not (0.0 <= p11 < inf and 0.0 <= p12 < inf and 0.0 <= p21 < inf and 0.0 <= p22 < inf):
        for label, value in zip(pair.outcome_labels, vals):
            if not 0.0 <= value < inf:
                if math.isfinite(value):
                    raise NegativeEntryError(f"entry {label} = {value!r} is negative")
                raise TableError(f"entry {label} = {value!r} is not finite")
    total = 0.0 + p11 + p12 + p21 + p22
    if not abs(total - 1.0) <= tol:
        raise NotNormalizableError(
            f"table {pair.label} sums to {total!r}; |sum - 1| exceeds tol={tol}"
        )
    if not 0.0 < total < inf:
        raise NotNormalizableError(f"table {pair.label} sums to {total!r}; it cannot be rescaled")
    if abs(total - 1.0) > ENTRY_EPS:
        p11, p12, p21, p22 = p11 / total, p12 / total, p21 / total, p22 / total
    # each entry is at most the sum, so the entries are in [0, 1], and they sum
    # to 1 within ENTRY_EPS or, rescaled, within a few ulps
    return JointTable._make(p11=p11, p12=p12, p21=p21, p22=p22, pair=pair)


def _check_side(side: str, labels: object) -> None:
    """Raise :class:`TableError` naming ``sides.<side>`` unless ``labels``
    are two distinct strings in a list or tuple."""
    if not (
        isinstance(labels, (list, tuple))
        and len(labels) == 2
        and isinstance(labels[0], str)
        and isinstance(labels[1], str)
    ):
        raise TableError(f"sides.{side}: expected two string labels: {labels!r}")
    if labels[0] == labels[1]:
        raise TableError(f"sides.{side}: repeated label {labels[0]!r}")


class Experiment(Value):
    """Four :class:`JointTable` values, one per setting pair in
    :data:`PAIR_ORDER`, plus two sides of two distinct string labels each;
    both are stored as tuples, whatever sequences they came in."""

    _fields = ("tables", "sides")

    def __init__(
        self,
        tables: Sequence[JointTable],
        sides: Sequence[Sequence[str]] = DEFAULT_SIDES,
    ) -> None:
        tables = tuple(tables)
        if not all(isinstance(t, JointTable) for t in tables):
            raise TableError(f"tables: expected JointTables, got {tables!r}")
        pairs = tuple(t.pair for t in tables)
        if pairs != PAIR_ORDER:
            raise TableError(
                f"tables must appear in order {[p.label for p in PAIR_ORDER]}, "
                f"got {[p.label for p in pairs]}"
            )
        sides = tuple(sides)
        if len(sides) != 2:
            raise TableError(f"sides: expected two sides, got {len(sides)}")
        _check_side("first", sides[0])
        _check_side("second", sides[1])
        vars(self).update(tables=tables, sides=(tuple(sides[0]), tuple(sides[1])))

    @classmethod
    def from_tables(
        cls,
        tables: Mapping[SettingPair, JointTable],
        sides: tuple[tuple[str, str], tuple[str, str]] = DEFAULT_SIDES,
    ) -> "Experiment":
        missing = [p.label for p in PAIR_ORDER if p not in tables]
        if missing:
            raise TableError(f"missing tables for setting pairs: {missing}")
        return cls(tuple(tables[p] for p in PAIR_ORDER), sides)

    def table(self, pair: SettingPair) -> JointTable:
        try:
            return self.tables[_POSITION[pair]]
        except KeyError:
            raise ValueError(f"{pair!r} is not a setting pair") from None


def expectation_value(table: JointTable) -> float:
    """Correlation E = p11 - p12 - p21 + p22 for +-1 outcome values."""
    return table.p11 - table.p12 - table.p21 + table.p22


def marginals(table: JointTable) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-side outcome marginals: ((first1, first2), (second1, second2))."""
    first = (table.p11 + table.p12, table.p21 + table.p22)
    second = (table.p11 + table.p21, table.p12 + table.p22)
    return first, second


MarginalComparison = namedtuple(
    "MarginalComparison", "side setting pairs marginal_a marginal_b differences holds"
)
MarginalComparison.__doc__ = """One side's marginal under a fixed setting, compared across the two
tables that share that setting; ``side`` is ``"first"`` or ``"second"`` and
``setting`` that side's label, e.g. ``A'``."""

MarginalLawReport = namedtuple("MarginalLawReport", "comparisons tol holds")


#: The marginal-law comparisons: side, its index, the setting's index on
#: that side, and the positions in PAIR_ORDER of the two tables sharing it.
_MARGINAL_PLAN = (
    ("first", 0, 0, 0, 1),
    ("first", 0, 1, 2, 3),
    ("second", 1, 0, 0, 2),
    ("second", 1, 1, 1, 3),
)


def marginal_law_report(experiment: Experiment, tol: float = CLASS_TOL) -> MarginalLawReport:
    """Check the marginal distribution law (no-signaling) on all four settings.

    For each side and each of that side's settings, the marginal computed
    from the two tables sharing the setting must agree within ``tol``.
    """
    tables = experiment.tables
    sides = experiment.sides
    both = [marginals(t) for t in tables]
    comparisons = []
    holds = True
    for side, idx, which, a, b in _MARGINAL_PLAN:
        ma = both[a][idx]
        mb = both[b][idx]
        diffs = (abs(ma[0] - mb[0]), abs(ma[1] - mb[1]))
        ok = max(diffs) <= tol
        holds = holds and ok
        comparisons.append(
            MarginalComparison(
                side, sides[idx][which], (PAIR_ORDER[a], PAIR_ORDER[b]), ma, mb, diffs, ok
            )
        )
    return MarginalLawReport(tuple(comparisons), tol, holds)


Factors = namedtuple("Factors", "a b a_prime b_prime")
Factors.__doc__ = """Normalized one-sided probabilities with a + a' = 1 and b + b' = 1."""

FactorizationVerdict = namedtuple("FactorizationVerdict", "factorizable factors residual")


def factorization_test(table: JointTable, tol: float = EXACT_TOL) -> FactorizationVerdict:
    """Decide whether the table is an outer product of one-sided probabilities.

    A normalized nonnegative 2x2 table factorizes as (a, a') x (b, b')
    exactly when its determinant p11*p22 - p12*p21 vanishes; the residual
    reported is the absolute determinant.  When factorizable, the unique
    normalized representative (a + a' = 1, b + b' = 1) is returned, read
    off the marginals.
    """
    det = table.p11 * table.p22 - table.p12 * table.p21
    residual = abs(det)
    if not residual <= tol:  # a NaN tolerance decides "not factorizable"
        return FactorizationVerdict(False, None, residual)
    (a, a_prime), (b, b_prime) = marginals(table)
    return FactorizationVerdict(True, Factors(a, b, a_prime, b_prime), residual)

