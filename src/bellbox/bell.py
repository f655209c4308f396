"""CHSH evaluation, bound constants, and experiment classification.

The classifier sorts an experiment into one of four classes according to
how strongly the CHSH inequality is violated and whether the marginal
distribution law holds:

* ``KOLMOGOROVIAN_COMPATIBLE`` - CHSH within the classical bound 2;
* ``NONLOCAL_BOX`` - violation at most the Tsirelson bound 2*sqrt(2),
  marginal law intact;
* ``NONLOCAL_NON_MARGINAL_BOX_1`` - violation at most 2*sqrt(2),
  marginal law broken;
* ``NONLOCAL_NON_MARGINAL_BOX_2`` - violation beyond 2*sqrt(2),
  marginal law broken.

A violation beyond the Tsirelson bound with intact marginals falls
outside these classes and raises :class:`AmbiguousClassError` rather
than guessing.

The CHSH sign convention is :data:`REFERENCE_SIGNS`, and
:func:`_reference_combination` is the one place it is applied: :func:`chsh`
takes an experiment's reference combination from it, and ``hilbert`` a
model's Bell value and each entry of the Bell operator.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from enum import Enum

from .tables import (
    CLASS_TOL,
    PAIR_ORDER,
    SettingPair,
    expectation_value,
    marginal_law_report,
)


Bounds = namedtuple("Bounds", "classical tsirelson algebraic")
Bounds.__doc__ = """The three CHSH reference bounds (dimensionless)."""

BOUNDS = Bounds(2.0, 2.0 * math.sqrt(2.0), 4.0)

#: Term order of the CHSH combination E(A',B') + E(A',B) + E(A,B') - E(A,B).
CHSH_TERM_ORDER = (
    SettingPair.A_PRIME_B_PRIME,
    SettingPair.A_PRIME_B,
    SettingPair.AB_PRIME,
    SettingPair.AB,
)

#: Signs of the reference combination (minus on AB): the one statement of
#: the CHSH sign convention.
REFERENCE_SIGNS: Mapping[SettingPair, int] = {
    SettingPair.A_PRIME_B_PRIME: +1,
    SettingPair.A_PRIME_B: +1,
    SettingPair.AB_PRIME: +1,
    SettingPair.AB: -1,
}


def _reference_combination(values: Mapping[SettingPair, complex]) -> complex:
    """E_A'B' + E_A'B + E_AB' - E_AB of per-pair values, with the signs of
    :data:`REFERENCE_SIGNS`, added left to right in :data:`CHSH_TERM_ORDER`
    from 0.0."""
    total = 0.0
    for pair in CHSH_TERM_ORDER:
        total = total + values[pair] if REFERENCE_SIGNS[pair] > 0 else total - values[pair]
    return total


class ZooClass(Enum):
    KOLMOGOROVIAN_COMPATIBLE = "KolmogorovianCompatible"
    NONLOCAL_BOX = "NonlocalBox"
    NONLOCAL_NON_MARGINAL_BOX_1 = "NonlocalNonMarginalBox1"
    NONLOCAL_NON_MARGINAL_BOX_2 = "NonlocalNonMarginalBox2"


class AmbiguousClassError(ValueError):
    """Raised when CHSH exceeds the Tsirelson bound while the marginal law
    holds: a configuration none of the named classes covers."""

    def __init__(self, chsh_max: float):
        self.chsh_max = chsh_max
        super().__init__(
            f"CHSH max {chsh_max:.6f} exceeds the Tsirelson bound while the "
            f"marginal law holds (tol={CLASS_TOL}); no named class applies"
        )


ChshResult = namedtuple(
    "ChshResult", "expectations reference_combination max_abs_over_variants variant_signs"
)
ChshResult.__doc__ = """CHSH value of an experiment.

``expectations`` maps each setting pair to its correlation E;
``reference_combination`` is E(A',B') + E(A',B) + E(A,B') - E(A,B);
``max_abs_over_variants`` is the largest absolute value over the eight
sign patterns that place a single minus on one term (up to a global
flip), with ``variant_signs`` the achieving pattern.
"""


#: Positions in PAIR_ORDER of the terms in CHSH_TERM_ORDER.
_TERM_POSITIONS = tuple(PAIR_ORDER.index(pair) for pair in CHSH_TERM_ORDER)

#: The sign patterns :func:`chsh` scores, over CHSH_TERM_ORDER, in the order
#: it scores them: the single minus sign cycles over the terms in PAIR_ORDER.
#: Each comes with its global flip.
_PATTERNS = tuple(
    (signs, tuple(-s for s in signs))
    for signs in (
        tuple(-1 if pair is minus_on else 1 for pair in CHSH_TERM_ORDER)
        for minus_on in PAIR_ORDER
    )
)


def chsh(experiment: Experiment) -> ChshResult:
    """CHSH value of ``experiment``.

    The reference combination is :func:`_reference_combination` of the
    expectations.  The single minus sign cycles over the four terms in
    ``PAIR_ORDER``.  A global sign flip never changes the absolute value,
    so each pattern is scored by |sum|.  Each sum adds its signed terms left
    to right, from 0.0.
    """
    tables = experiment.tables
    e0, e1, e2, e3 = terms = [expectation_value(tables[i]) for i in _TERM_POSITIONS]
    best_abs = -1.0
    best_signs: tuple[int, ...] = ()
    for signs, flipped in _PATTERNS:
        s0, s1, s2, s3 = signs
        total = 0.0 + s0 * e0 + s1 * e1 + s2 * e2 + s3 * e3
        if abs(total) > best_abs:
            best_abs = abs(total)
            # fold in the global flip so the pattern scores +|total|
            best_signs = flipped if total < 0 else signs
    expectations = dict(zip(CHSH_TERM_ORDER, terms))
    return ChshResult(
        expectations,
        _reference_combination(expectations),
        best_abs,
        dict(zip(CHSH_TERM_ORDER, best_signs)),
    )


def decide_class(chsh_max: float, marginals_hold: bool) -> ZooClass:
    """The Zoo class of a CHSH maximum and a marginal-law verdict.

    Raises :class:`AmbiguousClassError` for the unnamed corner (violation
    beyond Tsirelson with intact marginals).
    """
    if chsh_max <= BOUNDS.classical + CLASS_TOL:
        return ZooClass.KOLMOGOROVIAN_COMPATIBLE
    if marginals_hold:
        if chsh_max <= BOUNDS.tsirelson + CLASS_TOL:
            return ZooClass.NONLOCAL_BOX
        raise AmbiguousClassError(chsh_max)
    if chsh_max <= BOUNDS.tsirelson + CLASS_TOL:
        return ZooClass.NONLOCAL_NON_MARGINAL_BOX_1
    return ZooClass.NONLOCAL_NON_MARGINAL_BOX_2


def classify(experiment: Experiment) -> ZooClass:
    """Classify an experiment by CHSH strength and marginal-law status."""
    s = chsh(experiment).max_abs_over_variants
    return decide_class(s, marginal_law_report(experiment).holds)
