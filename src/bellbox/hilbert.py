"""Hilbert-space layer: states, labeled measurements, operators, Born
probabilities, the Bell operator, and product/entanglement detection.

Entanglement is decided relative to an explicit identification of C^4
with C^2 (x) C^2: an :class:`Isomorphism` assigns each coordinate index a
cell of a 2x2 array.  A vector is a product vector when its reshaped 2x2
array has rank one (vanishing determinant), and an operator is a product
operator when its realignment has rank one.  Where the entanglement of a
construction sits can change with the isomorphism, which is why it is an
argument everywhere rather than a global convention.

A determinant modulus |v[k00] v[k11] - v[k01] v[k10]| depends on the
isomorphism only through its pairing {{k00, k11}, {k01, k10}}: complex
products and IEEE sums commute, and |x - y| = |y - x|, so the 24
isomorphisms form 3 pairing classes of 8 that give the same moduli bit for
bit.  The modulus is written once, in :func:`_det_modulus`, which
:func:`is_product_vector`, :func:`schmidt_coefficients` and
:func:`is_entangled_measurement` call.  Within a class, the realignments
of an operator are transposes and row and column permutations of one
another, with the same 2x2 minors, so a :class:`Construction` computes its
entanglement flags, at any tolerance, once per class.

The two shipped isomorphisms cannot show such a change.
:data:`SWAPPED_ISO` only exchanges the two tensor factors: it reshapes
every vector into the transpose of its :data:`CANONICAL_ISO` array and
realigns every operator into the transpose of its canonical realignment.
A transpose has the same determinant and the same 2x2 minors, bit for bit,
so every state, measurement and operator flag is the same under both, and
the two are in one pairing class.

Validation happens once, where a value is built: amplitudes and entries in
``linalg``, the unit norm in :class:`StateVector`, the setting pair, the
four final states and outcomes and their orthonormality in
:class:`Measurement`, and a construction in :class:`Construction`, which
``models.NamedModel`` extends and :func:`verify_model` builds: a
:class:`StateVector`, and exactly one of measurements and operators, a
mapping with one entry per setting pair, filed under it.  The kernels
check only that ``iso`` is an :class:`Isomorphism` (and :func:`realign`
that ``m`` is a :class:`CMatrix`), trust the values they are given, and
compute from the tuples those values hold, building no value that is only
read again.  Each evaluates its sums in a fixed order with explicit loops,
never with ``sum``, and gives the same floats, bit for bit, as the
straightforward forms kept in ``tests/oracles.py``.  Measurements are
immutable and may be shared: ``models`` builds each canonical-basis
measurement once, and every vessel model reuses it.  Each
:class:`Isomorphism` makes its realignment map once, which :func:`realign`
and :func:`is_product_operator` read.

A :class:`Construction` owns its check, its predictions and its
verification, and predicts when it is built: the loop that checks each
setting pair's entry also computes its prediction.  One given by its
measurements is predicted from their Born tables alone, as tuples.  Its
Bell value is the CHSH combination of the expectations sum x_k p_k
(``bell._reference_combination``, which also builds each entry of
:func:`bell_operator`), which equals <s|B|s> by linearity, and its
Hermiticity residuals are 0.0: an operator in spectral form with real
outcomes is Hermitian bit for bit, since entries (i, j) and (j, i) add the
same products, conjugated.  So no operator matrix is built to verify it;
:attr:`Measurement.operator` builds one on request.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property

from ._value import Value
from .linalg import (
    DIM,
    CMatrix,
    CVector,
    _numbers,
    _real,
    _shown,
    hermiticity_residual,
    quadratic_form,
)
from .bell import _reference_combination
from .tables import (
    EXACT_TOL, PAIR_ORDER, Experiment, JointTable, SettingPair, expectation_value
)

#: Conventional outcome values for a coincidence measurement: +1 on the
#: "same outcome" cells 11/22, -1 on the "opposite" cells 12/21.
COINCIDENCE_OUTCOMES = (1.0, -1.0, -1.0, 1.0)


class Isomorphism(Value):
    """Assignment of each C^4 coordinate to a cell of a 2x2 array; the cells,
    and each cell, are stored as tuples, whatever sequences they came in.
    Cells that are not a bijection onto {0,1}^2, or that do not convert or
    compare, raise a :class:`ValueError` naming ``cells``.  What the kernels
    read of them (the determinant's coordinates, the pairing class and the
    realignment map) is derived once, here; equality and hashing ignore it."""

    _fields = ("name", "cells")

    def __init__(
        self,
        name: str,
        cells: tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]],
    ) -> None:
        try:
            cells = tuple([tuple(cell) for cell in cells])
            bijection = sorted(cells) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        except (TypeError, ValueError):
            bijection = False
        if not bijection:
            raise ValueError(f"cells must be a bijection onto {{0,1}}^2: {cells}")
        # the coordinates in cells 00, 11, 01, 10: the determinant of a
        # vector's reshaped array is v[k00] v[k11] - v[k01] v[k10]
        k00, k11, k01, k10 = (cells.index(c) for c in ((0, 0), (1, 1), (0, 1), (1, 0)))
        # the realignment map: entry (r, c) of R[(i,i'),(j,j')] = M[(i,j),(i',j')]
        # is M[k][l], with k in cell (r // 2, c // 2) and l in cell (r % 2, c % 2)
        at = {cell: k for k, cell in enumerate(cells)}
        realignment = tuple([
            tuple([(at[r // 2, c // 2], at[r % 2, c % 2]) for c in range(DIM)]) for r in range(DIM)
        ])
        # _pairing: the pairing class, named by the coordinate that shares a
        # diagonal with coordinate 0 (1, 2 or 3)
        vars(self).update(
            name=name, cells=cells, _det_indices=(k00, k11, k01, k10),
            _pairing={k00: k11, k11: k00, k01: k10, k10: k01}[0], _realignment=realignment,
        )


#: Index k goes to cell (k // 2, k % 2).
CANONICAL_ISO = Isomorphism("canonical", ((0, 0), (0, 1), (1, 0), (1, 1)))

#: Same with the off-diagonal cells exchanged (indices 1 and 2 swap roles).
SWAPPED_ISO = Isomorphism("swapped", ((0, 0), (1, 0), (0, 1), (1, 1)))

ISOMORPHISMS = {iso.name: iso for iso in (CANONICAL_ISO, SWAPPED_ISO)}


class StateVector(Value):
    """A unit vector in C^4 (norm 1 within :data:`tables.EXACT_TOL`)."""

    _fields = ("vector",)

    def __init__(self, vector: CVector) -> None:
        if not isinstance(vector, CVector):
            raise ValueError(f"vector must be a CVector, got {vector!r}")
        n = vector.norm()
        if abs(n - 1.0) > EXACT_TOL:
            raise ValueError(f"state norm {n!r} is not 1 within {EXACT_TOL}")
        vars(self)["vector"] = vector

    @classmethod
    def of(cls, amplitudes: Sequence[object], normalize: bool = False) -> "StateVector":
        vec = CVector(amplitudes)
        if normalize:
            vec = vec.normalized()
        return cls(vec)


def _vec(v: CVector | StateVector) -> CVector:
    return v.vector if isinstance(v, StateVector) else v


class Measurement(Value):
    """Four orthonormal final states with their outcome values.

    Final states are kept in table cell order (11, 12, 21, 22) for the
    measurement's setting pair, whose outcome labels name them; the
    operator representation is recovered from the spectral form when
    needed, never the other way round (the operators can have degenerate
    spectra).

    Everything is validated here, once: a :class:`tables.SettingPair`;
    exactly four :class:`CVector` final states, orthonormal within
    :data:`tables.EXACT_TOL`; four finite outcomes, four numbers by
    ``linalg._numbers`` converted with ``linalg._real`` (no text entries).
    Each field is stored as a tuple (outcomes as ``float``), so a
    measurement built from lists equals and hashes like one built from
    tuples, and each rejection is a :class:`ValueError` that names its
    field.  The measurement is immutable, so :attr:`operator` is built on
    first use and kept (equality and hashing ignore it), and one
    measurement can be shared by any number of models (``models`` builds
    each canonical-basis measurement once); it keeps nothing else filled on
    use.  Orthonormality does not depend on the order of the final states,
    so :meth:`_reordered` derives another ordering of a checked basis
    without a second Gram check; every public construction runs the full
    check.
    """

    _fields = ("pair", "final_states", "outcomes")

    def __init__(
        self,
        pair: SettingPair,
        final_states: Sequence[CVector],
        outcomes: Sequence[float] = COINCIDENCE_OUTCOMES,
    ) -> None:
        if not isinstance(pair, SettingPair):
            raise ValueError(f"pair must be a SettingPair, got {pair!r}")
        final_states = tuple(final_states)
        if len(final_states) != 4 or not all(isinstance(f, CVector) for f in final_states):
            raise ValueError(f"final_states must be 4 CVectors, got {final_states!r}")
        values = _numbers(outcomes, _real)
        if values is None or not all(map(math.isfinite, values)):
            raise ValueError(f"outcomes must be 4 finite real numbers, got {_shown(outcomes)}")
        amplitudes = [f.amplitudes for f in final_states]
        conjugates = tuple([tuple([z.conjugate() for z in a]) for a in amplitudes])
        for i in range(4):
            c0, c1, c2, c3 = conjugates[i]
            for j in range(i, 4):
                a0, a1, a2, a3 = amplitudes[j]
                # |<i|j>|, with the additions of linalg.inner in its order
                overlap = abs(0j + c0 * a0 + c1 * a1 + c2 * a2 + c3 * a3)
                want = 1.0 if i == j else 0.0
                if abs(overlap - want) > EXACT_TOL:
                    labels = pair.outcome_labels
                    raise ValueError(
                        f"final states {labels[i]},{labels[j]} are not "
                        f"orthonormal: |<i|j>| = {overlap!r}"
                    )
        # _conjugates: the conjugated final-state amplitudes, for the Born
        # rule and the spectral form
        vars(self).update(
            pair=pair, final_states=final_states, outcomes=values, _conjugates=conjugates
        )

    def _reordered(self, pair: SettingPair, order: tuple[int, int, int, int]) -> Measurement:
        """``Measurement(pair, [self.final_states[i] for i in order],
        self.outcomes)`` without its checks: ``pair`` must be a
        :class:`tables.SettingPair` and ``order`` a permutation of 0..3."""
        return Measurement._make(
            pair=pair,
            final_states=tuple([self.final_states[i] for i in order]),
            outcomes=self.outcomes,
            _conjugates=tuple([self._conjugates[i] for i in order]),
        )

    @cached_property
    def operator(self) -> CMatrix:
        """See :func:`operator_from_measurement`."""
        return operator_from_measurement(self)


def _born_probabilities(amplitudes: tuple, measurement: Measurement) -> tuple:
    """|<final_k|state>|^2 for a state's ``amplitudes``, in cell order."""
    s0, s1, s2, s3 = amplitudes
    probs = []
    for c0, c1, c2, c3 in measurement._conjugates:
        # |<final_k|state>|^2, with the additions of linalg.inner in its order
        p = abs(0j + c0 * s0 + c1 * s1 + c2 * s2 + c3 * s3) ** 2
        # a squared modulus is never negative; rounding can exceed 1
        probs.append(p if p <= 1.0 else 1.0)
    return tuple(probs)


def born_probabilities(state: CVector | StateVector, measurement: Measurement) -> JointTable:
    """Outcome probabilities |<final_k|state>|^2 as a joint table."""
    probs = _born_probabilities(_vec(state).amplitudes, measurement)
    return JointTable(*probs, pair=measurement.pair)


def operator_from_measurement(measurement: Measurement) -> CMatrix:
    """Self-adjoint operator in spectral form, sum of outcome * |f><f|.

    Entry (i, j) adds x_k * (f_k[i] * conj(f_k[j])) over the four terms k
    in order, starting from 0j."""
    x0, x1, x2, x3 = measurement.outcomes
    f0, f1, f2, f3 = (f.amplitudes for f in measurement.final_states)
    g0, g1, g2, g3 = measurement._conjugates
    rows = []
    for i in range(DIM):
        u0, u1, u2, u3 = f0[i], f1[i], f2[i], f3[i]
        rows.append([
            0j + x0 * (u0 * g0[j]) + x1 * (u1 * g1[j]) + x2 * (u2 * g2[j]) + x3 * (u3 * g3[j])
            for j in range(DIM)
        ])
    return CMatrix(rows)


def bell_operator(operators: Mapping[SettingPair, CMatrix]) -> CMatrix:
    """E_A'B' + E_A'B + E_AB' - E_AB of ``operators``: each entry is the
    reference CHSH combination of ``bell`` over the four operators' entries."""
    rows = {p: operators[p].rows for p in PAIR_ORDER}
    return CMatrix([
        [_reference_combination({p: m[i][j] for p, m in rows.items()}) for j in range(DIM)]
        for i in range(DIM)
    ])


def _check_iso(iso: object) -> None:
    """Raise a :class:`ValueError` naming ``iso`` unless it is an :class:`Isomorphism`."""
    if not isinstance(iso, Isomorphism):
        raise ValueError(f"iso: expected an Isomorphism, got {iso!r}")


def _det_modulus(amplitudes: tuple[complex, ...], iso: Isomorphism) -> float:
    """|a[k00] a[k11] - a[k01] a[k10]|: the determinant modulus of the
    amplitudes' 2x2 array under ``iso``, the one place it is computed."""
    k00, k11, k01, k10 = iso._det_indices
    return abs(amplitudes[k00] * amplitudes[k11] - amplitudes[k01] * amplitudes[k10])


def schmidt_coefficients(
    v: CVector | StateVector, iso: Isomorphism = CANONICAL_ISO
) -> tuple[float, float]:
    """Singular values of the reshaped vector, in nonincreasing order.

    Closed form for a 2x2 array with squared Frobenius norm t and
    determinant modulus d: s+- = sqrt((t +- sqrt(t^2 - 4 d^2)) / 2).  t adds
    the cells in order 00, 01, 10, 11.
    """
    _check_iso(iso)
    a = _vec(v).amplitudes
    k00, k11, k01, k10 = iso._det_indices
    t = 0.0 + abs(a[k00]) ** 2 + abs(a[k01]) ** 2 + abs(a[k10]) ** 2 + abs(a[k11]) ** 2
    d = _det_modulus(a, iso)
    disc = math.sqrt(max(t * t - 4.0 * d * d, 0.0))
    s_large = math.sqrt(max((t + disc) / 2.0, 0.0))
    s_small = math.sqrt(max((t - disc) / 2.0, 0.0))
    return (s_large, s_small)


def is_product_vector(
    v: CVector | StateVector, iso: Isomorphism = CANONICAL_ISO, tol: float = EXACT_TOL
) -> bool:
    """True when the vector is a tensor product under ``iso`` (the reshaped
    2x2 array has vanishing determinant)."""
    _check_iso(iso)
    return _det_modulus(_vec(v).amplitudes, iso) <= tol


def _realigned(m: CMatrix, iso: Isomorphism) -> tuple[tuple[complex, ...], ...]:
    """The rows of :func:`realign`, as tuples; a :class:`ValueError` names
    ``m`` unless it is a :class:`CMatrix`, and ``iso`` unless it is an
    :class:`Isomorphism`."""
    if not isinstance(m, CMatrix):
        raise ValueError(f"m: expected a CMatrix, got {m!r}")
    _check_iso(iso)
    rows = m.rows
    return tuple([tuple([rows[k][l] for k, l in line]) for line in iso._realignment])


def realign(m: CMatrix, iso: Isomorphism = CANONICAL_ISO) -> CMatrix:
    """Index rearrangement whose rank-one property characterizes product
    operators: R[(i,i'),(j,j')] = M[(i,j),(i',j')] in iso coordinates, read
    through the realignment map of ``iso``."""
    return CMatrix(_realigned(m, iso))


def is_product_operator(
    m: CMatrix, iso: Isomorphism = CANONICAL_ISO, tol: float = EXACT_TOL
) -> bool:
    """True when ``m`` equals some A (x) B under ``iso``: every 2x2 minor
    of the realignment vanishes within ``tol``.  The scan stops at the
    first minor that does not, so a NaN or negative ``tol`` fails closed."""
    r = _realigned(m, iso)
    for r1 in range(DIM):
        for r2 in range(r1 + 1, DIM):
            for c1 in range(DIM):
                for c2 in range(c1 + 1, DIM):
                    if not abs(r[r1][c1] * r[r2][c2] - r[r1][c2] * r[r2][c1]) <= tol:
                        return False
    return True


def is_entangled_measurement(
    measurement: Measurement,
    iso: Isomorphism = CANONICAL_ISO,
    tol: float = EXACT_TOL,
) -> bool:
    """A measurement is entangled when at least one final state is not a
    product vector under ``iso``.  A NaN ``tol`` fails closed."""
    _check_iso(iso)
    d0, d1, d2, d3 = [_det_modulus(f.amplitudes, iso) for f in measurement.final_states]
    return not d0 <= tol or not d1 <= tol or not d2 <= tol or not d3 <= tol


ModelVerdict = namedtuple(
    "ModelVerdict",
    "residual_kind residuals measurement_entangled state_entangled hermiticity_residuals"
    " chsh_from_model chsh_imag_residual tolerance iso passed",
)
ModelVerdict.__doc__ = """Outcome of checking a Hilbert-space construction against data.

``residual_kind`` records what was compared per measurement:
``"probabilities"`` for full Born distributions (basis-backed models)
or ``"expectations"`` for operator expectation values only (models
known through their operators, whose degenerate spectra do not
determine final states).  ``tolerance`` decided ``passed`` and ``iso``
the entanglement flags.
"""


class Construction(Value):
    """A state with a measurement, or an operator, for each setting pair.

    Exactly one of ``measurements`` and ``operators`` is given, as a
    mapping; the other is ``None``.  A :class:`ValueError` naming the field
    refuses a ``state`` that is not a :class:`StateVector`, both or neither
    of them, or one that is not a mapping; one naming the first setting
    pair, such as ``measurements.AB``, refuses an entry that is not a
    Measurement of that pair (or not a CMatrix in ``operators``).
    ``product_tol`` decides when a measurement or operator counts as
    entangled.  The loop that checks each pair's entry also computes its
    prediction (an operator product that overflows is refused there, by the
    :class:`CVector` it would make).  The construction keeps the
    predictions, which depend on neither the data nor the isomorphism, and
    its entanglement flags, per pairing class, outside its fields: each
    :meth:`verify` call adds only the data comparison and the flags of a
    class not seen before.  Each verdict gets dicts of its own.
    """

    _fields = ("state", "measurements", "operators", "product_tol")

    def __init__(
        self,
        state: StateVector,
        measurements: Mapping[SettingPair, Measurement] | None,
        operators: Mapping[SettingPair, CMatrix] | None = None,
        product_tol: float = EXACT_TOL,
    ) -> None:
        if not isinstance(state, StateVector):
            raise ValueError(f"state: expected a StateVector, got {state!r}")
        if measurements is not None and operators is not None:
            raise ValueError("operators: must be None when measurements are given")
        if measurements is None and operators is None:
            raise ValueError("measurements: a construction needs measurements or operators")
        predicted, expectations = {}, {}
        if measurements is not None:
            if not isinstance(measurements, Mapping):
                raise ValueError(f"measurements: expected a mapping, got {measurements!r}")
            amplitudes = state.vector.amplitudes
            for pair in PAIR_ORDER:
                measurement = measurements.get(pair)
                if not isinstance(measurement, Measurement) or measurement.pair is not pair:
                    raise ValueError(f"measurements.{pair.label}: no Measurement of {pair.label}")
                predicted[pair] = probabilities = _born_probabilities(amplitudes, measurement)
                p0, p1, p2, p3 = probabilities
                x0, x1, x2, x3 = measurement.outcomes
                expectations[pair] = 0.0 + x0 * p0 + x1 * p1 + x2 * p2 + x3 * p3
            hermiticity = dict.fromkeys(PAIR_ORDER, 0.0)
        else:
            if not isinstance(operators, Mapping):
                raise ValueError(f"operators: expected a mapping, got {operators!r}")
            hermiticity = {}
            for pair in PAIR_ORDER:
                operator = operators.get(pair)
                if not isinstance(operator, CMatrix):
                    raise ValueError(f"operators.{pair.label}: not a CMatrix")
                expectations[pair] = z = quadratic_form(operator, state.vector)
                predicted[pair] = z.real
                hermiticity[pair] = hermiticity_residual(operator)
        # _predicted, _hermiticity, _bell_value: the predictions, for any data and
        # isomorphism; _flags: Isomorphism._pairing -> (entry flags, state flag)
        vars(self).update(
            state=state, measurements=measurements, operators=operators, product_tol=product_tol,
            _predicted=predicted, _hermiticity=hermiticity,
            _bell_value=_reference_combination(expectations), _flags={},
        )

    def verify(
        self, data: Experiment, tol: float, iso: Isomorphism = CANONICAL_ISO
    ) -> ModelVerdict:
        """Compare the predictions with the data tables and flag the
        entanglement under ``iso``.

        With measurements, Born probabilities are compared with the tables
        and entangled final states flagged; with operators only, expectation
        values are compared with the tables' and operators that are not
        products flagged.  Entanglement of measurements and operators is
        decided at ``product_tol``, of the state at :data:`tables.EXACT_TOL`.
        ``data`` that is not an :class:`Experiment` (a ``Fixture``, say) or
        an ``iso`` that is not an :class:`Isomorphism` raises a
        :class:`ValueError` naming the argument.
        """
        if not isinstance(data, Experiment):
            raise ValueError(f"data: expected an Experiment, got {data!r}")
        _check_iso(iso)
        measurements, operators, product_tol = self.measurements, self.operators, self.product_tol
        flags = self._flags.get(iso._pairing)
        if flags is None:
            entangled = {}
            for pair in PAIR_ORDER:
                if measurements is not None:
                    entangled[pair] = is_entangled_measurement(measurements[pair], iso, product_tol)
                else:
                    entangled[pair] = not is_product_operator(operators[pair], iso, product_tol)
            flags = self._flags[iso._pairing] = (entangled, not is_product_vector(self.state, iso))
        entangled, state_entangled = flags
        residuals = {}
        for pair in PAIR_ORDER:
            observed = data.table(pair)
            predicted = self._predicted[pair]
            if measurements is not None:
                p0, p1, p2, p3 = predicted
                o0, o1, o2, o3 = observed.values
                residuals[pair] = max(abs(p0 - o0), abs(p1 - o1), abs(p2 - o2), abs(p3 - o3))
            else:
                residuals[pair] = abs(predicted - expectation_value(observed))
        bell_value = self._bell_value
        return ModelVerdict(
            residual_kind="probabilities" if measurements is not None else "expectations",
            residuals=residuals,
            measurement_entangled=dict(entangled),
            state_entangled=state_entangled,
            hermiticity_residuals=dict(self._hermiticity),
            chsh_from_model=bell_value.real,
            chsh_imag_residual=abs(bell_value.imag),
            tolerance=tol,
            iso=iso,
            passed=all(r <= tol for r in residuals.values()),
        )


def verify_model(
    state: StateVector,
    measurements: Mapping[SettingPair, Measurement],
    data: Experiment,
    tol: float,
    iso: Isomorphism = CANONICAL_ISO,
) -> ModelVerdict:
    """Check a construction given by its state and measurements against
    the data tables: :meth:`Construction.verify`, with entangled final
    states decided at :data:`tables.EXACT_TOL`.  No operator matrix is
    built.  See :class:`Construction` for the errors."""
    return Construction(state, measurements).verify(data, tol, iso)
