"""Immutable complex vectors and matrices in dimension four.

Everything downstream lives in C^4 (two binary settings per side), so the
types are fixed-size: plain tuples of Python ``complex``, no numerics
library.  This is where amplitudes and entries are validated: each
:class:`CVector` and :class:`CMatrix` converts its input with ``complex``
and checks shape and finiteness once, on construction, and no function
here or in ``hilbert`` checks them again.  Text or a byte buffer
(:data:`TEXT_TYPES`) given as a whole vector, as the rows or as a row is a
:class:`ValueError`: iterated, it would give one entry per character or
byte.  So is a row that is not iterable.  Each entry is converted as given,
so ``"1"`` or ``"1+2j"`` is an amplitude.  :class:`CVector` carries the
operations the state and basis constructions use; :class:`CMatrix` is a
4x4 with indexing, built in one pass by its callers.  The functions are
the products bellbox evaluates; :meth:`CVector.norm`, :func:`inner`,
:func:`apply` and :func:`hermiticity_residual` add and compare in a fixed
order, left to right, never with ``sum`` (whose float algorithm changed in
Python 3.12, and is not fixed by the language), so their results are the
same bit for bit on every supported version.
All values are immutable and every operation is pure, so they can be
shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from ._value import Value

DIM = 4

#: Text and byte buffers: iterated they give characters or bytes, and
#: ``float`` parses them, so wherever numbers are expected they are refused.
TEXT_TYPES = (str, bytes, bytearray, memoryview)


class CVector(Value):
    """Four complex amplitudes, in ``amplitudes``."""

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: Iterable[object]) -> None:
        if isinstance(amplitudes, TEXT_TYPES):
            raise ValueError(f"expected {DIM} amplitudes, got text {amplitudes!r}")
        amps = tuple(map(complex, amplitudes))
        if len(amps) != DIM or not all(map(cmath.isfinite, amps)):
            raise ValueError(f"expected {DIM} finite amplitudes, got {amps}")
        object.__setattr__(self, "amplitudes", amps)

    def __iter__(self):
        return iter(self.amplitudes)

    def __getitem__(self, k: int) -> complex:
        return self.amplitudes[k]

    def norm(self) -> float:
        a0, a1, a2, a3 = self.amplitudes
        return math.sqrt(0.0 + abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2)

    def normalized(self) -> CVector:
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return CVector(z / n for z in self.amplitudes)

    def scaled(self, factor: complex) -> CVector:
        return CVector(factor * z for z in self.amplitudes)


CANONICAL_BASIS = tuple(
    CVector([1 if i == k else 0 for i in range(DIM)]) for k in range(DIM)
)


class CMatrix(Value):
    """A 4x4 complex matrix, stored row-major in ``rows``."""

    _fields = ("rows",)

    def __init__(self, rows: Iterable[Iterable[object]]) -> None:
        if isinstance(rows, TEXT_TYPES):
            raise ValueError(f"expected {DIM} rows, got text {rows!r}")
        mat = []
        for row in rows:
            if isinstance(row, TEXT_TYPES):
                raise ValueError(f"expected a row of {DIM} entries, got text {row!r}")
            try:
                entries = iter(row)
            except TypeError:
                raise ValueError(f"expected a row of {DIM} entries, got {row!r}") from None
            mat.append(tuple(map(complex, entries)))
        if len(mat) != DIM or any(
            len(row) != DIM or not all(map(cmath.isfinite, row)) for row in mat
        ):
            raise ValueError(f"expected a {DIM}x{DIM} matrix of finite entries")
        object.__setattr__(self, "rows", tuple(mat))

    def __getitem__(self, i: int) -> tuple[complex, ...]:
        return self.rows[i]


def inner(u: CVector, v: CVector) -> complex:
    """Hermitian inner product <u|v>, conjugating the first argument."""
    total = 0j
    for a, b in zip(u.amplitudes, v.amplitudes):
        total += a.conjugate() * b
    return total


def apply(m: CMatrix, v: CVector) -> CVector:
    """Matrix-vector product m @ v."""
    v0, v1, v2, v3 = v.amplitudes
    return CVector(0j + r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 for r0, r1, r2, r3 in m.rows)


def hermiticity_residual(m: CMatrix) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose.

    Only entries with i <= j are scanned: |m_ij - conj(m_ji)| and
    |m_ji - conj(m_ij)| are the same float, since the two differences are
    conjugate negatives of each other and ``abs`` ignores both signs."""
    rows = m.rows
    worst = None
    for i in range(DIM):
        row = rows[i]
        for j in range(i, DIM):
            d = abs(row[j] - rows[j][i].conjugate())
            if worst is None or d > worst:  # the first of equal maxima wins, as in max()
                worst = d
    return worst


def quadratic_form(m: CMatrix, v: CVector) -> complex:
    """Full complex value of <v|m|v>; the imaginary part is a diagnostic
    for how far ``m`` is from self-adjoint on ``v``."""
    return inner(v, apply(m, v))

