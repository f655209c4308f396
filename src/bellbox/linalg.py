"""Immutable complex vectors and matrices in dimension four.

Everything downstream lives in C^4 (two binary settings per side), so the
types are fixed-size: plain tuples of Python ``complex``, no numerics
library.  One rule turns input into four numbers, :func:`_numbers`: text
or a byte buffer (:data:`TEXT_TYPES`) as a whole, input that does not
iterate, an entry the conversion refuses and any count but four are not
four numbers.  Every constructor that takes four numbers calls it, each
with its own conversion: ``complex`` here, so ``"1"`` or ``"1+2j"`` is an
amplitude, ``float`` in ``tables.normalize``, and :func:`_real` for
outcomes and targets; each refusal shows its input by :func:`_shown`.
A :class:`CVector` takes four finite amplitudes and
a :class:`CMatrix` four rows, each taken as a :class:`CVector` takes its
amplitudes; each checks once, on construction, with a :class:`ValueError`
that names ``amplitudes`` or ``rows``, and no function here or in
``hilbert`` checks again.  The functions are
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
from collections.abc import Callable, Iterable

from ._value import Value

DIM = 4

#: Text and byte buffers: iterated they give characters or bytes, and
#: ``float`` parses them, so wherever numbers are expected they are refused.
TEXT_TYPES = (str, bytes, bytearray, memoryview)


def _numbers(values: object, convert: Callable[[object], object]) -> tuple | None:
    """``values`` as a tuple of four entries, each through ``convert``; ``None``
    when ``values`` is text or a byte buffer, does not iterate, holds an
    entry ``convert`` refuses with a TypeError, ValueError or OverflowError
    (an int too large for a float), or has some other count."""
    if isinstance(values, TEXT_TYPES):
        return None
    try:
        numbers = tuple(map(convert, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return numbers if len(numbers) == DIM else None


def _shown(value: object) -> str:
    """``repr(value)`` for a refusal message, or ``<T too large to print>``,
    T its type's name, when the repr raises a ValueError, as for an int of
    more than ``sys.get_int_max_str_digits()`` digits or a tuple holding one."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


def _real(x: object) -> float:
    """``float(x)``, but a TypeError for text or a byte buffer, which ``float`` parses."""
    if isinstance(x, TEXT_TYPES):
        raise TypeError(f"not a real number: {x!r}")
    return float(x)


class CVector(Value):
    """Four complex amplitudes, in ``amplitudes``: finite, and four numbers
    by :func:`_numbers` converted with ``complex``."""

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: Iterable[object]) -> None:
        amps = _numbers(amplitudes, complex)
        if amps is None or not all(map(cmath.isfinite, amps)):
            raise ValueError(f"amplitudes: expected {DIM} finite numbers, got {_shown(amplitudes)}")
        vars(self)["amplitudes"] = amps

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
        return CVector([z / n for z in self.amplitudes])

    def scaled(self, factor: complex) -> CVector:
        return CVector([factor * z for z in self.amplitudes])


CANONICAL_BASIS = tuple(
    CVector([1 if i == k else 0 for i in range(DIM)]) for k in range(DIM)
)


class CMatrix(Value):
    """A 4x4 complex matrix, stored row-major in ``rows``: four rows, each
    taken as a :class:`CVector` takes its amplitudes."""

    _fields = ("rows",)

    def __init__(self, rows: Iterable[Iterable[object]]) -> None:
        vectors = _numbers(rows, CVector)
        if vectors is None:
            raise ValueError(
                f"rows: expected {DIM} rows of {DIM} finite numbers, got {_shown(rows)}"
            )
        vars(self)["rows"] = tuple([v.amplitudes for v in vectors])

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
    return CVector([0j + r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 for r0, r1, r2, r3 in m.rows])


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

