"""The Hilbert-space kernels agree bit for bit with their reference forms.

Each kernel in ``linalg``, ``hilbert`` and ``models`` does the same float
operations in the same order as its straightforward form in ``oracles``,
so every result is compared by ``float.hex``.  Decisions against a tolerance (the
product test, the orthonormality check) are compared at the reference
value itself and at the next float below it, which pins the value the
kernel decided on exactly.
"""

import itertools
import math
import random

import pytest

from bellbox import hilbert
from bellbox.hilbert import (
    CANONICAL_ISO,
    COINCIDENCE_OUTCOMES,
    SWAPPED_ISO,
    Isomorphism,
    Measurement,
    StateVector,
    bell_operator,
    born_probabilities,
    is_product_operator,
    is_product_vector,
    operator_from_measurement,
    realign,
)
from bellbox.linalg import CANONICAL_BASIS, CMatrix, CVector, apply, hermiticity_residual
from bellbox.models import (
    ANIMAL_ACTS_OPERATORS,
    basis_from_probabilities,
    vessels_alternative_model,
    vessels_model,
)
from bellbox.tables import PAIR_ORDER, SettingPair

from oracles import (
    np_random_orthonormal_basis,
    product_operator,
    random_2x2_matrix,
    random_product_vector,
    random_unit_cvector,
    reference_apply,
    reference_basis_from_probabilities,
    reference_block_det,
    reference_bell_operator,
    reference_born_probabilities,
    reference_hermiticity_residual,
    reference_inner,
    reference_operator_from_measurement,
    reference_overlaps,
    reference_realign,
)

#: Both shipped isomorphisms, and one that is not a transpose of the
#: canonical one (coordinates 1 and 3 trade cells).
ISOS = (
    CANONICAL_ISO,
    SWAPPED_ISO,
    Isomorphism("crossed", ((0, 0), (1, 1), (0, 1), (1, 0))),
)

#: All 24 bijections from the four coordinates to the four cells.
ALL_ISOS = tuple(
    Isomorphism(f"bijection-{n}", cells)
    for n, cells in enumerate(itertools.permutations(((0, 0), (0, 1), (1, 0), (1, 1))))
)

SQ = math.sqrt(0.5)


def _hex(z: complex) -> tuple[str, str]:
    return (z.real.hex(), z.imag.hex())


def _hex_rows(rows) -> list[list[tuple[str, str]]]:
    return [[_hex(z) for z in row] for row in rows]


def _unit_vectors(seed: int) -> list[CVector]:
    """Random unit vectors, product vectors under each isomorphism, and
    vectors with signed zeros."""
    rng = random.Random(seed)
    vectors = [random_unit_cvector(rng) for _ in range(40)]
    vectors += [random_product_vector(rng, iso.cells) for iso in ISOS for _ in range(5)]
    vectors += list(CANONICAL_BASIS)
    vectors += [
        CVector([-0.0, complex(-0.0, 1.0), -0.0, complex(0.0, -0.0)]),
        CVector([complex(-0.0, -0.0), SQ, -SQ, complex(0.0, -0.0)]),
        CVector([SQ, 0.0, complex(-0.0, 0.0), complex(-0.0, -SQ)]),
    ]
    return vectors


def _bases(seed: int) -> list[tuple[CVector, ...]]:
    """Random bases, bases synthesized for random targets, and the bases
    of both vessel constructions."""
    rng = random.Random(seed)
    bases = [tuple(np_random_orthonormal_basis(rng)) for _ in range(15)]
    for _ in range(15):
        state = StateVector(random_unit_cvector(rng))
        raw = [rng.random() for _ in range(4)]
        raw[rng.randrange(4)] = 0.0
        targets = tuple(x / sum(raw) for x in raw)
        bases.append(basis_from_probabilities(state, targets).final_states)
    bases.append(CANONICAL_BASIS)
    for build in (vessels_model, vessels_alternative_model):
        model = build(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        bases += [m.final_states for m in model.measurements.values()]
    return bases


def _matrices(seed: int) -> list[CMatrix]:
    """Random non-Hermitian matrices, spectral operators, matrices with
    signed zeros and matrices whose differences overflow."""
    rng = random.Random(seed)

    def entry(scale: float) -> complex:
        return complex(scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1))

    matrices = [CMatrix([[entry(1.0) for _ in range(4)] for _ in range(4)]) for _ in range(20)]
    matrices += [Measurement(SettingPair.AB, b).operator for b in _bases(seed)[:10]]
    matrices.append(CMatrix([[complex(-0.0, -0.0)] * 4 for _ in range(4)]))
    return matrices


def _huge_matrices(seed: int) -> list[CMatrix]:
    """Matrices whose entrywise differences overflow to infinity."""
    rng = random.Random(seed)
    return [
        CMatrix([[complex(rng.choice((-1.5e308, 1.5e308)), 0.0) for _ in range(4)] for _ in range(4)])
        for _ in range(5)
    ]


class TestProductVector:
    @pytest.mark.parametrize("iso", ISOS, ids=lambda iso: iso.name)
    def test_decides_on_the_reference_determinant(self, iso):
        for v in _unit_vectors(11):
            d = abs(reference_block_det(v.amplitudes, iso.cells))
            for tol in (d, math.nextafter(d, -math.inf), 0.0, 1e-9):
                assert is_product_vector(v, iso, tol) is (d <= tol)
                assert is_product_vector(StateVector(v), iso, tol) is (d <= tol)


class TestMeasurement:
    def test_orthonormality_decided_on_the_reference_overlaps(self, monkeypatch):
        for basis in _bases(21):
            overlaps = reference_overlaps([f.amplitudes for f in basis])
            deviation = {
                (i, j): abs(overlap - (1.0 if i == j else 0.0))
                for (i, j), overlap in overlaps.items()
            }
            worst = max(deviation.values())
            monkeypatch.setattr(hilbert, "EXACT_TOL", worst)
            Measurement(SettingPair.AB, basis)
            tol = math.nextafter(worst, -math.inf)
            monkeypatch.setattr(hilbert, "EXACT_TOL", tol)
            i, j = next(ij for ij, dev in deviation.items() if dev > tol)
            labels = SettingPair.AB.outcome_labels
            message = (
                f"final states {labels[i]},{labels[j]} are not orthonormal: "
                f"|<i|j>| = {overlaps[i, j]!r}"
            )
            with pytest.raises(ValueError) as info:
                Measurement(SettingPair.AB, basis)
            assert str(info.value) == message

    def test_born_probabilities(self):
        states = _unit_vectors(22)
        for basis in _bases(23):
            m = Measurement(SettingPair.A_PRIME_B, basis)
            for v in states:
                want = reference_born_probabilities(v.amplitudes, [f.amplitudes for f in basis])
                got = born_probabilities(v, m).values
                assert [x.hex() for x in got] == [x.hex() for x in want]
                assert born_probabilities(StateVector(v), m).values == got

    def test_born_probabilities_are_clamped_at_one(self):
        # |<f|f>|^2 of a unit final state can round above 1; the kernel
        # gives 1.0 there, as the reference does
        rng = random.Random(28)
        clamped = 0
        for _ in range(20):
            basis = np_random_orthonormal_basis(rng)
            m = Measurement(SettingPair.AB, basis)
            for f in basis:
                want = reference_born_probabilities(f.amplitudes, [g.amplitudes for g in basis])
                got = hilbert._born_probabilities(f.amplitudes, m)
                assert [x.hex() for x in got] == [x.hex() for x in want]
                clamped += abs(reference_inner(f.amplitudes, f.amplitudes)) ** 2 > 1.0
        assert clamped

    def test_born_kernel_is_the_joint_table(self):
        # a Construction predicts from the kernel's tuple; born_probabilities wraps
        # the same floats in a JointTable
        states = _unit_vectors(26)
        for basis in _bases(27):
            m = Measurement(SettingPair.AB_PRIME, basis)
            for v in states:
                got = hilbert._born_probabilities(v.amplitudes, m)
                assert type(got) is tuple
                assert [x.hex() for x in got] == [
                    x.hex() for x in born_probabilities(v, m).values
                ]

    @pytest.mark.parametrize(
        "outcomes",
        [COINCIDENCE_OUTCOMES, (1, -1, -1, 1), (2, 0, -3, 5), (0.3, -1.7, 1e-300, 2.5), (1e300,) * 4],
    )
    def test_operator_from_measurement(self, outcomes):
        rng = random.Random(24)
        bases = _bases(25)
        outcome_sets = [outcomes] + [tuple(rng.uniform(-3, 3) for _ in range(4)) for _ in range(3)]
        for basis in bases:
            for xs in outcome_sets:
                want = reference_operator_from_measurement(xs, [f.amplitudes for f in basis])
                got = operator_from_measurement(Measurement(SettingPair.AB, basis, xs))
                assert _hex_rows(got.rows) == _hex_rows(want)


def _synthesis_cases(seed: int) -> list[tuple[CVector, tuple[float, ...]]]:
    """States with zero and signed-zero amplitudes against targets with
    zeros (signed ones too), a state orthogonal to its target vector among
    them."""
    rng = random.Random(seed)
    targets = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.5, -0.0, 0.5, 0.0), (0.25,) * 4]
    for zeros in (0, 1, 2, 3, 0, 1, 2):
        raw = [rng.random() for _ in range(4)]
        for k in rng.sample(range(4), zeros):
            raw[k] = rng.choice((0.0, -0.0))
        total = 0.0 + raw[0] + raw[1] + raw[2] + raw[3]
        targets.append(tuple(x / total for x in raw))
    return [(v, t) for v in _unit_vectors(seed) for t in targets]


class TestBasisSynthesis:
    def test_matches_the_vector_form(self):
        for v, targets in _synthesis_cases(41):
            got = basis_from_probabilities(StateVector(v), targets, SettingPair.A_PRIME_B)
            want = reference_basis_from_probabilities(v, targets)
            assert got.pair is SettingPair.A_PRIME_B
            assert _hex_rows(got.final_states) == _hex_rows(want)


def _realignment_matrices(seed: int) -> list[CMatrix]:
    """Random, spectral and signed-zero matrices, the quoted animal-acts
    operators, and product operators under each bijection."""
    rng = random.Random(seed)
    matrices = _matrices(seed) + list(ANIMAL_ACTS_OPERATORS.values())
    matrices.append(CMatrix([[complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
                              for _ in range(4)] for _ in range(4)]))
    matrices += [
        product_operator(random_2x2_matrix(rng), random_2x2_matrix(rng), iso.cells)
        for iso in ALL_ISOS
    ]
    return matrices


def _minor_moduli(rows) -> list[float]:
    """|r11 r22 - r12 r21| of every 2x2 minor, in the scan's order."""
    return [
        abs(rows[r1][c1] * rows[r2][c2] - rows[r1][c2] * rows[r2][c1])
        for r1 in range(4)
        for r2 in range(r1 + 1, 4)
        for c1 in range(4)
        for c2 in range(c1 + 1, 4)
    ]


class TestRealignment:
    """``realign`` and ``is_product_operator`` read the map each
    isomorphism makes; they must agree with the cell loop under all 24."""

    @pytest.mark.parametrize("iso", ALL_ISOS, ids=lambda iso: iso.name)
    def test_realign_matches_the_cell_loop(self, iso):
        for m in _realignment_matrices(51):
            want = reference_realign(m.rows, iso.cells)
            assert _hex_rows(realign(m, iso).rows) == _hex_rows(want)

    @pytest.mark.parametrize("iso", ALL_ISOS, ids=lambda iso: iso.name)
    def test_is_product_operator_decides_on_the_reference_minors(self, iso):
        decided = set()
        for m in _realignment_matrices(52):
            minors = _minor_moduli(reference_realign(m.rows, iso.cells))
            worst = max(minors)
            for tol in (worst, math.nextafter(worst, -math.inf), 0.05, 1e-9, -1.0, math.nan):
                want = all(d <= tol for d in minors)
                assert is_product_operator(m, iso, tol) is want
                decided.add(want)
        assert decided == {True, False}


class TestOperators:
    def test_bell_operator(self):
        rng = random.Random(31)
        matrices = _matrices(32)
        combos = [dict(zip(PAIR_ORDER, rng.sample(matrices, 4))) for _ in range(40)]
        for build in (vessels_model, vessels_alternative_model):
            measurements = build(rng.uniform(-3, 3), rng.uniform(-3, 3)).measurements
            combos.append({p: m.operator for p, m in measurements.items()})
        for operators in combos:
            want = reference_bell_operator({p: m.rows for p, m in operators.items()})
            assert _hex_rows(bell_operator(operators).rows) == _hex_rows(want)

    def test_apply(self):
        vectors = _unit_vectors(35)
        for m in _matrices(36):
            for v in vectors:
                want = reference_apply(m.rows, v.amplitudes)
                assert [_hex(z) for z in apply(m, v)] == [_hex(z) for z in want]

    def test_hermiticity_residual(self):
        for m in _matrices(33) + _huge_matrices(34):
            want = reference_hermiticity_residual(m.rows)
            assert hermiticity_residual(m).hex() == want.hex()
