import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellbox.linalg import (
    CMatrix,
    CVector,
    apply,
    hermiticity_residual,
    inner,
    quadratic_form,
)
from bellbox.models import ANIMAL_ACTS_OPERATORS, vessels_model
from bellbox.hilbert import bell_operator
from bellbox.tables import SettingPair

from oracles import random_unit_cvector

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def vec4(draw_values):
    return CVector([complex(a, b) for a, b in zip(draw_values[0::2], draw_values[1::2])])


vectors = st.lists(finite, min_size=8, max_size=8).map(vec4)


class TestConstruction:
    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            CVector([1, 0, 0])

    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            CVector([float("nan"), 0, 0, 0])

    def test_matrix_rejects_inf(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[2][3] = complex(0, float("inf"))
        with pytest.raises(ValueError):
            CMatrix(rows)

    def test_matrix_shape_enforced(self):
        with pytest.raises(ValueError):
            CMatrix([[0] * 4] * 3)


class TestInner:
    def test_identity_case(self):
        e0 = CVector([1, 0, 0, 0])
        assert inner(e0, e0) == 1 + 0j

    def test_orthogonal_canonical(self):
        assert inner(CVector([1, 0, 0, 0]), CVector([0, 1, 0, 0])) == 0

    def test_unit_superposition_state(self):
        a = math.sqrt(0.5) * cmath.exp(0.37j)
        b = math.sqrt(0.5) * cmath.exp(-1.11j)
        p = CVector([0, a, b, 0])
        assert abs(inner(p, p) - 1) < 1e-12

    @given(vectors, vectors)
    def test_conjugate_symmetry(self, u, v):
        assert abs(inner(u, v) - inner(v, u).conjugate()) < 1e-9

    @given(vectors)
    def test_self_inner_real_nonnegative(self, v):
        val = inner(v, v)
        assert val.imag == 0
        assert val.real >= 0


class TestApply:
    def test_identity(self):
        v = CVector([1j, 2, 3, 4 - 1j])
        assert apply(CMatrix(np.eye(4)), v) == v

    def test_diagonal_action(self):
        m = CMatrix(np.diag([1, -1, -1, 1]))
        assert apply(m, CVector([0, 1, 0, 0])) == CVector([0, -1, 0, 0])

    def test_bell_operator_scales_vessel_state(self):
        # the combination operator acts as multiplication by 4 on the
        # model state (checked against plain scalar arithmetic)
        model = vessels_model(alpha=0.9, beta=-0.4)
        bell = bell_operator({p: m.operator for p, m in model.measurements.items()})
        state = model.state.vector
        image = apply(bell, state)
        for got, want in zip(image, state.scaled(4.0)):
            assert abs(got - want) < 1e-12

    @given(vectors, vectors, finite, finite, st.integers(min_value=0, max_value=2**31))
    def test_linearity(self, u, v, a, b, seed):
        rng = random.Random(seed)
        m = CMatrix(
            [
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
                for _ in range(4)
            ]
        )
        combined = CVector(a * x + b * y for x, y in zip(u, v))
        direct = apply(m, combined)
        split = CVector(
            a * x + b * y for x, y in zip(apply(m, u), apply(m, v))
        )
        assert max(abs(x - y) for x, y in zip(direct, split)) < 1e-9


class TestHermitian:
    def test_identity_zero_tolerance(self):
        assert hermiticity_residual(CMatrix(np.eye(4))) <= 0.0

    def test_quoted_operator_matrix(self):
        assert hermiticity_residual(ANIMAL_ACTS_OPERATORS[SettingPair.AB]) <= 1e-3

    def test_antihermitian_offdiagonal(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][1] = 1j
        rows[1][0] = 1j
        assert hermiticity_residual(CMatrix(rows)) > 1e-9

    def test_upper_triangle_scan_equals_full_scan(self):
        rng = random.Random(29)
        for k in range(50):
            raw = [
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                for _ in range(4)
            ]
            if k % 2:  # near-Hermitian, so the residual is a rounding-sized figure
                raw = [
                    [raw[i][j] + raw[j][i].conjugate() + rng.gauss(0, 1e-12) for j in range(4)]
                    for i in range(4)
                ]
            m = CMatrix(raw)
            full = max(
                abs(m[i][j] - m[j][i].conjugate()) for i in range(4) for j in range(4)
            )
            assert hermiticity_residual(m).hex() == full.hex()


class TestExpectation:
    def test_identity_gives_one(self):
        rng = random.Random(11)
        for _ in range(20):
            v = random_unit_cvector(rng)
            assert abs(quadratic_form(CMatrix(np.eye(4)), v).real - 1) < 1e-12

    def test_bell_operator_in_vessel_state(self):
        model = vessels_model(alpha=0.25, beta=1.5)
        bell = bell_operator({p: m.operator for p, m in model.measurements.items()})
        assert abs(quadratic_form(bell, model.state.vector).real - 4.0) < 1e-12

    def test_diagonal_superposition(self):
        m = CMatrix(np.diag([1, -1, -1, 1]))
        v = CVector([0, math.sqrt(0.5), math.sqrt(0.5), 0])
        # 0.5 * (-1) + 0.5 * (-1)
        assert abs(quadratic_form(m, v).real - (-1.0)) < 1e-12

    def test_hermitian_quadratic_form_is_real(self):
        rng = random.Random(23)
        for _ in range(50):
            raw = [
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                for _ in range(4)
            ]
            herm = CMatrix(
                [[0.5 * (raw[i][j] + raw[j][i].conjugate()) for j in range(4)] for i in range(4)]
            )
            assert hermiticity_residual(herm) <= 1e-12
            v = random_unit_cvector(rng)
            assert abs(quadratic_form(herm, v).imag) <= 1e-9

