import cmath
import itertools
import math
import random

import numpy as np
import pytest

from bellbox import hilbert
from bellbox.hilbert import (
    CANONICAL_ISO,
    SWAPPED_ISO,
    Isomorphism,
    Measurement,
    StateVector,
    bell_operator,
    born_probabilities,
    is_entangled_measurement,
    is_product_operator,
    is_product_vector,
    operator_from_measurement,
    realign,
    schmidt_coefficients,
    verify_model,
)
from bellbox.linalg import (
    CANONICAL_BASIS,
    CMatrix,
    CVector,
    hermiticity_residual,
    quadratic_form,
)
from bellbox.models import (
    ANIMAL_ACTS_OPERATORS,
    animal_acts_data,
    animal_acts_model,
    animal_acts_state,
    basis_from_probabilities,
    vessels_alternative_model,
    vessels_data,
    vessels_model,
)
from bellbox.tables import (
    EXACT_TOL,
    PAIR_ORDER,
    Experiment,
    JointTable,
    NotNormalizableError,
    SettingPair,
    factorization_test,
    marginal_law_report,
    normalize,
)

from oracles import (
    alternative_ab_operator_reference,
    np_bell_value,
    np_max_entry_difference,
    np_random_orthonormal_basis,
    np_second_singular_value,
    np_singular_values_2x2,
    product_operator,
    random_2x2_matrix,
    random_product_vector,
    random_table,
    random_unit_cvector,
    reference_reshape,
    reference_schmidt_coefficients,
    vessels_offdiag_operator_reference,
)

SQ = math.sqrt(0.5)


def vessel_state(alpha=0.0, beta=0.0) -> CVector:
    return CVector([0, SQ * cmath.exp(1j * alpha), SQ * cmath.exp(1j * beta), 0])


class TestStateVector:
    def test_unit_accepted(self):
        StateVector(CVector([0, SQ, SQ, 0]))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            StateVector(CVector([1, 1, 0, 0]))

    def test_of_normalizes(self):
        s = StateVector.of([1, 1, 0, 0], normalize=True)
        assert abs(s.vector.norm() - 1.0) < 1e-12


class TestMeasurement:
    def test_labels_default_to_pair(self):
        # the final states are named by the pair's outcome labels
        basis = (CANONICAL_BASIS[0], CANONICAL_BASIS[0], CANONICAL_BASIS[2], CANONICAL_BASIS[3])
        with pytest.raises(ValueError, match=r"^final states A1B'1,A1B'2 are not orthonormal"):
            Measurement(SettingPair.AB_PRIME, basis)

    def test_non_orthogonal_rejected(self):
        e0 = CVector([1, 0, 0, 0])
        mixed = CVector([SQ, SQ, 0, 0])
        e2 = CVector([0, 0, 1, 0])
        e3 = CVector([0, 0, 0, 1])
        with pytest.raises(ValueError):
            Measurement(SettingPair.AB, (e0, mixed, e2, e3))

    def test_duplicate_labels_rejected(self):
        # labels are the pair's, so a measurement takes none of its own
        with pytest.raises(TypeError):
            Measurement(SettingPair.AB, CANONICAL_BASIS, labels=("x", "x", "y", "z"))


class TestBornProbabilities:
    def test_vessel_state_in_canonical_basis(self):
        m = vessels_model().measurements[SettingPair.AB]
        table = born_probabilities(StateVector(vessel_state()), m)
        assert max(abs(p - q) for p, q in zip(table.values, (0, 0.5, 0.5, 0))) <= 1e-12

    def test_vessel_state_in_own_basis(self):
        model = vessels_model(alpha=0.8, beta=0.1)
        table = born_probabilities(model.state, model.measurements[SettingPair.AB_PRIME])
        assert max(abs(p - q) for p, q in zip(table.values, (1, 0, 0, 0))) <= 1e-12

    def test_canonical_state_canonical_basis(self):
        m = vessels_model().measurements[SettingPair.AB]
        table = born_probabilities(StateVector(CVector([1, 0, 0, 0])), m)
        assert table.values == (1.0, 0.0, 0.0, 0.0)

    def test_sums_to_one_for_random_pairs(self):
        rng = random.Random(314)
        for _ in range(50):
            state = StateVector(random_unit_cvector(rng))
            basis = np_random_orthonormal_basis(rng)
            m = Measurement(SettingPair.AB, tuple(basis))
            assert abs(sum(born_probabilities(state, m).values) - 1.0) <= 1e-9


class TestOperatorFromMeasurement:
    def canonical_measurement(self):
        basis = tuple(CVector([1 if i == k else 0 for i in range(4)]) for k in range(4))
        return Measurement(SettingPair.AB, basis)

    def test_canonical_basis_gives_diagonal(self):
        op = operator_from_measurement(self.canonical_measurement())
        assert np_max_entry_difference(op, CMatrix(np.diag([1, -1, -1, 1]))) == 0

    def test_vessel_offdiagonal_operator_zero_phase_difference(self):
        model = vessels_model(alpha=0.4, beta=0.4)  # equal phases
        op = model.measurements[SettingPair.AB_PRIME].operator
        want = CMatrix(
            [
                [-1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ]
        )
        assert np_max_entry_difference(op, want) <= 1e-12

    def test_vessel_offdiagonal_operators_general_phases(self):
        model = vessels_model(alpha=1.3, beta=-0.2)
        for pair in (SettingPair.AB_PRIME, SettingPair.A_PRIME_B):
            got = model.measurements[pair].operator
            want = vessels_offdiag_operator_reference(1.3, -0.2, (1, -1, -1, 1))
            assert np_max_entry_difference(got, want) <= 1e-12

    def test_alternative_ab_operator_matches_reference(self):
        model = vessels_alternative_model(alpha=0.9, beta=2.2)
        got = model.measurements[SettingPair.AB].operator
        want = alternative_ab_operator_reference(0.9, 2.2, (1, -1, -1, 1))
        assert np_max_entry_difference(got, want) <= 1e-12

    def test_hermitian_and_involutive_for_unit_outcomes(self):
        rng = random.Random(2718)
        for _ in range(25):
            basis = np_random_orthonormal_basis(rng)
            m = Measurement(SettingPair.AB, tuple(basis))
            op = operator_from_measurement(m)
            assert hermiticity_residual(op) <= 1e-12
            arr = np.array(op.rows)
            assert np.abs(arr @ arr - np.eye(4)).max() <= 1e-9

    def test_spectral_form_consistent_with_born_rule(self):
        rng = random.Random(1618)
        for _ in range(25):
            basis = np_random_orthonormal_basis(rng)
            outcomes = tuple(rng.uniform(-2, 2) for _ in range(4))
            m = Measurement(SettingPair.AB, tuple(basis), outcomes)
            state = StateVector(random_unit_cvector(rng))
            op = operator_from_measurement(m)
            via_born = sum(
                o * p for o, p in zip(outcomes, born_probabilities(state, m).values)
            )
            assert abs(quadratic_form(op, state.vector).real - via_born) <= 1e-9

    def test_spectral_form_is_hermitian_bit_for_bit(self):
        # why a basis-backed model reports each Hermiticity residual as 0.0
        # without building its operators
        rng = random.Random(4242)
        special = (1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300)

        def outcome():
            if rng.random() < 0.5:
                return rng.choice(special)
            return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-990, 990))

        def phase():
            return rng.choice((0.0, -0.0, rng.uniform(-7.0, 7.0)))

        bases = [CANONICAL_BASIS]
        for _ in range(150):
            state = StateVector(random_unit_cvector(rng))
            bases.append(basis_from_probabilities(state, random_table(rng).values).final_states)
            for build in (vessels_model, vessels_alternative_model):
                model = build(phase(), phase())
                bases += [m.final_states for m in model.measurements.values()]
        checked = 0
        for basis in bases:
            for outcomes in ((1.0, -1.0, -1.0, 1.0), tuple(outcome() for _ in range(4))):
                m = Measurement(SettingPair.AB, basis, outcomes)
                assert hermiticity_residual(operator_from_measurement(m)) == 0.0, outcomes
                checked += 1
        assert checked == 2 * len(bases) > 2000


class TestBellOperator:
    def test_vessel_middle_block(self):
        alpha, beta = 0.7, -0.3
        model = vessels_model(alpha, beta)
        bell = bell_operator({p: m.operator for p, m in model.measurements.items()})
        phase = cmath.exp(1j * (alpha - beta))
        assert abs(bell[1][1] - 2) <= 1e-12
        assert abs(bell[2][2] - 2) <= 1e-12
        assert abs(bell[1][2] - 2 * phase) <= 1e-12
        assert abs(bell[2][1] - 2 * phase.conjugate()) <= 1e-12
        assert abs(bell[3][3]) <= 1e-12
        for k in (1, 2):
            assert abs(bell[0][k]) <= 1e-12 and abs(bell[k][0]) <= 1e-12
            assert abs(bell[3][k]) <= 1e-12 and abs(bell[k][3]) <= 1e-12

    def test_zero_inputs(self):
        z = CMatrix(np.zeros((4, 4)))
        assert bell_operator({pair: z for pair in SettingPair}) == z

    def test_alternative_model_combination_expectation(self):
        model = vessels_alternative_model(alpha=0.2, beta=1.9)
        bell = bell_operator({p: m.operator for p, m in model.measurements.items()})
        assert abs(quadratic_form(bell, model.state.vector).real - 4.0) <= 1e-12

    def test_argument_order(self):
        # combination must be A'B' + A'B + AB' - AB
        ab = CMatrix(np.diag([1, 0, 0, 0]))
        abp = CMatrix(np.diag([0, 1, 0, 0]))
        apb = CMatrix(np.diag([0, 0, 1, 0]))
        apbp = CMatrix(np.diag([0, 0, 0, 1]))
        combo = bell_operator(
            {
                SettingPair.AB_PRIME: abp,
                SettingPair.A_PRIME_B: apb,
                SettingPair.AB: ab,
                SettingPair.A_PRIME_B_PRIME: apbp,
            }
        )
        assert combo == CMatrix(np.diag([-1, 1, 1, 1]))

    def test_matches_numpy_on_complex_operators(self):
        # non-Hermitian operators with complex off-diagonal entries, summed
        # in the same order, agree bit for bit
        rng = np.random.default_rng(1729)
        for _ in range(25):
            arrays = {
                pair: rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                for pair in SettingPair
            }
            got = bell_operator({pair: CMatrix(a) for pair, a in arrays.items()})
            want = (
                (arrays[SettingPair.A_PRIME_B_PRIME] + arrays[SettingPair.A_PRIME_B])
                + arrays[SettingPair.AB_PRIME]
            ) - arrays[SettingPair.AB]
            for i in range(4):
                for j in range(4):
                    assert got[i][j] == want[i, j], (i, j)


class TestSchmidt:
    def test_product_vector(self):
        assert schmidt_coefficients(CVector([1, 0, 0, 0])) == (1.0, 0.0)

    def test_balanced_superposition(self):
        s1, s2 = schmidt_coefficients(CVector([0, SQ, SQ, 0]))
        assert abs(s1 - SQ) <= 1e-12 and abs(s2 - SQ) <= 1e-12

    def test_rank_one_all_ones(self):
        s1, s2 = schmidt_coefficients(CVector([0.5, 0.5, 0.5, 0.5]))
        assert abs(s1 - 1.0) <= 1e-12 and abs(s2) <= 1e-12

    def test_against_numpy_svd(self):
        rng = random.Random(42)
        for _ in range(100):
            v = random_unit_cvector(rng)
            for iso in (CANONICAL_ISO, SWAPPED_ISO):
                ours = schmidt_coefficients(v, iso)
                ref = np_singular_values_2x2(reference_reshape(v.amplitudes, iso.cells))
                assert abs(ours[0] - ref[0]) <= 1e-9
                assert abs(ours[1] - ref[1]) <= 1e-9
                assert abs(ours[0] ** 2 + ours[1] ** 2 - 1.0) <= 1e-9

    def test_same_floats_as_the_reshaped_block_formula(self):
        # the closed form on the amplitudes picked by the determinant
        # indices gives the floats of the form on an explicit 2x2 block
        rng = random.Random(2375)
        vectors = [vessel_state(0.3, 1.1), animal_acts_state().vector, CVector([1, 0, 0, 0])]
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            vectors.append(random_unit_cvector(rng).scaled(scale))
            cells = rng.choice((CANONICAL_ISO, SWAPPED_ISO)).cells
            vectors.append(random_product_vector(rng, cells).scaled(scale))
        for v in vectors:
            for iso in (CANONICAL_ISO, SWAPPED_ISO):
                ours = schmidt_coefficients(v, iso)
                want = reference_schmidt_coefficients(v.amplitudes, iso.cells)
                assert [x.hex() for x in ours] == [x.hex() for x in want], (v, iso.name)


class TestProductVector:
    def test_canonical_basis_vector(self):
        assert is_product_vector(CVector([0, 1, 0, 0]))

    def test_vessel_state_not_product(self):
        assert not is_product_vector(vessel_state(0.2, 0.9))

    def test_survey_state_not_product(self):
        state = animal_acts_state()
        assert not is_product_vector(state, CANONICAL_ISO, tol=1e-3)
        (a, b), (c, d) = reference_reshape(state.vector.amplitudes, CANONICAL_ISO.cells)
        det = a * d - b * c
        assert abs(abs(det) - 0.465) <= 0.01

    def test_random_product_vectors(self):
        rng = random.Random(7)
        for iso in (CANONICAL_ISO, SWAPPED_ISO):
            for _ in range(200):
                v = random_product_vector(rng, iso.cells)
                assert is_product_vector(v, iso, tol=1e-9)

    def test_balanced_superpositions_are_not_product(self):
        candidates = [
            CVector([0, SQ, SQ, 0]),
            CVector([0, SQ, -SQ, 0]),
            CVector([SQ, 0, 0, SQ]),
            CVector([SQ, 0, 0, -SQ]),
        ]
        for v in candidates:
            assert not is_product_vector(v)
            assert max(abs(c - SQ) for c in schmidt_coefficients(v)) <= 1e-12


class TestProductOperator:
    def test_diagonal_sign_matrix_is_product(self):
        # equals diag(1,-1) (x) diag(1,-1)
        m = CMatrix(np.diag([1, -1, -1, 1]))
        assert is_product_operator(m)
        z = [[1, 0], [0, -1]]
        assert np_max_entry_difference(m, product_operator(z, z, CANONICAL_ISO.cells)) == 0

    def test_vessel_offdiagonal_operator_not_product(self):
        op = vessels_offdiag_operator_reference(0.0, 0.0, (1, -1, -1, 1))
        assert not is_product_operator(op)

    def test_identity_is_product(self):
        assert is_product_operator(CMatrix(np.eye(4)))

    def test_random_kron_products(self):
        rng = random.Random(12)
        for iso in (CANONICAL_ISO, SWAPPED_ISO):
            for _ in range(100):
                a, b = random_2x2_matrix(rng), random_2x2_matrix(rng)
                m = product_operator(a, b, iso.cells)
                assert is_product_operator(m, iso, tol=1e-9)
                assert np_second_singular_value(realign(m, iso)) <= 1e-9

    def test_realign_rank_matches_numpy(self):
        rng = random.Random(13)
        for _ in range(50):
            m = CMatrix(
                [
                    [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                    for _ in range(4)
                ]
            )
            # minor-based and singular-value-based rank-1 detection agree
            assert is_product_operator(m, tol=1e-9) == (
                np_second_singular_value(realign(m)) <= 1e-9
            )

    def test_vessel_bell_operator_not_product(self):
        measurements = vessels_model(0.3, 0.8).measurements
        bell = bell_operator({p: m.operator for p, m in measurements.items()})
        assert not is_product_operator(bell)

    def test_quoted_survey_operators_not_product(self):
        for op in ANIMAL_ACTS_OPERATORS.values():
            assert not is_product_operator(op, tol=5e-2)


class TestEntangledMeasurement:
    def test_vessel_product_readout(self):
        model = vessels_model(0.6, 0.1)
        assert not is_entangled_measurement(model.measurements[SettingPair.AB])

    def test_vessel_entangled_readouts(self):
        model = vessels_model(0.6, 0.1)
        for pair in (
            SettingPair.AB_PRIME,
            SettingPair.A_PRIME_B,
            SettingPair.A_PRIME_B_PRIME,
        ):
            assert is_entangled_measurement(model.measurements[pair])

    def test_alternative_model_canonical_measurements_product(self):
        model = vessels_alternative_model(0.4, 0.7)
        assert not is_entangled_measurement(model.measurements[SettingPair.AB_PRIME])
        assert is_entangled_measurement(model.measurements[SettingPair.AB])


class TestIsomorphism:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Isomorphism("bad", ((0, 0), (0, 0), (1, 0), (1, 1)))

    def test_entanglement_location_under_both_isomorphisms(self):
        # the product-state construction keeps its state product and its
        # AB final states entangled under either identification
        state = CVector([1, 0, 0, 0])
        w2 = CVector([SQ * cmath.exp(0.4j), 0, 0, SQ * cmath.exp(-0.9j)])
        for iso in (CANONICAL_ISO, SWAPPED_ISO):
            assert is_product_vector(state, iso)
            assert not is_product_vector(w2, iso)


#: Every identification of C^4 with C^2 (x) C^2 by a coordinate permutation.
ALL_ISOS = tuple(
    Isomorphism(f"iso{i}", cells)
    for i, cells in enumerate(itertools.permutations(((0, 0), (0, 1), (1, 0), (1, 1))))
)


def _determinant_cache_cases(seed):
    """Fresh measurements: seeded synthesized bases, vessel bases at random
    phases (signed zeros included) and the canonical basis."""
    rng = random.Random(seed)
    cases = [Measurement(SettingPair.AB, CANONICAL_BASIS)]
    for _ in range(8):
        state = StateVector(random_unit_cvector(rng))
        for pair in PAIR_ORDER:
            cases.append(basis_from_probabilities(state, random_table(rng, pair).values, pair))
    for _ in range(8):
        phases = [rng.choice((0.0, -0.0, rng.uniform(-4.0, 4.0))) for _ in range(2)]
        for build in (vessels_model, vessels_alternative_model):
            cases += [
                Measurement(pair, m.final_states, m.outcomes)
                for pair, m in build(*phases).measurements.items()
            ]
    return cases


class TestDeterminantCache:
    """A measurement's determinant moduli are computed once per pairing
    class of isomorphism, and every isomorphism of the class reads them."""

    def test_pairing_classes(self):
        classes = {}
        for iso in ALL_ISOS:
            k00, k11, k01, k10 = iso._det_indices
            pairing = frozenset((frozenset((k00, k11)), frozenset((k01, k10))))
            classes.setdefault(iso._pairing, set()).add(pairing)
        assert sorted(classes) == [1, 2, 3]
        # one pairing per key, and each key held by 8 isomorphisms
        assert all(len(pairings) == 1 for pairings in classes.values())
        counts = [sum(iso._pairing == key for iso in ALL_ISOS) for key in classes]
        assert counts == [8, 8, 8]
        assert SWAPPED_ISO._pairing == CANONICAL_ISO._pairing

    def test_cached_moduli_equal_each_isomorphisms_own_determinants(self):
        for m in _determinant_cache_cases(1616):
            for iso in ALL_ISOS:
                is_entangled_measurement(m, iso)
                k00, k11, k01, k10 = iso._det_indices
                direct = [
                    abs(a[k00] * a[k11] - a[k01] * a[k10])
                    for a in (f.amplitudes for f in m.final_states)
                ]
                assert [d.hex() for d in m._moduli[iso._pairing]] == [d.hex() for d in direct]
            assert sorted(m._moduli) == [1, 2, 3]

    def test_product_vector_and_schmidt_read_the_same_determinant(self):
        # the modulus the cache is checked against, computed directly, is the
        # one is_product_vector compares with its tolerance and the one
        # schmidt_coefficients puts in its closed form, bit for bit
        for m in _determinant_cache_cases(1619):
            for f in m.final_states:
                a = f.amplitudes
                for iso in ALL_ISOS:
                    k00, k11, k01, k10 = iso._det_indices
                    d = abs(a[k00] * a[k11] - a[k01] * a[k10])
                    assert is_product_vector(f, iso, d)
                    assert not is_product_vector(f, iso, math.nextafter(d, -math.inf))
                    t = 0.0 + abs(a[k00]) ** 2 + abs(a[k01]) ** 2 + abs(a[k10]) ** 2
                    t = t + abs(a[k11]) ** 2
                    disc = math.sqrt(max(t * t - 4.0 * d * d, 0.0))
                    want = (
                        math.sqrt(max((t + disc) / 2.0, 0.0)),
                        math.sqrt(max((t - disc) / 2.0, 0.0)),
                    )
                    got = schmidt_coefficients(f, iso)
                    assert [s.hex() for s in got] == [s.hex() for s in want]

    def test_flags_equal_the_product_vector_flags(self):
        tols = (EXACT_TOL, 0.0, 1e-3, 0.25, 0.5, -1.0, float("nan"))
        for m in _determinant_cache_cases(1617):
            for iso in ALL_ISOS:
                for tol in tols:
                    want = any(not is_product_vector(f, iso, tol) for f in m.final_states)
                    assert is_entangled_measurement(m, iso, tol) is want

    def test_reordered_measurement_equals_a_checked_one(self):
        rng = random.Random(1618)
        orders = list(itertools.permutations(range(4)))
        for _ in range(10):
            basis = np_random_orthonormal_basis(rng)
            outcomes = rng.choice(((1.0, -1.0, -1.0, 1.0), (0.5, 2.0, -3.0, 0.0)))
            m = Measurement(SettingPair.AB, basis, outcomes)
            is_entangled_measurement(m)
            for pair in PAIR_ORDER:
                order = rng.choice(orders)
                reordered = m._reordered(pair, order)
                checked = Measurement(pair, [basis[i] for i in order], outcomes)
                assert reordered == checked and hash(reordered) == hash(checked)
                assert reordered._conjugates == checked._conjugates
                assert reordered._moduli == {} and reordered._moduli is not m._moduli
                assert is_entangled_measurement(reordered) == is_entangled_measurement(checked)

    def test_vessel_bases_are_reorderings_of_one_checked_basis(self):
        for alpha, beta in ((0.0, -0.0), (0.3, 1.1), (-2.5, 4.0)):
            model = vessels_model(alpha, beta)
            state = model.state.vector
            partner = CVector([0, state[1], -state[2], 0])
            e0, e3 = CANONICAL_BASIS[0], CANONICAL_BASIS[3]
            bases = {
                SettingPair.AB_PRIME: (state, partner, e0, e3),
                SettingPair.A_PRIME_B: (state, e0, partner, e3),
                SettingPair.A_PRIME_B_PRIME: (state, e0, e3, partner),
            }
            for pair, basis in bases.items():
                checked = Measurement(pair, basis)
                assert model.measurements[pair] == checked
                assert model.measurements[pair]._conjugates == checked._conjugates


class TestVerifyModel:
    def test_vessel_model_against_data(self):
        verdict = verify_model(
            vessels_model(0.0, 0.0).state,
            vessels_model(0.0, 0.0).measurements,
            vessels_data().experiment,
            tol=1e-9,
        )
        assert verdict.passed
        assert verdict.residual_kind == "probabilities"
        assert abs(verdict.chsh_from_model - 4.0) <= 1e-12
        assert verdict.chsh_imag_residual <= 1e-12
        assert verdict.state_entangled

    def test_alternative_model_against_data(self):
        model = vessels_alternative_model(0.0, 0.0)
        verdict = verify_model(
            model.state, model.measurements, vessels_data().experiment, tol=1e-9
        )
        assert verdict.passed
        entangled = [p for p in PAIR_ORDER if verdict.measurement_entangled[p]]
        assert entangled == [SettingPair.AB]
        assert not verdict.state_entangled

    def test_survey_model_against_data(self):
        verdict = animal_acts_model().verify(tol=0.03)
        assert verdict.passed
        assert verdict.residual_kind == "expectations"
        assert all(r <= 1e-3 for r in verdict.hermiticity_residuals.values())
        assert verdict.state_entangled
        assert all(verdict.measurement_entangled.values())

    def test_failing_verification_reported(self):
        # vessel construction against the separated data cannot match
        from bellbox.models import vessels_separated_data

        model = vessels_model(0.0, 0.0)
        verdict = verify_model(
            model.state,
            model.measurements,
            vessels_separated_data().experiment,
            tol=1e-9,
        )
        assert not verdict.passed
        assert max(verdict.residuals.values()) > 0.4

    def test_verdict_records_its_isomorphism(self):
        model = vessels_model(0.0, 0.0)
        verdict = verify_model(
            model.state, model.measurements, vessels_data().experiment,
            tol=1e-9, iso=SWAPPED_ISO,
        )
        assert verdict.iso is SWAPPED_ISO

    def test_measurements_build_their_operators_once(self, count_calls):
        # a synthesized model is verified from its Born tables alone: each
        # verify_model call takes four, from the Born kernel, and no
        # operator is built
        calls = {
            name: count_calls(hilbert, name)
            for name in (
                "operator_from_measurement",
                "_born_probabilities",
                "hermiticity_residual",
                "bell_operator",
            )
        }
        state = animal_acts_state()
        data = animal_acts_data().experiment
        measurements = {
            pair: basis_from_probabilities(state, data.table(pair).values, pair)
            for pair in PAIR_ORDER
        }
        for iso in (CANONICAL_ISO, SWAPPED_ISO):
            assert verify_model(state, measurements, data, 1e-9, iso).passed
        counts = {name: c[0] for name, c in calls.items()}
        assert counts == {
            "operator_from_measurement": 0,
            "_born_probabilities": 8,
            "hermiticity_residual": 0,
            "bell_operator": 0,
        }


def _constructions(seed):
    """(state, measurements, operators, data) of the animal-acts model and
    of vessel and synthesized models at seeded phases and targets."""
    rng = random.Random(seed)
    model = animal_acts_model()
    built = [(model.state, None, model.operators, animal_acts_data().experiment)]
    vessels = vessels_data().experiment
    for _ in range(15):
        for build in (vessels_model, vessels_alternative_model):
            model = build(rng.uniform(-4.0, 4.0), rng.choice((0.0, -0.0, rng.uniform(-4.0, 4.0))))
            built.append((model.state, model.measurements, None, vessels))
    for _ in range(15):
        state = StateVector(random_unit_cvector(rng))
        data = Experiment(tuple(random_table(rng, p) for p in PAIR_ORDER))
        measurements = {
            p: basis_from_probabilities(state, data.table(p).values, p) for p in PAIR_ORDER
        }
        built.append((state, measurements, None, data))
    return built


class TestBellValueFromBornTables:
    """A basis-backed construction takes its Bell value from its Born
    tables; it must agree with <s|B|s> of the Bell operator."""

    def test_chsh_from_model_matches_the_bell_operator_and_numpy(self):
        for state, measurements, operators, data in _constructions(2025):
            verdict = hilbert.Construction(state, measurements, operators).verify(data, 1e-9)
            if operators is None:
                operators = {p: m.operator for p, m in measurements.items()}
            via_bell = quadratic_form(bell_operator(operators), state.vector).real
            via_numpy = np_bell_value(state.vector, measurements, operators).real
            assert abs(verdict.chsh_from_model - via_bell) <= 1e-12
            assert abs(verdict.chsh_from_model - via_numpy) <= 1e-12

    def test_basis_backed_models_have_no_imaginary_residual(self):
        for state, measurements, _operators, data in _constructions(2026):
            if measurements is None:
                continue
            for iso in (CANONICAL_ISO, SWAPPED_ISO):
                verdict = verify_model(state, measurements, data, 1e-9, iso)
                assert verdict.chsh_imag_residual == 0.0
                assert verdict.hermiticity_residuals == dict.fromkeys(PAIR_ORDER, 0.0)


def _normalizes(tol):
    try:
        normalize((0.25, 0.25, 0.25, 0.25), tol=tol)
    except NotNormalizableError:
        return False
    return True


def _vessels_pass(tol):
    model = vessels_model()
    return verify_model(model.state, model.measurements, vessels_data().experiment, tol).passed


def _construction_products(tol):
    # product measurements and product operators, flagged at product_tol
    state, data = StateVector(CANONICAL_BASIS[0]), vessels_data().experiment
    measurements = {p: Measurement(p, CANONICAL_BASIS) for p in PAIR_ORDER}
    operators = {p: CMatrix(np.eye(4)) for p in PAIR_ORDER}
    constructions = (
        hilbert.Construction(state, measurements, None, tol),
        hilbert.Construction(state, None, operators, tol),
    )
    return not any(any(c.verify(data, 1.0).measurement_entangled.values()) for c in constructions)


#: Each check on an input that it accepts at EXACT_TOL.
ACCEPTS_WITHIN = {
    "normalize": _normalizes,
    "marginal_law_report": lambda tol: marginal_law_report(
        Experiment(tuple(JointTable(0.25, 0.25, 0.25, 0.25, pair) for pair in PAIR_ORDER)), tol
    ).holds,
    "factorization_test": lambda tol: factorization_test(
        JointTable(0.25, 0.25, 0.25, 0.25), tol
    ).factorizable,
    "is_product_vector": lambda tol: is_product_vector(CVector([1, 0, 0, 0]), tol=tol),
    "is_entangled_measurement": lambda tol: not is_entangled_measurement(
        Measurement(SettingPair.AB, CANONICAL_BASIS), tol=tol
    ),
    "is_product_operator": lambda tol: is_product_operator(CMatrix(np.eye(4)), tol=tol),
    "verify_model": _vessels_pass,
    "Construction.product_tol": _construction_products,
}


@pytest.mark.parametrize("tol", [-1.0, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("check", sorted(ACCEPTS_WITHIN))
def test_no_value_is_within_a_negative_or_nan_tolerance(check, tol):
    accepts = ACCEPTS_WITHIN[check]
    assert accepts(EXACT_TOL)
    assert not accepts(tol)
