"""numpy checks of Hilbert-space constructions, written apart from bellbox.

Each check takes a construction as plain numbers (complex amplitudes as
``[re, im]`` pairs) and recomputes from the definitions: orthonormality
of each measurement basis, Born probabilities |<f_k|s>|^2, the Bell
operator expectation, and entanglement as the rank of the reshaped
vector or realigned operator (through singular values).  Returns a list
of problems, empty when the construction is right.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from corpus import PAIRS, REFERENCE_SIGNS
from oracle import DATASETS, load_tables

EXACT_TOL = 1e-9

#: Each C^4 index's cell in the 2x2 array, per identification.
ISO_CELLS = {
    "canonical": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "swapped": ((0, 0), (1, 0), (0, 1), (1, 1)),
}

#: Operator flags are decided by the program with 2x2 minors of the
#: realignment at this tolerance (the animal-acts matrices are quoted to
#: three decimals).  The largest minor m and the singular values satisfy
#: s1*s2/6 <= m <= s1*s2, so numpy decides the flag outside that band.
ROUNDED_OPERATOR_TOL = 5e-2


def vec(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data])


def mat(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _reshape(v: np.ndarray, iso: str) -> np.ndarray:
    block = np.zeros((2, 2), dtype=complex)
    for k, (r, c) in enumerate(ISO_CELLS[iso]):
        block[r, c] = v[k]
    return block


def _realign(m: np.ndarray, iso: str) -> np.ndarray:
    cells = ISO_CELLS[iso]
    out = np.zeros((4, 4), dtype=complex)
    for k, (rk, ck) in enumerate(cells):
        for l, (rl, cl) in enumerate(cells):  # noqa: E741
            out[2 * rk + rl, 2 * ck + cl] = m[k, l]
    return out


def vector_entangled(v: np.ndarray, iso: str, tol: float = EXACT_TOL):
    """True/False when the product of the reshaped singular values is
    clearly above/below ``tol``; None when too close to call."""
    s = np.linalg.svd(_reshape(v, iso), compute_uv=False)
    product = s[0] * s[1]
    if product > 1e3 * tol:
        return True
    if product < 1e-3 * tol:
        return False
    return None


def operator_entangled(m: np.ndarray, iso: str, tol: float):
    s = np.linalg.svd(_realign(m, iso), compute_uv=False)
    product = s[0] * s[1]
    if product / 6 > 1.01 * tol:
        return True
    if product < 0.99 * tol:
        return False
    return None


def data_tables(name: str) -> dict:
    """A built-in dataset after the load rule, as floats."""
    return {p: [float(x) for x in v] for p, v in load_tables(DATASETS[name]).items()}


def reference_combination(tables: dict) -> Fraction:
    """E(A'B') + E(A'B) + E(AB') - E(AB), exactly, from float tables."""
    total = Fraction(0)
    for pair in PAIRS:
        p = [Fraction(x) for x in tables[pair]]
        total += REFERENCE_SIGNS[pair] * (p[0] - p[1] - p[2] + p[3])
    return total


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol


def check_basis_model(op: dict, data: dict, verdicts: dict, placement=None) -> list[str]:
    """Check a state-plus-bases construction against ``data`` tables.

    ``op`` has ``state`` and ``measurements`` ({pair: {"final_states",
    "outcomes"}}); ``verdicts`` maps an iso name to the program's verdict.
    ``placement`` is the expected canonical (state, measurement) flags.
    """
    problems = []
    state = vec(op["state"])
    if not _close(np.linalg.norm(state), 1.0):
        problems.append(f"state norm {np.linalg.norm(state)}")
    bell = np.zeros((4, 4), dtype=complex)
    residuals = {}
    hermiticity = {}
    for pair in PAIRS:
        m = op["measurements"][pair]
        basis = np.array([vec(f) for f in m["final_states"]])  # rows are final states
        gram = basis.conj() @ basis.T
        if np.max(np.abs(gram - np.eye(4))) > EXACT_TOL:
            problems.append(f"{pair}: final states not orthonormal")
        born = np.abs(basis.conj() @ state) ** 2
        residuals[pair] = float(np.max(np.abs(born - np.array(data[pair]))))
        operator = sum(o * np.outer(f, f.conj()) for o, f in zip(m["outcomes"], basis))
        hermiticity[pair] = float(np.max(np.abs(operator - operator.conj().T)))
        bell += REFERENCE_SIGNS[pair] * operator
    value = complex(state.conj() @ bell @ state)
    for iso, v in verdicts.items():
        problems += _common_verdict_checks(iso, v, residuals, hermiticity, value)
        if v["residual_kind"] != "probabilities":
            problems.append(f"{iso}: residual_kind {v['residual_kind']}")
        for pair in PAIRS:
            if residuals[pair] > EXACT_TOL:
                problems.append(f"{pair}: Born residual {residuals[pair]}")
        want_state = vector_entangled(state, iso)
        if want_state is not None and v["state_entangled"] != want_state:
            problems.append(f"{iso}: state_entangled {v['state_entangled']}, numpy {want_state}")
        for pair in PAIRS:
            finals = [vec(f) for f in op["measurements"][pair]["final_states"]]
            flags = [vector_entangled(f, iso) for f in finals]
            want = True if any(flags) else (None if None in flags else False)
            if want is not None and v["measurement_entangled"][pair] != want:
                problems.append(f"{iso}: {pair} entangled {v['measurement_entangled'][pair]}, numpy {want}")
        if placement is not None and iso == "canonical":
            state_flag, measurement_flags = placement
            if v["state_entangled"] != state_flag or v["measurement_entangled"] != measurement_flags:
                problems.append("canonical entanglement placement differs from the paper's")
    return problems


def check_operator_model(op: dict, data: dict, verdicts: dict) -> list[str]:
    """Check a state-plus-operators construction: expectations <s|E|s>
    against the data correlators p11 - p12 - p21 + p22."""
    problems = []
    state = vec(op["state"])
    bell = np.zeros((4, 4), dtype=complex)
    residuals = {}
    hermiticity = {}
    for pair in PAIRS:
        operator = mat(op["operators"][pair])
        p = data[pair]
        expectation = float((state.conj() @ operator @ state).real)
        residuals[pair] = abs(expectation - (p[0] - p[1] - p[2] + p[3]))
        hermiticity[pair] = float(np.max(np.abs(operator - operator.conj().T)))
        bell += REFERENCE_SIGNS[pair] * operator
    value = complex(state.conj() @ bell @ state)
    for iso, v in verdicts.items():
        problems += _common_verdict_checks(iso, v, residuals, hermiticity, value)
        if v["residual_kind"] != "expectations":
            problems.append(f"{iso}: residual_kind {v['residual_kind']}")
        want_state = vector_entangled(state, iso)
        if want_state is not None and v["state_entangled"] != want_state:
            problems.append(f"{iso}: state_entangled {v['state_entangled']}, numpy {want_state}")
        for pair in PAIRS:
            want = operator_entangled(mat(op["operators"][pair]), iso, ROUNDED_OPERATOR_TOL)
            if want is not None and v["measurement_entangled"][pair] != want:
                problems.append(f"{iso}: {pair} entangled {v['measurement_entangled'][pair]}, numpy {want}")
    return problems


def _common_verdict_checks(iso, v, residuals, hermiticity, value) -> list[str]:
    problems = []
    for pair in PAIRS:
        if not _close(v["residuals"][pair], residuals[pair]):
            problems.append(f"{iso}: {pair} residual {v['residuals'][pair]}, numpy {residuals[pair]}")
        if not _close(v["hermiticity_residuals"][pair], hermiticity[pair]):
            problems.append(f"{iso}: {pair} hermiticity {v['hermiticity_residuals'][pair]}")
    if not _close(v["chsh_from_model"], value.real):
        problems.append(f"{iso}: chsh_from_model {v['chsh_from_model']}, numpy {value.real}")
    if not _close(v["chsh_imag_residual"], abs(value.imag)):
        problems.append(f"{iso}: chsh_imag_residual {v['chsh_imag_residual']}")
    want_pass = all(r <= v["tolerance"] for r in residuals.values())
    if v["passed"] is not want_pass or not want_pass:
        problems.append(f"{iso}: passed {v['passed']}, numpy residuals {residuals}")
    return problems
