"""Independent reference implementations used to check the library.

Everything here is deliberately written against the *definitions* rather
than against the library's code paths: the factorization oracle searches
a product lattice instead of evaluating a determinant, the classical-case
oracle solves Fine's joint-distribution problem as a linear program
instead of scoring CHSH, operator references are spelled out entrywise
from their closed forms, and the singular-value / rank oracles go through
numpy.  The reference kernels are the exception: they keep the
straightforward forms of the Hilbert-space kernels, which the library's
must match bit for bit.  So does the reference analyze path
(``reference_read_experiment``, ``reference_normalize``, ``reference_chsh``,
``reference_marginal_law_report``): the straightforward forms of the file
reader and the analysis, with the builtin ``sum`` of Python 3.11 spelled
out so that they give 3.11's floats on every version.
``reference_text_mode_read_experiment`` reads a file in text mode and checks
it one value at a time, as the reader must.  The reference documents
(``reference_machine_payload``, ``reference_file_document``) are the objects
whose ``json.dumps(..., indent=2)`` the two writers must write byte for
byte, and ``reference_render_text`` writes the text report one f-string per
line.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from json.scanner import NUMBER_RE
from pathlib import Path
from typing import Any, Sequence

import numpy as np
from scipy.optimize import linprog

from bellbox.bell import BOUNDS, CHSH_TERM_ORDER, REFERENCE_SIGNS, ChshResult
from bellbox.expfile import FORMAT_VERSION, ExperimentFileError
from bellbox.linalg import CMatrix, CVector
from bellbox.tables import (
    CLASS_TOL,
    DEFAULT_NORM_TOL,
    ENTRY_EPS,
    PAIR_ORDER,
    Experiment,
    JointTable,
    MarginalComparison,
    MarginalLawReport,
    NegativeEntryError,
    NotNormalizableError,
    SettingPair,
    TableError,
    expectation_value,
    marginals,
)


# ---------------------------------------------------------------------------
# brute-force factorization oracle
# ---------------------------------------------------------------------------


def _lattice_indices(lo: float, hi: float, points: int) -> range:
    """Indices k with k/(points-1) in [lo, hi], padded by one on each side
    so float rounding can never drop a boundary point."""
    if hi < lo:
        return range(0)
    k_lo = max(0, math.floor(lo * (points - 1)) - 1)
    k_hi = min(points - 1, math.ceil(hi * (points - 1)) + 1)
    return range(k_lo, k_hi + 1)


def lattice_factorization_oracle(
    values: tuple[float, float, float, float],
    tol: float = 1e-6,
    points: int = 1001,
) -> bool:
    """Grid search for one-sided probabilities reproducing the table.

    Candidates are a = u * (p11 + p12) and b = v * (p11 + p21) with u, v on
    the 1001-point unit lattice and complements a' = 1 - a, b' = 1 - b;
    scaling the lattice by the marginals puts the only admissible exact
    solution on the grid.  The verdict is whether some candidate matches
    all four entries within ``tol``.  Enumeration is pruned with necessary
    interval bounds implied by the entry conditions, which never discard a
    passing candidate, so the verdict equals full enumeration.
    """
    p11, p12, p21, p22 = values
    r1 = p11 + p12
    c1 = p11 + p21

    if r1 <= 0.0:
        a_candidates = [0.0]
    else:
        # |p11 - a b| <= tol and |p12 - a b'| <= tol force |r1 - a| <= 2 tol
        lo = (r1 - 2.0 * tol) / r1
        hi = min((r1 + 2.0 * tol) / r1, 1.0)
        a_candidates = [r1 * (k / (points - 1)) for k in _lattice_indices(lo, hi, points)]

    for a in a_candidates:
        ap = 1.0 - a
        b_lo, b_hi = 0.0, 1.0
        feasible = True
        if a > 0.0:
            b_lo = max(b_lo, (p11 - tol) / a)
            b_hi = min(b_hi, (p11 + tol) / a)
        elif abs(p11) > tol or abs(p12) > tol:
            feasible = False
        if ap > 0.0:
            b_lo = max(b_lo, (p21 - tol) / ap)
            b_hi = min(b_hi, (p21 + tol) / ap)
        elif abs(p21) > tol or abs(p22) > tol:
            feasible = False
        if not feasible:
            continue

        if c1 <= 0.0:
            b_candidates = [0.0]
        else:
            b_candidates = [
                c1 * (k / (points - 1))
                for k in _lattice_indices(b_lo / c1, b_hi / c1, points)
            ]
        for b in b_candidates:
            bp = 1.0 - b
            residual = max(
                abs(p11 - a * b),
                abs(p12 - a * bp),
                abs(p21 - ap * b),
                abs(p22 - ap * bp),
            )
            if residual <= tol:
                return True
    return False


# ---------------------------------------------------------------------------
# Fine's theorem oracle
# ---------------------------------------------------------------------------

#: The 16 deterministic assignments of outcome indices (0 for outcome 1,
#: 1 for outcome 2) to the settings, in the order (A, A', B, B').
_ASSIGNMENTS = tuple(itertools.product((0, 1), repeat=4))


def fine_joint_distribution_exists(experiment: Experiment) -> bool:
    """Whether some distribution over the 16 deterministic assignments
    (a, a', b, b') reproduces all 16 cells of the four tables.

    By Fine's theorem (Fine, PRL 48, 291, 1982) this holds exactly when the
    marginals agree and all eight CHSH inequalities hold; here it is
    decided as a linear-programming feasibility problem, without reference
    to CHSH or to the marginal law.
    """
    rows, cells = [], []
    for table in experiment.tables:
        first = 0 if table.pair.first == "A" else 1
        second = 2 if table.pair.second == "B" else 3
        for k, probability in enumerate(table.values):
            outcome = divmod(k, 2)  # cell order 11, 12, 21, 22
            rows.append(
                [float((lam[first], lam[second]) == outcome) for lam in _ASSIGNMENTS]
            )
            cells.append(probability)
    result = linprog(
        np.zeros(len(_ASSIGNMENTS)),
        A_eq=np.array(rows),
        b_eq=np.array(cells),
        bounds=(0, None),
        method="highs",
    )
    if result.status not in (0, 2):  # 0 feasible, 2 infeasible
        raise RuntimeError(f"linprog gave no verdict: {result.message}")
    return result.status == 0


# ---------------------------------------------------------------------------
# closed-form operator references
# ---------------------------------------------------------------------------


def vessels_offdiag_operator_reference(
    alpha: float, beta: float, outcomes: tuple[float, float, float, float]
) -> CMatrix:
    """Entrywise form shared by the AB' and A'B operators of the
    entangled-state vessel construction.

    ``outcomes`` is in final-state order (plus, minus, e0, e3): the two
    outcomes attached to the superposition states drive the middle block,
    the other two sit in the corners.
    """
    l_plus, l_minus, l_e0, l_e3 = outcomes
    theta = alpha - beta
    mid_diag = 0.5 * (l_plus + l_minus)
    mid_off = 0.5 * cmath.exp(1j * theta) * (l_plus - l_minus)
    return CMatrix(
        [
            [l_e0, 0, 0, 0],
            [0, mid_diag, mid_off, 0],
            [0, mid_off.conjugate(), mid_diag, 0],
            [0, 0, 0, l_e3],
        ]
    )


def alternative_ab_operator_reference(
    alpha: float, beta: float, outcomes: tuple[float, float, float, float]
) -> CMatrix:
    """Entrywise form of the AB operator of the product-state vessel
    construction; ``outcomes`` in table cell order (11, 12, 21, 22)."""
    l11, l12, l21, l22 = outcomes
    theta = alpha - beta
    corner_diag = 0.5 * (l12 + l21)
    corner_off = 0.5 * cmath.exp(1j * theta) * (l12 - l21)
    return CMatrix(
        [
            [corner_diag, 0, 0, corner_off],
            [0, l11, 0, 0],
            [0, 0, l22, 0],
            [corner_off.conjugate(), 0, 0, corner_diag],
        ]
    )


# ---------------------------------------------------------------------------
# reference kernels
# ---------------------------------------------------------------------------
#
# The straightforward forms of the Hilbert-space kernels, over plain
# amplitude sequences and row lists.  The library's kernels do the same
# float operations in the same order with less interpreter work, so they
# must agree with these bit for bit.


def reference_inner(u, v) -> complex:
    """<u|v>, conjugating the first argument, summed from 0j in order."""
    total = 0j
    for a, b in zip(u, v):
        total += a.conjugate() * b
    return total


def reference_apply(rows, v) -> list[complex]:
    """m @ v for a row list, each entry summed from 0j in order."""
    out = []
    for row in rows:
        total = 0j
        for a, b in zip(row, v):
            total += a * b
        out.append(total)
    return out


def reference_overlaps(final_states) -> dict[tuple[int, int], float]:
    """|<f_i|f_j>| for i <= j, in the order a measurement checks them."""
    return {
        (i, j): abs(reference_inner(final_states[i], final_states[j]))
        for i in range(4)
        for j in range(i, 4)
    }


def reference_born_probabilities(state, final_states) -> tuple[float, ...]:
    """|<f_k|state>|^2, clipped to [0, 1]."""
    return tuple(min(max(abs(reference_inner(f, state)) ** 2, 0.0), 1.0) for f in final_states)


def reference_realign(rows, cells) -> list[list[complex]]:
    """R[(i,i'),(j,j')] = M[(i,j),(i',j')] by the cell loop: entry (k, l)
    goes to row 2 i + i' and column 2 j + j', where k sits in cell (i, j)
    and l in cell (i', j')."""
    out = [[0j] * 4 for _ in range(4)]
    for k, (rk, ck) in enumerate(cells):
        for l, (rl, cl) in enumerate(cells):  # noqa: E741 - paired index with k
            out[2 * rk + rl][2 * ck + cl] = rows[k][l]
    return out


def reference_basis_from_probabilities(state: CVector, targets) -> list[CVector]:
    """The final states of ``basis_from_probabilities`` in the vector form:
    t = CVector(sqrt(targets)), c the phase of <t|s>, w = s + t.scaled(c),
    and final state k = CVector(column k of I - 2 w w* / |w|^2).scaled(-c)."""
    t = CVector([math.sqrt(max(float(x), 0.0)) for x in targets])
    overlap = reference_inner(t.amplitudes, state.amplitudes)
    c = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0 + 0j
    w = CVector([a + b for a, b in zip(state.amplitudes, t.scaled(c).amplitudes)])
    wnorm2 = 0.0
    for z in w:
        wnorm2 += abs(z) ** 2
    basis = []
    for k in range(4):
        column = [
            (1.0 if i == k else 0.0) - 2.0 * w[i] * w[k].conjugate() / wnorm2 for i in range(4)
        ]
        basis.append(CVector(column).scaled(-c))
    return basis


def reference_reshape(
    amplitudes, cells
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The 2x2 array that puts amplitude k in ``cells[k]``."""
    block = [[0j, 0j], [0j, 0j]]
    for k, (row, col) in enumerate(cells):
        block[row][col] = amplitudes[k]
    return ((block[0][0], block[0][1]), (block[1][0], block[1][1]))


def reference_block_det(amplitudes, cells) -> complex:
    """Determinant of the 2x2 array that puts amplitude k in ``cells[k]``."""
    (z00, z01), (z10, z11) = reference_reshape(amplitudes, cells)
    return z00 * z11 - z01 * z10


def reference_schmidt_coefficients(amplitudes, cells) -> tuple[float, float]:
    """Singular values of :func:`reference_reshape`'s array by the closed
    form s+- = sqrt((t +- sqrt(t^2 - 4 d^2)) / 2), with t the squared
    Frobenius norm added over cells 00, 01, 10, 11 and d the determinant
    modulus, evaluated as written."""
    (z00, z01), (z10, z11) = reference_reshape(amplitudes, cells)
    t = 0.0 + abs(z00) ** 2 + abs(z01) ** 2 + abs(z10) ** 2 + abs(z11) ** 2
    d = abs(z00 * z11 - z01 * z10)
    disc = math.sqrt(max(t * t - 4.0 * d * d, 0.0))
    return (math.sqrt(max((t + disc) / 2.0, 0.0)), math.sqrt(max((t - disc) / 2.0, 0.0)))


def reference_operator_from_measurement(outcomes, final_states) -> list[list[complex]]:
    """Spectral form sum_k x_k |f_k><f_k|, entry by entry."""
    terms = [(x, f, [z.conjugate() for z in f]) for x, f in zip(outcomes, final_states)]
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            total = 0j
            for x, f, f_conj in terms:
                total += x * (f[i] * f_conj[j])
            row.append(total)
        rows.append(row)
    return rows


def reference_bell_operator(operators) -> list[list[complex]]:
    """The CHSH combination of row lists keyed by setting pair, summed
    entry by entry in CHSH_TERM_ORDER with the REFERENCE_SIGNS."""
    terms = [(operators[p], REFERENCE_SIGNS[p] > 0) for p in CHSH_TERM_ORDER]

    def entry(i: int, j: int) -> complex:
        total = 0j
        for rows, plus in terms:
            total = total + rows[i][j] if plus else total - rows[i][j]
        return total

    return [[entry(i, j) for j in range(4)] for i in range(4)]


def np_bell_value(state: CVector, measurements, operators) -> complex:
    """<s|B|s> through numpy, B = E_A'B' + E_A'B + E_AB' - E_AB, where each
    E is the spectral form sum_k x_k |f_k><f_k| of the measurement when
    ``measurements`` is given, else the matrix in ``operators``."""
    s = np.array(state.amplitudes)
    bell = np.zeros((4, 4), dtype=complex)
    for pair in PAIR_ORDER:
        if measurements is not None:
            m = measurements[pair]
            finals = np.array([f.amplitudes for f in m.final_states])  # rows are final states
            operator = finals.T @ np.diag(m.outcomes) @ finals.conj()
        else:
            operator = np.array(operators[pair].rows)
        bell += REFERENCE_SIGNS[pair] * operator
    return complex(s.conj() @ bell @ s)


def reference_hermiticity_residual(rows) -> float:
    """Largest |m_ij - conj(m_ji)| over i <= j."""
    return max(abs(rows[i][j] - rows[j][i].conjugate()) for i in range(4) for j in range(i, 4))


# ---------------------------------------------------------------------------
# numpy-backed checks
# ---------------------------------------------------------------------------


def np_singular_values_2x2(block) -> tuple[float, float]:
    arr = np.array([[block[0][0], block[0][1]], [block[1][0], block[1][1]]])
    s = np.linalg.svd(arr, compute_uv=False)
    return float(s[0]), float(s[1])


def np_max_entry_difference(a: CMatrix, b: CMatrix) -> float:
    """Largest entrywise modulus of ``a - b``."""
    return float(np.abs(np.array(a.rows) - np.array(b.rows)).max())


def np_second_singular_value(m: CMatrix) -> float:
    """Second-largest singular value; zero exactly for rank <= 1."""
    arr = np.array([[m[i][j] for j in range(4)] for i in range(4)])
    return float(np.linalg.svd(arr, compute_uv=False)[1])


def np_random_orthonormal_basis(rng: random.Random) -> list[CVector]:
    """Haar-ish random orthonormal basis of C^4 via QR of a Gaussian."""
    seed = rng.randrange(2**32)
    gauss = np.random.default_rng(seed)
    z = gauss.standard_normal((4, 4)) + 1j * gauss.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.exp(1j * gauss.uniform(0, 2 * np.pi, size=4)))
    return [CVector(q[:, k].tolist()) for k in range(4)]


# ---------------------------------------------------------------------------
# random value generators (seeded, stdlib random)
# ---------------------------------------------------------------------------


def random_unit_cvector(rng: random.Random) -> CVector:
    while True:
        comps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        vec = CVector(comps)
        if vec.norm() > 1e-3:
            return vec.normalized()


def random_qubit(rng: random.Random) -> tuple[complex, complex]:
    while True:
        pair = (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        n = math.sqrt(abs(pair[0]) ** 2 + abs(pair[1]) ** 2)
        if n > 1e-3:
            return (pair[0] / n, pair[1] / n)


def random_product_vector(rng: random.Random, cells) -> CVector:
    """Tensor product u (x) w arranged by the isomorphism's cell map."""
    u = random_qubit(rng)
    w = random_qubit(rng)
    amps = [0j] * 4
    for k, (row, col) in enumerate(cells):
        amps[k] = u[row] * w[col]
    return CVector(amps)


def random_2x2_matrix(rng: random.Random):
    return [
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        for _ in range(2)
    ]


def product_operator(a, b, cells) -> CMatrix:
    """A (x) B arranged by the isomorphism's cell map."""
    rows = [[0j] * 4 for _ in range(4)]
    for k in range(4):
        rk, ck = cells[k]
        for l in range(4):  # noqa: E741
            rl, cl = cells[l]
            rows[k][l] = a[rk][rl] * b[ck][cl]
    return CMatrix(rows)


def random_table(rng: random.Random, pair: SettingPair = SettingPair.AB) -> JointTable:
    raw = [rng.random() for _ in range(4)]
    total = sum(raw)
    return JointTable(*(v / total for v in raw), pair=pair)


def random_outer_product_table(
    rng: random.Random, pair: SettingPair = SettingPair.AB
) -> JointTable:
    a, b = rng.random(), rng.random()
    return JointTable(a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b), pair=pair)


def outer_product_table(
    first: tuple[float, float],
    second: tuple[float, float],
    pair: SettingPair = SettingPair.AB,
) -> JointTable:
    """Table built from independent one-sided distributions."""
    (a, a2), (b, b2) = first, second
    return JointTable(a * b, a * b2, a2 * b, a2 * b2, pair)


def swap_sides(experiment: Experiment) -> Experiment:
    """The same experiment with the second side read as the first: each
    table is transposed (cells 12 and 21 trade places), the AB' and A'B
    tables trade roles, and the side labels swap."""
    source = {
        SettingPair.AB: SettingPair.AB,
        SettingPair.AB_PRIME: SettingPair.A_PRIME_B,
        SettingPair.A_PRIME_B: SettingPair.AB_PRIME,
        SettingPair.A_PRIME_B_PRIME: SettingPair.A_PRIME_B_PRIME,
    }
    tables = {}
    for pair, origin in source.items():
        p11, p12, p21, p22 = experiment.table(origin).values
        tables[pair] = JointTable(p11, p21, p12, p22, pair)
    first, second = experiment.sides
    return Experiment.from_tables(tables, sides=(second, first))


# ---------------------------------------------------------------------------
# reference analyze path: the straightforward read -> normalize -> analysis
# ---------------------------------------------------------------------------


def _sum311(values) -> float:
    """The builtin ``sum`` of Python 3.10/3.11: left to right from 0."""
    total = 0
    for v in values:
        total = total + v
    return total


def reference_normalize(
    values: Sequence[float], pair: SettingPair = SettingPair.AB, tol: float = DEFAULT_NORM_TOL
) -> JointTable:
    """``normalize`` as it was before its checks were merged: each entry is
    checked, summed, rescaled, then checked again as a table would be with
    the slack of ``DEFAULT_NORM_TOL``."""
    vals = tuple(float(v) for v in values)
    if len(vals) != 4:
        raise TableError(f"expected 4 probabilities, got {len(vals)}")
    for label, value in zip(pair.outcome_labels, vals):
        if not math.isfinite(value):
            raise TableError(f"entry {label} = {value!r} is not finite")
        if value < 0:
            raise NegativeEntryError(f"entry {label} = {value!r} is negative")
    total = _sum311(vals)
    if not abs(total - 1.0) <= tol:
        raise NotNormalizableError(
            f"table {pair.label} sums to {total!r}; |sum - 1| exceeds tol={tol}"
        )
    if abs(total - 1.0) > ENTRY_EPS:
        vals = tuple(v / total for v in vals)
    for label, value in zip(pair.outcome_labels, vals):
        if not (-ENTRY_EPS <= value <= 1.0 + ENTRY_EPS):
            raise TableError(f"entry {label} = {value!r} is not a probability")
    if abs(_sum311(vals) - 1.0) > DEFAULT_NORM_TOL:
        raise NotNormalizableError(f"table {pair.label} sums to {_sum311(vals)!r}, too far from 1")
    return JointTable(*vals, pair=pair)


class _RepeatedKeys(dict):
    key: str


def _reference_parse(text: str) -> tuple[Any, bool]:
    repeats = []

    def parse_object(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _value in pairs]
            obj = _RepeatedKeys(obj)
            obj.key = next(key for i, key in enumerate(keys) if key in keys[:i])
            repeats.append(obj)
        return obj

    return json.loads(text, object_pairs_hook=parse_object), bool(repeats)


def _reference_find_repeated(node, where: str):
    if isinstance(node, _RepeatedKeys):
        return where, node.key
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(child, (dict, list)):
            field = key if where == "document" else f"{where}.{key}"
            found = _reference_find_repeated(child, field)
            if found is not None:
                return found
    return None


def reference_read_experiment(path, normalize_tol: float = DEFAULT_NORM_TOL):
    """``read_experiment`` before the read path was merged into one pass:
    probabilities are parsed with ``float``, and side labels may repeat."""

    def fail(where: str, problem: str) -> ExperimentFileError:
        return ExperimentFileError(f"{path}: {where}: {problem}")

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ExperimentFileError(f"{path}: cannot read file: {exc}") from exc
    try:
        doc, repeats = _reference_parse(text)
    except json.JSONDecodeError as exc:
        raise fail(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise fail("document", "top level must be a JSON object")
    if repeats:
        where, key = _reference_find_repeated(doc, "document")
        raise fail(where, f"duplicate key {key!r}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise fail("version", f"expected {FORMAT_VERSION}, got {version!r}")
    sides = doc.get("sides", {"first": ["A", "A'"], "second": ["B", "B'"]})
    if not isinstance(sides, dict) or set(sides) != {"first", "second"}:
        raise fail("sides", "expected {'first': [x, x'], 'second': [y, y']}")
    for side, labels in sides.items():
        if not (
            isinstance(labels, list)
            and len(labels) == 2
            and all(isinstance(label, str) for label in labels)
        ):
            raise fail(f"sides.{side}", f"expected two string labels: {labels!r}")
    settings = doc.get("settings")
    expected_settings = [pair.label for pair in PAIR_ORDER]
    if settings != expected_settings:
        raise fail("settings", f"expected {expected_settings}, got {settings!r}")
    tables_doc = doc.get("tables")
    if not isinstance(tables_doc, dict):
        raise fail("tables", "missing or not an object")
    tables = {}
    for pair in PAIR_ORDER:
        entry = tables_doc.get(pair.label)
        if not isinstance(entry, dict):
            raise fail(f"tables.{pair.label}", "missing or not an object")
        values = []
        for label in pair.outcome_labels:
            if label not in entry:
                raise fail(f"tables.{pair.label}", f"missing outcome {label!r}")
            raw = entry[label]
            try:
                values.append(float(raw))
            except (TypeError, ValueError):
                raise fail(
                    f"tables.{pair.label}.{label}", f"not a decimal probability: {raw!r}"
                ) from None
        extra = set(entry) - set(pair.outcome_labels)
        if extra:
            raise fail(f"tables.{pair.label}", f"unexpected outcome labels {sorted(extra)}")
        try:
            tables[pair] = reference_normalize(values, pair, tol=normalize_tol)
        except TableError as exc:
            raise fail(f"tables.{pair.label}", str(exc)) from exc
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise fail("metadata", "must be an object when present")
    experiment = Experiment.from_tables(
        tables, sides=(tuple(sides["first"]), tuple(sides["second"]))
    )
    return experiment, metadata


def reference_text_mode_read_experiment(path, normalize_tol: float = DEFAULT_NORM_TOL):
    """``read_experiment`` with the file read in text mode, as
    ``open(path, encoding="utf-8").read()`` reads it (newlines translated),
    followed by the reader's checks spelled out one value at a time:
    probabilities are decimal strings and a side's labels differ."""

    def fail(where: str, problem: str) -> ExperimentFileError:
        return ExperimentFileError(f"{path}: {where}: {problem}")

    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ExperimentFileError(f"{path}: cannot read file: {exc}") from exc
    try:
        doc, repeats = _reference_parse(text)
    except json.JSONDecodeError as exc:
        raise fail(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise fail("document", "top level must be a JSON object")
    if repeats:
        where, key = _reference_find_repeated(doc, "document")
        raise fail(where, f"duplicate key {key!r}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise fail("version", f"expected {FORMAT_VERSION}, got {version!r}")
    sides = doc.get("sides", {"first": ["A", "A'"], "second": ["B", "B'"]})
    if not isinstance(sides, dict) or set(sides) != {"first", "second"}:
        raise fail("sides", "expected {'first': [x, x'], 'second': [y, y']}")
    for side, labels in sides.items():
        if not (
            isinstance(labels, list)
            and len(labels) == 2
            and all(isinstance(label, str) for label in labels)
        ):
            raise fail(f"sides.{side}", f"expected two string labels: {labels!r}")
        if labels[0] == labels[1]:
            raise fail(f"sides.{side}", f"repeated label {labels[0]!r}")
    settings = doc.get("settings")
    expected_settings = [pair.label for pair in PAIR_ORDER]
    if settings != expected_settings:
        raise fail("settings", f"expected {expected_settings}, got {settings!r}")
    tables_doc = doc.get("tables")
    if not isinstance(tables_doc, dict):
        raise fail("tables", "missing or not an object")
    tables = {}
    for pair in PAIR_ORDER:
        entry = tables_doc.get(pair.label)
        if not isinstance(entry, dict):
            raise fail(f"tables.{pair.label}", "missing or not an object")
        values = []
        for label in pair.outcome_labels:
            if label not in entry:
                raise fail(f"tables.{pair.label}", f"missing outcome {label!r}")
            raw = entry[label]
            if not (isinstance(raw, str) and raw.isascii() and NUMBER_RE.fullmatch(raw)):
                raise fail(f"tables.{pair.label}.{label}", f"not a decimal probability: {raw!r}")
            values.append(float(raw))
        extra = set(entry) - set(pair.outcome_labels)
        if extra:
            raise fail(f"tables.{pair.label}", f"unexpected outcome labels {sorted(extra)}")
        try:
            tables[pair] = reference_normalize(values, pair, tol=normalize_tol)
        except TableError as exc:
            raise fail(f"tables.{pair.label}", str(exc)) from exc
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise fail("metadata", "must be an object when present")
    experiment = Experiment.from_tables(
        tables, sides=(tuple(sides["first"]), tuple(sides["second"]))
    )
    return experiment, metadata


def reference_chsh(experiment: Experiment) -> ChshResult:
    """``chsh`` with a dict of signs per pattern and a ``sum`` per total."""
    values = {pair: expectation_value(experiment.table(pair)) for pair in CHSH_TERM_ORDER}
    reference = 0.0
    best_abs = -1.0
    best_signs: dict[SettingPair, int] = {}
    for minus_on in PAIR_ORDER:
        signs = {pair: (-1 if pair is minus_on else 1) for pair in CHSH_TERM_ORDER}
        total = _sum311(signs[pair] * values[pair] for pair in CHSH_TERM_ORDER)
        if signs == REFERENCE_SIGNS:
            reference = total
        if abs(total) > best_abs:
            best_abs = abs(total)
            if total < 0:
                signs = {pair: -s for pair, s in signs.items()}
            best_signs = signs
    return ChshResult(values, reference, best_abs, best_signs)


def reference_marginal_law_report(
    experiment: Experiment, tol: float = CLASS_TOL
) -> MarginalLawReport:
    """``marginal_law_report`` with one ``marginals`` call per table read."""
    plan = (
        ("first", 0, (SettingPair.AB, SettingPair.AB_PRIME)),
        ("first", 1, (SettingPair.A_PRIME_B, SettingPair.A_PRIME_B_PRIME)),
        ("second", 0, (SettingPair.AB, SettingPair.A_PRIME_B)),
        ("second", 1, (SettingPair.AB_PRIME, SettingPair.A_PRIME_B_PRIME)),
    )
    comparisons = []
    for side, which, (pa, pb) in plan:
        idx = 0 if side == "first" else 1
        ma = marginals(experiment.table(pa))[idx]
        mb = marginals(experiment.table(pb))[idx]
        diffs = (abs(ma[0] - mb[0]), abs(ma[1] - mb[1]))
        comparisons.append(
            MarginalComparison(
                side, experiment.sides[idx][which], (pa, pb), ma, mb, diffs, max(diffs) <= tol
            )
        )
    return MarginalLawReport(tuple(comparisons), tol, all(c.holds for c in comparisons))


# ---------------------------------------------------------------------------
# reference documents
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _model_payload(model, v) -> dict[str, Any]:
    return {
        "name": model.name,
        "alpha": _fmt(model.alpha),
        "beta": _fmt(model.beta),
        "iso": v.iso.name,
        "residual_kind": v.residual_kind,
        "tolerance": _fmt(v.tolerance),
        "residuals": {p.label: _fmt(v.residuals[p]) for p in PAIR_ORDER},
        "hermiticity_residuals": {
            p.label: _fmt(v.hermiticity_residuals[p]) for p in PAIR_ORDER
        },
        "measurement_entangled": {
            p.label: v.measurement_entangled[p] for p in PAIR_ORDER
        },
        "state_entangled": v.state_entangled,
        "chsh_from_model": _fmt(v.chsh_from_model),
        "chsh_imag_residual": _fmt(v.chsh_imag_residual),
        "passed": v.passed,
    }


def _factorization_payload(verdict) -> dict[str, Any]:
    f = verdict.factors
    return {
        "factorizable": verdict.factorizable,
        "residual": _fmt(verdict.residual),
        "factors": None
        if f is None
        else {
            "a": _fmt(f.a),
            "b": _fmt(f.b),
            "a_prime": _fmt(f.a_prime),
            "b_prime": _fmt(f.b_prime),
        },
    }


def reference_machine_payload(report) -> dict[str, Any]:
    """The machine report of ``report`` as a JSON object, field by field."""
    c = report.chsh
    ml = report.marginal_law
    return {
        "expectations": {p.label: _fmt(c.expectations[p]) for p in PAIR_ORDER},
        "chsh": {
            "reference_combination": _fmt(c.reference_combination),
            "max_abs_over_variants": _fmt(c.max_abs_over_variants),
            "variant_signs": {p.label: c.variant_signs[p] for p in CHSH_TERM_ORDER},
        },
        "bounds": {
            "classical": _fmt(BOUNDS.classical),
            "tsirelson": _fmt(BOUNDS.tsirelson),
            "algebraic": _fmt(BOUNDS.algebraic),
        },
        "marginal_law": {
            "holds": ml.holds,
            "tol": _fmt(ml.tol),
            "comparisons": [
                {
                    "side": m.side,
                    "setting": m.setting,
                    "tables": [p.label for p in m.pairs],
                    "difference": _fmt(max(m.differences)),
                    "holds": m.holds,
                }
                for m in ml.comparisons
            ],
        },
        "factorization": {
            p.label: _factorization_payload(report.factorization[p]) for p in PAIR_ORDER
        },
        "zoo_class": report.zoo_class.value if report.zoo_class else None,
        "zoo_error": report.zoo_error,
        "model": _model_payload(*report.model) if report.model else None,
    }


def reference_file_document(experiment: Experiment, metadata) -> dict[str, Any]:
    """The experiment file of ``experiment`` and ``metadata`` as a JSON
    object, each probability as the ``repr`` of its float."""
    return {
        "version": FORMAT_VERSION,
        "sides": {
            "first": list(experiment.sides[0]),
            "second": list(experiment.sides[1]),
        },
        "settings": [p.label for p in PAIR_ORDER],
        "tables": {
            p.label: {
                label: repr(value) for label, value in zip(p.outcome_labels, table.values)
            }
            for p, table in zip(PAIR_ORDER, experiment.tables)
        },
        "metadata": dict(metadata) if metadata else {},
    }


def reference_render_text(report) -> str:
    """The text report of ``report``, one f-string per line."""
    c = report.chsh
    lines = []
    lines.append("expectation values")
    for p in PAIR_ORDER:
        lines.append(f"  E({p.first},{p.second}) = {_fmt(c.expectations[p])}")
    lines.append("chsh")
    lines.append(f"  combination  = {_fmt(c.reference_combination)}")
    lines.append(f"  max |variant| = {_fmt(c.max_abs_over_variants)}")
    signs = " ".join(
        f"{'+' if c.variant_signs[p] > 0 else '-'}E({p.first},{p.second})"
        for p in CHSH_TERM_ORDER
    )
    lines.append(f"  achieved by  {signs}")
    lines.append(
        f"  bounds: classical {_fmt(BOUNDS.classical)}, tsirelson {_fmt(BOUNDS.tsirelson)}, "
        f"algebraic {_fmt(BOUNDS.algebraic)}"
    )
    ml = report.marginal_law
    lines.append(f"marginal law: {'holds' if ml.holds else 'violated'} (tol {ml.tol:g})")
    for m in ml.comparisons:
        lines.append(
            f"  setting {m.setting:3s} ({m.pairs[0].label} vs {m.pairs[1].label}): "
            f"marginals ({_fmt(m.marginal_a[0])}, {_fmt(m.marginal_a[1])}) vs "
            f"({_fmt(m.marginal_b[0])}, {_fmt(m.marginal_b[1])}), "
            f"|diff| {_fmt(max(m.differences))} -> "
            f"{'ok' if m.holds else 'violated'}"
        )
    lines.append("factorization per table")
    for p in PAIR_ORDER:
        verdict = report.factorization[p]
        if verdict.factorizable and verdict.factors:
            f = verdict.factors
            lines.append(
                f"  {p.label:4s}: factorizable, a={_fmt(f.a)} b={_fmt(f.b)} "
                f"a'={_fmt(f.a_prime)} b'={_fmt(f.b_prime)} "
                f"(residual {_fmt(verdict.residual)})"
            )
        else:
            lines.append(
                f"  {p.label:4s}: not factorizable (residual {_fmt(verdict.residual)})"
            )
    if report.zoo_class is not None:
        lines.append(f"class: {report.zoo_class.value}")
    else:
        lines.append(f"class: unresolved ({report.zoo_error})")
    if report.model is not None:
        model, v = report.model
        lines.append(
            f"model {model.name} (alpha={model.alpha:g}, beta={model.beta:g}, "
            f"iso={v.iso.name})"
        )
        lines.append(
            f"  verification ({v.residual_kind}, tol {v.tolerance:g}): "
            f"{'pass' if v.passed else 'FAIL'}"
        )
        for p in PAIR_ORDER:
            lines.append(
                f"  {p.label:4s}: residual {_fmt(v.residuals[p])}, "
                f"hermiticity {_fmt(v.hermiticity_residuals[p])}, "
                f"{'entangled' if v.measurement_entangled[p] else 'product'}"
            )
        lines.append(
            f"  state: {'entangled' if v.state_entangled else 'product'}; "
            f"model chsh {_fmt(v.chsh_from_model)} "
            f"(imag residual {_fmt(v.chsh_imag_residual)})"
        )
    return "\n".join(lines) + "\n"
