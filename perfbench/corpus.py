"""Seeded inputs for the benchmark workloads (standard library only).

The analysis corpus covers the four Zoo classes and the unresolved
extremal box.  Every draw is kept a stated distance from each decision
edge, so that float arithmetic in the program and exact arithmetic in the
oracle must reach the same verdicts and the same printed digits:

* CHSH max at least ``CHSH_MARGIN`` away from 2 and from 2*sqrt(2);
* each marginal-law difference either below ``TINY`` or above 1e-4
  (the program's tolerance is 1e-6);
* each factorization residual either below ``TINY`` or above 1e-6
  (tolerance 1e-9);
* each table sum either within ``TINY`` of 1 or at least 1e-6 away
  (the program rescales only sums more than 1e-12 away from 1);
* every number the machine report prints to six decimals at least 1e-9
  away from a rounding boundary, signed ones at least 1e-6 away from 0;
* the best CHSH sign variant ahead of the runner-up by at least 1e-9.

Draws that miss a margin are drawn again from the same generator, so the
corpus is a pure function of the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

PAIRS = ("AB", "AB'", "A'B", "A'B'")

#: Which side's setting each pair uses: (first index, second index).
PAIR_SETTINGS = {"AB": (0, 0), "AB'": (0, 1), "A'B": (1, 0), "A'B'": (1, 1)}

#: Signs of the reference combination E(A'B') + E(A'B) + E(AB') - E(AB).
REFERENCE_SIGNS = {"AB": -1, "AB'": 1, "A'B": 1, "A'B'": 1}

TSIRELSON = 2.0 * math.sqrt(2.0)
CHSH_MARGIN = 0.02
TINY = 1e-12

#: Families of the analysis corpus, in file order, with the Zoo class each
#: must land in (None: the unresolved extremal box).
FAMILIES = (
    ("local-product", "KolmogorovianCompatible"),
    ("local-mixture", "KolmogorovianCompatible"),
    ("quantum", "NonlocalBox"),
    ("signalling-quantum", "NonlocalNonMarginalBox1"),
    ("signalling-quantum-rounded", "NonlocalNonMarginalBox1"),
    ("signalling-strong", "NonlocalNonMarginalBox2"),
    ("signalling-strong-rounded", "NonlocalNonMarginalBox2"),
    ("extremal", None),
)

#: Files per family in the analysis corpus.
PER_FAMILY = 5

#: Custom side labels; the default ("A", "A'"), ("B", "B'") is also used.
SIDE_LABELS = (
    (("A", "A'"), ("B", "B'")),
    (("Animal", "Animal'"), ("Acts", "Acts'")),
    (("X", "X'"), ("Y", "Y'")),
    (("left-0", "left-1"), ("right-0", "right-1")),
)


def outcome_labels(pair: str) -> tuple[str, ...]:
    """Cell labels of a table in order 11, 12, 21, 22.  Files always use
    the default setting names here; custom side labels rename settings
    only in reports."""
    first = "A'" if pair.startswith("A'") else "A"
    second = "B'" if pair.endswith("B'") else "B"
    return tuple(f"{first}{i}{second}{j}" for i in (1, 2) for j in (1, 2))


# ---------------------------------------------------------------------------
# table families
# ---------------------------------------------------------------------------


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    w = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


def _local_product(rng):
    u = [rng.uniform(0.05, 0.95) for _ in range(2)]
    v = [rng.uniform(0.05, 0.95) for _ in range(2)]
    tables = {}
    for pair, (x, y) in PAIR_SETTINGS.items():
        a, b = u[x], v[y]
        tables[pair] = [a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b)]
    return tables


def _local_mixture(rng):
    # convex mixture of deterministic strategies (a, a', b, b') in {1, 2}^4
    strategies = [(a, a2, b, b2) for a in (1, 2) for a2 in (1, 2) for b in (1, 2) for b2 in (1, 2)]
    chosen = rng.sample(strategies, rng.randint(3, 7))
    weights = _dirichlet(rng, len(chosen))
    tables = {}
    for pair, (x, y) in PAIR_SETTINGS.items():
        cells = [0.0, 0.0, 0.0, 0.0]
        for w, s in zip(weights, chosen):
            i, j = s[x], s[2 + y]
            cells[2 * (i - 1) + (j - 1)] += w
        tables[pair] = cells
    return tables


def _quantum(rng):
    """Two-qubit pure state cos(t)|00> + sin(t)|11> mixed with white noise,
    measured along directions in the x-z plane."""
    t = rng.uniform(0.55, math.pi / 4)
    vis = rng.uniform(0.8, 1.0)
    jitter = 0.25
    angles_a = (0.0 + rng.uniform(-jitter, jitter), math.pi / 2 + rng.uniform(-jitter, jitter))
    angles_b = (math.pi / 4 + rng.uniform(-jitter, jitter), -math.pi / 4 + rng.uniform(-jitter, jitter))
    psi = (math.cos(t), 0.0, 0.0, math.sin(t))

    def qubit(theta, outcome):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (c, s) if outcome == 1 else (-s, c)

    tables = {}
    for pair, (x, y) in PAIR_SETTINGS.items():
        cells = []
        for i in (1, 2):
            for j in (1, 2):
                a, b = qubit(angles_a[x], i), qubit(angles_b[y], j)
                amp = (
                    a[0] * b[0] * psi[0] + a[0] * b[1] * psi[1]
                    + a[1] * b[0] * psi[2] + a[1] * b[1] * psi[3]
                )
                cells.append(vis * amp * amp + (1 - vis) / 4)
        tables[pair] = cells
    return tables


def _signalling_quantum(rng):
    tables = _quantum(rng)
    for pair in PAIRS:
        eps = rng.uniform(0.03, 0.08)
        noise = _dirichlet(rng, 4)
        tables[pair] = [(1 - eps) * p + eps * n for p, n in zip(tables[pair], noise)]
    return tables


def _from_correlators(corr, bias_a, bias_b):
    """Table with correlator ``corr`` and outcome-1 biases on each side:
    p_ij = (1 + (+-)bias_a + (+-)bias_b + (+-)corr) / 4."""
    e, ma, mb = corr, bias_a, bias_b
    return [(1 + ma + mb + e) / 4, (1 + ma - mb - e) / 4, (1 - ma + mb - e) / 4, (1 - ma - mb + e) / 4]


def _strong(rng, signalling: bool):
    """Correlators beyond Tsirelson: E(AB) < 0, the other three > 0."""
    corr = {pair: REFERENCE_SIGNS[pair] * rng.uniform(0.8, 0.98) for pair in PAIRS}
    if signalling:
        biases = {}
        for pair in PAIRS:
            room = 1 - abs(corr[pair])
            ma = rng.uniform(-room, room) / 2
            mb = rng.uniform(-room, room) / 2
            biases[pair] = (ma, mb)
    else:
        room = 1 - max(abs(c) for c in corr.values())
        side_a = [rng.uniform(-room, room) / 2 for _ in range(2)]
        side_b = [rng.uniform(-room, room) / 2 for _ in range(2)]
        biases = {pair: (side_a[x], side_b[y]) for pair, (x, y) in PAIR_SETTINGS.items()}
    return {pair: _from_correlators(corr[pair], *biases[pair]) for pair in PAIRS}


def _draw(family, rng):
    if family == "local-product":
        return _local_product(rng)
    if family == "local-mixture":
        return _local_mixture(rng)
    if family == "quantum":
        return _quantum(rng)
    if family.startswith("signalling-quantum"):
        return _signalling_quantum(rng)
    if family.startswith("signalling-strong"):
        return _strong(rng, signalling=True)
    if family == "extremal":
        return _strong(rng, signalling=False)
    raise ValueError(family)


# ---------------------------------------------------------------------------
# margins, evaluated in float on the values the program will see
# ---------------------------------------------------------------------------


def _loaded(values: list[float]) -> list[float]:
    total = sum(values)
    return values if abs(total - 1.0) <= 1e-12 else [v / total for v in values]


def _far_from_rounding(q: float, signed: bool) -> bool:
    if signed and abs(q) < 1e-6:
        return False
    scaled = abs(q) * 1e6
    return abs(scaled - math.floor(scaled) - 0.5) >= 1e-3


def _chsh_variants(e):
    totals = []
    for minus_on in PAIRS:
        totals.append(sum((-1 if p == minus_on else 1) * e[p] for p in PAIRS))
    return totals


def margins_ok(raw: dict, expected_class) -> bool:
    """Whether a draw keeps every stated distance from the decision edges
    and lands in ``expected_class``."""
    for pair in PAIRS:
        total = sum(raw[pair])
        if any(v < 0 for v in raw[pair]):
            return False
        if TINY < abs(total - 1.0) < 1e-6:
            return False
    t = {pair: _loaded(raw[pair]) for pair in PAIRS}
    e = {pair: v[0] - v[1] - v[2] + v[3] for pair, v in t.items()}
    reference = sum(REFERENCE_SIGNS[p] * e[p] for p in PAIRS)
    magnitudes = sorted((abs(x) for x in _chsh_variants(e)), reverse=True)
    s = magnitudes[0]
    if magnitudes[0] - magnitudes[1] < 1e-9:
        return False
    if abs(s - 2.0) < CHSH_MARGIN or abs(s - TSIRELSON) < CHSH_MARGIN:
        return False
    printed_signed = list(e.values()) + [reference]
    printed = [s]
    # marginal law
    holds = True
    plan = (
        (0, ("AB", "AB'")), (0, ("A'B", "A'B'")),
        (1, ("AB", "A'B")), (1, ("AB'", "A'B'")),
    )
    for side, (pa, pb) in plan:
        ma, mb = _marginal(t[pa], side), _marginal(t[pb], side)
        diff = max(abs(ma[0] - mb[0]), abs(ma[1] - mb[1]))
        if TINY < diff < 1e-4:
            return False
        holds = holds and diff <= TINY
        printed.append(diff)
    for pair in PAIRS:
        p11, p12, p21, p22 = t[pair]
        residual = abs(p11 * p22 - p12 * p21)
        if TINY < residual < 1e-6:
            return False
        printed.append(residual)
        if residual <= TINY:
            printed += [p11 + p12, p11 + p21, p21 + p22, p12 + p22]
    if not all(_far_from_rounding(q, False) for q in printed):
        return False
    if not all(_far_from_rounding(q, True) for q in printed_signed):
        return False
    return _zoo_class(s, holds) == expected_class


def _marginal(v, side):
    return (v[0] + v[1], v[2] + v[3]) if side == 0 else (v[0] + v[2], v[1] + v[3])


def _zoo_class(s, holds):
    if s <= 2.0:
        return "KolmogorovianCompatible"
    if holds:
        return "NonlocalBox" if s <= TSIRELSON else None
    return "NonlocalNonMarginalBox1" if s <= TSIRELSON else "NonlocalNonMarginalBox2"


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def _strings(values: list[float], rounded: bool) -> list[str]:
    return [f"{v:.3f}" for v in values] if rounded else [repr(v) for v in values]


def draw_experiment(rng: random.Random, family: str, expected_class):
    """One experiment of ``family`` as decimal strings per pair."""
    rounded = family.endswith("-rounded")
    while True:
        raw = _draw(family, rng)
        strings = {pair: _strings(raw[pair], rounded) for pair in PAIRS}
        seen = {pair: [float(x) for x in strings[pair]] for pair in PAIRS}
        if margins_ok(seen, expected_class):
            return strings


def experiment_document(strings: dict, sides, metadata: dict) -> str:
    doc = {
        "version": 1,
        "sides": {"first": list(sides[0]), "second": list(sides[1])},
        "settings": list(PAIRS),
        "tables": {
            pair: dict(zip(outcome_labels(pair), strings[pair])) for pair in PAIRS
        },
        "metadata": metadata,
    }
    return json.dumps(doc, indent=2) + "\n"


def write_corpus(directory: Path, seed: int) -> list[dict]:
    """Write the analysis corpus for ``seed``; returns one entry per file
    with its path, family and the class the draw was made to land in."""
    rng = random.Random(f"analysis-corpus/{seed}")
    entries = []
    for family, expected_class in FAMILIES:
        for k in range(PER_FAMILY):
            strings = draw_experiment(rng, family, expected_class)
            sides = SIDE_LABELS[rng.randrange(len(SIDE_LABELS))]
            path = directory / f"{family}-{k}.json"
            path.write_text(
                experiment_document(strings, sides, {"family": family, "seed": seed}),
                encoding="utf-8",
            )
            entries.append({"path": str(path), "family": family, "class": expected_class})
    return entries


# ---------------------------------------------------------------------------
# model-sweep inputs
# ---------------------------------------------------------------------------

#: Phase pairs per round; each is built as ``vessels`` and ``vessels-alt``.
#: Ten vessel ops of 13 keep the median and p90 op inside the vessel
#: cluster rather than on its edge with the cheaper synthesized models.
PHASE_PAIRS = 5

#: Synthesized models per round.
SYNTHESIZED = 2


def model_inputs(seed: int) -> dict:
    """Phases for the vessel constructions and, for each synthesized model,
    unnormalized state amplitudes plus four target tables."""
    rng = random.Random(f"model-sweep/{seed}")
    phases = [
        (rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi))
        for _ in range(PHASE_PAIRS)
    ]
    synthesized = []
    while len(synthesized) < SYNTHESIZED:
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
        det = abs(amps[0] * amps[3] - amps[1] * amps[2]) / norm**2
        if det < 1e-3:  # keep the state clearly entangled under both isos
            continue
        targets = {pair: _dirichlet(rng, 4) for pair in PAIRS}
        synthesized.append({"amplitudes": amps, "targets": targets})
    return {"phases": phases, "synthesized": synthesized}


def cli_phases(seed: int, count: int) -> list[tuple[float, float]]:
    rng = random.Random(f"cli-oneshot/{seed}")
    return [
        (round(rng.uniform(0.0, 2 * math.pi), 6), round(rng.uniform(0.0, 2 * math.pi), 6))
        for _ in range(count)
    ]
