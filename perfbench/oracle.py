"""Exact-rational reference analysis, written apart from bellbox.

It reads an experiment file's decimal strings as ``fractions.Fraction``
values, applies the documented load rule (a table whose sum is more than
1e-12 away from 1 is divided by its sum; more than 0.01 away is an
error), and decides each verdict with the documented tolerances: marginal
law and class at 1e-6, factorization at 1e-9.  Checks compare the
program's reports with this analysis to the six printed decimals.
Standard library only; nothing here imports bellbox.
"""

from __future__ import annotations

import json
from fractions import Fraction

from corpus import PAIRS, REFERENCE_SIGNS, outcome_labels

CLASS_TOL = Fraction(1, 10**6)
FACTORIZATION_TOL = Fraction(1, 10**9)
NORMALIZE_TOL = Fraction(1, 100)
EXACT_SUM_TOL = Fraction(1, 10**12)

#: CHSH term order of the reports: E(A'B') + E(A'B) + E(AB') - E(AB).
CHSH_TERM_ORDER = ("A'B'", "A'B", "AB'", "AB")

#: The three built-in datasets as published, cell order 11, 12, 21, 22.
DATASETS = {
    "animal-acts": {
        "AB": ("0.049", "0.630", "0.259", "0.062"),
        "AB'": ("0.593", "0.025", "0.296", "0.086"),
        "A'B": ("0.778", "0.086", "0.086", "0.049"),
        "A'B'": ("0.148", "0.086", "0.099", "0.667"),
    },
    "vessels": {
        "AB": ("0", "0.5", "0.5", "0"),
        "AB'": ("1", "0", "0", "0"),
        "A'B": ("1", "0", "0", "0"),
        "A'B'": ("1", "0", "0", "0"),
    },
    "vessels-separated": {
        "AB": ("0", "0.5", "0.5", "0"),
        "AB'": ("1", "0", "0", "0"),
        "A'B": ("0", "0.5", "0.5", "0"),
        "A'B'": ("1", "0", "0", "0"),
    },
}

DEFAULT_SIDES = (("A", "A'"), ("B", "B'"))

#: Where the paper puts the entanglement of each vessel construction under
#: the canonical identification: (state, {pair: measurement}).  Swapping
#: cells 1 and 2 transposes every reshaped 2x2 array, which keeps its
#: rank, so vector-based flags are the same under the swapped one.
PAPER_PLACEMENT = {
    "vessels": (True, {"AB": False, "AB'": True, "A'B": True, "A'B'": True}),
    "vessels-alt": (False, {"AB": True, "AB'": False, "A'B": False, "A'B'": False}),
}


class OracleInputError(ValueError):
    pass


def fmt6(x: Fraction) -> str:
    """Round to six decimals, half to even, as float formatting does."""
    n = round(x * 10**6)
    sign = "-" if x < 0 else ""
    return f"{sign}{abs(n) // 10**6}.{abs(n) % 10**6:06d}"


def load_tables(raw: dict) -> dict:
    """Apply the load rule to decimal strings ``{pair: (p11, p12, p21, p22)}``."""
    tables = {}
    for pair in PAIRS:
        values = [Fraction(s) for s in raw[pair]]
        if any(v < 0 for v in values):
            raise OracleInputError(f"{pair}: negative entry")
        total = sum(values)
        if abs(total - 1) > NORMALIZE_TOL:
            raise OracleInputError(f"{pair}: sum {float(total)} too far from 1")
        tables[pair] = values if abs(total - 1) <= EXACT_SUM_TOL else [v / total for v in values]
    return tables


def read_document(text: str) -> tuple[dict, tuple]:
    """Decimal strings per pair and the side labels of an experiment file."""
    doc = json.loads(text)
    raw = {
        pair: tuple(doc["tables"][pair][label] for label in outcome_labels(pair))
        for pair in PAIRS
    }
    sides = doc.get("sides", {"first": list(DEFAULT_SIDES[0]), "second": list(DEFAULT_SIDES[1])})
    return raw, (tuple(sides["first"]), tuple(sides["second"]))


def _exceeds_tsirelson(s: Fraction, tol: Fraction) -> bool:
    """s > 2*sqrt(2) + tol, decided exactly."""
    d = s - tol
    return d > 0 and d * d > 8


def analyze(tables: dict, sides=DEFAULT_SIDES) -> dict:
    """Every verdict and number of an analysis report, exactly."""
    e = {pair: v[0] - v[1] - v[2] + v[3] for pair, v in tables.items()}
    reference = sum(REFERENCE_SIGNS[p] * e[p] for p in PAIRS)
    # single-minus variants, reference pattern first; the first strictly
    # larger |total| wins and a negative total folds in the global flip
    best, best_signs = Fraction(-1), None
    for minus_on in PAIRS:
        signs = {p: (-1 if p == minus_on else 1) for p in CHSH_TERM_ORDER}
        total = sum(signs[p] * e[p] for p in CHSH_TERM_ORDER)
        if abs(total) > best:
            best = abs(total)
            best_signs = {p: -s for p, s in signs.items()} if total < 0 else signs
    s = best

    comparisons = []
    plan = (
        ("first", 0, 0, ("AB", "AB'")),
        ("first", 0, 1, ("A'B", "A'B'")),
        ("second", 1, 0, ("AB", "A'B")),
        ("second", 1, 1, ("AB'", "A'B'")),
    )
    for side, idx, which, (pa, pb) in plan:
        ma, mb = _marginal(tables[pa], idx), _marginal(tables[pb], idx)
        diff = max(abs(ma[0] - mb[0]), abs(ma[1] - mb[1]))
        comparisons.append({
            "side": side,
            "setting": sides[idx][which],
            "tables": [pa, pb],
            "difference": diff,
            "holds": diff <= CLASS_TOL,
        })
    holds = all(c["holds"] for c in comparisons)

    factorization = {}
    for pair in PAIRS:
        p11, p12, p21, p22 = tables[pair]
        residual = abs(p11 * p22 - p12 * p21)
        ok = residual <= FACTORIZATION_TOL
        factorization[pair] = {
            "factorizable": ok,
            "residual": residual,
            "factors": (p11 + p12, p11 + p21, p21 + p22, p12 + p22) if ok else None,
        }

    if s <= 2 + CLASS_TOL:
        zoo = "KolmogorovianCompatible"
    elif holds:
        zoo = None if _exceeds_tsirelson(s, CLASS_TOL) else "NonlocalBox"
    else:
        zoo = "NonlocalNonMarginalBox2" if _exceeds_tsirelson(s, CLASS_TOL) else "NonlocalNonMarginalBox1"
    return {
        "expectations": e,
        "reference": reference,
        "chsh_max": s,
        "variant_signs": best_signs,
        "comparisons": comparisons,
        "marginal_law_holds": holds,
        "factorization": factorization,
        "zoo_class": zoo,
    }


def _marginal(v, idx):
    return (v[0] + v[1], v[2] + v[3]) if idx == 0 else (v[0] + v[2], v[1] + v[3])


def analyze_document(text: str) -> dict:
    raw, sides = read_document(text)
    return analyze(load_tables(raw), sides)


def analyze_dataset(name: str) -> dict:
    return analyze(load_tables(DATASETS[name]))


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------


def expected_payload(a: dict) -> dict:
    """The machine report fields the analysis fixes, as printed."""
    factorization = {}
    for pair in PAIRS:
        f = a["factorization"][pair]
        factors = None
        if f["factors"] is not None:
            factors = dict(zip(("a", "b", "a_prime", "b_prime"), map(fmt6, f["factors"])))
        factorization[pair] = {
            "factorizable": f["factorizable"],
            "residual": fmt6(f["residual"]),
            "factors": factors,
        }
    return {
        "expectations": {p: fmt6(a["expectations"][p]) for p in PAIRS},
        "chsh": {
            "reference_combination": fmt6(a["reference"]),
            "max_abs_over_variants": fmt6(a["chsh_max"]),
            "variant_signs": {p: a["variant_signs"][p] for p in CHSH_TERM_ORDER},
        },
        "bounds": {"classical": "2.000000", "tsirelson": "2.828427", "algebraic": "4.000000"},
        "marginal_law": {
            "holds": a["marginal_law_holds"],
            "tol": "0.000001",
            "comparisons": [
                dict(c, difference=fmt6(c["difference"])) for c in a["comparisons"]
            ],
        },
        "factorization": factorization,
        "zoo_class": a["zoo_class"],
    }


def check_machine(text: str, a: dict) -> list[str]:
    """Problems with a machine report against the analysis ``a`` (the
    ``model`` block is checked separately)."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"machine report is not JSON: {exc}"]
    problems = []
    for key, want in expected_payload(a).items():
        if got.get(key) != want:
            problems.append(f"{key}: got {got.get(key)!r}, want {want!r}")
    error = got.get("zoo_error")
    if a["zoo_class"] is None:
        if not (isinstance(error, str) and error.startswith(f"CHSH max {fmt6(a['chsh_max'])} ")):
            problems.append(f"zoo_error: got {error!r} for CHSH max {fmt6(a['chsh_max'])}")
    elif error is not None:
        problems.append(f"zoo_error: got {error!r}, want None")
    return problems


def check_text(text: str, a: dict) -> list[str]:
    """Problems with the text report's CHSH, marginal-law and class lines."""
    lines = text.splitlines()
    want = [
        f"  combination  = {fmt6(a['reference'])}",
        f"  max |variant| = {fmt6(a['chsh_max'])}",
        f"marginal law: {'holds' if a['marginal_law_holds'] else 'violated'} (tol 1e-06)",
    ]
    if a["zoo_class"] is not None:
        want.append(f"class: {a['zoo_class']}")
    problems = [f"text report lacks {line!r}" for line in want if line not in lines]
    if a["zoo_class"] is None:
        prefix = f"class: unresolved (CHSH max {fmt6(a['chsh_max'])} "
        if not any(line.startswith(prefix) for line in lines):
            problems.append(f"text report lacks {prefix!r}")
    return problems
