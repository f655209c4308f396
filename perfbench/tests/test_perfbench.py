"""Tests of the benchmark's own oracle, input generator and tracer.

    python -m pytest perfbench/tests -q
"""

import cmath
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpus  # noqa: E402
import oracle  # noqa: E402
import oracle_models  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


# ---------------------------------------------------------------------------
# the three built-in datasets
# ---------------------------------------------------------------------------


def test_animal_acts_chsh_and_class():
    a = oracle.analyze_dataset("animal-acts")
    # the quoted tables give 2.421656; the published figure is 2.4197
    assert oracle.fmt6(a["chsh_max"]) == "2.421656"
    assert abs(a["chsh_max"] - Fraction("2.4197")) <= Fraction("0.002")
    assert a["chsh_max"] == a["reference"]
    assert not a["marginal_law_holds"]
    assert a["zoo_class"] == "NonlocalNonMarginalBox1"


def test_animal_acts_rescales_only_the_short_row():
    tables = oracle.load_tables(oracle.DATASETS["animal-acts"])
    assert sum(map(Fraction, oracle.DATASETS["animal-acts"]["A'B"])) == Fraction("0.999")
    assert tables["A'B"][0] == Fraction("0.778") / Fraction("0.999")
    assert [str(v) for v in tables["AB"]] == ["49/1000", "63/100", "259/1000", "31/500"]


def test_vessels_reach_the_algebraic_bound():
    a = oracle.analyze_dataset("vessels")
    assert a["chsh_max"] == 4 and a["reference"] == 4
    assert a["zoo_class"] == "NonlocalNonMarginalBox2"
    assert not a["marginal_law_holds"]


def test_separated_vessels_sit_on_the_classical_bound():
    a = oracle.analyze_dataset("vessels-separated")
    assert a["chsh_max"] == 2
    assert a["zoo_class"] == "KolmogorovianCompatible"
    assert not a["marginal_law_holds"]
    # every sign variant ties at 2; the reference pattern is reported
    assert a["variant_signs"] == {"A'B'": 1, "A'B": 1, "AB'": 1, "AB": -1}


def test_fmt6_rounds_half_to_even_and_keeps_the_sign():
    assert oracle.fmt6(Fraction("0.0000005")) == "0.000000"
    assert oracle.fmt6(Fraction("0.0000015")) == "0.000002"
    assert oracle.fmt6(Fraction(-1, 10**9)) == "-0.000000"
    assert oracle.fmt6(Fraction(2, 3)) == "0.666667"


def test_machine_check_catches_a_wrong_digit():
    a = oracle.analyze_dataset("vessels")
    good = json.dumps(dict(oracle.expected_payload(a), zoo_error=None, model=None))
    assert oracle.check_machine(good, a) == []
    bad = good.replace('"4.000000"', '"3.999999"', 1)
    assert oracle.check_machine(bad, a) != []


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_corpus_is_a_function_of_the_seed(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    corpus.write_corpus(first, 7)
    corpus.write_corpus(second, 7)
    corpus.write_corpus(other, 8)
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == len(corpus.FAMILIES) * corpus.PER_FAMILY
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_draw_lands_in_its_class_exactly(tmp_path, seed):
    entries = corpus.write_corpus(tmp_path, seed)
    classes = set()
    for entry in entries:
        text = Path(entry["path"]).read_text()
        a = oracle.analyze_document(text)
        assert a["zoo_class"] == entry["class"], entry
        classes.add(a["zoo_class"])
        if entry["family"] == "local-product":
            assert all(f["factorizable"] for f in a["factorization"].values())
    assert classes == {c for _, c in corpus.FAMILIES}
    rounded = [e for e in entries if e["family"].endswith("-rounded")]
    assert any(
        sum(map(Fraction, raw)) != 1
        for e in rounded
        for raw in oracle.read_document(Path(e["path"]).read_text())[0].values()
    )


def test_margins_reject_a_box_on_the_tsirelson_bound():
    c = math.sqrt(2) / 2
    corr = {p: corpus.REFERENCE_SIGNS[p] * c for p in corpus.PAIRS}
    raw = {p: corpus._from_correlators(corr[p], 0.0, 0.0) for p in corpus.PAIRS}
    assert not corpus.margins_ok(raw, "NonlocalBox")


# ---------------------------------------------------------------------------
# numpy model checks
# ---------------------------------------------------------------------------


def _paper_vessels(alpha, beta):
    a = math.sqrt(0.5) * cmath.exp(1j * alpha)
    b = math.sqrt(0.5) * cmath.exp(1j * beta)
    e = [[1 if i == k else 0 for i in range(4)] for k in range(4)]
    plus, minus = [0, a, b, 0], [0, a, -b, 0]
    finals = {"AB": e, "AB'": [plus, minus, e[0], e[3]], "A'B": [plus, e[0], minus, e[3]], "A'B'": [plus, e[0], e[3], minus]}

    def enc(v):
        return [[complex(z).real, complex(z).imag] for z in v]

    return {
        "state": enc(plus),
        "measurements": {p: {"final_states": [enc(f) for f in fs], "outcomes": [1, -1, -1, 1]} for p, fs in finals.items()},
    }


def _verdict(state_flag, flags, chsh=4.0):
    zeros = {p: 0.0 for p in corpus.PAIRS}
    return {
        "residual_kind": "probabilities", "residuals": zeros, "measurement_entangled": flags,
        "state_entangled": state_flag, "hermiticity_residuals": zeros, "chsh_from_model": chsh,
        "chsh_imag_residual": 0.0, "tolerance": 1e-9, "passed": True,
    }


def test_paper_vessel_construction_passes_the_numpy_checks():
    op = _paper_vessels(0.3, 1.1)
    data = oracle_models.data_tables("vessels")
    state, flags = oracle.PAPER_PLACEMENT["vessels"]
    verdicts = {"canonical": _verdict(state, flags), "swapped": _verdict(state, flags)}
    assert oracle_models.check_basis_model(op, data, verdicts, oracle.PAPER_PLACEMENT["vessels"]) == []


def test_numpy_checks_catch_wrong_flags_and_chsh():
    op = _paper_vessels(0.0, 0.0)
    data = oracle_models.data_tables("vessels")
    state, flags = oracle.PAPER_PLACEMENT["vessels"]
    wrong = {"canonical": _verdict(not state, dict(flags, AB=True), chsh=3.9)}
    problems = oracle_models.check_basis_model(op, data, wrong, oracle.PAPER_PLACEMENT["vessels"])
    assert any("state_entangled" in p for p in problems)
    assert any("AB entangled" in p for p in problems)
    assert any("chsh_from_model" in p for p in problems)


def test_reference_combination_of_float_tables_is_exact():
    tables = oracle_models.data_tables("vessels")
    assert oracle_models.reference_combination(tables) == 4
    assert np.isclose(float(oracle_models.reference_combination(oracle_models.data_tables("animal-acts"))), 2.421656, atol=1e-6)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.wrap(leaf, "linalg.leaf")

    def outer():
        wrapped_leaf()
        wrapped_leaf()

    tracer.wrap(outer, "hilbert.outer")()
    calls, inclusive, own = tracer.stats["hilbert.outer"]
    assert calls == 1 and inclusive >= 0.02 and own < 0.01
    metrics = layer_metrics(tracer.summary(), ops=1)
    assert metrics["linalg.calls"] == (2.0, "calls/op")
    assert metrics["hilbert.self_ms"][0] < 10.0
    assert metrics["linalg.self_ms"][0] >= 20.0
