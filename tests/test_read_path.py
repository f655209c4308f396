"""The analyze path against its reference forms, bit for bit.

``read_experiment``, ``normalize``, ``chsh`` and ``marginal_law_report``
check each value once and skip repeated lookups.  ``tests/oracles.py``
keeps their straightforward forms.  Over seeded documents of all four Zoo
classes and the unresolved extremal box, with custom side labels and
rounded rows, both must give the same floats (compared by ``float.hex``),
and over mutated documents the same exception type and message.  The only
documents on which they may differ are those the reader now rejects on
purpose: a probability that is not a decimal string, and a side whose two
labels repeat.
"""

from __future__ import annotations

import copy
import json
import math
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bellbox.bell import CHSH_TERM_ORDER, AmbiguousClassError, ZooClass, chsh, decide_class
from bellbox.expfile import ExperimentFileError, read_experiment, write_experiment
from bellbox.tables import (
    PAIR_ORDER,
    Experiment,
    NotNormalizableError,
    SettingPair,
    marginal_law_report,
    normalize,
)

from oracles import (
    reference_chsh,
    reference_marginal_law_report,
    reference_normalize,
    reference_read_experiment,
)

#: Which setting of each side a pair uses: (first index, second index).
SETTINGS = {
    SettingPair.AB: (0, 0),
    SettingPair.AB_PRIME: (0, 1),
    SettingPair.A_PRIME_B: (1, 0),
    SettingPair.A_PRIME_B_PRIME: (1, 1),
}

SIDE_LABELS = (
    (["A", "A'"], ["B", "B'"]),
    (["Animal", "Animal'"], ["Acts", "Acts'"]),
    (["siphon", "spoon"], ["siphon", "spoon"]),
    (["left-0", "left-1"], ["right-0", "right-1"]),
)

#: Each family and the class its unrounded documents land in (None: the
#: unresolved extremal box).
FAMILIES = {
    "local": ZooClass.KOLMOGOROVIAN_COMPATIBLE,
    "quantum": ZooClass.NONLOCAL_BOX,
    "signalling-quantum": ZooClass.NONLOCAL_NON_MARGINAL_BOX_1,
    "signalling-strong": ZooClass.NONLOCAL_NON_MARGINAL_BOX_2,
    "extremal": None,
}

SEEDS = range(6)

SETTING_LABELS = [pair.label for pair in PAIR_ORDER]


def _table(e: float, ma: float, mb: float) -> list[float]:
    """Cells 11, 12, 21, 22 with correlation ``e`` and biases ``ma``, ``mb``
    (non-negative when |e| + |ma| + |mb| <= 1)."""
    return [
        (1 + ma + mb + e) / 4,
        (1 + ma - mb - e) / 4,
        (1 - ma + mb - e) / 4,
        (1 - ma - mb + e) / 4,
    ]


def _rows(rng: random.Random, family: str) -> dict[SettingPair, list[float]]:
    if family == "local":
        first = [rng.uniform(-0.25, 0.25) for _ in range(2)]
        second = [rng.uniform(-0.25, 0.25) for _ in range(2)]
        return {
            pair: _table(rng.uniform(-0.45, 0.45), first[x], second[y])
            for pair, (x, y) in SETTINGS.items()
        }
    strong = family in ("signalling-strong", "extremal")
    v = rng.uniform(0.8, 0.95) if strong else rng.uniform(0.75, 0.98) / math.sqrt(2)
    signalling = family.startswith("signalling")
    rows = {}
    for pair in PAIR_ORDER:
        e = -v if pair is SettingPair.AB else v
        room = (1 - v) / 2
        ma, mb = (rng.uniform(-room, room), rng.uniform(-room, room)) if signalling else (0.0, 0.0)
        rows[pair] = _table(e, ma, mb)
    return rows


def document(rng: random.Random, family: str, rounded: bool) -> dict:
    """A seeded experiment document of ``family``; rounded rows are quoted
    to three decimals, as published tables are, and miss 1 by a little."""
    rows = _rows(rng, family)
    first, second = rng.choice(SIDE_LABELS)
    return {
        "version": 1,
        "sides": {"first": list(first), "second": list(second)},
        "settings": list(SETTING_LABELS),
        "tables": {
            pair.label: {
                label: f"{v:.3f}" if rounded else repr(v)
                for label, v in zip(pair.outcome_labels, rows[pair])
            }
            for pair in PAIR_ORDER
        },
        "metadata": {"family": family, "rounded": rounded},
    }


def _documents():
    for family in FAMILIES:
        for seed in SEEDS:
            for rounded in (False, True):
                rng = random.Random(f"read-path/{family}/{seed}/{rounded}")
                name = f"{family}-{seed}{'-rounded' if rounded else ''}"
                yield name, document(rng, family, rounded)


DOCUMENTS = dict(_documents())


def _write(directory: Path, name: str, doc) -> Path:
    path = directory / f"{name}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=2))
    return path


def _hexes(values) -> list[str]:
    return [v.hex() for v in values]


def _chsh_bits(result) -> tuple:
    return (
        [(pair, result.expectations[pair].hex()) for pair in result.expectations],
        result.reference_combination.hex(),
        result.max_abs_over_variants.hex(),
        list(result.variant_signs.items()),
    )


def _marginal_bits(report) -> tuple:
    return (
        [
            (c.side, c.setting, c.pairs, _hexes(c.marginal_a + c.marginal_b + c.differences))
            + (c.holds,)
            for c in report.comparisons
        ],
        report.tol,
        report.holds,
    )


def _outcome(read, path: Path):
    """What ``read`` makes of ``path``: the floats, labels and metadata it
    loads, or the type and message of what it raises."""
    try:
        experiment, metadata = read(path)
    except Exception as exc:  # the type is part of what is compared
        return ("raised", type(exc), str(exc))
    tables = [(t.pair, _hexes(t.values)) for t in experiment.tables]
    return ("loaded", tables, experiment.sides, metadata)


@pytest.fixture(scope="module")
def corpus_dir():
    directory = Path(tempfile.mkdtemp(prefix="read-path-"))
    yield directory
    shutil.rmtree(directory)


def test_families_land_in_their_classes():
    for name, doc in DOCUMENTS.items():
        if name.endswith("-rounded"):
            continue
        rows = {
            pair: normalize([float(v) for v in doc["tables"][pair.label].values()], pair)
            for pair in PAIR_ORDER
        }
        experiment = Experiment([rows[p] for p in PAIR_ORDER])
        expected = FAMILIES[doc["metadata"]["family"]]
        s = chsh(experiment).max_abs_over_variants
        holds = marginal_law_report(experiment).holds
        if expected is None:
            with pytest.raises(AmbiguousClassError):
                decide_class(s, holds)
        else:
            assert decide_class(s, holds) is expected, name


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_reads_and_analyses_match_the_reference(corpus_dir, name):
    path = _write(corpus_dir, name, DOCUMENTS[name])
    loaded = _outcome(read_experiment, path)
    assert loaded[0] == "loaded"
    assert loaded == _outcome(reference_read_experiment, path)
    experiment = read_experiment(path)[0]
    assert _chsh_bits(chsh(experiment)) == _chsh_bits(reference_chsh(experiment))
    assert list(chsh(experiment).expectations) == list(CHSH_TERM_ORDER)
    assert _marginal_bits(marginal_law_report(experiment)) == _marginal_bits(
        reference_marginal_law_report(experiment)
    )
    for tol in (0.0, 1e-3, float("nan")):
        assert _marginal_bits(marginal_law_report(experiment, tol)) == _marginal_bits(
            reference_marginal_law_report(experiment, tol)
        )


def test_normalize_matches_the_reference():
    rng = random.Random("read-path/normalize")
    specials = [0.0, -0.0, 1.0, 1e-300, 5e-324, -1e-300, float("inf"), float("-inf"), float("nan")]
    for _ in range(3000):
        row = [rng.choice(specials) if rng.random() < 0.05 else rng.random() for _ in range(4)]
        if rng.random() < 0.02:
            row = rng.choice([[0.0] * 4, [1e308] * 4])
        elif rng.random() < 0.5:
            total = math.fsum(v for v in row if math.isfinite(v)) or 1.0
            row = [v / total * (1 + rng.uniform(-0.02, 0.02)) for v in row]
        tol = rng.choice([0.01, 0.0, 0.05, 1.5, float("nan"), -1.0])
        pair = rng.choice(PAIR_ORDER)
        outcomes = []
        for fn in (normalize, reference_normalize):
            try:
                outcomes.append(("ok", _hexes(fn(row, pair, tol).values)))
            except Exception as exc:
                outcomes.append(("raised", type(exc), str(exc)))
        if outcomes[0] != outcomes[1]:
            # on purpose: a sum of 0 or one that overflows, which only a tol of
            # 1 or more admits, is rejected instead of divided by
            assert outcomes[0][:2] == ("raised", NotNormalizableError), (row, tol)
            assert outcomes[0][2].endswith("; it cannot be rescaled"), (row, tol)


# ---------------------------------------------------------------------------
# mutated documents: the same error, or a deliberate rejection
# ---------------------------------------------------------------------------

DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def _deliberately_rejected(doc) -> bool:
    """Whether ``doc`` holds what the reader now rejects on purpose: a
    probability that is not a decimal string, or a side whose labels repeat."""
    if not isinstance(doc, dict):
        return False
    sides = doc.get("sides")
    if isinstance(sides, dict) and any(
        isinstance(labels, list) and len(labels) == 2 and labels[0] == labels[1]
        for labels in sides.values()
    ):
        return True
    tables = doc.get("tables")
    if not isinstance(tables, dict):
        return False
    for pair in PAIR_ORDER:
        entry = tables.get(pair.label)
        if isinstance(entry, dict):
            for label in pair.outcome_labels:
                if label in entry and not (
                    isinstance(entry[label], str) and DECIMAL.fullmatch(entry[label])
                ):
                    return True
    return False


ODD_VALUES = (None, True, False, 0, 1, 0.25, -1, [], {}, "", "x", "0.25", ["0.25"], {"a": 1})
ODD_PROBABILITIES = (
    "-0.25", "0.5", "1", "1.5", "0", "-0", "1e-05", "2.5e-01", "1e999", "-1e999",
    "nan", "inf", "-inf", " 0.25 ", "0.2_5", "+0.25", ".25", "0x1p-2", True, 0.25, 1, None,
)


def _paths(node, prefix=()):
    """Every path of keys into ``node``'s objects and arrays."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutants(doc: dict, rng: random.Random):
    """Deletions, replacements and additions at every path, bad rows, and
    repeated keys inserted into the text."""
    paths = list(_paths(doc))
    for path in paths:
        mutant = copy.deepcopy(doc)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict):
            del parent[path[-1]]
            yield mutant
        for value in rng.sample(ODD_VALUES, 3):
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
            yield mutant
    for pair in PAIR_ORDER:
        for value in ODD_PROBABILITIES:
            mutant = copy.deepcopy(doc)
            mutant["tables"][pair.label][rng.choice(pair.outcome_labels)] = value
            yield mutant
        for factor in (0.5, 0.98, 0.995, 1.005, 1.02, 1.5, -1.0):
            mutant = copy.deepcopy(doc)
            row = mutant["tables"][pair.label]
            for label in row:
                row[label] = repr(float(row[label]) * factor)
            yield mutant
        mutant = copy.deepcopy(doc)
        mutant["tables"][pair.label]["A3B1"] = "0.0"
        yield mutant
    for side in ("first", "second"):
        mutant = copy.deepcopy(doc)
        mutant["sides"][side] = [mutant["sides"][side][0]] * 2
        yield mutant
    mutant = copy.deepcopy(doc)
    mutant["extra"] = 1
    mutant["tables"]["BA"] = {}
    yield mutant
    yield [doc]
    text = json.dumps(doc, indent=2)
    for old in ('"version": 1,', '"first": [', '"A1B1": ', '"A\'2B2": ', '"family": '):
        start = text.index(old)
        end = text.index("\n", start)
        line = text[start:end].rstrip(",")
        yield text[:start] + line + ",\n" + text[start:]
    yield text.replace('"version": 1,', '"version": 1,\n  "version": 1,', 1)[:-2]


@pytest.mark.parametrize("name", sorted(DOCUMENTS)[::3])
def test_mutated_documents_fail_as_the_reference_does(corpus_dir, name):
    rng = random.Random(f"read-path/mutants/{name}")
    deliberate = 0
    for k, mutant in enumerate(_mutants(DOCUMENTS[name], rng)):
        path = _write(corpus_dir, f"{name}-mutant-{k}", mutant)
        ours = _outcome(read_experiment, path)
        theirs = _outcome(reference_read_experiment, path)
        if ours != theirs:
            assert _deliberately_rejected(mutant), (mutant, ours, theirs)
            assert ours[:2] == ("raised", ExperimentFileError), ours
            assert re.search(r": (tables\.[AB']+\.[AB'12]+: not a decimal probability|"
                             r"sides\.(first|second): repeated label)", ours[2]), ours
            deliberate += 1
    assert deliberate > 0


# ---------------------------------------------------------------------------
# fuzzing: load and round-trip, or fail naming a field
# ---------------------------------------------------------------------------

_FIELD = (
    r"(document|version|sides|sides\.(first|second)|settings|tables"
    r"|tables\.(AB|AB'|A'B|A'B')(\.(A|A')[12](B|B')[12])?|metadata)"
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

probabilities = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(0.0, 1.0).map(lambda v: f"{v:.3f}"),
    st.sampled_from(ODD_PROBABILITIES),
    st.text(alphabet="0123456789.-+eE_ x", max_size=8),
    json_values,
)


@st.composite
def rows(draw, pair: SettingPair):
    if draw(st.booleans()):
        raw = draw(st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4))
        values = normalize(raw, pair, tol=math.inf).values
        if draw(st.booleans()):
            strings = [f"{v:.3f}" for v in values]
        else:
            strings = [repr(v) for v in values]
        row = dict(zip(pair.outcome_labels, strings))
    else:
        row = {label: draw(probabilities) for label in pair.outcome_labels}
    if draw(st.integers(0, 9)) == 0:
        del row[draw(st.sampled_from(pair.outcome_labels))]
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.text(max_size=4))] = draw(probabilities)
    return row


@st.composite
def documents(draw):
    doc = {
        "version": draw(st.sampled_from([1, 1, 1, 2, "1", None])),
        "sides": draw(
            st.one_of(
                st.sampled_from([{"first": list(f), "second": list(s)} for f, s in SIDE_LABELS]),
                st.fixed_dictionaries(
                    {"first": st.lists(st.text(max_size=3), min_size=2, max_size=2),
                     "second": st.lists(st.text(max_size=3), min_size=2, max_size=2)}
                ),
                json_values,
            )
        ),
        "settings": draw(
            st.sampled_from([SETTING_LABELS] * 3 + [["AB"], ["AB", "AB'", "A'B'", "A'B"]])
        ),
        "tables": {pair.label: draw(rows(pair)) for pair in PAIR_ORDER},
        "metadata": draw(
            st.one_of(st.dictionaries(st.text(max_size=4), json_values, max_size=3), json_values)
        ),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc.pop(key, None)
    return doc


@settings(max_examples=300, deadline=None)
@given(documents())
def test_any_document_loads_and_round_trips_or_names_a_field(doc):
    directory = Path(tempfile.mkdtemp(prefix="read-fuzz-"))
    try:
        path = _write(directory, "doc", doc)
        try:
            experiment, metadata = read_experiment(path)
        except ExperimentFileError as exc:
            assert re.fullmatch(rf"{re.escape(str(path))}: {_FIELD}: .+", str(exc), re.S), str(exc)
            return
        copy_path = directory / "copy.json"
        write_experiment(copy_path, experiment, metadata)
        again, metadata_again = read_experiment(copy_path)
        assert again == experiment
        for table, table_again in zip(experiment.tables, again.tables):
            assert _hexes(table_again.values) == _hexes(table.values)
        assert metadata_again == metadata
    finally:
        shutil.rmtree(directory)
