"""Machine reports and experiment files are indented JSON, byte for byte.

``report.render_machine`` and ``expfile.write_experiment`` fill fixed
layouts.  Each must write exactly ``json.dumps(document, indent=2)`` of its
reference document in ``oracles`` (``reference_machine_payload``,
``reference_file_document``), whatever the side labels and the metadata, and
the file writer must raise what ``json.dumps`` raises for metadata it cannot
encode, before it opens the file.  Reports and files are also checked by
re-encoding what they parse to.
"""

import collections
import enum
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from bellbox.bell import ZooClass
from bellbox.expfile import ExperimentFileError, read_experiment, write_experiment
from bellbox.hilbert import ISOMORPHISMS
from bellbox.models import (
    REGISTRY,
    animal_acts_data,
    get_fixture,
    get_model,
    vessels_data,
    vessels_separated_data,
)
from bellbox.report import build_report, render_machine
from bellbox.tables import DEFAULT_SIDES, PAIR_ORDER, Experiment, JointTable

from oracles import reference_file_document, reference_machine_payload


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _reference_report(report) -> str:
    return json.dumps(reference_machine_payload(report), indent=2) + "\n"


def _reference_file(experiment, metadata) -> str:
    return json.dumps(reference_file_document(experiment, metadata), indent=2) + "\n"


def _repeats_a_key(text: str) -> bool:
    """Whether an object in the JSON ``text`` repeats a key."""
    repeats = []

    def hook(pairs):
        repeats.append(len(dict(pairs)) < len(pairs))
        return dict(pairs)

    json.loads(text, object_pairs_hook=hook)
    return any(repeats)


def _check_written(path, experiment, metadata):
    """``write_experiment`` writes the reference file, which reads back to
    ``experiment``.  Or it raises: what ``json.dumps`` raises for the
    reference document, or ``ExperimentFileError`` when the reference file
    would read back with other side labels, or not at all because its
    metadata repeats a key (``1`` and ``"1"`` are both written as ``"1"``).
    It leaves no file when it raises.  Returns what the writer returned or
    raised."""
    want = _outcome(_reference_file, experiment, metadata)
    if path.exists():
        path.unlink()
    got = _outcome(write_experiment, path, experiment, metadata)
    if not isinstance(want, str):
        assert got == want
    elif tuple(map(tuple, json.loads(want)["sides"].values())) != experiment.sides:
        assert got[0] is ExperimentFileError and got[1].endswith("would not read back as written")
    elif _repeats_a_key(want):
        assert got[0] is ExperimentFileError and "duplicate key" in got[1]
    else:
        assert got is None
        assert path.read_text(encoding="utf-8") == want
        assert read_experiment(path)[0] == experiment
        return got
    assert not path.exists()
    return got


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5)
    | st.dictionaries(keys, children, max_size=3),
    max_leaves=40,
)

#: Any character, lone surrogates included, and often one that JSON escapes.
characters = st.characters(exclude_categories=()) | st.sampled_from(
    '"\\/\x00\b\t\n\x1f\x7f\xe9\u2028\u2603\ud800\udfff\U0001f600'
)
side_labels = st.lists(st.text(characters, max_size=6), min_size=2, max_size=2, unique=True)


def _reencoded(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


def _experiment(values_by_label, sides=DEFAULT_SIDES) -> Experiment:
    return Experiment(
        tuple(JointTable(*values_by_label[p.label], pair=p) for p in PAIR_ORDER), sides
    )


def _correlated(e: float) -> tuple[float, float, float, float]:
    return ((1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4)


NONLOCAL_BOX = _experiment(
    {
        "AB": _correlated(-0.65),
        "AB'": _correlated(0.65),
        "A'B": _correlated(0.65),
        "A'B'": _correlated(0.65),
    }
)
EXTREMAL_BOX = _experiment(
    {
        "AB": (0.0, 0.5, 0.5, 0.0),
        "AB'": (0.5, 0.0, 0.0, 0.5),
        "A'B": (0.5, 0.0, 0.0, 0.5),
        "A'B'": (0.5, 0.0, 0.0, 0.5),
    }
)
ODD_SIDES = (('café "one"', "back\\slash"), ("tab\there", "☃\nnewline"))

EXPERIMENTS = {
    "kolmogorovian": (vessels_separated_data().experiment, ZooClass.KOLMOGOROVIAN_COMPATIBLE),
    "nonlocal-box": (NONLOCAL_BOX, ZooClass.NONLOCAL_BOX),
    "non-marginal-1": (animal_acts_data().experiment, ZooClass.NONLOCAL_NON_MARGINAL_BOX_1),
    "non-marginal-2": (vessels_data().experiment, ZooClass.NONLOCAL_NON_MARGINAL_BOX_2),
    "unresolved": (EXTREMAL_BOX, None),
    "odd-sides": (
        Experiment(vessels_data().experiment.tables, ODD_SIDES),
        ZooClass.NONLOCAL_NON_MARGINAL_BOX_2,
    ),
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_machine_report_is_indented_json(name):
    experiment, zoo_class = EXPERIMENTS[name]
    report = build_report(experiment)
    assert report.zoo_class is zoo_class
    out = render_machine(report)
    assert _reencoded(out) == out
    assert (report.zoo_error is None) == (zoo_class is not None)


@pytest.mark.parametrize("iso", ISOMORPHISMS)
@pytest.mark.parametrize("name", ("animal-acts", "vessels", "vessels-alt"))
def test_model_report_is_indented_json(name, iso):
    model = get_model(name, 0.7, -0.3)
    data = get_fixture(model.fixture_name).experiment
    verdict = model.verify(data, iso=ISOMORPHISMS[iso])
    out = render_machine(build_report(data, model=(model, verdict)))
    assert _reencoded(out) == out


@pytest.mark.parametrize(
    "metadata",
    [
        None,
        {},
        {"source": "vessels"},
        {"floats": [0.1, 1e300, -0.0, math.nan, math.inf], "tuple": (1, ("two", None))},
        {1: "int key", "nested": {2: [3.5]}, "unicode": "é☃", "ctrl": "\x00\x1f"},
    ],
)
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_written_file_is_indented_json(tmp_path, name, metadata):
    experiment, _zoo_class = EXPERIMENTS[name]
    path = tmp_path / "exp.json"
    write_experiment(path, experiment, metadata)
    text = path.read_text(encoding="utf-8")
    assert _reencoded(text) == text
    assert read_experiment(path)[0] == experiment


def test_unencodable_metadata_raises_as_json_does(tmp_path):
    circular = {"a": [1]}
    circular["a"].append(circular)
    path = tmp_path / "exp.json"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_experiment(path, vessels_data().experiment, {"tags": {"x"}})
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_experiment(path, vessels_data().experiment, circular)
    assert not path.exists()


#: The four Zoo classes and the unresolved extremal box.
ZOO_EXPERIMENTS = [EXPERIMENTS[name][0] for name in EXPERIMENTS if name != "odd-sides"]
experiments = st.builds(
    lambda experiment, first, second: Experiment(experiment.tables, (first, second)),
    st.sampled_from(ZOO_EXPERIMENTS),
    side_labels,
    side_labels,
)
#: No model, or a registry model under one of the isomorphisms.
model_choices = st.sampled_from(
    [None]
    + [(name, iso) for name, (_, build) in REGISTRY.items() if build for iso in ISOMORPHISMS]
)
phases = st.floats(min_value=-4.0, max_value=4.0)


@settings(max_examples=200, deadline=None)
@given(experiments, model_choices, phases, phases)
def test_machine_report_matches_the_reference(experiment, choice, alpha, beta):
    model = None
    if choice is not None:
        name, iso = choice
        named = get_model(name, alpha, beta)
        model = (named, named.verify(experiment, iso=ISOMORPHISMS[iso]))
    report = build_report(experiment, model=model)
    assert render_machine(report) == _reference_report(report)


@settings(max_examples=200, deadline=None)
@given(experiments, st.none() | st.dictionaries(keys, trees, max_size=4))
def test_matches_json_dumps(tmp_path_factory, experiment, metadata):
    _check_written(tmp_path_factory.getbasetemp() / "written.json", experiment, metadata)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "plain",
        "café ☃ \U0001f600",
        'a "quoted" word',
        "back\\slash \\n",
        "".join(map(chr, range(32))) + "\x7f",
        "  ",
        "\ud800 lone surrogate",
    ],
)
def test_strings(tmp_path, text):
    experiment = Experiment(vessels_data().experiment.tables, ((text, "A'"), ("B", text + "'")))
    report = build_report(experiment)
    assert render_machine(report) == _reference_report(report)
    for node in (text, [text], {text: text}, {"k": [text, {text: [text]}]}):
        _check_written(tmp_path / "exp.json", experiment, {text: node})


class Color(enum.IntEnum):
    RED = 1


class Label(str):
    pass


@pytest.mark.parametrize(
    "node",
    [
        {},
        [],
        [[], {}, [[]], {"": {}}],
        {"a": {"b": {"c": []}}},
        [None, True, False, 0, -1, 2**70, 1.5, -0.0],
        [math.nan, math.inf, -math.inf],
        {"t": (1, "x", (None,)), "u": ()},
        {1: "int key", 2.5: "float key", True: "bool key", None: "none key"},
        {"a": 1, 1: "mixed keys"},
        {"e": Color.RED, Color.RED: "enum key"},
        {"s": Label("sub"), Label("key"): 1},
        collections.OrderedDict(b=1, a=2),
        {"nested": collections.OrderedDict(b=[1.0])},
        [{"deep": [{"deeper": [1, {"x": [True]}]}]}],
    ],
)
def test_other_nodes(tmp_path, node):
    experiment = vessels_data().experiment
    _check_written(tmp_path / "exp.json", experiment, {"node": node})
    if isinstance(node, dict):
        _check_written(tmp_path / "exp.json", experiment, node)


def test_deep_nesting_is_written_like_json(tmp_path):
    for depth in (31, 32, 33, 40, 100):
        node = "leaf"
        for level in range(depth):
            node = {"k": node} if level % 2 else [node, level]
        _check_written(tmp_path / "exp.json", vessels_data().experiment, {"deep": node})


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_unencodable_nodes_raise_what_json_raises(tmp_path, error):
    if error is TypeError:
        cases = [{1, 2}, {"a": [object()]}, {(1, 2): "tuple key"}, b"bytes"]
    else:
        loop_list = []
        loop_list.append(loop_list)
        loop_dict = {"a": 1}
        loop_dict["self"] = {"up": [loop_dict]}
        loop_tuple = {"x": []}
        loop_tuple["x"].append((loop_tuple,))
        cases = [loop_list, loop_dict, loop_tuple, {"ok": 1, "m": loop_dict}]
    for node in cases:
        got = _check_written(tmp_path / "exp.json", vessels_data().experiment, {"node": node})
        assert got[0] is error
