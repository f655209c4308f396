"""The one indented-JSON writer behind machine reports and experiment files.

``bellbox.expfile._indented_json`` must write exactly what
``json.dumps(node, indent=2)`` writes, and raise what it raises, for any
node.  Reports and files are checked by re-encoding what they parse to.
"""

import collections
import enum
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from bellbox.bell import ZooClass
from bellbox.expfile import _indented_json, read_experiment, write_experiment
from bellbox.hilbert import ISOMORPHISMS
from bellbox.models import (
    animal_acts_data,
    get_fixture,
    get_model,
    vessels_data,
    vessels_separated_data,
)
from bellbox.report import build_report, render_machine
from bellbox.tables import DEFAULT_SIDES, PAIR_ORDER, Experiment, JointTable


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _same_as_json(node):
    assert _outcome(_indented_json, node) == _outcome(lambda n: json.dumps(n, indent=2), node)


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


@settings(max_examples=300)
@given(trees)
def test_matches_json_dumps(tree):
    _same_as_json(tree)


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
def test_strings(text):
    for node in (text, [text], {text: text}, {"k": [text, {text: [text]}]}):
        _same_as_json(node)


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
def test_other_nodes(node):
    _same_as_json(node)


def test_deep_nesting_is_written_like_json():
    for depth in (31, 32, 33, 40, 100):
        node = "leaf"
        for level in range(depth):
            node = {"k": node} if level % 2 else [node, level]
        _same_as_json(node)


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_unencodable_nodes_raise_what_json_raises(error):
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
        with pytest.raises(error) as expected:
            json.dumps(node, indent=2)
        with pytest.raises(error) as got:
            _indented_json(node)
        assert str(got.value) == str(expected.value)


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
