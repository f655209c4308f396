import json
import os
import stat
import sys

import pytest

from bellbox import expfile
from bellbox.expfile import ExperimentFileError, read_experiment, write_experiment
from bellbox.models import animal_acts_data, vessels_data
from bellbox.tables import PAIR_ORDER, Experiment, SettingPair, TableError

from oracles import reference_file_document


def test_round_trip_is_bitwise_exact(tmp_path):
    for fixture in (animal_acts_data(), vessels_data()):
        path = tmp_path / f"{fixture.name}.json"
        write_experiment(path, fixture.experiment, metadata={"source": fixture.name})
        loaded, metadata = read_experiment(path)
        for pair in PAIR_ORDER:
            assert loaded.table(pair).values == fixture.experiment.table(pair).values
        assert metadata == {"source": fixture.name}


def test_written_file_uses_decimal_strings(tmp_path):
    path = tmp_path / "vessels.json"
    write_experiment(path, vessels_data().experiment)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert doc["settings"] == ["AB", "AB'", "A'B", "A'B'"]
    assert doc["tables"]["AB"]["A1B2"] == "0.5"
    assert doc["sides"] == {"first": ["A", "A'"], "second": ["B", "B'"]}


def _valid_doc():
    return {
        "version": 1,
        "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
        "settings": ["AB", "AB'", "A'B", "A'B'"],
        "tables": {
            pair.label: {
                label: "0.25" for label in pair.outcome_labels
            }
            for pair in PAIR_ORDER
        },
        "metadata": {},
    }


def _write(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_valid_document_parses(tmp_path):
    experiment, _ = read_experiment(_write(tmp_path, _valid_doc()))
    assert experiment.table(SettingPair.AB).values == (0.25, 0.25, 0.25, 0.25)


def test_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  "oops"\n}\n')
    with pytest.raises(ExperimentFileError, match=r"line \d+, column \d+"):
        read_experiment(path)


def test_missing_file(tmp_path):
    with pytest.raises(ExperimentFileError, match="cannot read"):
        read_experiment(tmp_path / "nope.json")


def test_wrong_version(tmp_path):
    doc = _valid_doc()
    doc["version"] = 2
    with pytest.raises(ExperimentFileError, match="version"):
        read_experiment(_write(tmp_path, doc))


def test_missing_outcome_label(tmp_path):
    doc = _valid_doc()
    del doc["tables"]["A'B"]["A'2B1"]
    with pytest.raises(ExperimentFileError, match=r"tables.A'B.*A'2B1"):
        read_experiment(_write(tmp_path, doc))


def test_unexpected_outcome_label(tmp_path):
    doc = _valid_doc()
    doc["tables"]["AB"]["A3B1"] = "0.0"
    with pytest.raises(ExperimentFileError, match=r"unexpected outcome labels"):
        read_experiment(_write(tmp_path, doc))


def test_non_decimal_probability(tmp_path):
    doc = _valid_doc()
    doc["tables"]["AB"]["A1B1"] = "one quarter"
    with pytest.raises(ExperimentFileError, match=r"tables.AB.A1B1"):
        read_experiment(_write(tmp_path, doc))


def test_bad_settings_list(tmp_path):
    doc = _valid_doc()
    doc["settings"] = ["AB", "BA", "A'B", "A'B'"]
    with pytest.raises(ExperimentFileError, match="settings"):
        read_experiment(_write(tmp_path, doc))


def test_unnormalizable_table_names_the_pair(tmp_path):
    doc = _valid_doc()
    doc["tables"]["AB'"] = {
        label: "0.375" for label in SettingPair.AB_PRIME.outcome_labels
    }
    with pytest.raises(ExperimentFileError, match=r"tables.AB'"):
        read_experiment(_write(tmp_path, doc))


def test_normalize_tol_is_honored(tmp_path):
    doc = _valid_doc()
    # sums to 0.9: outside the default slack, inside a loose one
    doc["tables"]["AB"] = {
        label: "0.225" for label in SettingPair.AB.outcome_labels
    }
    path = _write(tmp_path, doc)
    with pytest.raises(ExperimentFileError):
        read_experiment(path)
    experiment, _ = read_experiment(path, normalize_tol=0.2)
    assert abs(sum(experiment.table(SettingPair.AB).values) - 1.0) <= 1e-12


def test_negative_probability_rejected(tmp_path):
    doc = _valid_doc()
    doc["tables"]["AB"]["A1B1"] = "-0.25"
    with pytest.raises(ExperimentFileError, match="negative"):
        read_experiment(_write(tmp_path, doc))


def test_custom_side_labels_pass_through(tmp_path):
    doc = _valid_doc()
    doc["sides"] = {"first": ["siphon", "spoon"], "second": ["siphon", "spoon"]}
    experiment, _ = read_experiment(_write(tmp_path, doc))
    assert experiment.sides[0] == ("siphon", "spoon")


def test_duplicate_outcome_key_rejected(tmp_path):
    text = json.dumps(_valid_doc(), indent=2).replace(
        '"A1B1": "0.25",', '"A1B1": "0.25",\n      "A1B1": "0.25",', 1
    )
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ExperimentFileError, match=r"tables\.AB: duplicate key 'A1B1'"):
        read_experiment(path)


def test_non_string_side_label_rejected(tmp_path):
    doc = _valid_doc()
    doc["sides"]["first"] = ["X", 7]
    with pytest.raises(ExperimentFileError, match=r"sides\.first"):
        read_experiment(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "old,new,where,key",
    [
        ('"version": 1,', '"version": 1,\n  "version": 1,', "document", "version"),
        (
            '"first": [',
            '"first": ["A", "A\'"],\n    "first": [',
            "sides",
            "first",
        ),
        ('"metadata": {}', '"metadata": {"x": 1, "y": 2, "x": 3}', "metadata", "x"),
    ],
    ids=("document", "sides", "metadata"),
)
def test_duplicate_key_names_its_object(tmp_path, old, new, where, key):
    text = json.dumps(_valid_doc(), indent=2)
    assert old in text
    path = tmp_path / "dup.json"
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ExperimentFileError) as info:
        read_experiment(path)
    assert str(info.value) == f"{path}: {where}: duplicate key {key!r}"


def test_first_duplicate_in_document_order_is_reported(tmp_path):
    doc = _valid_doc()
    text = json.dumps(doc, indent=2).replace(
        '"metadata": {}', '"metadata": {"x": 1, "x": 2}'
    ).replace('"A2B2": "0.25"', '"A2B2": "0.25",\n      "A2B2": "0.25"', 1)
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ExperimentFileError, match=r": tables\.AB: duplicate key 'A2B2'$"):
        read_experiment(path)



def test_repeated_key_is_found_below_the_recursion_limit():
    # from Python 3.12 the parser nests deeper than Python recursion allows,
    # so the walk that names a repeated key must not recurse
    inner = expfile._parse('{"k": 1, "k": 2}')[0]
    node = inner
    for _ in range(3 * sys.getrecursionlimit()):
        node = [node]
    document = {"first": [{"fine": {}}], "deep": node, "last": inner}
    where = "deep" + ".0" * (3 * sys.getrecursionlimit())
    assert expfile._find_repeated(document, "document") == (where, "k")

@pytest.mark.parametrize(
    "raw",
    [True, False, None, 0.25, 1, "0.2_5", " 0.25 ", "0.25 ", "nan", "inf", "-inf", "NaN",
     "Infinity", "+0.25", ".25", "0.", "00.25", "0x1p-2", "1/4", "\u0660.25", "0.2\u0665",
     "0.25e", ""],
    ids=repr,
)
def test_probability_outside_the_decimal_grammar_names_its_field(tmp_path, raw):
    doc = _valid_doc()
    doc["tables"]["A'B"]["A'1B2"] = raw
    path = _write(tmp_path, doc)
    with pytest.raises(ExperimentFileError) as info:
        read_experiment(path)
    assert str(info.value) == f"{path}: tables.A'B.A'1B2: not a decimal probability: {raw!r}"


@pytest.mark.parametrize(
    "raw,value",
    [("0.25", 0.25), ("2.5e-01", 0.25), ("25E-2", 0.25), ("0.250", 0.25), ("1e-05", 1e-05),
     ("0", 0.0), ("-0.0", 0.0)],
)
def test_decimal_grammar_covers_repr_and_fixed_point(tmp_path, raw, value):
    doc = _valid_doc()
    doc["tables"]["AB"]["A1B1"] = raw
    doc["tables"]["AB"]["A1B2"] = repr(0.5 - value)
    experiment, _ = read_experiment(_write(tmp_path, doc))
    assert experiment.table(SettingPair.AB).p11 == value


def test_negative_decimal_fails_as_negative(tmp_path):
    doc = _valid_doc()
    doc["tables"]["AB'"]["A1B'2"] = "-1e-05"
    path = _write(tmp_path, doc)
    with pytest.raises(ExperimentFileError) as info:
        read_experiment(path)
    assert str(info.value) == f"{path}: tables.AB': entry A1B'2 = -1e-05 is negative"


@pytest.mark.parametrize("side", ["first", "second"])
def test_repeated_side_label_rejected(tmp_path, side):
    doc = _valid_doc()
    doc["sides"][side] = ["A", "A"]
    path = _write(tmp_path, doc)
    with pytest.raises(ExperimentFileError) as info:
        read_experiment(path)
    assert str(info.value) == f"{path}: sides.{side}: repeated label 'A'"


def _write_sides(tmp_path, sides):
    """The message ``write_experiment`` raises for vessel tables with
    ``sides``, and the path it was given, which must not exist."""
    path = tmp_path / "exp.json"
    with pytest.raises(ExperimentFileError) as info:
        write_experiment(path, Experiment(vessels_data().experiment.tables, sides))
    assert not path.exists()
    return path, str(info.value)


def _refused_sides(sides):
    """The message with which ``Experiment`` refuses vessel tables with
    ``sides``: no such experiment reaches the writer."""
    with pytest.raises(TableError) as info:
        Experiment(vessels_data().experiment.tables, sides)
    return str(info.value)


def test_writer_rejects_non_string_side_label():
    message = _refused_sides((("X", 7), ("B", "B'")))
    assert message == "sides.first: expected two string labels: ('X', 7)"


def test_writer_rejects_repeated_side_label():
    assert _refused_sides((("A", "A'"), ("B", "B"))) == "sides.second: repeated label 'B'"


@pytest.mark.parametrize("labels", [("B",), ("B", "B'", "B''")])
def test_writer_rejects_a_side_without_two_labels(labels):
    message = _refused_sides((("A", "A'"), labels))
    assert message == f"sides.second: expected two string labels: {labels!r}"


def test_writer_rejects_side_label_that_would_read_back_changed(tmp_path):
    labels = ("B", "\ud800\udfff")  # read back as the one character "\U000103ff"
    path, message = _write_sides(tmp_path, (("A", "\ud800"), labels))
    assert message == f"{path}: sides.second: labels {labels!r} would not read back as written"


@pytest.mark.parametrize(
    "metadata,where,key",
    [({1: "a", "1": "b"}, "metadata", "1"), ({"m": [{None: 1, "null": 2}]}, "metadata.m.0", "null")],
)
def test_writer_rejects_metadata_that_would_repeat_a_key(tmp_path, metadata, where, key):
    path = tmp_path / "exp.json"
    with pytest.raises(ExperimentFileError) as info:
        write_experiment(path, vessels_data().experiment, metadata)
    assert str(info.value) == f"{path}: {where}: duplicate key {key!r}"
    assert not path.exists()


def test_writer_rejects_other_than_two_sides():
    message = _refused_sides((("A", "A'"), ("B", "B'"), ("C", "C'")))
    assert message == "sides: expected two sides, got 3"


def test_byte_order_mark_is_reported_as_json_does(tmp_path):
    path = tmp_path / "bom.json"
    path.write_text("\ufeff" + json.dumps(_valid_doc()), encoding="utf-8")
    with pytest.raises(ExperimentFileError) as info:
        read_experiment(path)
    assert str(info.value) == (
        f"{path}: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


def test_syntax_error_after_a_repeated_key_is_reported(tmp_path):
    text = json.dumps(_valid_doc(), indent=2).replace(
        '"version": 1,', '"version": 1,\n  "version": 1,', 1
    )
    path = tmp_path / "broken.json"
    path.write_text(text[:-2])
    with pytest.raises(ExperimentFileError, match=r"broken\.json: line \d+, column \d+: "):
        read_experiment(path)


def test_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ExperimentFileError, match=r"latin1\.json: cannot read file: 'utf-8' codec"):
        read_experiment(path)


def test_all_zero_row_under_a_loose_tolerance_names_the_table(tmp_path):
    doc = _valid_doc()
    doc["tables"]["A'B"] = {label: "0" for label in SettingPair.A_PRIME_B.outcome_labels}
    path = _write(tmp_path, doc)
    with pytest.raises(ExperimentFileError) as info:
        read_experiment(path, normalize_tol=1.0)
    assert str(info.value) == f"{path}: tables.A'B: table A'B sums to 0.0; it cannot be rescaled"


def test_reader_refuses_an_int_path():
    # open would take the int for a file descriptor, read from it and close it
    r, w = os.pipe()
    try:
        os.write(w, b'{"version": 2}')
        os.close(w)
        with pytest.raises(TypeError):
            read_experiment(r)
        os.fstat(r)  # still open
    finally:
        os.close(r)


# Writing over an existing file: the file is overwritten in place and then
# cut to the new length, so what is left must be the bytes of a fresh
# ``Path.write_text`` of the new document, whether the old file was longer
# or shorter.

_LONG_METADATA = {"source": "animal-acts", "notes": "a long note " * 200}


def _reference_bytes(tmp_path, experiment, metadata):
    text = json.dumps(reference_file_document(experiment, metadata), indent=2) + "\n"
    reference = tmp_path / "reference.json"
    reference.write_text(text, encoding="utf-8")
    return reference.read_bytes()


@pytest.mark.parametrize(
    "first,second",
    [(_LONG_METADATA, {"source": "vessels"}), ({"source": "vessels"}, _LONG_METADATA)],
    ids=["longer-then-shorter", "shorter-then-longer"],
)
def test_overwrite_gives_the_bytes_of_a_fresh_write(tmp_path, first, second):
    path = tmp_path / "exp.json"
    write_experiment(path, animal_acts_data().experiment, first)
    write_experiment(path, vessels_data().experiment, second)
    assert path.read_bytes() == _reference_bytes(tmp_path, vessels_data().experiment, second)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
def test_created_file_has_the_mode_of_write_text(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_experiment(tmp_path / "written.json", vessels_data().experiment)
        (tmp_path / "reference.json").write_text("{}", encoding="utf-8")
    finally:
        os.umask(old)
    written = stat.S_IMODE((tmp_path / "written.json").stat().st_mode)
    assert written == stat.S_IMODE((tmp_path / "reference.json").stat().st_mode)
    assert written == 0o666 & ~umask


def test_symlinked_destination_is_written_through_the_link(tmp_path):
    target = tmp_path / "target.json"
    write_experiment(target, animal_acts_data().experiment, _LONG_METADATA)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_experiment(link, vessels_data().experiment)
    assert link.is_symlink()
    assert target.read_bytes() == _reference_bytes(tmp_path, vessels_data().experiment, {})
