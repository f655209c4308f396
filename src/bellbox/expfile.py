"""Versioned on-disk format for experiment data.

The carrier is a JSON document with explicit outcome labels so that the
cell assignment (which probability is 11, 12, 21, 22) can never silently
flip, which is where CHSH sign errors come from::

    {
      "version": 1,
      "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
      "settings": ["AB", "AB'", "A'B", "A'B'"],
      "tables": {
        "AB": {"A1B1": "0.049", "A1B2": "0.630", "A2B1": "0.259", "A2B2": "0.062"},
        ...
      },
      "metadata": {"source": "...", "notes": "..."}
    }

Probabilities are decimal strings: a JSON number written as a string
(``_JSON_NUMBER``), which covers what ``repr`` of a float and fixed-point
rounding write.  ``repr`` round-trips exactly, so written files reproduce
the in-memory tables bit for bit.  :func:`write_experiment` fills one fixed
layout (see :func:`_layout`) and writes what ``json.dumps(..., indent=2)``
writes for the document; only the metadata goes through ``json.dumps``.
The text is ASCII, in the bytes ``Path.write_text`` writes.  An existing
file is overwritten in place and then cut to the new length, not cut to
zero first: on ext4, closing a file cut to zero starts its writeback
(``auto_da_alloc``), ≈75–140 µs a rewrite against ≈4–7 µs in place.
Neither this write nor ``Path.write_text`` calls ``fsync`` or is atomic; a
caller who needs atomicity writes a temporary file and moves it with
``os.replace``, which on ext4 pays the same writeback.

A file is read as bytes and decoded as UTF-8 once; ``\\r\\n`` and a lone
``\\r`` then become ``\\n``, as in a text-mode read, so the text parsed (and
a syntax error's line and column) is what a text-mode read gives.

Input is checked here, at the boundary, once: :func:`read_experiment`
checks the document's keys, labels and decimal strings, and hands each row
to :func:`tables.normalize`, which checks the values and builds the table;
nothing downstream checks them again.  Each rejection is an
:class:`ExperimentFileError` that names its field.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _quote
from json.scanner import NUMBER_RE
from stat import S_ISREG

from .tables import (
    DEFAULT_NORM_TOL,
    Experiment,
    PAIR_ORDER,
    TableError,
    _check_side,
    normalize,
)

FORMAT_VERSION = 1


class ExperimentFileError(ValueError):
    """A file could not be parsed into an experiment; the message names
    the offending location (line/column for syntax, field path otherwise)."""


def _fail(path: str | os.PathLike[str], where: str, problem: str) -> "ExperimentFileError":
    return ExperimentFileError(f"{path}: {where}: {problem}")


class _RepeatedKeys(dict):
    """A parsed JSON object in which ``key`` appears more than once."""

    key: str


class _DuplicateKey(Exception):
    """Raised by ``_DECODER`` at the first object that repeats a key."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _DuplicateKey
    return obj


#: The one decoder of the read path; it keeps no state between documents.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse(text: str) -> tuple[object, bool]:
    """The JSON document in ``text``, and whether any of its objects repeats
    a key; each such object is parsed as a :class:`_RepeatedKeys`.

    Most documents take one pass of ``_DECODER``.  A document with a
    repeated key, or with a byte-order mark (which ``json.loads`` rejects
    with its own message), is parsed again with ``json.loads``, which also
    reports any syntax error that comes after the first repeat.
    """
    if not text.startswith("\ufeff"):
        try:
            return _DECODER.decode(text), False
        except _DuplicateKey:
            pass
    repeats = []

    def parse_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _value in pairs]
            obj = _RepeatedKeys(obj)
            obj.key = next(key for i, key in enumerate(keys) if key in keys[:i])
            repeats.append(obj)
        return obj

    return json.loads(text, object_pairs_hook=parse_object), bool(repeats)


def _find_repeated(node: dict | list, where: str) -> tuple[str, str] | None:
    """Field path and key of the first object in ``node`` (a JSON object or
    array) that repeats a key; paths are dotted, as in ``tables.AB``."""
    if isinstance(node, _RepeatedKeys):
        return where, node.key
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(child, (dict, list)):
            field = key if where == "document" else f"{where}.{key}"
            found = _find_repeated(child, field)
            if found is not None:
                return found
    return None


#: Setting labels in file order, as the ``settings`` field lists them.
_SETTINGS = [pair.label for pair in PAIR_ORDER]

#: ``sides`` when a file has none.
_DEFAULT_SIDES = {"first": ["A", "A'"], "second": ["B", "B'"]}

#: One probability: a JSON number written as a string, in ASCII digits
#: (``json``'s own number pattern, compiled when ``json`` is imported; its
#: ``\d`` would also match other scripts' digits).  It covers what
#: ``repr(float)`` and fixed-point formatting write (``0.25``, ``1e-05``,
#: ``0.049``) and a leading minus, so that a negative fails as negative.
_JSON_NUMBER = NUMBER_RE.fullmatch


#: Slots of a layout skeleton: JSON text, a real to six decimals in quotes,
#: and a number's ``repr`` in quotes.
_RAW, _REAL, _REPR = "\0", "\1", "\2"


def _layout(skeleton: object, indent: str = "") -> str:
    """``json.dumps(skeleton, indent=2)``, each line after the first led by
    ``indent``, as a ``%`` layout: each ``_RAW`` in ``skeleton`` becomes
    ``%s``, to be filled with JSON text, each ``_REAL`` ``"%.6f"`` and each
    ``_REPR`` ``"%r"``, to be filled with numbers, in the order written."""
    text = json.dumps(skeleton, indent=2).replace("%", "%%").replace("\n", "\n" + indent)
    return text.replace('"\\u0000"', "%s").replace("\\u0001", "%.6f").replace("\\u0002", "%r")


#: An experiment file; the metadata object goes in the last slot.
_FILE_LAYOUT = _layout(
    {
        "version": FORMAT_VERSION,
        "sides": {"first": [_RAW, _RAW], "second": [_RAW, _RAW]},
        "settings": _SETTINGS,
        "tables": {pair.label: dict.fromkeys(pair.outcome_labels, _REPR) for pair in PAIR_ORDER},
        "metadata": _RAW,
    }
) + "\n"


def write_experiment(
    path: str | os.PathLike[str],
    experiment: Experiment,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write ``experiment`` and ``metadata`` to ``path`` as ``json.dumps(...,
    indent=2)`` writes the document, each probability as its float's ``repr``.
    The :class:`Experiment` constructor has checked the side labels; labels
    that would not read back as written and metadata that would
    repeat a key raise :class:`ExperimentFileError`, and metadata that
    ``json.dumps`` cannot encode raises what it raises, before the file is
    opened.  ``path``, a ``str`` or path-like (an int is a :class:`TypeError`,
    not a file descriptor), gets the bytes and, if created, the mode that
    ``Path.write_text`` gives; an existing file is overwritten in place, and
    a longer regular file cut to the new length (see the module docstring)."""
    sides = experiment.sides
    for side, labels in zip(("first", "second"), sides):
        # JSON reads a surrogate pair written as two lone surrogates as one character
        if not all(map(str.isascii, labels)) and json.loads(json.dumps(labels)) != list(labels):
            raise _fail(path, f"sides.{side}", f"labels {labels!r} would not read back as written")
    meta = json.dumps(dict(metadata) if metadata else {}, indent=2).replace("\n", "\n  ")
    parsed, repeats = _parse(meta)  # keys such as 1 and "1" are both written as "1"
    if repeats:
        where, key = _find_repeated(parsed, "metadata")
        raise _fail(path, where, f"duplicate key {key!r}")
    values = [value for table in experiment.tables for value in table.values]
    text = _FILE_LAYOUT % (*map(_quote, sides[0] + sides[1]), *values, meta)
    data = text.encode()  # ASCII: labels and metadata are escaped
    with open(os.open(os.fspath(path), os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
        old = os.fstat(file.fileno())
        file.write(data)
        if S_ISREG(old.st_mode) and old.st_size > len(data):
            file.truncate(len(data))


def read_experiment(
    path: str | os.PathLike[str], normalize_tol: float = DEFAULT_NORM_TOL
) -> tuple[Experiment, dict[str, object]]:
    """Parse an experiment file; returns the experiment and its metadata.

    Checks, in order: JSON without repeated keys; the version, the integer
    1; two distinct string labels per side (the check :class:`Experiment`
    makes, not made again); the settings; per table, each outcome label
    with a decimal string, no other label, and the row by
    :func:`tables.normalize` within ``normalize_tol``; the metadata object.
    ``path`` is a ``str``, ``bytes`` or path-like; an int is a
    :class:`TypeError`, not a file descriptor, raised before anything is
    opened.
    """
    try:
        with open(os.fspath(path), "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ExperimentFileError(f"{path}: cannot read file: {exc}") from exc
    if "\r" in text:  # newlines as text mode reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc, repeats = _parse(text)
    except json.JSONDecodeError as exc:
        raise _fail(path, f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc

    if not isinstance(doc, dict):
        raise _fail(path, "document", "top level must be a JSON object")
    if repeats:
        where, key = _find_repeated(doc, "document")
        raise _fail(path, where, f"duplicate key {key!r}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # true == 1.0 == 1
        raise _fail(path, "version", f"expected {FORMAT_VERSION}, got {version!r}")

    sides = doc.get("sides", _DEFAULT_SIDES)
    if not (
        isinstance(sides, dict) and len(sides) == 2 and "first" in sides and "second" in sides
    ):
        raise _fail(path, "sides", "expected {'first': [x, x'], 'second': [y, y']}")
    for side, labels in sides.items():
        try:
            _check_side(side, labels)
        except TableError as exc:
            raise ExperimentFileError(f"{path}: {exc}") from exc

    settings = doc.get("settings")
    if settings != _SETTINGS:
        raise _fail(path, "settings", f"expected {_SETTINGS}, got {settings!r}")

    tables_doc = doc.get("tables")
    if not isinstance(tables_doc, dict):
        raise _fail(path, "tables", "missing or not an object")

    tables = []
    for pair in PAIR_ORDER:
        entry = tables_doc.get(pair.label)
        if not isinstance(entry, dict):
            raise _fail(path, f"tables.{pair.label}", "missing or not an object")
        raws = tuple(map(entry.get, pair.outcome_labels))
        try:  # all four are ASCII strings, and each one matches
            decimal = "".join(raws).isascii() and all(map(_JSON_NUMBER, raws))
        except TypeError:  # one is not a string
            decimal = False
        if not decimal:
            for label, raw in zip(pair.outcome_labels, raws):
                if raw.__class__ is not str or not raw.isascii() or _JSON_NUMBER(raw) is None:
                    if label not in entry:
                        raise _fail(path, f"tables.{pair.label}", f"missing outcome {label!r}")
                    raise _fail(
                        path,
                        f"tables.{pair.label}.{label}",
                        f"not a decimal probability: {raw!r}",
                    )
        if len(entry) != 4:
            extra = set(entry) - set(pair.outcome_labels)
            raise _fail(
                path, f"tables.{pair.label}", f"unexpected outcome labels {sorted(extra)}"
            )
        try:
            tables.append(normalize(raws, pair, tol=normalize_tol))
        except TableError as exc:
            raise _fail(path, f"tables.{pair.label}", str(exc)) from exc

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise _fail(path, "metadata", "must be an object when present")

    sides = (tuple(sides["first"]), tuple(sides["second"]))
    return Experiment._make(tables=tuple(tables), sides=sides), metadata
