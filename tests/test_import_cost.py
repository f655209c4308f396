"""Importing bellbox loads no module that only defining classes would need.

Every ``bellbox`` command is a fresh process, so import time is most of
its wall time.  ``dataclasses`` pulls in ``inspect`` (and with it ``ast``,
``dis`` and ``tokenize``) and generates each class's methods with
``exec``; the value types are defined without it.  Nor does importing
bellbox compile code or regular expressions of its own.  Each check runs in
a fresh interpreter, against what a bare one has already loaded.

Annotations name types only: under ``from __future__ import annotations``
they are never evaluated, so no module imports ``typing`` or ``pathlib`` for
them, nor a name of a sibling module that nothing else uses (an AST check).
``typing`` and ``pathlib`` are checked under ``python -S``, because a
``site`` that already imports ``typing`` (a ``.pth`` file can) would hide an
import made by bellbox.  The experiment file is written with ``open``, in
the bytes that ``Path.write_text`` writes.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bellbox.expfile import write_experiment
from bellbox.models import vessels_data
from bellbox.tables import Experiment

from oracles import reference_file_document

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

LIST_MODULES = "import sys; print('\\n'.join(sys.modules))"


def _loaded(statement: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}; {LIST_MODULES}"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return set(out.split())


@pytest.mark.parametrize("module", ["bellbox", "bellbox.cli"])
def test_import_adds_neither_dataclasses_nor_inspect(module):
    added = _loaded(f"import {module}") - _loaded("pass")
    assert module in added
    assert {"dataclasses", "inspect"} & added == set()


#: Imports ``bellbox.cli`` after the standard library modules it loads and
#: prints how often that import called ``builtins.compile`` (other than to
#: compile a module's source) and how many regular expressions it compiled.
COUNT_COMPILES = """
import builtins, importlib, re, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
counts = {"compile": 0, "regex": 0}
def counted(function, key):
    def wrapper(*args, **kwargs):
        if not sys._getframe(1).f_code.co_filename.startswith("<frozen importlib"):
            counts[key] += 1
        return function(*args, **kwargs)
    return wrapper
builtins.compile = counted(builtins.compile, "compile")
re._compile = counted(re._compile, "regex")
import bellbox.cli
print(counts["compile"], counts["regex"])
"""


def test_import_compiles_no_code_and_no_regex():
    # typing.NamedTuple compiles a ForwardRef per field; the records are
    # collections.namedtuple classes, which compile nothing
    stdlib = sorted(
        name
        for name in _loaded("import bellbox.cli") - _loaded("pass")
        if not name.startswith(("bellbox", "__main__"))
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", COUNT_COMPILES, *stdlib],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert out.split() == ["0", "0"]


#: Imports ``bellbox.cli`` without ``site``, from the ``src`` directory
#: given as its argument, and prints the modules then loaded.
NO_SITE_PROBE = f"import sys; sys.path.insert(0, sys.argv[1]); import bellbox.cli; {LIST_MODULES}"


def test_import_without_site_loads_neither_typing_nor_pathlib():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c", NO_SITE_PROBE, str(SRC)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    loaded = set(out.split())
    assert "bellbox.cli" in loaded and "site" not in loaded
    assert {"typing", "pathlib"} & loaded == set()


@pytest.mark.parametrize("as_text", [False, True], ids=["path", "str"])
def test_written_bytes_are_those_of_path_write_text(tmp_path, as_text):
    experiment = Experiment(vessels_data().experiment.tables, (("\u00c4", "A'"), ("B", "B'")))
    metadata = {"notes": "first line\nsecond line", "source": "\u00c4nimal \u2013 acts"}
    written = tmp_path / "written.json"
    write_experiment(str(written) if as_text else written, experiment, metadata)
    text = json.dumps(reference_file_document(experiment, metadata), indent=2) + "\n"
    reference = tmp_path / "reference.json"
    reference.write_text(text, encoding="utf-8")
    assert written.read_bytes() == reference.read_bytes()


def test_writer_refuses_an_int_path():
    # open would take the int for a file descriptor (this one is not open)
    with pytest.raises(TypeError):
        write_experiment(987654, vessels_data().experiment)


def _names_used_only_in_annotations(source: str) -> list[str]:
    """The names a module imports from a sibling module (``from .x import
    name``) and uses nowhere but in annotations."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [arg.annotation for arg in every if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    in_annotations = {id(n) for a in annotations if a is not None for n in ast.walk(a)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in in_annotations}
    return sorted(imported - used)


def test_annotations_import_nothing():
    # an annotation is never evaluated, so a name imported only for one
    # costs an import and claims a dependency the code does not have
    found = {
        path.stem: _names_used_only_in_annotations(path.read_text(encoding="utf-8"))
        for path in (SRC / "bellbox").glob("*.py")
        if path.stem != "__init__"
    }
    assert {"bell", "cli", "models", "report"} <= found.keys()
    assert {module: names for module, names in found.items() if names} == {}
