"""Importing bellbox loads no module that only defining classes would need.

Every ``bellbox`` command is a fresh process, so import time is most of
its wall time.  ``dataclasses`` pulls in ``inspect`` (and with it ``ast``,
``dis`` and ``tokenize``) and generates each class's methods with
``exec``; the value types are defined without it.  Nor does importing
bellbox compile code or regular expressions of its own.  Each check runs in
a fresh interpreter, against what a bare one has already loaded.
"""

import os
import pathlib
import subprocess
import sys

import pytest

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
