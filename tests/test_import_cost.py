"""Importing bellbox loads no module that only defining classes would need.

Every ``bellbox`` command is a fresh process, so import time is most of
its wall time.  ``dataclasses`` pulls in ``inspect`` (and with it ``ast``,
``dis`` and ``tokenize``) and generates each class's methods with
``exec``; the value types are defined without it.  Each check runs in a
fresh interpreter, against what a bare one has already loaded.
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
