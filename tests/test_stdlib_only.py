"""bellbox itself imports only the standard library and its own modules.

``dependencies = []`` in pyproject.toml does not stop a module from
importing numpy; this test does.  numpy and scipy stay available to the
tests, as oracles.
"""

import ast
import sys
from pathlib import Path

import bellbox

def _foreign_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            m for m in modules
            if m != "__future__" and m.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_imports_only_stdlib_or_relative():
    foreign = {
        p.name: _foreign_imports(p.read_text(encoding="utf-8"))
        for p in Path(bellbox.__file__).parent.glob("*.py")
    }
    assert {"__init__.py", "linalg.py", "cli.py"} <= foreign.keys()
    assert {name: found for name, found in foreign.items() if found} == {}
