"""Every name a demo imports from sschain must exist in the package.

The demos are scripts that the test suite never runs, so a public name
dropped or renamed in ``src/`` would break them without an error here.
This parses each ``demos/*.py`` with ``ast``, without running it, and
resolves every ``from sschain... import name`` against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _imports(path):
    """(module, name) for each name the script imports from sschain."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "sschain":
            out += [(node.module, alias.name) for alias in node.names]
    return out


def test_there_are_demos_that_import_sschain():
    assert DEMOS and all(_imports(p) for p in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [f"{module}.{name}" for module, name in _imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names sschain does not define: {missing}"
