"""The demos import only names that exist; no demo is run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _mixreg_imports(path: Path) -> list:
    """(module, name) for every name the file imports from mixreg or a
    mixreg submodule, and (module, None) for a plain import of one."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mixreg":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "mixreg"]
    return found


def test_every_demo_is_checked():
    assert len(DEMOS) >= 5
    assert all(_mixreg_imports(path) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [
        f"{module}.{name}"
        for module, name in _mixreg_imports(path)
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    for module, name in _mixreg_imports(path):
        if name is None:
            importlib.import_module(module)
    assert not missing, f"{path.name} imports names mixreg does not have: {missing}"
