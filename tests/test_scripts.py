"""The scripts in `scripts/` import only names the package binds, so a
name removed from the package cannot break a script unnoticed."""

import ast
import importlib
import os

import pytest

_SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _package_imports(path):
    """(module, name) for each `from liewords[.module] import name`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "liewords" or node.module.startswith("liewords."):
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize(
    "script", sorted(f for f in os.listdir(_SCRIPTS) if f.endswith(".py"))
)
def test_script_imports_are_bound(script):
    for module, name in _package_imports(os.path.join(_SCRIPTS, script)):
        assert hasattr(importlib.import_module(module), name), (script, module, name)
