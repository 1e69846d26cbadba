"""The scripts in `scripts/`, the layer tracer in `perfbench/` and the
package's own export list name only what the package binds, so a name
removed from the package cannot break one of them unnoticed."""

import ast
import importlib
import os

import pytest

_SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
_PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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


def test_traced_and_exported_names_are_bound(monkeypatch):
    # the layer modules that cli loads are the ones the tracer looks in;
    # missing_names() only reads them, nothing is wrapped
    import liewords
    import liewords.cli  # noqa: F401

    monkeypatch.syspath_prepend(_PERFBENCH)
    tracing = importlib.import_module("tracing")
    assert tracing.missing_names() == []
    for name in liewords.__all__:
        getattr(liewords, name)
