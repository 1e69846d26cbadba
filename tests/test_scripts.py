"""The scripts in `scripts/`, the layer tracer in `perfbench/` and the
package's own export list name only what the package binds, so a name
removed from the package cannot break one of them unnoticed.  The
construction demo also runs, so a keyword removed from a call it makes
fails here too.  `tests/oracles.py` takes only the automaton type from
`liewords.automata`, so its reference paths share no symbol decoding
with the package."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import liewords

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


def test_oracles_take_only_the_automaton_type_from_automata():
    # the oracles decode symbols with their own digit loop
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    names = [name for module, name in _package_imports(path) if module == "liewords.automata"]
    assert names == ["MultiTrackDfa"]


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


def test_construction_demo_runs():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(liewords.__path__[0]))
    done = subprocess.run(
        [sys.executable, os.path.join(_SCRIPTS, "run_construction_demo.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "  structure checks:  all ok\n" in done.stdout
