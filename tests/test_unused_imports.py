"""Every module-level import in the package is used by its module, no
module imports `dataclasses`, and every name the benchmark worker imports
from the package exists.

`__init__.py` is skipped: its imports are re-exports.  A name counts as
used when it appears as a bare name anywhere in the module, attribute
bases and annotations included.  The worker is parsed, not imported, so a
deleted public name fails here rather than as a failed benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abideal"
WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_guard_sees_an_unused_import():
    source = "from .qpoly import Poly, poly_prod\nimport re\n\ndef f() -> Poly:\n    return re\n"
    assert _unused_imports(source) == [(1, "poly_prod")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def _imported_modules(source: str):
    """The top-level package of every module the source imports."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return {name.split(".")[0] for name in names}


def test_the_import_guard_sees_dataclasses():
    source = "import os.path\ndef f():\n    from dataclasses import dataclass as d\n    return d\n"
    assert _imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_dataclasses(module):
    # dataclasses pulls in inspect, ast, dis and tokenize at import time;
    # the package's records are NamedTuples and __slots__ classes
    assert "dataclasses" not in _imported_modules((PACKAGE / module).read_text())


def test_benchmark_worker_imports_resolve():
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "abideal"
                for alias in node.names]
    assert {module for module, _ in imported} >= {"abideal", "abideal.hasse", "abideal.ideals"}
    missing = [f"{module}.{name}" for module, name in imported if not _resolves(module, name)]
    assert missing == []


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute, or else a
    submodule, which that statement imports (so the test passes alone)."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True
