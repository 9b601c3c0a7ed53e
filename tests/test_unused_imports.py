"""Every module-level import in the package is used by its module.

`__init__.py` is skipped: its imports are re-exports.  A name counts as
used when it appears as a bare name anywhere in the module, attribute
bases and annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abideal"
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
