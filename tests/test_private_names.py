"""Every private module-level name of the package is used by the package.

A private name is a function, class or variable bound at a module's top
level with one leading underscore.  It counts as used when some module of
the package reads it, as a bare name or as an attribute; docstrings and
comments are not code, and a name that only tests read is a test helper
left in the package, which belongs in the tests.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abideal"


def _private_definitions(tree: ast.Module):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(tree: ast.Module):
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _unreferenced(sources):
    """The private names defined in the sources that none of them reads."""
    trees = [ast.parse(source) for source in sources]
    defined = {name for tree in trees for name in _private_definitions(tree)}
    read = set().union(*map(_read_names, trees))
    return sorted(defined - read)


def test_the_guard_sees_an_unreferenced_helper():
    used = "_LIMIT = 3\n\ndef _step(x):\n    return x + _LIMIT\n"
    caller = "from . import a\n\ndef run(x):\n    return a._step(x)\n"
    helper = 'def _helper(x):\n    """Kept for _helper\'s tests."""\n    return x\n'
    assert _unreferenced([used, caller]) == []
    assert _unreferenced([used, caller, helper]) == ["_helper"]


def test_every_private_name_is_read_by_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert len(sources) > 1
    assert _unreferenced(sources) == []
