"""Exactness guard: the package computes over integers and Fractions only.

`Fraction(1, 2) == 0.5` is true, so the equality tests elsewhere would still
pass if a float slipped into the arithmetic.  These tests check the types
of the public rational quantities for every type, and of the Fraction
weights and form that tests keep in `reference_impl.py`, and scan the
sources for float literals and the name `float`.  They also hold the hot
loops of the alcove walls, the wall-crossing kernel with the catalog's
walk and `from_param` on it, the Hasse edges, the facet and alcove checks,
and the Kostant check with its mask sampler, its mask-sum kernel and
the per-byte tables both build on to integers: no Fraction is built inside a loop there.  Root-system
construction builds no Fraction at all: a root system has no Fraction
weights and no Fraction form methods, and the package exports no weight
type.  The Fraction elimination `gauss_jordan` is gone, and so is the
matrix and Fraction picture of an affine element, which tests keep in
`reference_impl.py`: no package module defines its names, and the affine
and Weyl modules import no Fraction.
"""

import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import abideal
from abideal.hasse import facet_volume_ratios
from abideal.ideals import enumerate_all, kostant_value
from abideal.root_system import RootSystem, build, supported_types

from reference_impl import coroot_pairing, fundamental_alcove_vertices, inner, level, norm2, rho

SRC = Path(__file__).resolve().parent.parent / "src" / "abideal"


def _assert_exact(values):
    for x in values:
        assert isinstance(x, (int, Fraction)), f"{x!r} is a {type(x).__name__}"


def test_form_values_are_exact(each_label):
    rs = build(each_label)
    simples = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
    _assert_exact(rho(rs))
    _assert_exact([inner(rs, rho(rs), rs.theta), norm2(rs, rho(rs)), level(rs, rho(rs))])
    for phi in rs.positive_roots:
        _assert_exact([inner(rs, phi, rho(rs)), norm2(rs, phi), level(rs, phi)])
        _assert_exact(coroot_pairing(rs, phi, a) for a in simples)
        # sign and zero tests on integer roots stay in the integers
        assert type(rs.raw_inner(phi, rs.theta)) is int
        assert all(type(rs.simple_coroot_pairing(phi, i)) is int for i in range(1, rs.rank + 1))
    _assert_exact(rs.length_to_theta(phi) for phi in rs.long_positive_roots())


def test_kostant_values_are_exact(each_label):
    rs = build(each_label)
    _assert_exact(kostant_value(rs, a.roots) for a in enumerate_all(rs))
    _assert_exact([kostant_value(rs, rs.positive_roots)])


def test_alcove_geometry_is_exact(each_label):
    rs = build(each_label)
    for vertex in fundamental_alcove_vertices(rs):
        _assert_exact(vertex)
    _assert_exact(facet_volume_ratios(rs))


def test_sources_contain_no_float():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                offenders.append(f"{path.name}:{node.lineno} name float")
    assert offenders == []


def test_no_fraction_elimination_is_exported():
    modules = [abideal] + [importlib.import_module(f"abideal.{m.name}")
                           for m in pkgutil.iter_modules(abideal.__path__)]
    assert [m.__name__ for m in modules if hasattr(m, "gauss_jordan")] == []


# the matrix and Fraction picture of an affine element, now in reference_impl
_MOVED_NAMES = (
    "AffineElement", "element_of_affine_word", "linear_reflect", "affine_reflect",
    "rho_point", "inverse_word", "affine_simple_root", "affine_length",
    "fundamental_alcove_vertices", "alcove_vertices", "in_2A",
    "reflection_matrix", "mat_mul", "weyl_order", "subgroup_order",
    "a_max", "a_min", "a_min_plus", "not_perp_theta", "poly_add", "poly_str", "vadd", "vscale", "_ideal_from_affine_word",
    "matrix_of", "_refine_colors", "_anchor_order", "_random_draws", "rho_shift_in_2A",
)


def test_no_moved_reference_is_in_the_package():
    modules = [abideal] + [importlib.import_module(f"abideal.{m.name}")
                           for m in pkgutil.iter_modules(abideal.__path__)]
    offenders = [f"{m.__name__}.{name}" for m in modules
                 for name in _MOVED_NAMES if hasattr(m, name)]
    assert offenders == []
    assert not hasattr(RootSystem, "is_root")
    assert not hasattr(build("A2"), "coweights")


@pytest.mark.parametrize("filename", ["affine.py", "weyl.py", "checks.py"])
def test_affine_and_weyl_import_no_fraction(filename):
    tree = ast.parse((SRC / filename).read_text(), filename=filename)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.asname or alias.name for alias in node.names}
    assert imported & {"Q", "Fraction", "fractions"} == set()


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _fraction_loops(tree, filename):
    """The number of functions in the tree, and where a loop inside one of
    them calls Q or Fraction."""
    offenders, functions = set(), 0
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        functions += 1
        for loop in ast.walk(function):
            if not isinstance(loop, _LOOPS):
                continue
            offenders.update(f"{filename}:{node.lineno} in {function.name}"
                             for node in ast.walk(loop)
                             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id in ("Q", "Fraction"))
    return functions, offenders


def test_the_loop_guard_sees_a_fraction_in_a_nested_loop():
    source = ("class C:\n    def f(self, xs):\n        def g():\n"
              "            return [Q(x) for x in xs]\n        return Fraction(1), g\n")
    assert _fraction_loops(ast.parse(source), "m.py") == (2, {"m.py:4 in f", "m.py:4 in g"})


def test_integer_loops_build_no_fraction():
    # no loop in any function of the package builds a Fraction: public
    # results such as facet_volume_ratios' are built by one map over
    # integers once the loops are done
    functions, offenders = 0, set()
    for path in sorted(SRC.glob("*.py")):
        counted, found = _fraction_loops(ast.parse(path.read_text(), filename=path.name), path.name)
        functions += counted
        offenders |= found
    assert functions > 200
    assert sorted(offenders) == []


def _fraction_calls(tree) -> list:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("Q", "Fraction")]


def test_construction_builds_no_fraction():
    tree = ast.parse((SRC / "root_system.py").read_text(), filename="root_system.py")
    top = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    init = next(node for node in top["RootSystem"].body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert _fraction_calls(init) == []
    assert _fraction_calls(top["_symmetrizer"]) == []


_FRACTION_FORM = ("rho", "fundamental_weights", "inner", "norm2", "coroot_pairing", "level")


def test_no_root_system_has_fraction_weights_or_form_methods():
    systems = [RootSystem] + [build(st) for st in supported_types(11)]
    offenders = [f"{rs!r}.{name}" for rs in systems for name in _FRACTION_FORM if hasattr(rs, name)]
    assert offenders == []
    assert not hasattr(abideal, "WeightVector")
    assert "WeightVector" not in abideal.__all__
