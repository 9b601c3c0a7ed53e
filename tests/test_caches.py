"""The per-root-system caches and their registry.

Every `lru_cache` keyed by a root system is made by
`root_system.system_cache`, which records it, so `clear_system_caches` can
empty them all: `verify` does so after each type's report.  Root systems
themselves stay cached by label (`build`), so they keep their identity.
"""

import ast
import copy
import gc
import importlib
import pkgutil
import weakref
from pathlib import Path

import abideal
from abideal import checks, cli, ideals
from abideal.root_system import _SYSTEM_CACHES, build, clear_system_caches, supported_types

SRC = Path(__file__).resolve().parent.parent / "src" / "abideal"

REGISTERED = {
    "affine": ("affine_cartan_matrix", "_sparse_rows", "_minimal_coset_reps_cached"),
    "ideals": ("catalog_of", "_greedy_chain", "sum_formula_report"),
    "hasse": ("build_graph",),
    "young": ("_staircase_cells",),
}


def _load_all():
    for m in pkgutil.iter_modules(abideal.__path__):
        importlib.import_module(f"abideal.{m.name}")


def test_the_registry_holds_the_root_system_caches():
    _load_all()
    got = {(c.__module__.rsplit(".", 1)[1], c.__name__) for c in _SYSTEM_CACHES}
    assert got == {(module, name) for module, names in REGISTERED.items() for name in names}
    assert len(_SYSTEM_CACHES) == 8
    for module, names in REGISTERED.items():
        for name in names:
            cached = getattr(importlib.import_module(f"abideal.{module}"), name)
            # the lru_cache wrapper itself, so cached calls stay on its C path
            assert cached in _SYSTEM_CACHES and hasattr(cached, "cache_info")


def test_verify_all_leaves_every_system_cache_empty(capsys):
    labels = [str(st) for st in supported_types(4)]
    systems = {label: build(label) for label in labels}
    assert cli.main(["verify", "--all", "--max-rank", "4"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert [c.cache_info().currsize for c in _SYSTEM_CACHES] == [0] * len(_SYSTEM_CACHES)
    assert all(build(label) is rs for label, rs in systems.items())


def test_tables_leaves_every_system_cache_empty(capsys):
    assert cli.main(["tables", "--max-rank", "4"]) == 0
    assert capsys.readouterr().out
    assert [c.cache_info().currsize for c in _SYSTEM_CACHES] == [0] * len(_SYSTEM_CACHES)


def test_clearing_frees_a_root_system_by_reference_counting():
    # with the cyclic collector off, only reference counting can free the
    # copy and what was built for it; verify relies on that, as a run
    # makes no gen-2 collection
    gc.disable()
    try:
        rs = copy.copy(build("B4"))
        for _, check in checks._checks_for(rs):
            assert check(rs).passed
        refs = [weakref.ref(x) for x in (rs, checks.catalog_of(rs), checks.build_graph(rs))]
        del rs
        assert all(ref() is not None for ref in refs)
        clear_system_caches()
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_enumeration_leaves_no_reference_cycle():
    # the catalog and max_dimension each enumerate once per type, and what
    # a call built must go by reference counting alone
    gc.disable()
    try:
        gc.collect()
        ideals._enumerate_masks(build("E8"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _takes_a_root_system_first(fn):
    args = fn.args.posonlyargs + fn.args.args
    if not args:
        return False
    first = args[0]
    note = first.annotation
    named = (isinstance(note, ast.Name) and note.id == "RootSystem") or (
        isinstance(note, ast.Constant) and note.value == "RootSystem")
    return named or first.arg == "rs"


def test_every_root_system_lru_cache_goes_through_the_registry():
    unregistered, registered = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            names = {_decorator_name(d) for d in node.decorator_list}
            if "lru_cache" in names and _takes_a_root_system_first(node):
                unregistered.append(f"{path.name}:{node.lineno} {node.name}")
            if "system_cache" in names:
                assert _takes_a_root_system_first(node), node.name
                registered.add((path.stem, node.name))
    assert unregistered == []
    assert registered == {(module, name) for module, names in REGISTERED.items() for name in names}
