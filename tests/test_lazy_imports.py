"""The package resolves its exports lazily, and each command loads only the
modules it runs.

Every name in `abideal.__all__` is its home module's object; a fresh
interpreter that imports the package has loaded no submodule, and a
command run in one leaves the checks, the Hasse graph and the reference
data unloaded unless it prints them, and `fractions` unloaded unless it
builds a Fraction.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abideal

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str, *args: str) -> str:
    """Runs `code` in a new interpreter on the package sources; returns
    its stderr, where the code reports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=env, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("name", abideal.__all__)
def test_every_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"abideal.{abideal._HOME[name]}")
    value = getattr(abideal, name)
    assert value is getattr(home, name)
    if getattr(value, "__module__", "").startswith("abideal."):
        assert value.__module__ == home.__name__
    assert name in dir(abideal)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from abideal import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(abideal.__all__)
    assert namespace["catalog_of"] is abideal.ideals.catalog_of


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'verify_all'"):
        abideal.verify_all
    with pytest.raises(ImportError):
        exec("from abideal import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh(
        "import sys, abideal\n"
        "before = sorted(m for m in sys.modules if m.startswith('abideal.'))\n"
        "abideal.catalog_of\n"
        "after = sorted(m for m in sys.modules if m.startswith('abideal.'))\n"
        "sys.stderr.write(repr((before, after)))")
    before, after = eval(loaded)
    assert before == []
    assert "abideal.ideals" in after
    assert not {"abideal.checks", "abideal.hasse", "abideal.young"} & set(after)


@pytest.mark.parametrize("argv, unloaded", [
    (("info", "E8"), {"checks", "hasse", "reference", "young"}),
    (("ideals", "E8", "--json"), {"checks", "hasse", "reference", "young"}),
    (("tables", "--max-rank", "6"), {"checks", "hasse", "reference", "young"}),
    (("hasse", "E8", "--dot", "-"), {"checks", "reference", "young"}),
    (("young", "11", "--list"), {"checks", "hasse", "reference", "ideals", "affine", "weyl",
                                 "qpoly"}),
])
def test_commands_load_only_what_they_run(argv, unloaded):
    loaded = _fresh("import sys\nfrom abideal.cli import main\n"
                    "assert main(sys.argv[1:]) == 0\n"
                    "sys.stdout.flush()\n"
                    "sys.stderr.write(' '.join(sys.modules))", *argv).split()
    assert "abideal.cli" in loaded
    assert {f"abideal.{m}" for m in unloaded}.isdisjoint(loaded)
    assert "json" not in loaded
    # none of these commands builds a Fraction
    assert "fractions" not in loaded


@pytest.mark.parametrize("argv", [("verify", "E8"), ("verify", "--all", "--max-rank", "6")])
def test_verify_loads_no_rational_type(argv):
    # the checks compare cross-multiplied integers and write their ratios
    # without a Fraction
    loaded = _fresh("import sys\nfrom abideal.cli import main\n"
                    "assert main(sys.argv[1:]) == 0\n"
                    "sys.stdout.flush()\n"
                    "sys.stderr.write(' '.join(sys.modules))", *argv).split()
    assert "abideal.checks" in loaded and "abideal.hasse" in loaded
    assert {"fractions", "decimal", "numbers"}.isdisjoint(loaded)


def test_warm_api_set_up_loads_no_fractions():
    # the benchmark worker's set-up: build, enumerate, coset words and one
    # associated long root per type
    loaded = _fresh(
        "import sys, abideal\n"
        "for label in ('A9', 'D6', 'E6', 'E8', 'F4'):\n"
        "    rs = abideal.build(label)\n"
        "    ideals = abideal.enumerate_all(rs)\n"
        "    for phi in rs.long_positive_roots():\n"
        "        abideal.minimal_coset_reps(rs, phi)\n"
        "    abideal.associated_long_root(rs, ideals[-1])\n"
        "sys.stderr.write(' '.join(sys.modules))").split()
    assert "abideal.ideals" in loaded
    assert "fractions" not in loaded


def test_the_rational_type_is_loaded_where_a_fraction_is_built():
    loaded = _fresh(
        "import sys, abideal\n"
        "rs = abideal.build('A2')\n"
        "before = 'fractions' in sys.modules\n"
        "value = abideal.kostant_value(rs, [rs.theta])\n"
        "sys.stderr.write(repr((before, 'fractions' in sys.modules, str(value),\n"
        "                       abideal.Q is sys.modules['fractions'].Fraction)))")
    assert eval(loaded) == (False, True, "1", True)
