"""Exact-arithmetic abelian ideals of a Borel subalgebra.

Root systems, finite and affine Weyl machinery, the alcove parametrization
of abelian ideals, their labelled cover graph, and the named invariant
checks behind the ``abideal`` command.  Everything is computed over the
rationals; there is not a single float in the package.

The exported names resolve lazily (PEP 562): importing the package loads
no submodule, and the first use of a name imports its home module only,
so a command loads just the modules it runs.
"""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "root_system": ("Q", "Root", "RootSystem", "SimpleType", "build", "supported_types"),
    "weyl": ("apply_word", "element_of_word", "inversion_roots", "length_of_element",
             "minimal_word_to_theta", "weyl_poincare"),
    "affine": ("AffineRoot", "affine_inversion_set", "coset_poincare", "minimal_coset_reps"),
    "ideals": ("AbelianIdeal", "CatalogEntry", "IdealCatalog", "InvariantViolation",
               "associated_long_root", "catalog", "catalog_of", "enumerate_all", "from_param",
               "is_abelian_ideal", "kostant_value", "max_dimension", "maximal_ideals",
               "parameter_word", "sum_formula_report"),
    "hasse": ("HasseGraph", "build_graph", "hasse_automorphism_name", "to_dot", "upper_alcoves"),
    "young": ("YoungDiagram", "ideal_of_young", "young_decode", "young_encode", "young_lattice",
              "young_of_ideal"),
    "checks": ("CheckResult", "TypeReport", "golden_a11_check", "verify_type"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
