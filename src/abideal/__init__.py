"""Exact-arithmetic abelian ideals of a Borel subalgebra.

Root systems, finite and affine Weyl machinery, the alcove parametrization
of abelian ideals, their labelled cover graph, and the named invariant
checks behind the ``abideal`` command.  Everything is computed over the
rationals; there is not a single float in the package.
"""

from .root_system import Q, Root, RootSystem, SimpleType, build, supported_types
from .weyl import (
    apply_word,
    element_of_word,
    inversion_roots,
    length_of_element,
    minimal_word_to_theta,
    weyl_poincare,
)
from .affine import (
    AffineRoot,
    affine_inversion_set,
    coset_poincare,
    minimal_coset_reps,
)
from .ideals import (
    AbelianIdeal,
    CatalogEntry,
    IdealCatalog,
    InvariantViolation,
    associated_long_root,
    catalog,
    catalog_of,
    enumerate_all,
    from_param,
    is_abelian_ideal,
    kostant_value,
    max_dimension,
    maximal_ideals,
    parameter_word,
    sum_formula_report,
)
from .hasse import HasseGraph, build_graph, hasse_automorphism_name, to_dot, upper_alcoves
from .young import YoungDiagram, ideal_of_young, young_decode, young_encode, young_lattice, young_of_ideal
from .checks import CheckResult, TypeReport, golden_a11_check, verify_all, verify_type

__version__ = "1.0.0"

__all__ = [
    "AbelianIdeal",
    "AffineRoot",
    "CatalogEntry",
    "CheckResult",
    "HasseGraph",
    "IdealCatalog",
    "InvariantViolation",
    "Q",
    "Root",
    "RootSystem",
    "SimpleType",
    "TypeReport",
    "YoungDiagram",
    "affine_inversion_set",
    "apply_word",
    "associated_long_root",
    "build",
    "build_graph",
    "catalog",
    "catalog_of",
    "coset_poincare",
    "element_of_word",
    "enumerate_all",
    "from_param",
    "golden_a11_check",
    "hasse_automorphism_name",
    "ideal_of_young",
    "inversion_roots",
    "is_abelian_ideal",
    "kostant_value",
    "length_of_element",
    "max_dimension",
    "maximal_ideals",
    "minimal_coset_reps",
    "minimal_word_to_theta",
    "parameter_word",
    "sum_formula_report",
    "supported_types",
    "to_dot",
    "upper_alcoves",
    "verify_all",
    "verify_type",
    "weyl_poincare",
    "young_decode",
    "young_encode",
    "young_lattice",
    "young_of_ideal",
]
