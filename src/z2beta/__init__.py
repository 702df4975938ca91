"""Exact computation of Z/2Z-equivariant virtual Poincare series and of
zeta functions of Nash function germs.

The package has five layers:

* :mod:`z2beta.algebra` -- integer polynomials in u, their fraction field,
  and Laurent expansion at infinity (the value domain of everything else);
* :mod:`z2beta.homology` / :mod:`z2beta.complexes` -- equivariant homology
  of finite Z/2Z-CW complexes over F2 and the curated cellular models;
* :mod:`z2beta.calculus` -- virtual classes in normal form, atoms with known
  series, disjoint union and complement, and the structural rewrite rules;
* :mod:`z2beta.zeta` / :mod:`z2beta.arcs` -- zeta functions from resolution
  data and, independently, from the arc-space definition for monomial germs;
* :mod:`z2beta.dsl` / :mod:`z2beta.cli` -- the expression language and the
  command line front end.

Every value and printed coefficient is exact: integers, integer polynomials
and their fractions.  The one float is ``NEG_INFINITY``, the degree of zero.
"""

from .algebra import IntPoly, LaurentWindow, RationalU, laurent_expand
from .arcs import (
    MonomialGerm,
    arc_class,
    compare_with_dl,
    oracle_zeta,
    symbolic_constraint_check,
)
from .calculus import (
    Atom,
    VirtualClass,
    affine_product,
    atom_class,
    blowup_class,
    curve_example,
    difference,
    free_quotient,
    trivial_lift,
    union_disjoint,
)
from .complexes import point_complex, sphere_complex, swapped_pair_complex
from .dsl import evaluate, parse_expression
from .homology import (
    GCWComplex,
    HomologyResult,
    equivariant_betti_series,
    equivariant_cohomology,
    equivariant_homology,
    fixed_subcomplex,
    homology_table,
    plain_homology,
    product_with_trivial,
    validate_complex,
)
from .zeta import (
    ResolutionData,
    ZetaClosedForm,
    check_sign_identity,
    dl_zeta_naive,
    dl_zeta_signed,
    expand_zeta,
    load_resolution,
    monomial_resolution,
    x2_plus_y4_resolution,
    zeta_equal,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "GCWComplex",
    "HomologyResult",
    "IntPoly",
    "LaurentWindow",
    "MonomialGerm",
    "RationalU",
    "ResolutionData",
    "VirtualClass",
    "ZetaClosedForm",
    "affine_product",
    "arc_class",
    "atom_class",
    "blowup_class",
    "check_sign_identity",
    "compare_with_dl",
    "curve_example",
    "difference",
    "dl_zeta_naive",
    "dl_zeta_signed",
    "equivariant_betti_series",
    "equivariant_cohomology",
    "equivariant_homology",
    "evaluate",
    "expand_zeta",
    "fixed_subcomplex",
    "free_quotient",
    "homology_table",
    "laurent_expand",
    "load_resolution",
    "monomial_resolution",
    "oracle_zeta",
    "parse_expression",
    "plain_homology",
    "point_complex",
    "product_with_trivial",
    "sphere_complex",
    "swapped_pair_complex",
    "symbolic_constraint_check",
    "trivial_lift",
    "union_disjoint",
    "validate_complex",
    "x2_plus_y4_resolution",
    "zeta_equal",
]
