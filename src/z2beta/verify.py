"""Built-in verification suites.

``paper``: every closed-form value the toolkit is supposed to reproduce,
checked exactly.  ``properties``: structural laws (field axioms, normal
form closure, stratification re-derivation, duality and product rules on
the curated complexes).  A correct build passes both; any failure is
reported with the name of the offending vector.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import arcs, complexes, homology, zeta
from .algebra import IntPoly, RationalU, laurent_expand
from .calculus import (
    ACTION_FIXED,
    ACTION_FREE,
    ACTION_TRIVIAL,
    Atom,
    TAIL_SERIES,
    atom_class,
    curve_example,
    difference,
    free_quotient,
    trivial_lift,
    union_disjoint,
)

SUITES = ("paper", "properties", "all")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class _Recorder:
    def __init__(self):
        self.results = []

    def check(self, name: str, condition: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(condition),
                                        "" if condition else detail))


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    recorder = _Recorder()
    if name in ("paper", "all"):
        _paper_suite(recorder)
    if name in ("properties", "all"):
        _property_suite(recorder)
    return recorder.results


# ---------------------------------------------------------------------------
# the closed-form vectors

def _paper_suite(rec: _Recorder):
    u = IntPoly.u()

    rec.check("point class is u/(u-1)",
              atom_class(Atom.point()).value == RationalU(u, u - 1))
    rec.check("swapped pair class is 1",
              atom_class(Atom.pair()).value == RationalU(1))
    for d in (1, 2, 3):
        rec.check(f"free {d}-sphere class is 1 + u^{d}",
                  atom_class(Atom.sphere(d, ACTION_FREE)).value
                  == RationalU(IntPoly({0: 1, d: 1})))
        expected = RationalU(IntPoly.geometric_sum(1, d)) + 2 * TAIL_SERIES
        rec.check(f"fixed-point {d}-sphere class is u^{d}+...+u + 2u/(u-1)",
                  atom_class(Atom.sphere(d, ACTION_FIXED)).value == expected)
        rec.check(f"trivial {d}-sphere class equals (1+u^{d})u/(u-1)",
                  atom_class(Atom.sphere(d, ACTION_TRIVIAL)).value
                  == RationalU(IntPoly({0: 1, d: 1})) * TAIL_SERIES)
    for d in range(5):
        rec.check(f"affine {d}-space class is u^{d + 1}/(u-1)",
                  atom_class(Atom.affine(d)).value
                  == RationalU(IntPoly.monomial(d + 1), u - 1))

    # homology tables
    for d in (1, 2, 3):
        sphere = complexes.sphere_complex(d, "trivial")
        table = homology.homology_table(sphere, -5, d + 1)
        expected_table = {n: (1 if 1 <= n <= d else (2 if n <= 0 else 0))
                          for n in range(-5, d + 2)}
        rec.check(f"homology table of the trivial {d}-sphere",
                  table.group_dims == expected_table,
                  f"got {table.group_dims}")
    antipodal = complexes.sphere_complex(1, "antipodal")
    table = homology.homology_table(antipodal, -5, 2)
    rec.check("homology table of the antipodal circle",
              table.group_dims == {n: (1 if n in (0, 1) else 0)
                                   for n in range(-5, 3)},
              f"got {table.group_dims}")
    point_table = homology.homology_table(complexes.point_complex(), -5, 2)
    rec.check("homology table of the fixed point",
              point_table.group_dims == {n: (1 if n <= 0 else 0)
                                         for n in range(-5, 3)})
    pair_table = homology.homology_table(complexes.swapped_pair_complex(), -5, 2)
    rec.check("homology table of the swapped pair",
              pair_table.group_dims == {n: (1 if n == 0 else 0)
                                        for n in range(-5, 3)})
    rec.check("group cohomology of the point",
              all(homology.equivariant_cohomology(complexes.point_complex(), n)
                  == (1 if n >= 0 else 0) for n in range(-3, 5)))

    # series bridge
    bridge = [
        ("point", complexes.point_complex(), Atom.point()),
        ("swapped pair", complexes.swapped_pair_complex(), Atom.pair()),
        ("free circle", complexes.sphere_complex(1, "antipodal"),
         Atom.sphere(1, ACTION_FREE)),
        ("circle with fixed points", complexes.sphere_complex(1, "with_fixed_point"),
         Atom.sphere(1, ACTION_FIXED)),
    ] + [(f"trivial {d}-sphere", complexes.sphere_complex(d, "trivial"),
          Atom.sphere(d, ACTION_TRIVIAL)) for d in (1, 2, 3)]
    for name, cw, atom in bridge:
        rec.check(f"series of the {name} complex equals its atom class",
                  homology.equivariant_betti_series(cw) == atom_class(atom))

    # curve variants
    expected_curve = {
        "both_negated": RationalU.parse("u + 1") + RationalU.parse("1/(u - 1)"),
        "y_negated": RationalU.parse("u + 2") + 3 * RationalU.parse("1/(u - 1)"),
        "x_negated": RationalU.parse("u + 1") + RationalU.parse("1/(u - 1)"),
    }
    for action, value in expected_curve.items():
        rec.check(f"curve class with action {action}",
                  curve_example(action).value == value,
                  f"got {curve_example(action).value}")

    # zeta closed forms for x^2 + y^4
    resolution = zeta.x2_plus_y4_resolution()
    plus = zeta.dl_zeta_signed(resolution, "+")
    expected_plus = zeta.ZetaClosedForm.from_terms([
        (RationalU(u - 1), ((2, 2), (4, 3))),
        (RationalU(u), ((2, 2),)),
        (RationalU(u), ((4, 3),)),
    ])
    rec.check("signed zeta of x^2+y^4 reproduces the closed form",
              plus == expected_plus and zeta.zeta_equal(plus, expected_plus),
              f"got {plus}")
    naive = zeta.dl_zeta_naive(resolution)
    expected_naive = zeta.ZetaClosedForm.from_terms([
        (RationalU((u - 1) ** 2), ((2, 2), (4, 3))),
        (RationalU((u - 1) * u), ((2, 2),)),
        (RationalU((u - 1) * u), ((4, 3),)),
    ])
    rec.check("naive zeta of x^2+y^4 reproduces the closed form",
              naive == expected_naive and zeta.zeta_equal(naive, expected_naive),
              f"got {naive}")
    rec.check("minus zeta of x^2+y^4 vanishes",
              zeta.dl_zeta_signed(resolution, "-").is_zero())

    # sign identity: holds exactly for the nonnegative germs
    rec.check("sign identity for x^2+y^4",
              zeta.check_sign_identity(resolution, order=24).passed)
    for exponent in (2, 4):
        rec.check(f"sign identity for x^{exponent}",
                  zeta.check_sign_identity(zeta.monomial_resolution(exponent),
                                           order=24).passed)
    for exponent in (1, 3, 5):
        report = zeta.check_sign_identity(zeta.monomial_resolution(exponent),
                                          order=24)
        rec.check(
            f"sign identity refuses x^{exponent} (sign-changing germ)",
            not report.passed and report.first_mismatch is not None
            and report.first_mismatch[0] == exponent,
            f"got {report}")

    # oracle vs resolution formula
    for exponent in (1, 3, 5):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        rec.check(f"arc oracle matches the formula for x^{exponent}",
                  report.all_consistent and not report.divergences)
    for exponent in (2, 4):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        expected_div = {n for n in range(1, 25)
                        if n % exponent == 0 and (n // exponent) % 2 == 0}
        found = {e.n for e in report.divergences}
        values_ok = all(
            e.oracle == 2 * RationalU(IntPoly.u(),
                                      IntPoly.monomial(e.n // exponent)
                                      * (IntPoly.u() - 1))
            and e.formula == RationalU(1, IntPoly.monomial(e.n // exponent))
            for e in report.divergences)
        rec.check(f"arc oracle divergence report for x^{exponent}",
                  report.all_consistent and found == expected_div and values_ok,
                  f"divergences at {sorted(found)}, expected {sorted(expected_div)}")

    # the Laurent view of the point series
    window = laurent_expand(RationalU(u, u - 1), 6)
    rec.check("point series expands to 1 + u^-1 + u^-2 + ...",
              window.top_degree == 0 and set(window.coefficients) == {1}
              and window.eventually_constant == 1)


# ---------------------------------------------------------------------------
# structural laws

def _random_poly(rng: random.Random, max_degree=8, max_coeff=10 ** 6) -> IntPoly:
    degree = rng.randint(0, max_degree)
    coeffs = {e: rng.randint(-max_coeff, max_coeff) for e in range(degree + 1)}
    return IntPoly(coeffs)


def _random_fraction(rng: random.Random) -> RationalU:
    num = _random_poly(rng)
    den = IntPoly.zero()
    while den.is_zero():
        den = _random_poly(rng, max_degree=4)
    return RationalU(num, den)


def _long_division_oracle(num: IntPoly, den: IntPoly, depth: int):
    """Independent expansion oracle: long division in v = 1/u with Fraction
    coefficients."""
    shift = num.degree - den.degree
    p = [Fraction(num[num.degree - k]) for k in range(num.degree + 1)]
    q = [Fraction(den[den.degree - k]) for k in range(den.degree + 1)]
    width = max(len(p), len(q)) + depth
    p += [Fraction(0)] * (width - len(p))
    q += [Fraction(0)] * (width - len(q))
    out = []
    for _ in range(depth):
        c = p[0] / q[0]
        out.append(c)
        p = [p[j] - c * q[j] for j in range(1, width)] + [Fraction(0)]
    return out, shift


def _property_suite(rec: _Recorder):
    u = IntPoly.u()
    rng = random.Random(20240917)

    # field axioms, >= 1000 randomized cases
    failures = 0
    for _ in range(1000):
        a, b, c = (_random_fraction(rng) for _ in range(3))
        if a * (b + c) != a * b + a * c:
            failures += 1
        if a + b != b + a or a * b != b * a:
            failures += 1
        if not b.is_zero() and (a / b) * b != a:
            failures += 1
    rec.check("field axioms on 1000 random fractions", failures == 0,
              f"{failures} failures")

    ok = all(
        ((p := _random_poly(rng)).is_zero() or (q := _random_poly(rng)).is_zero()
         or (p * q).degree == p.degree + q.degree)
        for _ in range(200))
    rec.check("degree is additive under multiplication", ok)

    # normal-form uniqueness via different construction routes
    rec.check("normal form is route-independent",
              RationalU(2 * u ** 2 - 2, 2 * u - 2) == RationalU(u + 1)
              and RationalU(u ** 3 - u, (u - 1) ** 2)
              == RationalU(u ** 2 + u, u - 1))

    # Laurent round trip against long division in 1/u
    round_trip = True
    for _ in range(100):
        num = _random_poly(rng, max_degree=6, max_coeff=50)
        den_low = _random_poly(rng, max_degree=3, max_coeff=5)
        if num.is_zero() or den_low.is_zero():
            continue
        den = IntPoly.monomial(den_low.degree + 1) + den_low  # monic by force
        window = laurent_expand(RationalU(num, den), 10)
        oracle, shift = _long_division_oracle(num, den, 10)
        got = [Fraction(c) for c in window.coefficients]
        if got != oracle or window.top_degree != shift:
            round_trip = False
    rec.check("Laurent expansion agrees with the long-division oracle",
              round_trip)

    # lift identity (u-1) * lift(p) = u * p
    lift_ok = True
    for _ in range(100):
        p = _random_poly(rng, max_degree=6, max_coeff=100)
        lifted = trivial_lift(p, allow_negative=True)
        if RationalU(u - 1) * lifted.value != RationalU(p * u):
            lift_ok = False
    rec.check("lift identity (u-1)*lift(p) = u*p", lift_ok)

    # additivity: free circle = two swapped arcs + swapped pair
    arcs_class = difference(atom_class(Atom.sphere(1, ACTION_FREE)),
                            atom_class(Atom.pair()))
    rec.check("additivity: free circle = swapped arcs + swapped pair",
              union_disjoint(arcs_class, atom_class(Atom.pair()))
              == atom_class(Atom.sphere(1, ACTION_FREE))
              and arcs_class.value == RationalU(u))
    rec.check("quotient of the swapped pair is a point",
              free_quotient(atom_class(Atom.pair()), True) == IntPoly.one())

    # negative stabilization: tail equals the homology of the fixed set
    stab_ok = True
    for cw in (complexes.point_complex(), complexes.swapped_pair_complex(),
               complexes.sphere_complex(1, "trivial"),
               complexes.sphere_complex(2, "trivial"),
               complexes.sphere_complex(1, "antipodal"),
               complexes.two_fixed_points_complex()):
        fixed = homology.fixed_subcomplex(cw)
        total = sum(homology.plain_homology(fixed, i)
                    for i in range(fixed.top_dimension + 1))
        for n in (-1, -2, -3):
            if homology.equivariant_homology(cw, n) != total:
                stab_ok = False
    rec.check("negative degrees equal the homology of the fixed set", stab_ok)

    # Kunneth on curated products
    kunneth_ok = True
    pairs = [
        (complexes.swapped_pair_complex(), complexes.sphere_complex(1, "trivial")),
        (complexes.sphere_complex(1, "with_fixed_point"),
         complexes.sphere_complex(1, "trivial")),
        (complexes.sphere_complex(1, "antipodal"),
         complexes.sphere_complex(2, "trivial")),
    ]
    for x, y in pairs:
        product = homology.product_with_trivial(x, y)
        for n in range(-3, product.top_dimension + 2):
            lhs = homology.equivariant_homology(product, n)
            rhs = sum(homology.equivariant_homology(x, p)
                      * homology.plain_homology(y, n - p)
                      for p in range(n - y.top_dimension,
                                     x.top_dimension + 1))
            if lhs != rhs:
                kunneth_ok = False
    rec.check("Kunneth rule on curated products", kunneth_ok)

    # duality on closed complexes
    duality_ok = True
    for cw in (complexes.point_complex(), complexes.swapped_pair_complex(),
               complexes.sphere_complex(1, "trivial"),
               complexes.sphere_complex(2, "trivial"),
               complexes.sphere_complex(3, "trivial"),
               complexes.sphere_complex(1, "antipodal")):
        d = max(cw.top_dimension, 0)
        for n in range(-2, d + 3):
            if homology.equivariant_cohomology(cw, n) \
                    != homology.equivariant_homology(cw, d - n):
                duality_ok = False
    rec.check("Poincare duality on curated closed complexes", duality_ok)

    # the triangular stratification, re-derived by brute force, and the
    # dimension of each arc space read off it: n coefficients less the
    # forced zeros and the root variable
    constraint_ok = dims_ok = True
    for exponent in range(1, 6):
        germ = arcs.MonomialGerm(exponent)
        for n in range(1, 13):
            report = arcs.symbolic_constraint_check(germ, n)
            expected = n // exponent if n % exponent == 0 else None
            if report.base_index != expected:
                constraint_ok = False
            dimension = n - 1 - len(report.forced_zero)
            for sign in "+-":
                cls = arcs.arc_class(germ, n, sign)
                if not cls.is_zero() and cls.value.degree != dimension:
                    dims_ok = False
    rec.check("arc conditions reduce to the triangular system (N<=5, n<=12)",
              constraint_ok)
    rec.check("arc class degree equals arc space dimension", dims_ok)

    # trivial-group projection agrees with the naive formula everywhere
    naive_ok = True
    for exponent in range(1, 6):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        if any(e.status != arcs.MATCH for e in report.entries
               if e.kind == "naive"):
            naive_ok = False
    rec.check("non-equivariant projection matches the naive zeta (N<=5)",
              naive_ok)

    # every zeta coefficient lies in Z[[1/u]][u]
    domain_ok = True
    resolution = zeta.x2_plus_y4_resolution()
    for form in (zeta.dl_zeta_signed(resolution, "+"),
                 zeta.dl_zeta_naive(resolution)):
        for _, coeff in zeta.expand_zeta(form, 16):
            if coeff.is_zero():
                continue
            try:
                laurent_expand(coeff, 8)
            except Exception:
                domain_ok = False
    rec.check("zeta coefficients have integral Laurent expansions", domain_ok)
