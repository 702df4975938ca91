"""Built-in verification suites: the one place where each of the paper's
vectors and each structural law is asserted.

``paper`` checks every closed-form value the toolkit is supposed to
reproduce, exactly; ``properties`` checks the structural laws; ``all`` runs
both, and the tests read its results instead of deriving them again.  Each
check records the acceptance criterion it serves.  In ``paper``: 1 atom
values and the Laurent view of the point, 2 homology tables, 3 the series of
every compact atom's model equals its class (the point, the swapped pair,
and the d-sphere under each action for d <= 6), 6 the curve variants, 7 the
zeta closed forms of x^2 + y^4, 8 the sign identity and its refusal at T^N
on x, x^3, x^5, 9 the arc oracle against the resolution formula.  In
``properties``: 2 the fixed-point sphere tables, 4 the negative tail, 5
Kunneth and duality, 10 the naive projection, 11 field axioms, Laurent round
trip, lifts, additivity, the arc-space stratification and integral zeta
coefficients.  A failing check says what it got, naming the first failing
case of an aggregate.
"""

from __future__ import annotations

import random
from functools import partial
from fractions import Fraction
from typing import NamedTuple

from . import arcs, complexes, homology, zeta
from .algebra import U_MINUS_ONE, IntPoly, RationalU, laurent_expand
from .calculus import (
    ACTION_FIXED,
    ACTION_FREE,
    ACTION_TRIVIAL,
    SPHERE_ACTIONS,
    Atom,
    TAIL_SERIES,
    atom_class,
    curve_example,
    difference,
    free_quotient,
    trivial_lift,
    union_disjoint,
)
from .errors import ConstraintMismatch, NonIntegerExpansion

SUITES = ("paper", "properties", "all")


class CheckResult(NamedTuple):
    """One check: its outcome, what it got when it failed, and the
    acceptance criterion (1-11) it serves."""

    name: str
    passed: bool
    detail: str = ""
    criterion: int = 0


class _Recorder:
    def __init__(self):
        self.results = []
        self.criterion = 0

    def check(self, name: str, condition: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(condition),
                                        "" if condition else detail,
                                        self.criterion))

    def check_cases(self, name: str, failures):
        """One check over many cases; ``failures`` describes each failing
        case, and the detail names the first."""
        failures = list(failures)
        self.check(name, not failures, f"{len(failures)} failing, first "
                   f"{failures[0]}" if failures else "")


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    recorder = _Recorder()
    if name in ("paper", "all"):
        _paper_suite(recorder)
    if name in ("properties", "all"):
        _property_suite(recorder)
    return recorder.results


def _sphere_dim(d: int, n: int) -> int:
    """dim H^G_n of a d-sphere whose action fixes a point."""
    return 1 if 1 <= n <= d else (2 if n <= 0 else 0)


def _curated() -> dict:
    """The curated complexes by name, built afresh."""
    return {"point": complexes.point_complex(),
            "swapped pair": complexes.swapped_pair_complex(),
            "two fixed points": complexes.two_fixed_points_complex(),
            "fixed circle": complexes.sphere_complex(1, ACTION_FIXED),
            "antipodal circle": complexes.sphere_complex(1, ACTION_FREE),
            **{f"trivial S^{d}": complexes.sphere_complex(d, ACTION_TRIVIAL)
               for d in (1, 2, 3)}}


def _table_check(rec: _Recorder, name: str, cw, top: int, dim):
    dims = homology.homology_table(cw, -5, top).group_dims
    rec.check_cases(name, (f"n={n}: {got}, expected {dim(n)}"
                           for n, got in dims.items() if got != dim(n)))


# ---------------------------------------------------------------------------
# the closed-form vectors

def _paper_suite(rec: _Recorder):
    u = IntPoly.u()

    rec.criterion = 1
    rec.check("point class is u/(u-1)",
              atom_class(Atom.point()).value == RationalU(u, u - 1))
    rec.check("swapped pair class is 1",
              atom_class(Atom.pair()).value == RationalU(1))
    for d in (1, 2, 3):
        rec.check(f"free {d}-sphere class is 1+u+...+u^{d}",
                  atom_class(Atom.sphere(d, ACTION_FREE)).value
                  == RationalU(IntPoly.geometric_sum(0, d)))
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

    rec.criterion = 2  # homology tables
    cw = _curated()
    for d in (1, 2, 3):
        _table_check(rec, f"homology table of the trivial {d}-sphere",
                     cw[f"trivial S^{d}"], d + 1, partial(_sphere_dim, d))
    _table_check(rec, "homology table of the antipodal circle",
                 cw["antipodal circle"], 3, lambda n: int(n in (0, 1)))
    _table_check(rec, "homology table of the fixed point", cw["point"], 2,
                 lambda n: int(n <= 0))
    _table_check(rec, "homology table of the swapped pair", cw["swapped pair"],
                 2, lambda n: int(n == 0))
    rec.check_cases("group cohomology of the point", (
        f"n={n}" for n in range(-3, 5)
        if homology.equivariant_cohomology(cw["point"], n) != int(n >= 0)))

    rec.criterion = 3  # series bridge: every compact atom against its model
    spheres = ((f"{a} S^{d}", Atom.sphere(d, a), complexes.sphere_complex(d, a))
               for a in SPHERE_ACTIONS for d in range(1, 7))
    for name, atom, model in [("point", Atom.point(), cw["point"]),
                              ("swapped pair", Atom.pair(), cw["swapped pair"]),
                              *spheres]:
        series, cls = homology.equivariant_betti_series(model), atom_class(atom)
        rec.check(f"series of the {name} complex equals its atom class",
                  series == cls, f"series {series}, atom class {cls}")

    rec.criterion = 6  # curve variants
    expected_curve = {
        "both_negated": RationalU.parse("u + 1") + RationalU.parse("1/(u - 1)"),
        "y_negated": RationalU.parse("u + 2") + 3 * RationalU.parse("1/(u - 1)"),
        "x_negated": RationalU.parse("u + 1") + RationalU.parse("1/(u - 1)"),
    }
    for action, value in expected_curve.items():
        got = curve_example(action).value
        rec.check(f"curve class with action {action}", got == value,
                  f"got {got}")

    rec.criterion = 7  # zeta closed forms for x^2 + y^4
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

    # sign identity: it holds exactly on the nonnegative germs, those whose
    # minus zeta vanishes (for x^N the arc oracle's minus rows below say
    # which); on x, x^3, x^5 it is refused at T^N, with both sides there
    # taken from the arc oracle
    rec.criterion = 8
    rec.check("minus zeta of x^2+y^4 vanishes",
              zeta.dl_zeta_signed(resolution, "-").is_zero())
    for name, germ_resolution in (("x^2+y^4", resolution),
                                  ("x^2", zeta.monomial_resolution(2)),
                                  ("x^4", zeta.monomial_resolution(4))):
        report = zeta.check_sign_identity(germ_resolution, order=24)
        rec.check(f"sign identity for {name}", report.passed,
                  f"first mismatch {report.first_mismatch}")
    for exponent in (1, 3, 5):
        report = zeta.check_sign_identity(zeta.monomial_resolution(exponent),
                                          order=24)
        germ = arcs.MonomialGerm(exponent)
        expected = (exponent, U_MINUS_ONE * arcs.arc_class(
                        germ, exponent, "+").value.shift(-exponent),
                    arcs.arc_class_plain(germ, exponent).shift(-exponent))
        rec.check(f"sign identity refuses x^{exponent} (sign-changing germ)",
                  report.first_mismatch == expected,
                  f"first mismatch {report.first_mismatch}, "
                  f"arc oracle gives {expected}")

    rec.criterion = 9  # oracle vs resolution formula
    for exponent in (1, 3, 5):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        rows = report.mismatches + report.divergences
        rec.check(f"arc oracle matches the formula for x^{exponent}",
                  not rows, "; ".join(map(str, rows[:1])))
    for exponent in (2, 4):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        expected_div = {n for n in range(1, 25)
                        if n % exponent == 0 and (n // exponent) % 2 == 0}
        found = {e.n for e in report.divergences}
        wrong = report.mismatches + tuple(
            e for e in report.divergences
            if e.oracle != 2 * RationalU(u, IntPoly.monomial(e.n // exponent)
                                         * (u - 1))
            or e.formula != RationalU(1, IntPoly.monomial(e.n // exponent)))
        rec.check(f"arc oracle divergence report for x^{exponent}",
                  not wrong and found == expected_div,
                  "; ".join([f"divergences at {sorted(found)}, expected "
                             f"{sorted(expected_div)}", *map(str, wrong[:1])]))

    rec.criterion = 1  # the Laurent view of the point series
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


def _arc_checks(rec: _Recorder):
    """The triangular stratification, re-derived by brute force and compared
    with m = n/N, and the dimension of each arc space read off it: n
    coefficients less the forced zeros and the root variable.  A case whose
    expansion raises ConstraintMismatch fails the first check."""
    rec.criterion = 11
    constraint, dims = [], []
    for exponent in range(1, 6):
        germ = arcs.MonomialGerm(exponent)
        for n in range(1, 13):
            try:
                report = arcs.symbolic_constraint_check(germ, n)
            except ConstraintMismatch as exc:
                constraint.append(f"x^{exponent} n={n}: {exc}")
                continue
            expected = n // exponent if n % exponent == 0 else None
            if report.base_index != expected:
                constraint.append(f"x^{exponent} n={n}: base index "
                                  f"{report.base_index}, expected {expected}")
            dimension = n - 1 - len(report.forced_zero)
            for sign in "+-":
                cls = arcs.arc_class(germ, n, sign)
                if not cls.is_zero() and cls.value.degree != dimension:
                    dims.append(f"x^{exponent} n={n} sign {sign}: degree "
                                f"{cls.value.degree}, dimension {dimension}")
    rec.check_cases("arc conditions reduce to the triangular system (N<=5, n<=12)",
                    constraint)
    rec.check_cases("arc class degree equals arc space dimension", dims)


def _homology_laws(rec: _Recorder):
    """Tables of the fixed-point sphere models, the negative tail, the
    Kunneth rule and duality, on the curated complexes."""
    cw = _curated()

    rec.criterion = 2
    for d in (1, 2, 3):
        _table_check(rec, f"homology table of the fixed-point {d}-sphere",
                     complexes.sphere_complex(d, ACTION_FIXED), d + 1,
                     partial(_sphere_dim, d))

    # negative stabilization: the tail is the homology of the fixed set
    rec.criterion = 4
    tail = []
    for name, x in cw.items():
        fixed = homology.fixed_subcomplex(x)
        total = sum(homology.plain_homology(fixed, i)
                    for i in range(fixed.top_dimension + 1))
        tail += [f"{name} at n={n}: {got}, fixed set {total}" for n in (-1, -2, -3)
                 if (got := homology.equivariant_homology(x, n)) != total]
    rec.check_cases("negative degrees equal the homology of the fixed set", tail)

    rec.criterion = 5
    kunneth = []
    for x_name, y_name in (("swapped pair", "trivial S^1"),
                           ("fixed circle", "trivial S^1"),
                           ("antipodal circle", "trivial S^2")):
        x, y = cw[x_name], cw[y_name]
        product = homology.product_with_trivial(x, y)
        for n in range(-3, product.top_dimension + 2):
            lhs = homology.equivariant_homology(product, n)
            rhs = sum(homology.equivariant_homology(x, p)
                      * homology.plain_homology(y, n - p)
                      for p in range(n - y.top_dimension,
                                     x.top_dimension + 1))
            if lhs != rhs:
                kunneth.append(f"{x_name} x {y_name} at n={n}: {lhs}, "
                               f"expected {rhs}")
    rec.check_cases("Kunneth rule on curated products", kunneth)

    duality = []
    for name in ("point", "swapped pair", "trivial S^1", "trivial S^2",
                 "trivial S^3", "antipodal circle"):
        d = max(cw[name].top_dimension, 0)
        for n in range(-2, d + 4):
            cohomology = homology.equivariant_cohomology(cw[name], n)
            dual = homology.equivariant_homology(cw[name], d - n)
            if cohomology != dual:
                duality.append(f"{name} at n={n}: H^n is {cohomology}, "
                               f"H_(d-n) is {dual}")
    rec.check_cases("Poincare duality on curated closed complexes", duality)


def _property_suite(rec: _Recorder):
    u = IntPoly.u()
    rng = random.Random(20240917)

    rec.criterion = 11
    field = []
    for case in range(1000):
        a, b, c = (_random_fraction(rng) for _ in range(3))
        laws = {"distributivity": a * (b + c) == a * b + a * c,
                "commutativity": a + b == b + a and a * b == b * a,
                "associativity of +": (a + b) + c == a + (b + c),
                "division": b.is_zero() or (a / b) * b == a}
        field += [f"case {case}: {law}" for law, holds in laws.items()
                  if not holds]
    rec.check_cases("field axioms on 1000 random fractions", field)

    rec.check_cases("degree is additive under multiplication", [
        f"case {case}" for case in range(200)
        if not ((p := _random_poly(rng)).is_zero()
                or (q := _random_poly(rng)).is_zero()
                or (p * q).degree == p.degree + q.degree)])

    # normal-form uniqueness via different construction routes
    rec.check("normal form is route-independent",
              RationalU(2 * u ** 2 - 2, 2 * u - 2) == RationalU(u + 1)
              and RationalU(u ** 3 - u, (u - 1) ** 2)
              == RationalU(u ** 2 + u, u - 1))

    # Laurent round trip against long division in 1/u
    round_trip = []
    for case in range(200):
        num = _random_poly(rng, max_degree=6, max_coeff=50)
        den_low = _random_poly(rng, max_degree=3, max_coeff=5)
        if num.is_zero() or den_low.is_zero():
            continue
        den = IntPoly.monomial(den_low.degree + 1) + den_low  # monic by force
        window = laurent_expand(RationalU(num, den), 12)
        oracle, shift = _long_division_oracle(num, den, 12)
        got = [Fraction(c) for c in window.coefficients]
        if got != oracle or window.top_degree != shift:
            round_trip.append(f"case {case}: ({num})/({den})")
    rec.check_cases("Laurent expansion agrees with the long-division oracle",
                    round_trip)

    # lift identity (u-1) * lift(p) = u * p
    lifts = [_random_poly(rng, max_degree=6, max_coeff=100) for _ in range(100)]
    rec.check_cases("lift identity (u-1)*lift(p) = u*p", [
        f"case {case}: p = {p}" for case, p in enumerate(lifts)
        if RationalU(u - 1) * trivial_lift(p, allow_negative=True).value
        != RationalU(p * u)])

    # additivity: free circle = two swapped arcs + swapped pair
    arcs_class = difference(atom_class(Atom.sphere(1, ACTION_FREE)),
                            atom_class(Atom.pair()))
    rec.check("additivity: free circle = swapped arcs + swapped pair",
              union_disjoint(arcs_class, atom_class(Atom.pair()))
              == atom_class(Atom.sphere(1, ACTION_FREE))
              and arcs_class.value == RationalU(u))
    rec.check("quotient of the swapped pair is a point",
              free_quotient(atom_class(Atom.pair()), True) == IntPoly.one())

    _homology_laws(rec)
    _arc_checks(rec)

    # trivial-group projection agrees with the naive formula everywhere
    rec.criterion = 10
    naive = []
    for exponent in range(1, 6):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        naive += [f"x^{exponent} at {e}" for e in report.entries
                  if e.kind == "naive" and e.status != arcs.MATCH]
    rec.check_cases("non-equivariant projection matches the naive zeta (N<=5)",
                    naive)

    # every zeta coefficient lies in Z[[1/u]][u]
    rec.criterion = 11
    domain = []
    resolution = zeta.x2_plus_y4_resolution()
    for sign, form in (("+", zeta.dl_zeta_signed(resolution, "+")),
                       ("naive", zeta.dl_zeta_naive(resolution))):
        for n, coeff in zeta.expand_zeta(form, 16):
            try:
                laurent_expand(coeff, 8)
            except NonIntegerExpansion:
                domain.append(f"x^2+y^4 {sign} at T^{n}: {coeff}")
    rec.check_cases("zeta coefficients have integral Laurent expansions", domain)
