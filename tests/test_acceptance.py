"""Acceptance criteria: every closed-form value the toolkit must reproduce,
checked exactly (no tolerances anywhere; all comparisons are structural
equality of normalized fractions).

One criterion per test, each printing a single pass/fail line.  Criterion 8
checks the sign identity Z_f = (u-1) * Z^G_{f,+} on each germ against what
the identity promises: it holds for nonnegative germs (witnessed by a
vanishing minus zeta), and on the sign-changing x, x^3, x^5 the check must
refuse at exactly T^N, where the fixed-point covering (class u/(u-1)) makes
the two sides differ by values the arc oracle derives independently.
"""

import random

from z2beta import arcs, complexes, homology, zeta
from z2beta.algebra import IntPoly, RationalU
from z2beta.calculus import (
    ACTION_FIXED,
    ACTION_FREE,
    ACTION_TRIVIAL,
    Atom,
    TAIL_SERIES,
    atom_class,
    affine_product,
    blowup_class,
    check_degree,
    curve_example,
    difference,
    union_disjoint,
)

U = IntPoly.u()


def _conclude(criterion: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {criterion}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def test_criterion_1_atom_values():
    failures = []
    if atom_class(Atom.point()).value != RationalU(U, U - 1):
        failures.append("point")
    if atom_class(Atom.pair()).value != RationalU.one():
        failures.append("swapped pair")
    for d in (1, 2, 3):
        if atom_class(Atom.sphere(d, ACTION_FREE)).value \
                != RationalU(IntPoly({0: 1, d: 1})):
            failures.append(f"free sphere d={d}")
        expected = RationalU(IntPoly.geometric_sum(1, d)) + 2 * TAIL_SERIES
        if atom_class(Atom.sphere(d, ACTION_FIXED)).value != expected:
            failures.append(f"fixed-point sphere d={d}")
    for d in range(5):
        if atom_class(Atom.affine(d)).value \
                != RationalU(IntPoly.monomial(d + 1), U - 1):
            failures.append(f"affine d={d}")
    _conclude("criterion 1: atom values", failures)


def test_criterion_2_homology_tables():
    failures = []
    for d in (1, 2, 3):
        for action in ("trivial", "with_fixed_point"):
            cw = complexes.sphere_complex(d, action)
            for n in range(d, -6, -1):
                expected = 1 if 1 <= n <= d else (2 if n <= 0 else 0)
                if homology.equivariant_homology(cw, n) != expected:
                    failures.append(f"S^{d} {action} at n={n}")
    antipodal = complexes.sphere_complex(1, "antipodal")
    for n in range(1, -6, -1):
        expected = 1 if n in (0, 1) else 0
        if homology.equivariant_homology(antipodal, n) != expected:
            failures.append(f"antipodal circle at n={n}")
    _conclude("criterion 2: homology tables", failures)


def test_criterion_3_series_bridge():
    pairs = [
        ("point", complexes.point_complex(), Atom.point()),
        ("pair", complexes.swapped_pair_complex(), Atom.pair()),
        ("free circle", complexes.sphere_complex(1, "antipodal"),
         Atom.sphere(1, ACTION_FREE)),
        ("fixed circle", complexes.sphere_complex(1, "with_fixed_point"),
         Atom.sphere(1, ACTION_FIXED)),
    ] + [(f"trivial S^{d}", complexes.sphere_complex(d, "trivial"),
          Atom.sphere(d, ACTION_TRIVIAL)) for d in (1, 2, 3)]
    failures = [name for name, cw, atom in pairs
                if homology.equivariant_betti_series(cw) != atom_class(atom)]
    _conclude("criterion 3: series equals atom class on curated complexes",
              failures)


def test_criterion_4_negative_tail():
    failures = []
    for name, cw in [
        ("point", complexes.point_complex()),
        ("pair", complexes.swapped_pair_complex()),
        ("two fixed points", complexes.two_fixed_points_complex()),
        ("trivial S^1", complexes.sphere_complex(1, "trivial")),
        ("trivial S^2", complexes.sphere_complex(2, "trivial")),
        ("trivial S^3", complexes.sphere_complex(3, "trivial")),
        ("fixed circle", complexes.sphere_complex(1, "with_fixed_point")),
        ("antipodal circle", complexes.sphere_complex(1, "antipodal")),
    ]:
        fixed = homology.fixed_subcomplex(cw)
        total = sum(homology.plain_homology(fixed, i)
                    for i in range(fixed.top_dimension + 1))
        dims = [homology.equivariant_homology(cw, n) for n in (-1, -2, -3)]
        if len(set(dims)) != 1 or dims[0] != total:
            failures.append(f"{name}: dims {dims} vs fixed-set total {total}")
    _conclude("criterion 4: negative degrees equal fixed-set homology",
              failures)


def test_criterion_5_kunneth_and_duality():
    failures = []
    products = [
        ("pair x S^1", complexes.swapped_pair_complex(),
         complexes.sphere_complex(1, "trivial")),
        ("fixed circle x S^1", complexes.sphere_complex(1, "with_fixed_point"),
         complexes.sphere_complex(1, "trivial")),
        ("antipodal circle x S^2", complexes.sphere_complex(1, "antipodal"),
         complexes.sphere_complex(2, "trivial")),
    ]
    for name, x, y in products:
        product = homology.product_with_trivial(x, y)
        for n in range(-3, product.top_dimension + 2):
            expected = sum(
                homology.equivariant_homology(x, p)
                * homology.plain_homology(y, n - p)
                for p in range(n - y.top_dimension, x.top_dimension + 1))
            if homology.equivariant_homology(product, n) != expected:
                failures.append(f"Kunneth {name} at n={n}")
    closed = [
        ("point", complexes.point_complex()),
        ("pair", complexes.swapped_pair_complex()),
        ("trivial S^1", complexes.sphere_complex(1, "trivial")),
        ("trivial S^2", complexes.sphere_complex(2, "trivial")),
        ("trivial S^3", complexes.sphere_complex(3, "trivial")),
        ("antipodal circle", complexes.sphere_complex(1, "antipodal")),
    ]
    for name, cw in closed:
        d = max(cw.top_dimension, 0)
        for n in range(-2, d + 4):
            if homology.equivariant_cohomology(cw, n) \
                    != homology.equivariant_homology(cw, d - n):
                failures.append(f"duality {name} at n={n}")
    _conclude("criterion 5: Kunneth and duality", failures)


def test_criterion_6_curve_variants():
    one_over = RationalU(1, U - 1)
    expected = {
        "both_negated": RationalU(U + 1) + one_over,
        "y_negated": RationalU(U + 2) + 3 * one_over,
        "x_negated": RationalU(U + 1) + one_over,
    }
    failures = [action for action, value in expected.items()
                if curve_example(action).value != value]
    _conclude("criterion 6: curve example variants", failures)


def test_criterion_7_zeta_reproduction():
    failures = []
    resolution = zeta.x2_plus_y4_resolution()
    A, B = (2, 2), (4, 3)
    plus = zeta.dl_zeta_signed(resolution, "+")
    expected_plus = zeta.ZetaClosedForm.from_terms([
        (RationalU(U - 1), (A, B)),
        (RationalU(U), (A,)),
        (RationalU(U), (B,)),
    ])
    if plus != expected_plus:
        failures.append("signed closed form (structural)")
    if not zeta.zeta_equal(plus, expected_plus):
        failures.append("signed closed form (semantic)")
    naive = zeta.dl_zeta_naive(resolution)
    expected_naive = zeta.ZetaClosedForm.from_terms([
        (RationalU((U - 1) ** 2), (A, B)),
        (RationalU((U - 1) * U), (A,)),
        (RationalU((U - 1) * U), (B,)),
    ])
    if naive != expected_naive:
        failures.append("naive closed form (structural)")
    if not zeta.zeta_equal(naive, expected_naive):
        failures.append("naive closed form (semantic)")
    _conclude("criterion 7: zeta closed forms for x^2 + y^4", failures)


def test_criterion_8_sign_identity():
    failures = []
    germs = [("x^2+y^4", zeta.x2_plus_y4_resolution(), None)] + [
        (f"x^{exponent}", zeta.monomial_resolution(exponent),
         arcs.MonomialGerm(exponent)) for exponent in range(1, 6)]
    for name, resolution, germ in germs:
        # curve selection: a germ is nonnegative exactly when no arc has a
        # negative leading coefficient, i.e. when the minus zeta vanishes
        nonnegative = zeta.dl_zeta_signed(resolution, "-").is_zero()
        report = zeta.check_sign_identity(resolution, order=24)
        if nonnegative:
            if not report.passed:
                failures.append(f"{name}: identity fails on a nonnegative "
                                f"germ (structural {report.structural_match}, "
                                f"first mismatch {report.first_mismatch})")
            continue
        if germ is None:
            failures.append(f"{name}: minus zeta should vanish")
            continue
        # sign-changing: the identity must be refused at T^N, with both
        # sides taken from the definition-level arc classes
        n = germ.exponent
        expected = (n,
                    RationalU(U - 1) * dict(arcs.oracle_zeta(germ, "+", 24))[n],
                    dict(arcs.oracle_zeta_naive(germ, 24))[n])
        if report.passed:
            failures.append(f"{name}: identity accepted on a sign-changing "
                            "germ")
        elif report.first_mismatch != expected:
            failures.append(f"{name}: first mismatch {report.first_mismatch}, "
                            f"oracle gives {expected}")
    _conclude("criterion 8: sign identity on x^2+y^4 and x^N, N=1..5",
              failures)


def test_criterion_9_oracle_agreement():
    failures = []
    for exponent in (1, 3, 5):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        if not report.all_consistent or report.divergences:
            failures.append(f"x^{exponent} should match everywhere")
    for exponent in (2, 4):
        report = arcs.compare_with_dl(arcs.MonomialGerm(exponent), 24)
        if not report.all_consistent:
            failures.append(f"x^{exponent} has hard mismatches")
        expected_div = {n for n in range(1, 25)
                        if n % exponent == 0 and (n // exponent) % 2 == 0}
        if {e.n for e in report.divergences} != expected_div:
            failures.append(f"x^{exponent} divergence set")
        for entry in report.divergences:
            m = entry.n // exponent
            if entry.oracle != RationalU(2 * U, IntPoly.monomial(m) * (U - 1)):
                failures.append(f"x^{exponent} oracle value at T^{entry.n}")
            if entry.formula != RationalU(1, IntPoly.monomial(m)):
                failures.append(f"x^{exponent} formula value at T^{entry.n}")
    _conclude("criterion 9: oracle vs formula with divergence report",
              failures)


def test_criterion_10_nonequivariant_specialization():
    failures = []
    for exponent in range(1, 6):
        engine = dict(zeta.expand_zeta(
            zeta.dl_zeta_naive(zeta.monomial_resolution(exponent)), 24))
        oracle = dict(arcs.oracle_zeta_naive(arcs.MonomialGerm(exponent), 24))
        if engine != oracle:
            failures.append(f"x^{exponent}")
    _conclude("criterion 10: trivial-group projection matches the naive zeta",
              failures)


def test_criterion_11_property_suites():
    failures = []
    rng = random.Random(97)

    def random_fraction():
        den = IntPoly.zero()
        while den.is_zero():
            den = IntPoly({e: rng.randint(-10 ** 6, 10 ** 6)
                           for e in range(rng.randint(0, 4) + 1)})
        num = IntPoly({e: rng.randint(-10 ** 6, 10 ** 6)
                       for e in range(rng.randint(0, 8) + 1)})
        return RationalU(num, den)

    for case in range(1000):
        a, b, c = (random_fraction() for _ in range(3))
        if a * (b + c) != a * b + a * c or a + b != b + a or a * b != b * a:
            failures.append(f"field axiom case {case}")
            break

    atoms = [atom_class(a) for a in
             (Atom.point(), Atom.pair(), Atom.affine(2),
              Atom.sphere(1, ACTION_FREE), Atom.sphere(2, ACTION_FIXED))]
    for case in range(200):
        a, b, c = (rng.choice(atoms) for _ in range(3))
        d = rng.randint(0, 3)
        for out, expected in (
                (union_disjoint(a, b), a.value + b.value),
                (difference(a, b), a.value - b.value),
                (affine_product(a, d), a.value * RationalU(IntPoly.monomial(d))),
                (blowup_class(a, b, c), a.value - b.value + c.value)):
            if out.value != RationalU(out.poly_part) \
                    + out.fixed_tail * TAIL_SERIES or out.value != expected:
                failures.append(f"normal form closure case {case}")

    for exponent in range(1, 6):
        for n in range(1, 13):
            report = arcs.symbolic_constraint_check(
                arcs.MonomialGerm(exponent), n)
            expected = n // exponent if n % exponent == 0 else None
            if report.base_index != expected:
                failures.append(f"constraint x^{exponent} n={n}")
            for sign in "+-":
                cls = arcs.arc_class(arcs.MonomialGerm(exponent), n, sign)
                if not cls.is_zero() and not check_degree(cls):
                    failures.append(f"degree x^{exponent} n={n} sign {sign}")
                dimension = n - 1 - len(report.forced_zero)
                if not cls.is_zero() and cls.value.degree != dimension:
                    failures.append(f"dimension x^{exponent} n={n} {sign}")
    _conclude("criterion 11: property suites", failures)
