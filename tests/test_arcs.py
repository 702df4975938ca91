"""The arc-space oracle: definition-level classes, the brute-force
stratification check, and the comparison against the resolution engine."""

from math import comb

import pytest

from z2beta import arcs
from z2beta.algebra import IntPoly, RationalU
from z2beta.arcs import (
    KNOWN_DIVERGENCE,
    MATCH,
    ConstraintReport,
    MonomialGerm,
    _drop_vars,
    _germ_coefficients,
    _sign_twisted,
    arc_class,
    arc_class_plain,
    compare_with_dl,
    oracle_zeta,
    oracle_zeta_naive,
    symbolic_constraint_check,
)
from z2beta.errors import ConstraintMismatch
from z2beta.zeta import dl_zeta_naive, expand_zeta, monomial_resolution

U = IntPoly.u()


# ---------------------------------------------------------------------------
# arc classes

def test_square_germ_classes():
    g = MonomialGerm(2)
    assert arc_class(g, 2, "+").value == RationalU(U)
    assert arc_class(g, 4, "+").value == RationalU(2 * U ** 3, U - 1)
    assert arc_class(g, 3, "+").is_zero()
    assert arc_class(g, 2, "-").is_zero()


def test_cube_germ_classes():
    g = MonomialGerm(3)
    assert arc_class(g, 3, "+").value == RationalU(U ** 3, U - 1)
    # one real cube root on either sign, always fixed
    assert arc_class(g, 3, "-").value == RationalU(U ** 3, U - 1)
    assert arc_class(g, 6, "+").value == RationalU(U ** 5, U - 1)


def test_odd_order_has_trivial_action():
    # N | n with n odd forces N odd and an odd root count of one
    for exponent in (1, 3, 5):
        g = MonomialGerm(exponent)
        for n in range(exponent, 13, 2 * exponent):
            cls = arc_class(g, n, "+")
            m = n // exponent
            assert cls.value == RationalU(IntPoly.monomial(n - m + 1), U - 1)


def test_dimension_law():
    for exponent in range(1, 6):
        g = MonomialGerm(exponent)
        for n in range(1, 13):
            for sign in "+-":
                cls = arc_class(g, n, sign)
                if cls.is_zero():
                    continue
                assert cls.value.degree == n - n // exponent


def test_germ_validation():
    with pytest.raises(ValueError):
        MonomialGerm(0)
    with pytest.raises(ValueError):
        arc_class(MonomialGerm(2), 0, "+")
    with pytest.raises(ValueError):
        arc_class(MonomialGerm(2), 2, "plus")
    # a float exponent would give classes with float powers of u
    for bad in (2.0, 1.5, "2"):
        with pytest.raises(TypeError):
            MonomialGerm(bad)


# ---------------------------------------------------------------------------
# oracle zeta coefficients

def test_oracle_zeta_square():
    coeffs = dict(oracle_zeta(MonomialGerm(2), "+", 4))
    assert coeffs[2] == RationalU(1, U)
    assert coeffs[4] == RationalU(2, U * (U - 1))  # 2 u^-1 / (u-1)
    assert coeffs[1].is_zero() and coeffs[3].is_zero()


def test_oracle_zeta_cube():
    coeffs = dict(oracle_zeta(MonomialGerm(3), "+", 6))
    assert coeffs[3] == RationalU(1, U - 1)  # u^3/(u-1) * u^-3
    assert coeffs[6] == RationalU(1, U * (U - 1))


def test_oracle_zeta_minus_square_vanishes():
    assert all(c.is_zero() for _, c in oracle_zeta(MonomialGerm(2), "-", 10))


def test_oracle_zeta_equals_per_coefficient_classes():
    # the affine-law shortcut against the arc class of each order, its
    # affine factor built and taken apart again; every coefficient is a
    # fresh object, zeros included
    for N in range(1, 9):
        germ = MonomialGerm(N)
        for sign in ("+", "-"):
            coeffs = oracle_zeta(germ, sign, 96)
            assert coeffs == [(n, arc_class(germ, n, sign).value.shift(-n))
                              for n in range(1, 97)]
            assert len({id(c) for _, c in coeffs}) == 96
    with pytest.raises(ValueError):
        oracle_zeta(MonomialGerm(2), "0", 4)


def test_oracle_naive_coefficients():
    coeffs = dict(oracle_zeta_naive(MonomialGerm(2), 8))
    for m in (1, 2, 3, 4):
        assert coeffs[2 * m] == RationalU(U - 1, U ** m)
    assert arc_class_plain(MonomialGerm(2), 3).is_zero()


# ---------------------------------------------------------------------------
# the brute-force stratification check

def test_constraints_square_order_four():
    report = symbolic_constraint_check(MonomialGerm(2), 4)
    assert isinstance(report, ConstraintReport)
    assert report.forced_zero == (1,)
    assert report.base_index == 2
    assert report.conditions == ("a1 = 0", "a2^2 = +-1")


def test_constraints_identity_germ():
    report = symbolic_constraint_check(MonomialGerm(1), 1)
    assert report.forced_zero == ()
    assert report.conditions == ("a1^1 = +-1",)


def test_constraints_cube():
    report = symbolic_constraint_check(MonomialGerm(3), 3)
    assert report.conditions == ("a1^3 = +-1",)


def test_constraints_empty_when_indivisible():
    report = symbolic_constraint_check(MonomialGerm(2), 5)
    assert report.base_index is None
    assert report.conditions[-1].startswith("0 = ")


def test_constraint_sweep():
    for exponent in range(1, 6):
        for n in range(1, 13):
            report = symbolic_constraint_check(MonomialGerm(exponent), n)
            if n % exponent == 0:
                assert report.base_index == n // exponent
                assert report.forced_zero == tuple(range(1, n // exponent))
            else:
                assert report.base_index is None


def _two_block_reference(germ, n):
    """The check as it stood with a separate t^n block: an equivariance
    pass, a loop over t^1..t^(n-1), then the last coefficient on its own."""
    N = germ.exponent
    base, coeffs = _germ_coefficients(N, n)
    for k in range(n + 1):
        expected = {m: (-1) ** k * c for m, c in coeffs[k].items()}
        assert _sign_twisted(coeffs[k], base) == expected
    conditions, first_free = [], 1
    for k in range(1, n):
        reduced = _drop_vars(coeffs[k], first_free, base)
        if k < first_free * N:
            assert not reduced
        else:
            assert k == first_free * N
            assert reduced == {N * base ** first_free: 1}
            conditions.append(f"a{first_free} = 0")
            first_free += 1
    final = _drop_vars(coeffs[n], first_free, base)
    if n == first_free * N:
        assert final == {N * base ** first_free: 1}
        conditions.append(f"a{first_free}^{N} = +-1")
        base_index = first_free
    else:
        assert not final
        conditions.append("0 = +-1 (empty)")
        base_index = None
    return ConstraintReport(N, n, tuple(range(1, first_free)), base_index,
                            tuple(conditions))


def test_one_pass_matches_two_block_reference():
    for exponent in range(1, 13):
        germ = MonomialGerm(exponent)
        for n in range(1, 13):
            assert (symbolic_constraint_check(germ, n)
                    == _two_block_reference(germ, n)), (exponent, n)


def _odd_weight_in_even_degree(base, coeffs):
    coeffs[4][base + base ** 2] = 2  # a_1 a_2 has weight 3, not 4


def _term_without_a1_at_t1(base, coeffs):
    coeffs[1][base ** 2 + base ** 3] = 1  # a_2 a_3: odd weight, no a_1


def _doubled_pivot(k):
    def tamper(base, coeffs):
        coeffs[k] = {m: 2 * c for m, c in coeffs[k].items()}
    return tamper


@pytest.mark.parametrize("tamper,message", [
    (_odd_weight_in_even_degree, r"t\^4 coefficient is not equivariant"),
    (_term_without_a1_at_t1, r"t\^1 condition does not vanish"),
    (_doubled_pivot(2), r"t\^2 condition is not a_1\^2"),
    (_doubled_pivot(4), r"t\^4 condition is not a_2\^2"),
], ids=["equivariance", "vanishing", "pivot", "root-pivot"])
def test_tampered_expansion_raises_at_its_degree(monkeypatch, tamper,
                                                 message):
    # x^2 at order 4: t^1 and t^3 vanish, t^2 pivots on a_1, t^4 on a_2
    real = arcs._germ_coefficients

    def tampered(exponent, n):
        base, coeffs = real(exponent, n)
        tamper(base, coeffs)
        return base, coeffs

    monkeypatch.setattr(arcs, "_germ_coefficients", tampered)
    with pytest.raises(ConstraintMismatch, match=message):
        symbolic_constraint_check(MonomialGerm(2), 4)


def test_packed_expansion_counts():
    # decode every packed monomial of the t^k coefficient of
    # (a_1 t + ... + a_n t^n)^N: total degree N and weight k, the
    # coefficients add up to the C(k-1, N-1) compositions of k into N
    # parts, and there is one monomial per partition of k into N parts
    def partitions(k, parts, largest):
        if parts == 0:
            return int(k == 0)
        return sum(partitions(k - p, parts - 1, p)
                   for p in range(1, min(k, largest) + 1))

    n = 12
    for N in range(1, 9):
        base, coeffs = _germ_coefficients(N, n)
        for k, poly in enumerate(coeffs):
            for monomial in poly:
                digits = []
                for _ in range(n + 1):  # digits 0..n, for a_0 (none) to a_n
                    monomial, digit = divmod(monomial, base)
                    digits.append(digit)
                assert monomial == 0 and digits[0] == 0
                assert sum(digits) == N
                assert sum(j * p for j, p in enumerate(digits)) == k
            assert sum(poly.values()) == (comb(k - 1, N - 1) if k else 0)
            assert len(poly) == partitions(k, N, k)


def test_constraint_cost_guard():
    with pytest.raises(ValueError):
        symbolic_constraint_check(MonomialGerm(2), 13)


# ---------------------------------------------------------------------------
# comparison with the resolution engine

def test_compare_odd_exponents_match_everywhere():
    for exponent, order in ((3, 12), (1, 4), (5, 24)):
        report = compare_with_dl(MonomialGerm(exponent), order)
        assert report.all_consistent
        assert not report.divergences
        assert all(e.status == MATCH for e in report.entries)


def test_compare_square_flags_even_orders():
    report = compare_with_dl(MonomialGerm(2), 8)
    assert report.all_consistent  # divergences are flagged, not failed
    assert all(e.status == KNOWN_DIVERGENCE for e in report.divergences)
    flagged = {(e.n, e.kind) for e in report.divergences}
    assert flagged == {(4, "+"), (8, "+")}
    for entry in report.divergences:
        m = entry.n // 2
        assert entry.oracle == RationalU(2 * U, U ** m * (U - 1))  # 2u^(1-m)/(u-1)
        assert entry.formula == RationalU(1, U ** m)  # u^-m
    matches = {(e.n, e.kind) for e in report.entries if e.status == MATCH}
    assert (2, "+") in matches and (6, "+") in matches


def test_compare_naive_matches_everywhere():
    for exponent in range(1, 6):
        report = compare_with_dl(MonomialGerm(exponent), 24)
        naive = [e for e in report.entries if e.kind == "naive"]
        assert naive and all(e.status == MATCH for e in naive), exponent


def test_oracle_naive_equals_engine_naive_directly():
    for exponent in range(1, 6):
        engine = dict(expand_zeta(dl_zeta_naive(monomial_resolution(exponent)), 24))
        oracle = dict(oracle_zeta_naive(MonomialGerm(exponent), 24))
        assert engine == oracle
