"""The resolution-data zeta engine against the worked closed forms."""

import json
import random
from fractions import Fraction

import pytest

from z2beta import zeta
from z2beta.algebra import IntPoly, RationalU
from z2beta.errors import BadGcd, MalformedInput, UnknownDivisor
from z2beta.zeta import (
    ZetaClosedForm,
    ZetaTerm,
    check_sign_identity,
    default_expansion_order,
    dl_zeta_naive,
    dl_zeta_signed,
    expand_zeta,
    load_resolution,
    monomial_resolution,
    x2_plus_y4_resolution,
    zeta_equal,
)

U = IntPoly.u()
A = (2, 2)  # the factor u^-2 T^2 / (1 - u^-2 T^2)
B = (4, 3)  # the factor u^-3 T^4 / (1 - u^-3 T^4)


def closed(*terms):
    return ZetaClosedForm.from_terms(terms)


# ---------------------------------------------------------------------------
# loading and validation

def test_load_x2y4_data():
    res = x2_plus_y4_resolution()
    assert res.ambient_dim == 2
    assert {(d.id, d.N, d.nu) for d in res.divisors} == {("E1", 2, 2),
                                                         ("E2", 4, 3)}
    assert {frozenset(s.divisors) for s in res.strata} \
        == {frozenset({"E1"}), frozenset({"E2"}), frozenset({"E1", "E2"})}
    by_set = {frozenset(s.divisors): s for s in res.strata}
    assert by_set[frozenset({"E1", "E2"})].m == 2
    assert by_set[frozenset({"E2"})].m == 4


def test_load_monomial_data():
    res = monomial_resolution(3)
    (stratum,) = res.strata
    assert stratum.m == 3
    assert stratum.base_class == IntPoly.one()
    assert stratum.covering_plus.value == RationalU(U, U - 1)


def test_bad_gcd_rejected():
    with pytest.raises(BadGcd):
        load_resolution({
            "ambient_dim": 2,
            "divisors": [{"id": "E1", "N": 2, "nu": 2},
                         {"id": "E2", "N": 4, "nu": 3}],
            "strata": [{"I": ["E1", "E2"], "m": 3, "base": "1",
                        "cov_plus": {"poly": "1", "tail": 0},
                        "cov_minus": {"poly": "0", "tail": 0}}],
        })


def test_unknown_divisor_rejected():
    with pytest.raises(UnknownDivisor):
        load_resolution({"ambient_dim": 1, "divisors": [],
                         "strata": [{"I": ["EX"], "base": "1"}]})


@pytest.mark.parametrize("data", [
    {"ambient_dim": 0, "divisors": [], "strata": []},
    {"ambient_dim": 1, "divisors": [{"id": "E1", "N": 0, "nu": 1}],
     "strata": []},
    {"ambient_dim": 1,
     "divisors": [{"id": "E1", "N": 1, "nu": 1},
                  {"id": "E1", "N": 2, "nu": 1}], "strata": []},
    {"ambient_dim": 1, "divisors": [{"id": "E1", "N": 2, "nu": 1}],
     "strata": [{"I": ["E1"], "base": "oops"}]},
    {"ambient_dim": 1, "divisors": [{"id": "E1", "N": 2, "nu": 1}],
     "strata": [{"I": ["E1"], "base": "1"}, {"I": ["E1"], "base": "1"}]},
    {"ambient_dim": 1, "divisors": [{"id": "E1", "N": 2, "nu": 1}],
     "strata": [{"I": ["E1", "E1"], "base": "1"}]},
])
def test_malformed_input_rejected(data):
    with pytest.raises(MalformedInput):
        load_resolution(data)


def test_repeated_divisor_id_names_the_stratum():
    with pytest.raises(MalformedInput,
                       match=r"stratum \[1, '1'\] repeats a divisor id"):
        load_resolution({"ambient_dim": 1,
                         "divisors": [{"id": "1", "N": 2, "nu": 1}],
                         "strata": [{"I": [1, "1"], "base": "1"}]})


@pytest.mark.parametrize("data", [
    {"ambient_dim": 1, "divisors": [], "strata": [{"I": 5}]},
    {"ambient_dim": 1, "divisors": 7},
    {"ambient_dim": 1, "divisors": [{"id": "E1", "N": 2, "nu": 1}],
     "strata": [{"I": ["E1"], "m": "x"}]},
    {"ambient_dim": 1, "divisors": [], "strata": [7]},
], ids=["I-not-list", "divisors-not-list", "m-not-int", "stratum-not-object"])
def test_wrongly_typed_fields_rejected(data):
    with pytest.raises(MalformedInput):
        load_resolution(data)


def test_shipped_data_file_matches_builtin():
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent \
        / "data" / "x2y4_resolution.json"
    if not path.exists():
        pytest.skip("sample data not present")
    assert load_resolution(path) == x2_plus_y4_resolution()


def test_load_resolution_reads_paths_only(tmp_path, monkeypatch):
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parent.parent \
        / "data" / "x2y4_resolution.json"
    if not shipped.exists():
        pytest.skip("sample data not present")
    text = shipped.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    braced = pathlib.Path("{x2y4}.json")  # a file name that starts with "{"
    braced.write_text(text, encoding="utf-8")
    assert load_resolution(str(braced)) == x2_plus_y4_resolution()
    with pytest.raises(OSError):  # JSON text is a (missing) file name
        load_resolution(text)
    for bad in ("{ this is not json", "[" * 100000 + "]" * 100000):
        braced.write_text(bad, encoding="utf-8")
        with pytest.raises(MalformedInput, match="invalid JSON"):
            load_resolution(braced)


def test_load_from_file(tmp_path):
    path = tmp_path / "res.json"
    path.write_text(json.dumps({
        "ambient_dim": 1,
        "divisors": [{"id": "E1", "N": 2, "nu": 1}],
        "strata": [{"I": ["E1"], "base": "1",
                    "cov_plus": {"poly": "1", "tail": 0},
                    "cov_minus": {"poly": "0", "tail": 0}}],
    }), encoding="utf-8")
    res = load_resolution(path)
    assert res.strata[0].m == 2


# ---------------------------------------------------------------------------
# closed forms

def test_minus_zeta_x2y4_is_zero():
    assert dl_zeta_signed(x2_plus_y4_resolution(), "-").is_zero()


def test_monomial_closed_forms():
    assert dl_zeta_signed(monomial_resolution(2), "-").is_zero()
    assert dl_zeta_signed(monomial_resolution(3), "+") \
        == closed((RationalU(U, U - 1), ((3, 1),)))
    assert dl_zeta_naive(monomial_resolution(2)) \
        == closed((RationalU(U - 1), ((2, 1),)))
    # odd exponents have symmetric signed zeta functions
    for exponent in (1, 3, 5):
        res = monomial_resolution(exponent)
        assert dl_zeta_signed(res, "+") == dl_zeta_signed(res, "-")


def test_empty_strata_give_zero():
    res = load_resolution({"ambient_dim": 1,
                           "divisors": [{"id": "E1", "N": 2, "nu": 1}],
                           "strata": []})
    assert dl_zeta_naive(res).is_zero()
    assert dl_zeta_signed(res, "+").is_zero()


def test_closed_form_text():
    form = dl_zeta_signed(x2_plus_y4_resolution(), "+")
    assert str(form) == "u * [2,2] + (u - 1) * [2,2] * [4,3] + u * [4,3]"
    assert str(ZetaClosedForm.zero()) == "0"


def test_term_without_factor_prints_its_coefficient_alone():
    form = ZetaClosedForm.from_terms([(5, ()), (2, ((2, 1),))])
    assert str(form) == "5 + 2 * [2,1]"
    form = closed((RationalU(U + 1), ()), (RationalU(U), (A,)))
    assert str(form) == "(u + 1) + u * [2,2]"


@pytest.mark.parametrize("terms", [[("u", ())], [(1, ()), ("u", ())]])
def test_term_coefficient_must_be_a_value(terms):
    with pytest.raises(TypeError):
        ZetaClosedForm.from_terms(terms)


def test_terms_merge_and_drop_zero():
    form = closed((RationalU(U), ((2, 1),)),
                  (RationalU(-U), ((2, 1),)))
    assert form.is_zero()
    merged = closed((RationalU(U), ((2, 1),)),
                    (RationalU(1), ((2, 1),)))
    assert len(merged.terms) == 1
    assert merged.terms[0].coefficient == RationalU(U + 1)


# ---------------------------------------------------------------------------
# expansion

def test_expand_x2():
    form = dl_zeta_signed(monomial_resolution(2), "+")
    coeffs = dict(expand_zeta(form, 8))
    for m in (1, 2, 3, 4):
        assert coeffs[2 * m] == RationalU(1, U ** m)
    for n in (1, 3, 5, 7):
        assert coeffs[n].is_zero()


def test_expand_x2y4_low_orders():
    coeffs = dict(expand_zeta(dl_zeta_signed(x2_plus_y4_resolution(), "+"), 6))
    assert coeffs[2] == RationalU(1, U)  # only the first factor reaches T^2
    assert coeffs[1].is_zero() and coeffs[3].is_zero()
    # T^6: the A-term at k=3 gives u * u^-6, the AB-term at (1,1) (u-1)u^-5
    assert coeffs[6] == RationalU(U, U ** 6) + RationalU(U - 1, U ** 5)
    assert coeffs[6] == RationalU(1, U ** 4)


def test_expand_before_any_factor_reaches():
    form = dl_zeta_signed(monomial_resolution(4), "+")
    assert all(c.is_zero() for _, c in expand_zeta(form, 3))


def test_default_expansion_order():
    assert default_expansion_order(x2_plus_y4_resolution()) == 16
    assert default_expansion_order(monomial_resolution(2)) == 8


def brute_force_coefficient(form, n):
    """Independent expansion oracle: enumerate the repetition tuples of each
    term's factors outright instead of convolving series."""
    import itertools

    total = RationalU.zero()
    for term in form.terms:
        factors = term.factors
        for reps in itertools.product(range(1, n + 1), repeat=len(factors)):
            if sum(k * N for k, (N, _) in zip(reps, factors)) == n:
                weight = sum(k * nu for k, (_, nu) in zip(reps, factors))
                total = total + term.coefficient * RationalU(1, U ** weight)
    return total


def test_expansion_against_brute_force_enumeration():
    res = x2_plus_y4_resolution()
    for form in (dl_zeta_signed(res, "+"), dl_zeta_naive(res),
                 dl_zeta_signed(monomial_resolution(3), "+")):
        expanded = dict(expand_zeta(form, 12))
        for n in range(1, 13):
            assert expanded[n] == brute_force_coefficient(form, n), n


def geometric_values(form, x, order):
    """Independent expansion oracle at the point u = x: each term's T-series
    is its coefficient's value times the product of the geometric sums
    sum_k (x^-nu T^N)^k, convolved over Fraction values; returns the
    values of T^0 .. T^order."""
    total = [Fraction(0)] * (order + 1)
    for term in form.terms:
        series = [Fraction(0)] * (order + 1)
        series[0] = term.coefficient.eval_at(x)
        for N, nu in term.factors:
            ratio = Fraction(1, x ** nu)
            product = [Fraction(0)] * (order + 1)
            for e, c in enumerate(series):
                for k in range(1, (order - e) // N + 1):
                    product[e + N * k] += c * ratio ** k
            series = product
        total = [t + c for t, c in zip(total, series)]
    return total


#: hand-built forms whose coefficient denominators are 1, u-1, (u-1)^2 and
#: powers of u, with repeated factors, shared factor sets and one stratum
#: through three divisors
HAND_BUILT = (
    closed((RationalU(U ** 2 - 3), (A,)),
           (RationalU(U, U - 1), (A, A)),
           (RationalU(2 * U + 1, (U - 1) ** 2), (A, B, (3, 1))),
           (RationalU(-5, U ** 3), ((3, 1), (3, 1), (3, 1)))),
    closed((RationalU(U - 1, U), ((1, 1),)),
           (RationalU(7, U ** 2), ((1, 1), (1, 1))),
           (RationalU(-U ** 3, (U - 1) ** 2), ((1, 2), (5, 4))),
           (RationalU(U ** 2 + U + 1, U - 1), ((1, 1), (1, 2))),
           (RationalU(U - 2), ((1, 1), (1, 2), (1, 3)))),
    closed((RationalU(3 * U - 2, U ** 5), (B, B)),
           (RationalU(-1, U - 1), (B, B)),
           (RationalU(U + 4, (U - 1) ** 2), (A, A, A)),
           (RationalU(1), ((6, 1),))),
)


@pytest.mark.parametrize("x", [3, 7])
def test_expansion_against_geometric_sums_at_points(x):
    res = x2_plus_y4_resolution()
    cases = [(dl_zeta_signed(res, "+"), 128), (dl_zeta_signed(res, "-"), 128),
             (dl_zeta_naive(res), 128)]
    cases += [(form, 40) for form in HAND_BUILT]
    for form, order in cases:
        want = geometric_values(form, x, order)
        expanded = expand_zeta(form, order)
        assert [n for n, _ in expanded] == list(range(1, order + 1))
        for n, coeff in expanded:
            assert coeff.eval_at(x) == want[n], (str(form), n)


def t_mul(a, b, order):
    """Truncated product of two T-series {T-degree: {u-exponent: int}}."""
    out = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            if t1 + t2 > order:
                continue
            acc = out.setdefault(t1 + t2, {})
            for e1, v1 in c1.items():
                for e2, v2 in c2.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + v1 * v2
    return out


def convolution_expand(form, order):
    """Reference for ``expand_zeta``: each geometric factor is built as the
    dense series sum_k u^(-nu k) T^(N k) through T^order and multiplied in
    by a full truncated convolution, and each term's T-coefficient c/q is
    its own RationalU(c * u^k, q * u^k), added to the others with +."""
    total = [RationalU.zero()] * (order + 1)
    for term in form.terms:
        series = {0: dict(term.coefficient.numerator.coefficients)}
        for N, nu in term.factors:
            geometric = {N * k: {-nu * k: 1} for k in range(1, order // N + 1)}
            series = t_mul(series, geometric, order)
        for n, laurent in series.items():
            k = max(0, -min(laurent, default=0))
            total[n] += RationalU(IntPoly({e + k: c for e, c in laurent.items()}),
                                  term.coefficient.denominator * U ** k)
    return list(enumerate(total))[1:]


def random_coefficient(rng):
    """Mixed-sign numerator over 1, u^k or (u-1)^j."""
    numerator = IntPoly({e: rng.choice((-3, -2, -1, 1, 2, 3))
                         for e in rng.sample(range(5), rng.randint(1, 3))})
    denominator = rng.choice((IntPoly.one(), U ** rng.randint(1, 4),
                              (U - 1) ** rng.randint(1, 3)))
    return RationalU(numerator, denominator)


def cancelling_terms(rng, pool):
    """The terms c (u-1) [x, w], -c [x] and c u [w], with x = (N, nu),
    w = (N, nu+1) and the same extra factors on each.  They sum to zero,
    since u w = x gives x/(1-x) - u w/(1-w) = (u-1) x/(1-x) w/(1-w); each
    has nonzero T-coefficients, which cancel across terms and denominators."""
    N, nu = rng.randint(1, 8), rng.randint(1, 8)
    x, w = (N, nu), (N, nu + 1)
    extra = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
    c = random_coefficient(rng)
    return [(c * RationalU(U - 1), (x, w) + extra), (-c, (x,) + extra),
            (c * RationalU(U), (w,) + extra)]


def test_expansion_against_dense_convolution():
    rng = random.Random(2023)
    below_smallest_n = 0
    for _ in range(40):
        # 0..6 factors per term, drawn with repetition from a small pool
        pool = [(rng.randint(1, 8), rng.randint(1, 9)) for _ in range(3)]
        terms = [(random_coefficient(rng),
                  tuple(rng.choice(pool) for _ in range(rng.randint(0, 6))))
                 for _ in range(rng.randint(1, 4))]
        zero = cancelling_terms(rng, pool)
        form = closed(*terms, *zero)
        smallest = min(N for term in form.terms for N, _ in term.factors)
        orders = {max(1, smallest - 1), rng.randint(1, 40), rng.randint(1, 40)}
        for order in sorted(orders):
            got = [c for _, c in expand_zeta(form, order)]
            assert got == [c for _, c in convolution_expand(form, order)], \
                (str(form), order)
            assert all(c.is_zero() for _, c in expand_zeta(closed(*zero), order))
            below_smallest_n += order < smallest
    assert below_smallest_n > 0


# ---------------------------------------------------------------------------
# semantic equality

def test_zeta_equal_reordering():
    a = closed((RationalU(U), (A,)), (RationalU(1), (B,)))
    b = closed((RationalU(1), (B,)), (RationalU(U), (A,)))
    assert a == b
    assert zeta_equal(a, b)


def test_zeta_equal_distinguishes():
    res = monomial_resolution(2)
    assert not zeta_equal(dl_zeta_signed(res, "+"), dl_zeta_signed(res, "-"))


def test_zeta_equal_partial_fractions():
    # u*g + g  ==  (u+1)*g as rational functions
    g = ((2, 1),)
    a = closed((RationalU(U), g), (RationalU(1), g))
    b = closed((RationalU(U + 1), g))
    assert zeta_equal(a, b)


def value_at(form, x, t):
    """Exact value of a closed form at the rational point (u, T) = (x, t)."""
    total = Fraction(0)
    for term in form.terms:
        part = term.coefficient.eval_at(x)
        for N, nu in term.factors:
            g = Fraction(1, x ** nu) * t ** N
            part *= g / (1 - g)
        total += part
    return total


def unmerged(*terms):
    """A closed form with its terms in the given order and not merged, as
    ``from_terms`` would; int coefficients are taken as constants."""
    return ZetaClosedForm(tuple(ZetaTerm(RationalU(c) if isinstance(c, int)
                                         else c, f) for c, f in terms))


C = (3, 1)
#: Two forms with terms [A, A, B], so K = 2*2 + 4 = 8, that differ by
#: u^7 [A, A, B] = T^8 / ((1 - u^-2 T^2)^2 (1 - u^-3 T^4)): they agree
#: through T^(K-1) and differ at T^K
AT_THE_BOUND = (
    closed((RationalU(U), (A,)), (RationalU(1), (B,)),
           (RationalU(U ** 7 + 1), (A, A, B))),
    closed((RationalU(U), (A,)), (RationalU(1), (B,)),
           (RationalU(1), (A, A, B))),
)
#: (a, b, whether a and b are equal)
EQUALITY_PAIRS = (
    # reordered terms and factors
    (unmerged((RationalU(U), (A,)), (1, (B, A)), (-2, (C,))),
     closed((RationalU(-2), (C,)), (RationalU(1), (A, B)),
            (RationalU(U), (A,))),
     True),
    # partial fractions: (u+1)/(u-1)^2 = 1/(u-1) + 2/(u-1)^2
    (unmerged((RationalU(1, U - 1), (A, C)),
              (RationalU(2, (U - 1) ** 2), (C, A))),
     closed((RationalU(U + 1, (U - 1) ** 2), (A, C))),
     True),
    # partial fractions in T: with x = u^-2 T^2 and w = x/u,
    # (u-1) x/(1-x) w/(1-w) = x/(1-x) - u w/(1-w)
    (closed((RationalU(U - 1), (A, (2, 3)))),
     closed((RationalU(1), (A,)), (RationalU(-U), ((2, 3),))),
     True),
    # repeated factors, split and reordered
    (unmerged((RationalU(U), (A, B, A)), (RationalU(1, U), (A, A, B)),
              (3, (C, C, C))),
     closed((RationalU(U ** 2 + 1, U), (A, A, B)), (RationalU(3), (C, C, C))),
     True),
    (unmerged((RationalU(1), (A, A))), closed((RationalU(1), (A,))), False),
    (*AT_THE_BOUND, False),
    # empty-factor (T^0) terms next to factored ones
    (unmerged((RationalU(1, U - 1), ()), (RationalU(U), (A,)), (1, ())),
     closed((RationalU(U, U - 1), ()), (RationalU(U), (A,))),
     True),
    (closed((RationalU(5), ()), (RationalU(U), (A,))),
     closed((RationalU(U), (A,))),
     False),
    # only empty-factor terms, so K = 0: 1/(u-1) + u = (u^2-u+1)/(u-1)
    (unmerged((RationalU(1, U - 1), ()), (RationalU(U), ())),
     closed((RationalU(U ** 2 - U + 1, U - 1), ())),
     True),
    (closed((RationalU(2), ())), closed((RationalU(1), ())), False),
    (unmerged((RationalU(1, U - 1), ()), (RationalU(-1, U - 1), ())),
     ZetaClosedForm.zero(),
     True),
    (dl_zeta_naive(x2_plus_y4_resolution()),
     dl_zeta_signed(x2_plus_y4_resolution(), "+").scaled(RationalU(U - 1)),
     True),
)


@pytest.mark.parametrize("x, t", [(3, Fraction(1, 5)), (7, Fraction(2, 3))])
def test_cross_multiplied_polynomial_at_points(x, t):
    # zeta_equal(a, b) says whether (a - b) * prod (1 - u^-nu T^N)^mult is
    # zero; the values of a and b at a point (u, T) = (x, t) decide it
    for a, b, equal in EQUALITY_PAIRS:
        assert zeta_equal(a, b) is zeta_equal(b, a) is equal, (str(a), str(b))
        assert (value_at(a, x, t) == value_at(b, x, t)) is equal, str(a)
    near, far = (geometric_values(form, x, 8) for form in AT_THE_BOUND)
    assert near[:8] == far[:8] and near[8] != far[8]


def test_zeta_equal_repeated_factor():
    square = closed((RationalU(1), ((2, 1), (2, 1))))
    single = closed((RationalU(1), ((2, 1),)))
    assert not zeta_equal(square, single)
    assert zeta_equal(square, square)


# ---------------------------------------------------------------------------
# the sign identity

def test_sign_identity_x2y4():
    report = check_sign_identity(x2_plus_y4_resolution())
    assert report.passed
    assert report.structural_match and report.semantic_match
    assert report.expansion_order == 16


def test_sign_identity_even_powers():
    for exponent in (2, 4):
        report = check_sign_identity(monomial_resolution(exponent), order=24)
        assert report.passed, exponent


def test_sign_identity_fails_for_sign_changing_germs():
    # x^N with N odd takes both signs, and the covering of the origin is a
    # fixed point with class u/(u-1): the identity provably fails, first at T^N
    for exponent in (1, 3, 5):
        report = check_sign_identity(monomial_resolution(exponent), order=24)
        assert not report.passed
        assert report.first_mismatch is not None
        n, lhs, rhs = report.first_mismatch
        assert n == exponent
        assert lhs == RationalU.one()  # (u-1) * u/(u-1) * u^-1
        assert rhs == RationalU(U - 1, U)


def _count_expansions(monkeypatch):
    calls = []
    expand = zeta.expand_zeta

    def counting(form, order):
        calls.append(order)
        return expand(form, order)
    monkeypatch.setattr(zeta, "expand_zeta", counting)
    return calls


@pytest.mark.parametrize("resolution", [
    monomial_resolution(2), monomial_resolution(4), x2_plus_y4_resolution()],
    ids=["x^2", "x^4", "x^2+y^4"])
def test_sign_identity_expands_nothing_when_the_forms_match(resolution,
                                                            monkeypatch):
    calls = _count_expansions(monkeypatch)
    report = check_sign_identity(resolution, order=24)
    assert report.passed and report.expansion_order == 24
    assert report.first_mismatch is None
    assert calls == []
    with pytest.raises(ValueError):
        check_sign_identity(resolution, order=0)


@pytest.mark.parametrize("exponent", [1, 3, 5])
def test_sign_identity_mismatch_is_the_first_differing_coefficient(
        exponent, monkeypatch):
    resolution = monomial_resolution(exponent)
    lhs = dl_zeta_signed(resolution, "+").scaled(RationalU(U - 1))
    rhs = dl_zeta_naive(resolution)
    reference = next((n, left, right) for (n, left), (_, right)
                     in zip(expand_zeta(lhs, 24), expand_zeta(rhs, 24))
                     if left != right)
    calls = _count_expansions(monkeypatch)
    report = check_sign_identity(resolution, order=24)
    assert report.first_mismatch == reference
    assert not report.structural_match and calls == [24, 24]


def test_sign_identity_detects_perturbed_input():
    data = {
        "ambient_dim": 2,
        "divisors": [{"id": "E1", "N": 2, "nu": 2},
                     {"id": "E2", "N": 4, "nu": 3}],
        "strata": [
            {"I": ["E1"], "base": "u",
             "cov_plus": {"poly": "0", "tail": 0},  # zeroed out
             "cov_minus": {"poly": "0", "tail": 0}},
            {"I": ["E2"], "base": "u",
             "cov_plus": {"poly": "u", "tail": 0},
             "cov_minus": {"poly": "0", "tail": 0}},
            {"I": ["E1", "E2"], "base": "1",
             "cov_plus": {"poly": "1", "tail": 0},
             "cov_minus": {"poly": "0", "tail": 0}},
        ],
    }
    report = check_sign_identity(load_resolution(data))
    assert not report.passed
    assert report.first_mismatch[0] == 2  # the smallest multiplicity


# ---------------------------------------------------------------------------
# coefficient domain

def test_coefficients_live_in_laurent_ring():
    from z2beta.algebra import laurent_expand

    res = x2_plus_y4_resolution()
    for form in (dl_zeta_signed(res, "+"), dl_zeta_naive(res)):
        for _, coeff in expand_zeta(form, 16):
            if not coeff.is_zero():
                window = laurent_expand(coeff, 8)
                assert all(isinstance(c, int) for c in window.coefficients)
