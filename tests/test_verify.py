"""The built-in suites must be clean on a correct build, each check must
serve one acceptance criterion, and a failing check must name its case."""

import pytest

from z2beta import arcs, homology
from z2beta.calculus import affine_product
from z2beta.errors import ConstraintMismatch
from z2beta.verify import (
    SUITES,
    _arc_checks,
    _homology_laws,
    _Recorder,
    run_suite,
)


@pytest.fixture(scope="module")
def paper_results():
    return run_suite("paper")


def test_paper_suite_passes(paper_results, verify_results):
    failed = [r for r in paper_results if not r.passed]
    assert paper_results and not failed, failed
    # "all" runs the paper suite, then the properties suite
    assert verify_results[:len(paper_results)] == paper_results


def test_property_suite_passes(paper_results, verify_results):
    properties = verify_results[len(paper_results):]
    failed = [r for r in properties if not r.passed]
    assert properties and not failed, failed


def test_names_unique_and_every_criterion_checked(verify_results):
    names = [r.name for r in verify_results]
    assert len(set(names)) == len(names)
    # one criterion per check, and no criterion without a check
    assert {r.criterion for r in verify_results} == set(range(1, 12))


def test_suite_names():
    assert SUITES == ("paper", "properties", "all")
    with pytest.raises(ValueError):
        run_suite("everything")


def test_arc_dimension_check_fails_on_a_wrong_class(monkeypatch):
    # one affine dimension too many: the class and its dimension hint grow
    # together, so only a dimension from the brute-force route sees it
    real = arcs.arc_class
    monkeypatch.setattr(arcs, "arc_class", lambda germ, n, sign:
                        affine_product(real(germ, n, sign), 1))
    rec = _Recorder()
    _arc_checks(rec)
    results = {r.name: r for r in rec.results}
    check = results["arc class degree equals arc space dimension"]
    assert check.passed is False
    assert "first x^1 n=1 sign +: degree 1, dimension 0" in check.detail


def test_a_faulty_arc_expansion_fails_only_its_case(monkeypatch):
    # a ConstraintMismatch at one (N, n) is that case's failure, and the
    # rest of the suite still runs and passes
    real = arcs.symbolic_constraint_check

    def faulty(germ, n):
        if (germ.exponent, n) == (2, 4):
            raise ConstraintMismatch("t^4 condition is not a_2^2")
        return real(germ, n)

    monkeypatch.setattr(arcs, "symbolic_constraint_check", faulty)
    failed = [r for r in run_suite("properties") if not r.passed]
    assert [r.name for r in failed] == [
        "arc conditions reduce to the triangular system (N<=5, n<=12)"]
    assert failed[0].detail == ("1 failing, first x^2 n=4: "
                                "t^4 condition is not a_2^2")


@pytest.mark.parametrize("function,check,case", [
    ("equivariant_cohomology", "Poincare duality on curated closed complexes",
     "point at n=0"),
    ("plain_homology", "negative degrees equal the homology of the fixed set",
     "point at n=-1"),
    ("plain_homology", "Kunneth rule on curated products",
     "swapped pair x trivial S^1 at n=0"),
], ids=["duality", "negative-tail", "kunneth"])
def test_homology_law_names_its_first_failing_case(monkeypatch, function,
                                                   check, case):
    # one class too many in degree 0
    real = getattr(homology, function)
    monkeypatch.setattr(homology, function,
                        lambda x, n: real(x, n) + (n == 0))
    rec = _Recorder()
    _homology_laws(rec)
    result = {r.name: r for r in rec.results}[check]
    assert result.passed is False
    assert f"first {case}:" in result.detail
