"""The built-in suites must be clean on a correct build."""

import pytest

from z2beta import arcs
from z2beta.calculus import affine_product
from z2beta.verify import SUITES, _arc_checks, _Recorder, run_suite


@pytest.fixture(scope="module")
def paper_results():
    return run_suite("paper")


@pytest.fixture(scope="module")
def property_results():
    return run_suite("properties")


def test_paper_suite_passes(paper_results):
    failed = [r for r in paper_results if not r.passed]
    assert paper_results and not failed, failed


def test_property_suite_passes(property_results):
    failed = [r for r in property_results if not r.passed]
    assert property_results and not failed, failed


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
    results = {r.name: r.passed for r in rec.results}
    assert results["arc class degree equals arc space dimension"] is False
