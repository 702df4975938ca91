"""Shared fixtures and checks."""

import pytest

import z2beta.homology as homology
from z2beta.errors import ToolkitError
from z2beta.verify import run_suite


@pytest.fixture(scope="session")
def verify_results():
    """Every built-in verify check, run once per test session."""
    return run_suite("all")


def assert_squares_to_zero(x):
    """Reference for the total differential of ``x``: D(D e_i) = 0 for every
    column i, with D applied one bit position at a time.  The constructor's
    invariants imply it, so a failure is a fault of the column builder."""
    columns = x._chains.columns
    for i, col in enumerate(columns):
        image, j = 0, 0
        while col:
            if col & 1:
                image ^= columns[j]
            col >>= 1
            j += 1
        assert image == 0, f"D(D e_{i}) != 0"


def reference_report(x):
    """Reference for the algebraic checks of ``validate_complex``, on sets of
    ids: boundary^2 = 0 and sigma commuting with the boundary, cell by cell
    in the complex's order.  It needs the structural checks passed: every
    face and sigma image a cell, and sigma an involution."""
    report = []
    for cell in x.cells:
        # d(d(cell)) = 0 over F2
        second = set()
        for f in x.boundary.get(cell, ()):
            second.symmetric_difference_update(x.boundary.get(f, ()))
        if second:
            report.append(f"boundary of boundary of {cell!r} is {sorted(second)}")
        # sigma commutes with the boundary
        mapped = {x.sigma[f] for f in x.boundary.get(cell, ())}
        if mapped != set(x.boundary.get(x.sigma[cell], ())):
            report.append(f"sigma does not commute with boundary at {cell!r}")
    return report


def build_against_reference(build, *args):
    """``build(*args)``, which constructs one complex, or None if it raises
    a ToolkitError; and whether the structural checks passed, so that
    ``validate_complex`` built the chain data.  If they did, its report
    must be ``reference_report`` string for string, in the same order, and
    the complex is refused with exactly that report or accepted when it is
    empty."""
    reached = []

    class Recording(homology._ChainData):
        def __init__(self, x):
            super().__init__(x)
            reached.append(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_ChainData", Recording)
        try:
            built, message = build(*args), None
        except ToolkitError as exc:
            built, message = None, str(exc)
    if reached:
        [x] = reached
        expected = reference_report(x)
        assert homology.validate_complex(x) == expected
        assert message == ("invalid complex: " + "; ".join(expected)
                           if expected else None)
    return built, bool(reached)
