"""Shared fixtures and checks."""

import pytest

from z2beta.verify import run_suite


@pytest.fixture(scope="session")
def verify_results():
    """Every built-in verify check, run once per test session."""
    return run_suite("all")


def assert_squares_to_zero(x):
    """Reference for the total differential of ``x``: D(D e_i) = 0 for every
    column i, with D applied one bit position at a time.  The constructor's
    invariants imply it, so a failure is a fault of the column builder."""
    columns = x._chain_data().columns
    for i, col in enumerate(columns):
        image, j = 0, 0
        while col:
            if col & 1:
                image ^= columns[j]
            col >>= 1
            j += 1
        assert image == 0, f"D(D e_{i}) != 0"
