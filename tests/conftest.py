"""Shared fixtures."""

import pytest

from z2beta.verify import run_suite


@pytest.fixture(scope="session")
def verify_results():
    """Every built-in verify check, run once per test session."""
    return run_suite("all")
