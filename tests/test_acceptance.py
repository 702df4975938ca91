"""Acceptance criteria 1-11, one test each.

``z2beta verify`` asserts every vector and law once and tags each check
with the criterion it serves (the ``z2beta.verify`` docstring maps them).
A criterion passes when it has checks and all of them passed; each test
prints a single pass/fail line.  Criterion 8 checks the sign identity
Z_f = (u-1) * Z^G_{f,+} where it holds, on the nonnegative germs (those
with a vanishing minus zeta), and on the sign-changing x, x^3, x^5 requires
the refusal at exactly T^N, with both sides taken from the arc oracle.
"""


def _conclude(results, criterion: int, title: str):
    checks = [r for r in results if r.criterion == criterion]
    failures = [f"{r.name}: {r.detail}" for r in checks if not r.passed]
    print(f"[{'FAIL' if failures else 'PASS'}] criterion {criterion}: {title}")
    assert checks, f"criterion {criterion} has no checks"
    assert not failures, "; ".join(failures)


def test_criterion_1_atom_values(verify_results):
    _conclude(verify_results, 1, "atom values")


def test_criterion_2_homology_tables(verify_results):
    _conclude(verify_results, 2, "homology tables")


def test_criterion_3_series_bridge(verify_results):
    _conclude(verify_results, 3,
              "series equals atom class on curated complexes")


def test_criterion_4_negative_tail(verify_results):
    _conclude(verify_results, 4,
              "negative degrees equal fixed-set homology")


def test_criterion_5_kunneth_and_duality(verify_results):
    _conclude(verify_results, 5, "Kunneth and duality")


def test_criterion_6_curve_variants(verify_results):
    _conclude(verify_results, 6, "curve example variants")


def test_criterion_7_zeta_reproduction(verify_results):
    _conclude(verify_results, 7, "zeta closed forms for x^2 + y^4")


def test_criterion_8_sign_identity(verify_results):
    _conclude(verify_results, 8, "sign identity on x^2+y^4 and x^N, N=1..5")


def test_criterion_9_oracle_agreement(verify_results):
    _conclude(verify_results, 9,
              "oracle vs formula with divergence report")


def test_criterion_10_nonequivariant_specialization(verify_results):
    _conclude(verify_results, 10,
              "trivial-group projection matches the naive zeta")


def test_criterion_11_property_suites(verify_results):
    _conclude(verify_results, 11, "property suites")
