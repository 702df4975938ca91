"""The golden canonical-text corpus: commands, rendering and regeneration.

Each command of ``COMMANDS`` runs in-process through ``z2beta.cli.main``
with the repository root as the working directory, so ``data/...`` paths
and the bytes do not depend on where the tests start.  Its exit code,
stdout and stderr go to one file under ``tests/golden/``;
``tests/test_golden.py`` compares those bytes.  A change that alters a
printed value regenerates the corpus and names every changed file:

    PYTHONPATH=src python tests/regenerate_golden.py

With ``--check`` it rewrites nothing: it prints every corpus file whose
bytes differ from a fresh render, is missing or is stale, and exits 1 if
there is any.  It needs no pytest, so it runs on every interpreter.

``REFUSALS`` holds one command per class of refused input, each printing
one ``error:`` line: the complex checks, the resolution fields, the
expression language and the degree range of ``homology``.  Their small
JSON inputs are under ``tests/refusals/``.  Argparse usage errors stay
out, since their wording differs across the supported Python versions.
``verify --suite all``, whose property half is slow and prints fixed
strings, is not a corpus command: its stdout alone goes to
``tests/verify_suite_all.txt``, which CI compares on every interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shlex
from pathlib import Path

from z2beta.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
VERIFY_ALL = ROOT / "tests" / "verify_suite_all.txt"
X2Y4 = "data/x2y4_resolution.json"
DATA = [path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.glob("data/*.json"))]

EXPRESSIONS = [
    "lift(u^2 + 1)", "lift(2u^3 - 1)",
    "custom(u^2/(u - 1), 1, u)", "custom(1/(u + 1), 1, 1)",
    "blowup(affine(2), point(), sphere(1,free))",
    "blowup(point(), point(), point())",
    "quotient(sphere(2,free))", "quotient(point())",
    "curve(both_negated)", "curve(y_negated)", "curve(x_negated)",
    "affprod(sphere(1,fixed), 3)", "affprod(sphere(0,free), 1)",
    "union(point(), sphere(2,trivial))", "union(quotient(pair()), point())",
    "union(point(),",
]

REFUSALS = [
    *(["homology", f"tests/refusals/complex_{name}.json"]
      for name in ("unknown_cell", "face_dimension", "sigma_involution",
                   "boundary_squared", "sigma_commute")),
    *(["zeta", f"tests/refusals/resolution_{name}.json"]
      for name in ("ambient_dim", "divisors", "strata", "divisor_entry",
                   "divisor_id", "divisor_N", "divisor_nu", "stratum_I",
                   "stratum_m", "stratum_base", "stratum_cov_plus",
                   "stratum_cov_poly", "stratum_cov_minus",
                   "unknown_divisor", "wrong_gcd")),
    ["eval", "nosuch()"],
    ["eval", "point(1)"],
    ["eval", "lift(u^1025)"],
    ["eval", f"lift({'9' * 1001})"],
    ["homology", "data/s1_antipodal.json", "--range=0..1031"],
    ["homology", "data/s1_antipodal.json", "--range=3"],
]

README = [
    ["eval", "diff(sphere(1,fixed), point())"],
    ["eval", "curve(both_negated)"],
    ["eval", "point()", "--expand", "3"],
    ["homology", "data/s1_antipodal.json", "--series"],
    ["homology", "data/s2_trivial.json", "--range=-4..3"],
    ["zeta", X2Y4, "--sign", "+"],
    ["zeta", X2Y4, "--sign", "naive", "--expand", "8"],
    ["oracle", "2", "--order", "8"],
    ["oracle", "2", "--order", "8", "--compare-dl"],
    ["verify", "--suite", "paper"],
]


def _commands() -> list[list[str]]:
    found = [["verify", "--suite", "paper"]]
    for sign in ("+", "-", "naive"):
        for expand in (["--expand", "96"], ["--expand"], []):
            found.append(["zeta", X2Y4, "--sign", sign, *expand])
    for n in range(1, 9):
        found.append(["oracle", str(n), "--order", "48", "--compare-dl"])
        found.append(["oracle", str(n), "--sign", "-", "--order", "24"])
    for path in DATA:
        found.append(["homology", path])
        found.append(["homology", path, "--range=-6..4", "--series"])
    found.extend(README)
    for expression in EXPRESSIONS:
        for expand in (["--expand", "5"], ["--expand", "0"], []):
            found.append(["eval", expression, *expand])
    found.extend(REFUSALS)
    unique = []
    for argv in found:
        if argv not in unique:
            unique.append(argv)
    return unique


COMMANDS = _commands()


def slug(argv: list[str]) -> str:
    """The corpus file name of a command; a word longer than 64 characters
    is named by its first 16 and its length."""
    words = [re.sub(r"[^A-Za-z0-9.]+", "-", arg.replace("+", "plus"))
             .strip("-") or "minus" for arg in argv]
    words = [w if len(w) <= 64 else f"{w[:16]}-{len(w)}-chars" for w in words]
    return "_".join(words) + ".txt"


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``z2beta argv``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str]) -> bytes:
    """The exit code, stdout and stderr of ``z2beta argv``, as corpus bytes."""
    code, out, err = run(argv)
    text = (f"$ z2beta {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out}--- stderr\n{err}")
    return text.encode("utf-8")


def expected() -> dict[Path, bytes]:
    """The bytes of every corpus file and of ``verify --suite all``'s
    stdout, rendered now."""
    names = {slug(argv): argv for argv in COMMANDS}
    if len(names) != len(COMMANDS):
        raise SystemExit("two commands share a corpus file name")
    files = {GOLDEN / name: render(argv) for name, argv in names.items()}
    files[VERIFY_ALL] = run(["verify", "--suite", "all"])[1].encode("utf-8")
    return files


def regenerate() -> None:
    """Rewrite the corpus, one file per command with stale files removed,
    and the stdout of ``verify --suite all``."""
    GOLDEN.mkdir(exist_ok=True)
    files = expected()
    for stale in set(GOLDEN.glob("*.txt")) - set(files):
        stale.unlink()
    for path, data in files.items():
        path.write_bytes(data)


def check() -> int:
    """Compare the committed files with fresh renders, print each differing,
    missing or stale one, and return 1 if there is any, else 0."""
    files = expected()
    faults = [f"stale: {path.relative_to(ROOT)}"
              for path in sorted(set(GOLDEN.glob("*.txt")) - set(files))]
    for path, data in files.items():
        if not path.exists():
            faults.append(f"missing: {path.relative_to(ROOT)}")
        elif path.read_bytes() != data:
            faults.append(f"differs: {path.relative_to(ROOT)}")
    print("\n".join(faults) or f"{len(files)} files match")
    return 1 if faults else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the committed files instead of "
                             "rewriting them; exit 1 on any difference")
    if parser.parse_args().check:
        raise SystemExit(check())
    regenerate()
