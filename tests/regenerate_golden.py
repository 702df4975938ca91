"""The golden canonical-text corpus: commands, rendering and regeneration.

Each command of ``COMMANDS`` runs in-process through ``z2beta.cli.main``
with the repository root as the working directory, so ``data/...`` paths
and the bytes do not depend on where the tests start.  Its exit code,
stdout and stderr go to one file under ``tests/golden/``;
``tests/test_golden.py`` compares those bytes.  A change that alters a
printed value regenerates the corpus and names every changed file:

    PYTHONPATH=src python tests/regenerate_golden.py

Argparse usage errors stay out, since their wording differs across the
supported Python versions, and so does ``verify --suite all``, whose
property half is slow and prints fixed strings.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
from pathlib import Path

from z2beta.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
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
    unique = []
    for argv in found:
        if argv not in unique:
            unique.append(argv)
    return unique


COMMANDS = _commands()


def slug(argv: list[str]) -> str:
    """The corpus file name of a command."""
    words = [re.sub(r"[^A-Za-z0-9.]+", "-", arg.replace("+", "plus"))
             .strip("-") or "minus" for arg in argv]
    return "_".join(words) + ".txt"


def render(argv: list[str]) -> bytes:
    """The exit code, stdout and stderr of ``z2beta argv``, as corpus bytes."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    text = (f"$ z2beta {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return text.encode("utf-8")


def regenerate() -> None:
    """Rewrite the corpus: one file per command, stale files removed."""
    GOLDEN.mkdir(exist_ok=True)
    names = {slug(argv): argv for argv in COMMANDS}
    if len(names) != len(COMMANDS):
        raise SystemExit("two commands share a corpus file name")
    for stale in set(p.name for p in GOLDEN.glob("*.txt")) - set(names):
        (GOLDEN / stale).unlink()
    for name, argv in names.items():
        (GOLDEN / name).write_bytes(render(argv))


if __name__ == "__main__":
    regenerate()
