"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py

They run every workload through a traced pass on two seeds, about a minute
in all, so the file is named to stay out of a plain ``pytest`` run of the
package's test suite.
"""

from __future__ import annotations

import copy
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))
CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Counts that depend only on the sizes a workload fixes, never on the seed.
SIZE_DRIVEN = ("zeta.expand_zeta.terms", "zeta.expand_zeta.calls",
               "homology.gf2_rank.max_cols", "homology.gf2_rank.calls",
               "homology.validate_complex.calls",
               "algebra.laurent_expand.calls",
               "arcs.symbolic_constraint_check.calls")


@functools.lru_cache(maxsize=None)
def traced(workload, seed):
    """One untraced and one traced pass of a workload."""
    env = run.environment(seed, workload, 1)
    summary, tracer, failures, _ = run.measure(WORKLOADS[workload], seed,
                                               seconds=0.01, trace=True)
    return env, summary, tracer, failures


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in CONFIG["workloads"])
    assert [m["name"] for m in CONFIG["per_layer"]] \
        == [name for name, *_ in tracing.PER_LAYER]
    assert [m["unit"] for m in CONFIG["per_layer"]] \
        == [unit for _, unit, _ in tracing.PER_LAYER]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    generate = WORKLOADS[workload].generate
    first = json.dumps(generate(7, run.ROOT), sort_keys=True).encode()
    again = json.dumps(generate(7, run.ROOT), sort_keys=True).encode()
    other = json.dumps(generate(8, run.ROOT), sort_keys=True).encode()
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_gives_identical_sizes(workload):
    _, first, first_tracer, first_failures = traced(workload, 1)
    _, second, second_tracer, second_failures = traced(workload, 2)
    assert not first_failures and not second_failures
    assert first["jobs_per_pass"] == second["jobs_per_pass"]
    for name in SIZE_DRIVEN:
        assert first_tracer.value(name) == second_tracer.value(name), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    env, summary, tracer, _ = traced(workload, 1)
    metrics, silent = run.per_layer(tracer, summary, env)
    assert list(metrics) == [m["name"] for m in CONFIG["per_layer"]]
    assert silent == []
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_every_traced_binding_is_replaced():
    z = workloads.import_z2beta()
    tracer = tracing.Tracer()
    tracer.install(z)
    try:
        assert z.arcs.expand_zeta is z.zeta.expand_zeta
        assert z.cli.laurent_expand is z.algebra.laurent_expand
        assert z.verify.laurent_expand is z.algebra.laurent_expand
        assert z.dsl.atom_class is z.calculus.atom_class
    finally:
        tracer.uninstall()
    assert not hasattr(z.arcs.expand_zeta, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_result(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli_session",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    specs = CONFIG["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in specs)
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_command_fails_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    copy_dir = tmp_path / "bench"
    copy_dir.mkdir()
    for path in BENCH.glob("*.py"):
        (copy_dir / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zeta_series",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------------------
# checkers flag wrong answers

def _kind(spec):
    return spec["argv"][0] if isinstance(spec, dict) else spec[0]


def _bump_leaf(output):
    """Change the first int or bool in the output; None when there is none."""
    wrong = copy.deepcopy(output)

    def visit(node):
        if isinstance(node, list):
            for i, item in enumerate(node):
                if isinstance(item, bool):
                    node[i] = not item
                    return True
                if isinstance(item, int):
                    node[i] = item + 1
                    return True
                if visit(item):
                    return True
        return False

    if isinstance(wrong, bool):
        return not wrong
    return wrong if visit(wrong) else None


def _bump_digit(output):
    """Change the first digit of the first text that has one."""
    def bump(text):
        for i, ch in enumerate(text):
            if ch.isdigit():
                return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
        return None

    if isinstance(output, str):
        return bump(output)
    wrong = copy.deepcopy(output)

    def visit(node):
        if isinstance(node, list):
            for i, item in enumerate(node):
                if isinstance(item, str) and bump(item) is not None:
                    node[i] = bump(item)
                    return True
                if visit(item):
                    return True
        return False

    return wrong if isinstance(wrong, list) and visit(wrong) else None


def _flags(check, spec, output):
    try:
        return not check(spec, output)
    except Exception:  # a checker that cannot read the output rejects it
        return True


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_flags_wrong_answers(workload):
    w = WORKLOADS[workload]
    z, inputs, built = run.set_up(w, 5, run.ROOT)
    check = w.checker(z, inputs)
    by_kind = {}
    for spec, item in zip(inputs["jobs"], built):
        if len(by_kind.setdefault(_kind(spec), [])) < 2:
            by_kind[_kind(spec)].append((spec, w.run(z, spec, item)))
    for kind, runs in by_kind.items():
        spec, output = runs[0]
        assert check(spec, output), kind
        leaf = _bump_leaf(output)
        if leaf is not None:
            assert _flags(check, spec, leaf), (kind, "leaf")
        digit = _bump_digit(output)
        if digit is not None and kind != "verify":  # verify's answer is its status
            assert _flags(check, spec, digit), (kind, "digit")
        if len(runs) == 2 and runs[1][1] != output:
            assert _flags(check, spec, runs[1][1]), (kind, "swap")
        assert leaf is not None or digit is not None, kind
