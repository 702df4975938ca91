"""Run one benchmark workload against the z2beta sources of this checkout.

    python3 bench/run.py --workload zeta_series --seed 1 --seconds 40 --trace 0

One process, one thread, a closed loop: each job is sent when the previous
one has finished.  A pass runs and checks every job of the workload once;
passes repeat while the next one is expected to end within ``--seconds``
(at least one pass runs), each after a fresh in-process set-up.  ``wall_s``
is the mean pass time and job latencies are medians over passes.

``setup_s`` is the mean time, from process start, of a fresh interpreter
running ``start.py`` up to the point of its first job.  These set-ups take
``SETUP_SHARE`` of the run, between passes, one at a time.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``tracing.py``).  The lines before it give the
environment and the details behind the metrics, and the same record is
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402

#: Share of an untraced run spent on fresh-interpreter set-ups.
SETUP_SHARE = 0.2
#: Share of a traced run spent on untraced passes, the base of
#: trace.overhead_ratio.
UNTRACED_SHARE = 1 / 3
#: A job's tail latency is the slowest one that still has this many
#: slower jobs in its pass.
TAIL_GAP = 10


def time_start(workload, seed):
    """Seconds from starting ``start.py`` in a fresh interpreter until it is
    ready for the first job."""
    begin = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH / "start.py"), workload.name, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        ready = child.stdout.readline()
        elapsed = perf_counter() - begin
        _, err = child.communicate()
    if ready != b"ready\n" or child.returncode:
        raise RuntimeError(f"start.py {workload.name} {seed} failed:\n"
                           + err.decode(errors="replace")[-2000:])
    return elapsed


def run_pass(workload, z, jobs, built, check, tracer=None):
    """Run and check every job once; returns (wall_s, latencies, failures,
    check_s), where check_s is the part of wall_s spent in checks."""
    latencies, failures = [], []
    check_s = 0.0
    start = perf_counter()
    for index, (spec, item) in enumerate(zip(jobs, built)):
        if tracer:
            tracer.job = index
            tracer.active = True
        begin = perf_counter()
        try:
            output = workload.run(z, spec, item)
            error = None
        except Exception:  # a job that raises counts as failed
            output, error = None, traceback.format_exc(limit=3)
        latencies.append(perf_counter() - begin)
        if tracer:
            tracer.active = False
        if error is None:
            begin = perf_counter()
            try:
                if not check(spec, output):
                    error = "wrong output"
            except Exception:
                error = "checker raised: " + traceback.format_exc(limit=3)
            check_s += perf_counter() - begin
        if error is not None:
            failures.append((index, spec, error))
    return perf_counter() - start, latencies, failures, check_s


def fits(begin, rounds, budget) -> bool:
    """Whether one more round, as long as the median one so far, ends
    within the budget."""
    return perf_counter() - begin + statistics.median(rounds) <= budget


def tail_index(count: int) -> int:
    return max(0, count - 1 - TAIL_GAP)


def job_stats(latencies):
    ordered = sorted(latencies)
    return (statistics.median(ordered) * 1e3,
            ordered[tail_index(len(ordered))] * 1e3)


def environment(seed, workload, trace):
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "z2beta").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(workload, seed, seconds, trace):
    untraced_budget = seconds * (UNTRACED_SHARE if trace else 1)
    setups, passes, rounds, failures = [], [], [], []
    begin = perf_counter()
    while not rounds or fits(begin, rounds, untraced_budget):
        round_begin = perf_counter()
        # Set-ups keep to SETUP_SHARE of the time so far, so that they sample
        # the host's speed across the whole run, as the passes do.
        while not trace and (not setups or sum(setups)
                             < SETUP_SHARE * (perf_counter() - begin)):
            setups.append(time_start(workload, seed))
        z, inputs, built = set_up(workload, seed, ROOT)
        check = workload.checker(z, inputs)
        wall, latencies, failed, check_s = run_pass(
            workload, z, inputs["jobs"], built, check)
        passes.append((wall, latencies, check_s))
        failures += failed
        rounds.append(perf_counter() - round_begin)
    jobs = inputs["jobs"]

    tracer = None
    traced_walls = []
    if trace:
        tracer = tracing.Tracer()
        tracer.install(z)
        try:
            tracer.phase, tracer.active = "setup", True
            built = workload.build(z, ROOT, inputs)
            tracer.active = False
            begin = perf_counter()
            while not traced_walls or fits(begin, traced_walls,
                                           seconds - untraced_budget):
                tracer.phase = f"pass{len(traced_walls) + 1}"
                wall, _, failed, _ = run_pass(workload, z, jobs, built,
                                              check, tracer)
                traced_walls.append(wall)
                failures += failed
        finally:
            tracer.uninstall()

    walls = [wall for wall, _, _ in passes]
    p50s, tails = zip(*(job_stats(latencies) for _, latencies, _ in passes))
    count = len(jobs)
    attempted = count * (len(passes) + len(traced_walls))
    summary = {
        "end_to_end": {
            # Means, not medians: the host's speed shifts for many seconds
            # at a time, and the mean follows the share of time spent slow
            # where the median jumps between the two speeds.  A traced run
            # makes no set-ups and reports no setup_s.
            "setup_s": statistics.mean(setups) if setups else None,
            "wall_s": statistics.mean(walls),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        # job latencies: reported, but not bounded in BENCHMARK.json
        "job_p50_ms": statistics.median(p50s),
        "job_tail_ms": statistics.median(tails),
        "job_tail_percentile": 100 * (tail_index(count) + 1) / count,
        "jobs_per_pass": count,
        "fail_ratio": len(failures) / attempted,
        # the checks' part of wall_s: the rest is the program's
        "check_share": sum(c for _, _, c in passes) / sum(walls),
        "passes": len(passes),
        "traced_passes": len(traced_walls),
        "setups_s": setups,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
    }
    return summary, tracer, failures, attempted


def per_layer(tracer, summary, env):
    """Per-layer metrics, plus the metrics whose workload recorded no call."""
    metrics, silent = {}, []
    for name, unit, moves in tracing.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.mean(summary["traced_pass_walls_s"]) \
                / summary["end_to_end"]["wall_s"]
        elif name.startswith("src_lines."):
            value = env["src_lines"].get(name[len("src_lines."):], 0)
        else:
            value, calls = tracer.value(name)
            if moves[0][0] == env["workload"] and calls == 0:
                silent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, silent


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "z2beta" / "__init__.py").is_file() \
            or not (ROOT / "data").is_dir():
        print(f"error: {ROOT} holds no z2beta sources (src/z2beta) and data/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, args.workload, args.trace)
    summary, tracer, failures, attempted = measure(
        workload, args.seed, args.seconds, bool(args.trace))

    for index, spec, error in failures[:5]:
        print(f"failed job {index} {json.dumps(spec)[:200]}: {error}",
              file=sys.stderr)
    if args.trace:
        metrics, silent = per_layer(tracer, summary, env)
    else:
        metrics, silent = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in summary["end_to_end"].items()}, []

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "summary": summary, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.span_dump()))
    if silent:
        print("error: traced run recorded no calls on "
              f"{args.workload} for: {', '.join(silent)}", file=sys.stderr)
        return 3

    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
