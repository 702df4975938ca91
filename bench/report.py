"""Run workloads over several seeds and print every end-to-end metric by
name and unit.

    python3 bench/report.py                      # all workloads, seed 1
    python3 bench/report.py --seeds 1-10 --workloads zeta_series

Each run is a separate untraced ``run.py`` process of ``run_seconds``, one
after another.  For each workload and metric the table gives the median over
seeds and the spread: the distance between the first and third quartiles as
a share of the median (``statistics.quantiles(values, n=4)``), next to the
bound BENCHMARK.json allows.  The job latencies and the checks' share of
``wall_s`` from the summary line follow, unbounded, and the fail ratio
(failed jobs over attempted jobs) heads each workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Unbounded figures from the summary line, printed beside the bounded ones.
SUMMARY = (("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
           ("check_share", "ratio"))


def seed_list(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    *_, summary, result = done.stdout.strip().split("\n")
    return json.loads(summary)["summary"], json.loads(result)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1", help="a seed or a range a-b")
    args = parser.parse_args(argv)

    for workload in args.workloads:
        runs = [run_once(workload, seed, config["run_seconds"])
                for seed in seed_list(args.seeds)]
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        print(f"{workload}: {len(runs)} run(s), fail_ratio "
              f"{failed / attempted:.4g} ({failed}/{attempted})")
        rows = [(spec["name"], spec["unit"], spec["bound"],
                 [r["metrics"][spec["name"]]["value"] for _, r in runs])
                for spec in config["end_to_end"]]
        rows += [(name, unit, None, [s[name] for s, _ in runs])
                 for name, unit in SUMMARY]
        print(f"  (job_tail_ms is p{runs[0][0]['job_tail_percentile']:.4g} "
              f"of {runs[0][0]['jobs_per_pass']} jobs per pass)")
        for name, unit, bound, values in rows:
            line = f"  {name:52s} {statistics.median(values):14.6g} {unit:6s}"
            if len(values) >= 2:
                line += f" spread {spread(values):.4f}"
                line += f" (bound {bound})" if bound else " (not bounded)"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
