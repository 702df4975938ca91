"""A run's set-up in a fresh interpreter; run.py times it for setup_s.

    python3 bench/start.py zeta_series 1

Imports z2beta from src/, reads data/, generates the inputs from the seed
and builds them, then prints "ready": the point where a run sends its first
job.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from workloads import WORKLOADS, set_up  # noqa: E402

if __name__ == "__main__":
    set_up(WORKLOADS[sys.argv[1]], int(sys.argv[2]), BENCH.parent)
    print("ready", flush=True)
