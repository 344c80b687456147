"""Profile the timed ops of one workload with cProfile.

Prints the functions with the most self time, so a change can name the
layer it speeds up.  Checks run outside the profiler, as in the benchmark.
cProfile slows every Python call but not native code, so take the
proportions as pointers and measure with ``run.py``.

    python3 perfbench/profile_workload.py --workload bulk_stream --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import time

import run
import workloads


def profile(name: str, seed: int, seconds: float) -> pstats.Stats:
    workdir = run.OUT / f"profile-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    profiler = cProfile.Profile()
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        wl.warm_up()
        deadline = time.perf_counter() + seconds
        j = 0
        while time.perf_counter() < deadline:
            a = wl.args(j)
            wl.check(a, profiler.runcall(wl.run, a))
            j += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pstats.Stats(profiler)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    profile(args.workload, args.seed, args.seconds).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
