"""The fixed reference job that run.py times just before each op.

    python3 perfbench/reference.py   # one job per line read on stdin

The job touches no coordsim code, so no change to the program changes it:
a pure-Python loop, numpy passes over a small in-cache array, and sums over
an array larger than the last-level cache (the binning workload's tables
are too).  Each part takes about 0.1 s on a 2-vCPU x86-64 host.  The job
runs in its own process, so that its arrays do not count in the
benchmark's peak RSS: for each line read on standard input it runs once and
prints its wall time in seconds; it exits at the end of its input.
"""

from __future__ import annotations

import sys
import time

import numpy as np

LOOP_STEPS = 800_000
SMALL_SHAPE, SMALL_PASSES = (16, 1024), 1400
LARGE_SIZE, LARGE_PASSES = 16 * 1024 * 1024, 6  # 128 MiB of float64


def main() -> int:
    small = np.random.default_rng(0).random(SMALL_SHAPE)
    scratch = np.empty_like(small)
    large = np.random.default_rng(1).random(LARGE_SIZE)
    for _ in sys.stdin:
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_STEPS):
            total += i * i % 7
        for _ in range(SMALL_PASSES):
            np.subtract(small, 0.5, out=scratch)
            np.abs(scratch, out=scratch)
            np.log1p(scratch, out=scratch)
            np.add(scratch, small[::-1], out=scratch)
        for _ in range(LARGE_PASSES):
            large.sum()
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
