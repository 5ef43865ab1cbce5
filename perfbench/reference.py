"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared machine the same CLI run can take twice as long a few minutes
later.  ``run.py`` times this kernel between operations and scales its
throughput and latencies to the speed at which the kernel takes ``NOMINAL_S``.
The kernel does the kinds of work the package does (lists of tuples built
and dropped, so the collector runs; modular powers and gcds) and never
imports ``lensbordism``, so no change to the package can change it.
"""

from __future__ import annotations

import time
from math import gcd

NOMINAL_S = 0.12  # kernel time that defines the reference machine speed
# Runs per timing: one run is short enough that the machine's jitter moves
# it by a third; more runs per timing follow the slower drift better.
RUNS = 3
# How much the package's times move with the kernel's: across 10-run sets,
# log(wall time) against log(kernel time) had a slope of 0.2 to 0.7, about
# 0.5 on most workloads.  Times are scaled by slowdown ** SENSITIVITY.
SENSITIVITY = 0.5
_PRIMES = (19997, 20011, 20021, 20023, 20029, 20047)


def kernel() -> int:
    total = 0
    for p in _PRIMES:
        roots: list[list[int]] = [[] for _ in range(p)]
        for k in range(1, p):
            roots[k * k % p].append(k)
        total += len(tuple(tuple(r) for r in roots)[1])
    for m in range(3, 760, 2):
        for r in range(m):
            if gcd(r - 1, m) == 1 and pow(r, 3, m) == 1:
                total += 1
    return total


def timings() -> list[float]:
    """Wall times of RUNS back-to-back runs of the kernel."""
    out = []
    for _ in range(RUNS):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
