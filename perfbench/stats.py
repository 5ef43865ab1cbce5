"""Order statistics used by the benchmark and its reports."""

from __future__ import annotations

import math
import statistics

TAIL_CANDIDATES = (50, 90, 99, 99.9)


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolating between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of n samples beyond it."""
    ok = [q for q in TAIL_CANDIDATES if n - math.ceil(n * q / 100) >= 10]
    return max(ok) if ok else None


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size): the growth exponent."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
