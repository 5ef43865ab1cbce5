"""Growth exponents of lemma5 and groups: not gated, for the record.

    python3 perfbench/sweep.py [--out FILE]

Times ``lensbordism.cli.main`` in-process (interpreter start excluded) at
three sizes per command, median of three runs, checks every output, and
fits the slope of log(time) against log(size).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import checks
import run
from stats import loglog_slope

REPEATS = 3
SIZES = {"lemma5": (2_500, 5_000, 10_000), "groups": (750, 1_500, 3_000)}


def argv_for(command: str, n: int) -> list[str]:
    if command == "lemma5":
        return ["lemma5", "--min", "5", "--max", str(n), "--jobs", "1", "--format", "json"]
    return ["groups", "--max-order", str(n), "--format", "json"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    ns = ap.parse_args()
    if not (run.SRC / "lensbordism").is_dir():
        print(f"error: no lensbordism package under {run.SRC}", file=sys.stderr)
        return 2
    tally = run.Tally()
    doc = {"machine": run.machine(), "repeats": REPEATS, "commands": {}}
    for command, sizes in SIZES.items():
        times = []
        for n in sizes:
            if command == "lemma5":
                check = run.BatchChecker(lambda report, n=n: checks.check_lemma5(report, 5, n))
            else:
                check = run.BatchChecker(lambda report, n=n: checks.check_groups(report, n))
            result = run.child_run({"argvs": [argv_for(command, n)] * REPEATS}, tally, check)
            times.append(statistics.median(result["latencies"]))
            print(f"{command} {n}: {times[-1]:.4g} s")
        slope = loglog_slope(sizes, times)
        print(f"{command}: time grows as N^{slope:.2f}")
        doc["commands"][command] = {"sizes": sizes, "median_s": times, "exponent": slope}
    print(f"error_rate = {tally.failed / tally.attempted:.6g} ({tally.failed} failed of {tally.attempted})")
    if ns.out:
        Path(ns.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
