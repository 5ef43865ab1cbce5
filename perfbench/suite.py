"""Run every workload over several seeds, round-robin, and summarise.

    python3 perfbench/suite.py --seeds 10 --out perfbench/results/NAME.json

Each run is the command of BENCHMARK.json in its own process, exactly as
it is run to gate a change.  Workloads take turns (seed 1 of each, then
seed 2 of each, ...), so drift on a shared machine lands on all of them
evenly.  For each end-to-end metric the summary gives the median of the
runs, the first and third quartile, their distance as a share of the
median (the spread) and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import machine
from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run([*spec["command"], *args], cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    notes = next((json.loads(line[6:]) for line in lines if line.startswith("notes ")), {})
    return {"workload": workload, "seed": seed, "wall_s": wall, "notes": notes,
            "result": json.loads(lines[-1])}


def summarise(spec: dict, runs: list[dict], trace: int) -> dict:
    names = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        rows = {}
        for m in names:
            values = [res["metrics"][m["name"]]["value"] for res in mine]
            row = {"median": statistics.median(values), "unit": m["unit"], "runs": len(values)}
            if len(values) >= 2 and not trace:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=spread(values), bound=m["bound"])
            rows[m["name"]] = row
        attempted = sum(res["attempted"] for res in mine)
        failed = sum(res["failed"] for res in mine)
        rows["error_rate"] = {"median": failed / attempted, "unit": "ratio", "attempted": attempted}
        out[workload] = rows
    return out


def report(summary: dict) -> None:
    for workload, rows in summary.items():
        print(f"\n{workload}")
        for name, row in rows.items():
            line = f"  {name:44s} {row['median']:12.6g} {row['unit']}"
            if "spread" in row:
                flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
                line += (f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}"
                         f"  bound {row['bound']}  {flag}")
            print(line)
    dense, par = summary.get("lemma5-dense"), summary.get("lemma5-parallel")
    if dense and par and "items_per_s" in dense:
        base = dense["items_per_s"]["median"]
        print(f"\nspeed-up of --jobs 2 over --jobs 1: {par['items_per_s']['median'] / base:.3f}"
              f" (base: lemma5-dense, {base:.6g} primes/s)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=1, help="seeds 1..N for every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    ns = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    host = machine()
    print(f"machine {json.dumps(host)}")
    runs = []
    for seed in range(1, ns.seeds + 1):
        for workload in workloads:
            run = run_once(spec, workload, seed, ns.trace)
            res = run["result"]
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()) if not ns.trace else ""
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s, {res['failed']}/{res['attempted']} failed {values}",
                  flush=True)
            runs.append(run)
    summary = summarise(spec, runs, ns.trace)
    report(summary)
    if ns.out:
        doc = {"label": ns.label, "machine": host, "run_seconds": spec["run_seconds"],
               "trace": ns.trace, "summary": summary, "runs": runs}
        Path(ns.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
