"""Run one benchmark workload against the lensbordism CLI from a checkout.

    python3 perfbench/run.py --workload lemma5-dense --seed 1 --seconds 25 --trace 0

Every operation runs the package from ``src/`` of the checkout in a fresh
interpreter, one at a time (a closed loop with one client), and every
output is checked by ``checks.py``.  With ``--trace 0`` the end-to-end
metrics are measured, with times scaled to a reference machine speed
(``reference.py``); with ``--trace 1`` the operations run in-process,
once plain and once with spans around each layer, and the per-layer
metrics are reported.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path

import checks
import inputs
import reference
from stats import percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("lemma5-dense", "lemma5-parallel", "groups-enum", "queries")
SETUP_RUNS = 5  # set-up samples per run, after one warm-up that fills __pycache__
MIN_OPS = 3  # fewest CLI runs a batch workload measures, whatever --seconds says
MIN_BLOCKS = 10  # fewest query blocks: 100 queries, so p90 has 10 samples beyond it
BLOCK_QUERIES = sum(count for _, count in inputs.QUERY_BLOCK)
REFERENCE_EVERY = 3  # query blocks between two timings of the reference kernel
MIN_PAIRS = 3  # fewest plain/traced pairs of a traced run, whatever --seconds says
CHILD_TIMEOUT = 150
SETUP_CODE = (
    "import time, lensbordism.cli as cli; cli.build_parser(); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


class Child:
    """``python3 args`` on the checkout's package, in its own process group,
    so the timeout also ends any workers it started.  Its stderr passes
    through; stdin and stdout are lines of text.
    """

    def __init__(self, args: list[str], first_line: str = "") -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.timed_out = False
        self.timer = threading.Timer(CHILD_TIMEOUT, self._kill, (args[:4],))
        self.timer.daemon = True
        self.timer.start()
        if first_line:
            self.send(first_line)

    def _kill(self, what: list[str]) -> None:
        self.timed_out = True
        print(f"timeout: {what}", file=sys.stderr)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def send(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass

    def ask(self, line: str) -> str:
        """Send one line and read one line back ("" if the child ended)."""
        self.send(line)
        return self.proc.stdout.readline()

    def finish(self) -> tuple[int | None, str, float]:
        """Close stdin and wait: (exit code or None on timeout, the rest of
        stdout, peak RSS in MB of the child and the descendants it reaped)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if self.timed_out else self.proc.returncode
        return code, out, usage.ru_maxrss / 1024


def spawn(args: list[str], stdin: str = "") -> tuple[int | None, str, float]:
    """Run ``python3 args`` to the end: (exit code, stdout, peak RSS in MB)."""
    return Child(args, stdin).finish()


def setup_seconds() -> float:
    """Median time from interpreter spawn until the package is imported and
    the parser built."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        code, out, _ = spawn(["-c", SETUP_CODE])
        if code != 0:
            raise RuntimeError("set-up run failed")
        if i:
            samples.append(float(out) - start)
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed; a failure is a non-zero exit, an
    output that fails its check, or a query that raised."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def record(self, code: int | None, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0 or problems:
            self.failed += 1
            for line in problems[:5]:
                print(f"check failed: {line}", file=sys.stderr)


def workload_spec(name: str, seed: int) -> tuple[list[str], int, Callable]:
    """(argv, size, check) for a batch workload; check(report) -> problems."""
    if name.startswith("lemma5"):
        hi = inputs.lemma5_bound(seed)
        jobs = "2" if name == "lemma5-parallel" else "1"
        argv = ["lemma5", "--min", "5", "--max", str(hi), "--jobs", jobs, "--format", "json"]
        return argv, hi, lambda report: checks.check_lemma5(report, 5, hi)
    hi = inputs.groups_bound(seed)
    reference = []

    def check(report):
        if not reference:
            reference.extend(checks.groups_reference(hi))
        return checks.check_groups(report, hi, reference)

    return ["groups", "--max-order", str(hi), "--format", "json"], hi, check


class BatchChecker:
    """Checks each distinct output once; every output must match ``expect``
    (the digest of the entries of a reference run) once it is set."""

    def __init__(self, check: Callable[[dict], list[str]]) -> None:
        self.check = check
        self.expect: str | None = None
        self.digest: str | None = None  # of the last correct output
        self.verdicts: dict[str, list[str]] = {}
        self.items = 0

    def __call__(self, argv: list[str], code: int | None, out: str) -> list[str]:
        if code != 0:
            return []
        try:
            report = json.loads(out)
            digest = checks.entries_digest(report)
            if digest not in self.verdicts:
                self.verdicts[digest] = self.check(report)
            self.items = len(report["entries"])
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed report: {exc!r}"]
        problems = list(self.verdicts[digest])
        if self.expect is not None and digest != self.expect:
            problems.append("entries differ from the --jobs 1 run")
        self.digest = None if problems else digest
        return problems


def with_jobs(argv: list[str], jobs: str) -> list[str]:
    i = argv.index("--jobs") + 1
    return [*argv[:i], jobs, *argv[i + 1:]]


def cli_run(argv: list[str]) -> tuple[int | None, str, float, float]:
    """(exit code, stdout, wall time, peak RSS in MB) of one CLI run."""
    start = time.perf_counter()
    code, out, rss = spawn(["-m", "lensbordism", *argv])
    return code, out, time.perf_counter() - start, rss


def measure_batch(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    argv, size, check = workload_spec(name, seed)
    checker = BatchChecker(check)
    notes = {}
    if name == "lemma5-parallel":
        # One untimed --jobs 1 run: the entries must be byte-identical to
        # it, and its wall time is the base of the reported speed-up.
        code, out, base, _ = cli_run(with_jobs(argv, "1"))
        tally.record(code, checker(argv, code, out))
        checker.expect = checker.digest
        notes["base_s"] = base
    walls, rates, rss, reference_s = [], [], [], []
    start = time.perf_counter()
    while True:
        reference_s += reference.timings()
        code, out, wall, peak = cli_run(argv)
        tally.record(code, checker(argv, code, out))
        walls.append(wall)
        rates.append(checker.items / wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_OPS and elapsed + statistics.median(walls) > seconds:
            break
    if "base_s" in notes:
        notes["speedup"] = notes["base_s"] / statistics.median(walls)
    notes.update(size=size, items=checker.items, ops=len(walls))
    return {"items_per_s": statistics.median(rates), "latencies": walls,
            "peak_rss_mb": max(rss), "reference_s": reference_s, "notes": notes}


def check_query(argv: list[str], code: int | None, out: str) -> list[str]:
    if code != 0:
        return []
    try:
        return checks.check_query(argv, json.loads(out))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def record_outputs(part: dict, tally: Tally, check) -> None:
    """check(argv, code, out) every output of one child.py result line."""
    for argv, text, rc in zip(part["argvs"], part["outputs"], part["codes"]):
        tally.record(rc, check(argv, rc, text))


def child_run(job: dict, tally: Tally, check=check_query, blocks: int = 0) -> dict:
    """Run a job in child.py to the end (``blocks`` query blocks for a
    ``seed`` job) and check every output.  The result holds the argvs,
    outputs, codes and latencies, and the per-layer metrics of a traced job."""
    stdin = json.dumps(job) + (f"\n{blocks}" if blocks else "")
    code, out, _ = spawn([str(BENCH / "child.py")], stdin)
    result = {"argvs": [], "outputs": [], "codes": [], "latencies": []}
    if code != 0:
        tally.record(code, ["in-process runner failed"])
        return result
    for line in out.splitlines():
        part = json.loads(line)
        if "metrics" in part:
            result["metrics"] = part["metrics"]
            continue
        record_outputs(part, tally, check)
        for key, values in result.items():
            values.extend(part[key])
    return result


def measure_queries(seed: int, seconds: float, tally: Tally) -> dict:
    child = Child([str(BENCH / "child.py")], json.dumps({"seed": seed}))
    argvs, lat, reference_s = [], [], []
    start = time.perf_counter()
    while len(argvs) < MIN_BLOCKS * BLOCK_QUERIES or time.perf_counter() - start < seconds:
        # The kernel runs in this process while the child waits, idle, for
        # its next request: the package's heap cannot slow the kernel.
        reference_s += reference.timings()
        try:
            part = json.loads(child.ask(str(REFERENCE_EVERY)))
        except ValueError:  # the child ended; finish() reports how
            break
        record_outputs(part, tally, check_query)
        argvs += part["argvs"]
        lat += part["latencies"]
    code, _, rss = child.finish()
    if code != 0:
        tally.record(code, ["in-process runner failed"])
    seen, reused, generator_pair = set(), 0, 0
    for argv in argvs:
        if argv[0] == "lemma5":
            generator_pair += 1
            reused += argv[2] in seen
            seen.add(argv[2])
    notes = {
        "queries": len(lat),
        "reuse_share": reused / max(generator_pair, 1),
    }
    return {"items_per_s": len(lat) / sum(lat), "latencies": lat, "peak_rss_mb": rss,
            "reference_s": reference_s, "notes": notes}


def measure(name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    tally = Tally()
    setup = setup_seconds()
    if name == "queries":
        m = measure_queries(seed, seconds, tally)
    else:
        m = measure_batch(name, seed, seconds, tally)
    lat_ms = [x * 1000 for x in m["latencies"]]
    # p90 needs 100 samples to have ten beyond it.  A batch run has fewer
    # than 20 CLI runs, where no percentile has that many beyond it; there
    # the tail metric falls back to the median.
    tail = tail_percentile(len(lat_ms))
    raw = {
        "items_per_s": m["items_per_s"],
        "query_p50_ms": percentile(lat_ms, 50),
        "query_p90_ms": percentile(lat_ms, 90 if tail and tail >= 90 else 50),
    }
    # Times scaled to the machine speed at which the reference kernel takes
    # reference.NOMINAL_S: `slowdown` is 2 when the machine runs at half that.
    # The mean, not the median: the kernel's times fall into a fast and a
    # slow band, and a run's wall time follows the share of time spent in
    # each, which the median jumps across.
    slowdown = statistics.fmean(m["reference_s"]) / reference.NOMINAL_S
    scale = slowdown ** reference.SENSITIVITY
    metrics = {
        key: value * scale if key == "items_per_s" else value / scale
        for key, value in raw.items()
    }
    # Set-up is timed in the first second of a run, the kernel across all
    # of it, so scaling set-up by the run's slowdown only adds noise.
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = m["peak_rss_mb"]
    m["notes"].update(
        latency_samples=len(lat_ms), tail_percentile=tail,
        slowdown=slowdown, scale=scale, reference_samples=len(m["reference_s"]), unscaled=raw,
    )
    return tally, metrics, m["notes"]


def trace(name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Plain and traced in-process runs of the same work, in pairs."""
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{name}-seed{seed}.json"
    if name == "queries":
        job, check, blocks = {"seed": seed}, check_query, MIN_BLOCKS
    else:
        argv, _, checker = workload_spec(name, seed)
        job = {"argvs": [with_jobs(argv, "1") if "--jobs" in argv else argv]}
        check, blocks = BatchChecker(checker), 0
    jobs = {"plain": job, "traced": {**job, "trace": True, "spans_out": str(spans_out)}}
    runs, pairs = [], 0
    start = time.perf_counter()
    while True:
        pairs += 1
        # Plain and traced runs take turns at going first, so a drift of the
        # machine's speed during a run of pairs does not pass for tracing cost.
        order = ("plain", "traced") if pairs % 2 else ("traced", "plain")
        pair = {kind: child_run(jobs[kind], tally, check, blocks) for kind in order}
        plain, traced = pair["plain"], pair["traced"]
        if "metrics" in traced and plain["latencies"]:
            m = dict(traced["metrics"])
            wall, untraced = sum(traced["latencies"]), sum(plain["latencies"])
            accounted = sum(m[f"{layer}.self_s"] for layer in ("numtheory", "lens", "groups", "orders", "cli"))
            m.update({
                "trace.wall_s": wall,
                "trace.untraced_wall_s": untraced,
                "trace.overhead_s": wall - untraced,
                "trace.accounted_share": accounted / wall,
            })
            runs.append(m)
        elapsed = time.perf_counter() - start
        if pairs >= MIN_PAIRS and elapsed * (pairs + 1) / pairs > seconds:  # next pair would overrun
            break
    metrics = {key: statistics.median(r[key] for r in runs) for key in runs[0]} if runs else {}
    return tally, metrics, {"pairs": len(runs), "spans": str(spans_out.relative_to(ROOT))}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "lensbordism" / "__init__.py").is_file():
        print(f"error: no lensbordism package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"workload {ns.workload} seed {ns.seed} seconds {ns.seconds} trace {ns.trace}")
    print("machine " + json.dumps(machine()))
    if ns.trace:
        tally, values, notes = trace(ns.workload, ns.seed, ns.seconds)
        names = spec["per_layer"]
    else:
        tally, values, notes = measure(ns.workload, ns.seed, ns.seconds)
        names = spec["end_to_end"]
    if not values:
        print("error: no traced run completed", file=sys.stderr)
        return 1
    lines = [f"{m['name']} = {values[m['name']]:.6g} {m['unit']}" for m in names]
    print("\n".join(lines))
    print("notes " + json.dumps(notes))
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} failed of {tally.attempted} operations)")
    if ns.trace:
        (OUT / f"layers-{ns.workload}-seed{ns.seed}.txt").write_text("\n".join(lines) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
