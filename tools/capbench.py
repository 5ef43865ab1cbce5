"""Time and peak the lensbordism CLI of two source trees, run for run.

    python tools/capbench.py --side parent=../parent --side change=. \\
        --rounds 5 --out BENCH.json \\
        "lemma5 --min 5 --max 100000 --format json" \\
        "LEMMA5_MAX=10000000 lemma5 --min 5 --max 10000000 --format json"

Each case is one CLI argument list, led by any NAME=VALUE caps that are set
on ``lensbordism.cli`` in the launched process only.  Every round runs
each case once on each side, the sides taking turns at going first.  A
run is ``python -c`` on the side's ``src/``, under coreutils ``timeout``,
which a small launcher interpreter forks and waits for with ``os.wait4``:
a child's peak RSS includes the high-water mark of the process that
forked it, so the launcher, not this script, is that process.  Every run
has ``PYTHONDONTWRITEBYTECODE`` unset, and one untimed import per side
writes the bytecode cache before the first timed run, so no timed run
compiles the package.

Per case and side the report gives the median and quartiles of the wall
time and of the peak RSS (of ``timeout``, the CLI and its workers), and
the sha256 of stdout.  The hashes must agree across rounds, sides and
``--jobs`` values; for each ladder of cases that differ only in
``--max`` or ``--max-order`` it fits the growth exponent of the median
wall time and peak.  The exit status is 1 when a run failed or two
hashes differ, 0 otherwise; the JSON is written either way.  Malformed
input (a round count below 1, a side that is not NAME=TREE, a repeated
side name, a tree without ``src/lensbordism/cli.py``, a case without a
command) exits 2 before any process starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

SIZE_FLAGS = ("--max", "--max-order")
# Seconds ``timeout`` gives a run; the longest case measured, lemma5 at
# 10^7 with --jobs 1, took about 30 s.
TIMEOUT_S = 1800

# Forks argv[2:] under the wait of a small interpreter and writes
# "wall_s peak_kb exit_code" to the descriptor argv[1].
LAUNCHER = """
import os, sys, time
fd = int(sys.argv[1])
os.set_inheritable(fd, False)
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(fd, f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}".encode())
"""

# The CLI with the case's caps set first, as the console script runs it.
CLI = (
    "import sys, lensbordism.cli as cli\n"
    "for cap in sys.argv[1].split():\n"
    "    name, value = cap.split('=')\n"
    "    setattr(cli, name, int(value))\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def parse_case(text: str) -> tuple[dict[str, int], list[str]]:
    """({cap: value}, argv) of a case such as "LEMMA5_MAX=10 lemma5 --max 10"."""
    caps, words = {}, shlex.split(text)
    while words and "=" in words[0] and not words[0].startswith("-"):
        name, value = words.pop(0).split("=")
        caps[name] = int(value)
    if not words:
        raise ValueError("no command after the caps")
    return caps, words


def without(argv: list[str], flag: str) -> tuple[list[str], str | None]:
    """argv without ``flag`` and its value, and that value (None if absent)."""
    if flag not in argv:
        return argv, None
    i = argv.index(flag)
    return argv[:i] + argv[i + 2 :], argv[i + 1]


def quartiles(values: list[float]) -> dict[str, float]:
    """The median and first and third quartiles (inclusive method; one
    value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def growth_exponent(sizes: list[float], values: list[float]) -> float:
    """Least-squares slope of log(value) against log(size): b in value ~ size**b."""
    if len(set(sizes)) < 2:
        raise ValueError("a growth exponent needs at least two sizes")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def side_env(tree: Path) -> dict[str, str]:
    """The environment of every process run on the side at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree: Path, caps: dict[str, int], argv: list[str]) -> dict:
    """One CLI run of the side at ``tree``: wall time, peak RSS, exit code
    and the sha256 of its stdout."""
    cap_text = " ".join(f"{name}={value}" for name, value in caps.items())
    command = ["timeout", str(TIMEOUT_S), sys.executable, "-c", CLI, cap_text, *argv]
    r, w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER, str(w), *command],
            stdout=subprocess.PIPE, env=side_env(tree), pass_fds=(w,),
        )
    finally:
        os.close(w)
    digest = hashlib.sha256()
    with proc, open(r, "rb") as result:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
        fields = result.read().split()
    if proc.returncode or len(fields) != 3:
        raise RuntimeError(f"the launcher failed on {argv} (exit {proc.returncode})")
    wall, peak_kb, code = float(fields[0]), int(fields[1]), int(fields[2])
    return {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "exit": code, "sha256": digest.hexdigest()}


def summarise(cases: list[dict], sides: list[str]) -> tuple[list[dict], list[str]]:
    """Each case's rows per side, the ladders' exponents, and the problems
    found: failed runs and hashes that differ."""
    problems, by_output = [], {}
    for case in cases:
        argv = case["argv"]
        for side in sides:
            runs = case["runs"][side]
            row = {
                "wall_s": quartiles([run["wall_s"] for run in runs]),
                "peak_rss_mb": quartiles([run["peak_rss_mb"] for run in runs]),
                "exits": sorted({run["exit"] for run in runs}),
                "sha256": sorted({run["sha256"] for run in runs}),
            }
            case["sides"][side] = row
            if row["exits"] != [0]:
                problems.append(f"{side}: {shlex.join(argv)} exited {row['exits']}")
            # the same report at any --jobs, on every side and in every round
            key = tuple(without(argv, "--jobs")[0])
            by_output.setdefault(key, set()).update(row["sha256"])
    problems += [
        f"{len(hashes)} outputs of {shlex.join(key)} at the sides and --jobs run"
        for key, hashes in by_output.items()
        if len(hashes) > 1
    ]
    ladders = {}
    for case in cases:
        for flag in SIZE_FLAGS:
            rest, size = without(case["argv"], flag)
            if size is not None:
                ladders.setdefault((flag, *rest), []).append((int(size), case))
    fits = []
    for (flag, *rest), steps in ladders.items():
        steps.sort(key=lambda step: step[0])
        sizes = [size for size, _ in steps]
        if len(set(sizes)) < 2:
            continue
        fit = {"argv": rest, "size_flag": flag, "sizes": sizes, "exponents": {}}
        for side in sides:
            fit["exponents"][side] = {
                metric: growth_exponent(sizes, [c["sides"][side][metric]["median"] for _, c in steps])
                for metric in ("wall_s", "peak_rss_mb")
            }
        fits.append(fit)
    return fits, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--side", action="append", required=True, metavar="NAME=TREE",
                    help="a source tree holding src/lensbordism, and its name in the report")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", required=True, help="the JSON report to write")
    ap.add_argument("cases", nargs="+", metavar="CASE", help='"[CAP=N ...] command args ..."')
    ns = ap.parse_args(argv)
    if ns.rounds < 1:
        ap.error(f"--rounds must be at least 1, not {ns.rounds}")
    trees = {}
    for side in ns.side:
        name, sep, tree = side.partition("=")
        if not (sep and name and tree):
            ap.error(f"--side {side!r} is not NAME=TREE")
        if name in trees:
            ap.error(f"--side {name!r} given twice")
        trees[name] = Path(tree).resolve()
        if not (trees[name] / "src" / "lensbordism" / "cli.py").is_file():
            ap.error(f"--side {side!r}: no src/lensbordism/cli.py in {trees[name]}")
    sides = list(trees)
    cases = []
    for text in ns.cases:
        try:
            caps, args = parse_case(text)
        except ValueError as e:
            ap.error(f"case {text!r}: {e}")
        cases.append({"caps": caps, "argv": args, "runs": {side: [] for side in sides}, "sides": {}})
    print("PYTHONDONTWRITEBYTECODE unset on every run; one untimed import per side writes "
          "the bytecode cache", flush=True)
    for tree in trees.values():
        subprocess.run([sys.executable, "-c", "import lensbordism.cli"], env=side_env(tree), check=True)
    for r in range(ns.rounds):
        order = sides if r % 2 == 0 else sides[::-1]
        for case in cases:
            for side in order:
                run = run_once(trees[side], case["caps"], case["argv"])
                case["runs"][side].append(run)
                print(f"round {r + 1} {side}: {shlex.join(case['argv'])}: {run['wall_s']:.3f} s, "
                      f"{run['peak_rss_mb']:.1f} MB, exit {run['exit']}, sha256 {run['sha256'][:8]}",
                      flush=True)
    fits, problems = summarise(cases, sides)
    report = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rounds": ns.rounds,
        "sides": sides,
        "cases": cases,
        "ladders": fits,
        "problems": problems,
    }
    Path(ns.out).write_text(json.dumps(report, indent=1) + "\n")
    for case in cases:
        label = " ".join([*(f"{k}={v}" for k, v in case["caps"].items()), shlex.join(case["argv"])])
        for side in sides:
            row = case["sides"][side]
            print(f"{side}: {label}: wall {row['wall_s']['median']:.3f} s "
                  f"[{row['wall_s']['q1']:.3f}, {row['wall_s']['q3']:.3f}], peak "
                  f"{row['peak_rss_mb']['median']:.1f} MB [{row['peak_rss_mb']['q1']:.1f}, "
                  f"{row['peak_rss_mb']['q3']:.1f}]")
    for fit in fits:
        for side, exps in fit["exponents"].items():
            print(f"{side}: {shlex.join(fit['argv'])} over {fit['size_flag']} {fit['sizes']}: "
                  f"wall ~ N^{exps['wall_s']:.2f}, peak ~ N^{exps['peak_rss_mb']:.2f}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
