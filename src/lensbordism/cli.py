"""Batch command line front end.

Each ``cmd_<name>`` handler only computes and returns a ``Report``; ``main``
renders it once, with ``render``, as text, CSV or JSON.  JSON output is
always the object {version, command, params, entries, summary}.  Input
errors raise before any output and become one ``error:`` line.  Exit
codes: 0 success, 1 verification failure or oracle disagreement, 2 usage
or input error or running out of memory (one ``error:`` line), 130
interrupted (no output, no traceback).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from . import __version__
from .errors import LensBordismError, SearchExhausted, Unspecified
from .groups import (
    d_pk3_params,
    enumerate_periodic_odd,
    group_order,
    sylow_structure,
    theorem1_applies,
)
from .lens import (
    LensSpace,
    canonical_form,
    find_generator_pair,
    independent,
    independent_bruteforce,
    pontrjagin_pair,
    q_sum,
)
from .numtheory import PrimeModulus, primes_in_range
from .orders import (
    bordism_order_cyclic,
    bordism_order_metacyclic_d3,
    extension_order_check,
    group_structure_cyclic,
    lens_class_order,
    non_splitness_witness,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports an interrupted command

# Largest accepted `lemma5 --max` and `groups --max-order`.  The sieve, the
# smallest-prime-factor table and the reports grow about linearly with them;
# at these bounds a JSON run peaked at 234 and 401 MB and took 6.7 and 6.1 s
# on a 2-core machine (Python 3.11).
LEMMA5_MAX = 10**6
GROUPS_MAX_ORDER = 10**5
# Largest `--p` accepted with `independent --brute`: the oracle is O(p) time
# and p bytes, and a whole CLI run on an independent pair at p = 999983 took
# 0.32-0.40 s on the same machine.
BRUTE_MAX_P = 10**6
# Largest `lemma5 --brute-below` accepted over a `--max` above it: the oracle
# runs on every prime up to the bound, about N**2 / ln N steps in all, and
# [5, 10000] took 1.13-1.17 s on the same machine.
BRUTE_BELOW_MAX = 10**4


@dataclass
class Report:
    """What one subcommand computed: the JSON fields, the text lines, the CSV
    header, the stderr lines (a dict is written as JSON) and the exit code.
    A CSV row is an entry's values in order, each list spread over one
    column per item, unless ``rows`` gives the rows."""

    params: dict
    entries: list[dict]
    summary: dict
    text: list[str]
    fields: list[str]
    rows: list[list] | None = None
    stderr: list[str | dict] = field(default_factory=list)
    code: int = EXIT_OK


def render(report: Report, command: str, fmt: str) -> tuple[str, str]:
    """The stdout content of ``command``'s report as ``fmt`` (text, csv or
    json), and its stderr content."""
    if fmt == "json":
        data = {
            "version": __version__,
            "command": command,
            "params": report.params,
            "entries": report.entries,
            "summary": report.summary,
        }
        out = json.dumps(data, indent=2) + "\n"
    elif fmt == "csv":
        rows = report.rows
        if rows is None:
            rows = [
                [x for v in e.values() for x in (v if isinstance(v, list) else [v])]
                for e in report.entries
            ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.fields)
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(report.text) + "\n"
    err = "".join(
        (line if isinstance(line, str) else json.dumps(line, indent=2)) + "\n"
        for line in report.stderr
    )
    return out, err


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated integers")
    try:
        return tuple(int(x) for x in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _odd_prime(p: int) -> PrimeModulus:
    if p % 2 == 0:
        raise ValueError(f"odd prime required, got {p}")
    return PrimeModulus(p)


# ---------------------------------------------------------------------------
# lemma5: per-prime generator-pair verification over a range


def _lemma5_worker(task: tuple[int, int]) -> dict:
    """Verify one sieved prime; returns {'ok', 'p', 'entry'/'reason', ...}."""
    p, brute_below = task
    try:
        result = find_generator_pair(PrimeModulus._trusted(p))
    except SearchExhausted as exc:
        return {
            "ok": False,
            "p": p,
            "reason": "search exhausted",
            "trace": [asdict(step) for step in exc.trace],
        }
    entry = {
        "p": p,
        "weights_a": list(result.first.weight_values()),
        "weights_b": list(result.second.weight_values()),
        "Q": result.q,
        "R": result.r,
        "stage": result.stage,
        "certificate": result.certificate,
        "brute_checked": p <= brute_below,
    }
    if entry["brute_checked"]:
        pair_a = pontrjagin_pair(result.first)
        pair_b = pontrjagin_pair(result.second)
        if not (independent(pair_a, pair_b) and independent_bruteforce(pair_a, pair_b)):
            return {
                "ok": False,
                "p": p,
                "reason": "oracle disagreement",
                "entry": entry,
            }
    return {"ok": True, "p": p, "entry": entry}


def _lemma5_workers(requested: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``lemma5 --jobs requested`` over ``tasks`` primes.

    ``requested`` 0 means one per core (``cpus``); any count is capped at the
    number of tasks; a count of 1 runs in this process.  More workers
    than cores are allowed on purpose, so the pool path can run anywhere.
    """
    return max(1, min(requested or cpus, tasks))


def cmd_lemma5(ns) -> Report:
    if not 5 <= ns.min <= ns.max:
        raise ValueError(f"need 5 <= min <= max, got [{ns.min}, {ns.max}]")
    if ns.max > LEMMA5_MAX:
        raise ValueError(f"--max must be at most {LEMMA5_MAX}, got {ns.max}")
    if ns.brute_below < 0:
        raise ValueError("--brute-below must be nonnegative")
    if min(ns.brute_below, ns.max) > BRUTE_BELOW_MAX:
        raise ValueError(
            f"--brute-below must be at most {BRUTE_BELOW_MAX} unless --max is, "
            f"got {ns.brute_below}"
        )
    if ns.jobs < 0:
        raise ValueError("--jobs must be nonnegative")
    primes = [int(p) for p in primes_in_range(ns.min, ns.max)]
    tasks = [(p, ns.brute_below) for p in primes]
    jobs = _lemma5_workers(ns.jobs, len(tasks), os.cpu_count() or 1)
    if jobs == 1:
        results = [_lemma5_worker(t) for t in tasks]
    else:
        # imported here so single-process runs do not pay for it
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_lemma5_worker, tasks, chunksize=chunk))
    entries = [r["entry"] for r in results if r["ok"]]
    failures = [r for r in results if not r["ok"]]
    lines = [f"generator pairs for primes in [{ns.min}, {ns.max}]"]
    for e in entries:
        line = (
            f"p={e['p']}  weights_a=({','.join(map(str, e['weights_a']))})  "
            f"weights_b=({','.join(map(str, e['weights_b']))})  Q={e['Q']}  R={e['R']}  "
            f"stage={e['stage']}  certificate={e['certificate']}"
        )
        if e["brute_checked"]:
            line += "  [brute-checked]"
        lines.append(line)
    lines.append(f"primes_checked={len(primes)} failures={len(failures)}")
    stderr: list[str | dict] = []
    for failure in failures:
        stderr += [f"FAILURE p={failure['p']}: {failure['reason']}", failure]
    return Report(
        {"min": ns.min, "max": ns.max, "brute_below": ns.brute_below},
        entries,
        {"primes_checked": len(primes), "failures": len(failures)},
        lines,
        [
            "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3",
            "Q", "R", "stage", "certificate", "brute_checked",
        ],
        stderr=stderr,
        code=EXIT_FAILURE if failures else EXIT_OK,
    )


# ---------------------------------------------------------------------------
# invariants: Q, normalized pair and canonical form of one lens space


def cmd_invariants(ns) -> Report:
    p = _odd_prime(ns.p)
    lens = LensSpace(p, ns.q)
    pair = pontrjagin_pair(lens)
    entry = {
        "p": ns.p,
        "weights": list(lens.weight_values()),
        "Q": int(q_sum(lens)),
        "pair": list(pair.values()),
        "canonical": list(canonical_form(pair).values()),
    }
    lines = [
        f"p={ns.p} weights=({','.join(map(str, entry['weights']))})",
        f"Q = {entry['Q']}",
        f"pair = ({entry['pair'][0]}, {entry['pair'][1]})",
        f"canonical = ({entry['canonical'][0]}, {entry['canonical'][1]})",
    ]
    return Report(
        {"p": ns.p, "q": list(ns.q)},
        [entry],
        {"failures": 0},
        lines,
        ["p", "q1", "q2", "q3", "Q", "beta0", "beta1", "canonical0", "canonical1"],
    )


# ---------------------------------------------------------------------------
# independent: verdict for two weight triples, optionally oracle-checked


def cmd_independent(ns) -> Report:
    if ns.brute and ns.p > BRUTE_MAX_P:
        raise ValueError(f"--brute needs --p at most {BRUTE_MAX_P}, got {ns.p}")
    p = _odd_prime(ns.p)
    lens_a = LensSpace(p, ns.qa)
    lens_b = LensSpace(p, ns.qb)
    pair_a = pontrjagin_pair(lens_a)
    pair_b = pontrjagin_pair(lens_b)
    verdict = independent(pair_a, pair_b)
    oracle = independent_bruteforce(pair_a, pair_b) if ns.brute else None
    agree = None if oracle is None else oracle == verdict
    entry = {
        "p": ns.p,
        "weights_a": list(lens_a.weight_values()),
        "weights_b": list(lens_b.weight_values()),
        "Q": int(q_sum(lens_a)),
        "R": int(q_sum(lens_b)),
        "independent": verdict,
        "oracle": oracle,
        "agree": agree,
    }
    lines = [
        f"p={ns.p}",
        f"A: weights=({','.join(map(str, entry['weights_a']))}) Q={entry['Q']}",
        f"B: weights=({','.join(map(str, entry['weights_b']))}) R={entry['R']}",
        f"verdict: {'independent' if verdict else 'dependent'}",
    ]
    if ns.brute:
        lines.append(
            f"oracle: {'independent' if oracle else 'dependent'} "
            f"({'agree' if agree else 'DISAGREE'})"
        )
    failures = int(agree is False)
    return Report(
        {"p": ns.p, "qa": list(ns.qa), "qb": list(ns.qb), "brute": bool(ns.brute)},
        [entry],
        {"failures": failures},
        lines,
        [
            "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3", "Q", "R",
            "independent", "oracle", "agree",
        ],
        stderr=["error: oracle disagreement (implementation bug trap)"] if failures else [],
        code=EXIT_FAILURE if failures else EXIT_OK,
    )


# ---------------------------------------------------------------------------
# orders / orders-d3: order formulas for cyclic and metacyclic groups


def cmd_orders(ns) -> Report:
    p, k = ns.p, ns.k
    _odd_prime(p)
    order = bordism_order_cyclic(p, k)
    try:
        lens_order: int | str = lens_class_order(p, k)
    except Unspecified:
        lens_order = "unspecified"
    try:
        structure: str = str(group_structure_cyclic(p, k))
    except Unspecified:
        structure = "unspecified"
    lines = [
        f"p={p} k={k}",
        f"bordism order: {order}",
        f"lens class order: {lens_order}",
        f"group structure: {structure}",
    ]
    extension: bool | str | None = None
    non_split: bool | str | None = None
    if k >= 2 and p >= 5:
        extension = extension_order_check(p, k)
        non_split = non_splitness_witness(p, k)
        lines.append(f"extension order check: {'ok' if extension else 'FAILED'}")
        lines.append(f"non-split extension: {'yes' if non_split else 'no'}")
    elif k >= 2:
        extension = non_split = "unspecified"
        lines.append("extension order check: unspecified")
        lines.append("non-split extension: unspecified")
    entry = {
        "p": p,
        "k": k,
        "bordism_order": order,
        "lens_class_order": lens_order,
        "group_structure": structure,
        "extension_order_check": extension,
        "non_splitness": non_split,
    }
    return Report({"p": p, "k": k}, [entry], {"failures": 0}, lines, list(entry))


def cmd_orders_d3(ns) -> Report:
    params = d_pk3_params(ns.p, ns.k)
    order = bordism_order_metacyclic_d3(ns.p, ns.k)
    entry = {
        "p": ns.p,
        "k": ns.k,
        "m": params.m,
        "n": params.n,
        "r": params.r,
        "group_order": group_order(params),
        "bordism_order": order,
        "cyclic": True,
    }
    lines = [
        f"p={ns.p} k={ns.k}",
        f"group: m={params.m} n={params.n} r={params.r} (order {entry['group_order']})",
        f"bordism order: {order} (cyclic)",
    ]
    return Report({"p": ns.p, "k": ns.k}, [entry], {"failures": 0}, lines, list(entry))


# ---------------------------------------------------------------------------
# groups: enumeration of odd-order presentations


def cmd_groups(ns) -> Report:
    if ns.max_order > GROUPS_MAX_ORDER:
        raise ValueError(f"--max-order must be at most {GROUPS_MAX_ORDER}, got {ns.max_order}")
    groups = enumerate_periodic_odd(ns.max_order)
    entries = []
    lines = [f"odd-order presentations with order <= {ns.max_order}"]
    rows = []
    for g in groups:
        sylow = sylow_structure(g).entries
        order = group_order(g)
        applies = theorem1_applies(g)
        entries.append({
            "m": g.m,
            "n": g.n,
            "r": g.r,
            "order": order,
            "sylow": [{"prime": q, "order": o, "shape": shape} for q, o, shape in sylow],
            "theorem1_applies": applies,
        })
        lines.append(
            f"order={order} m={g.m} n={g.n} r={g.r} "
            f"sylow={','.join(f'{q}:{o}' for q, o, _ in sylow) or '-'} "
            f"theorem1={'yes' if applies else 'no'}"
        )
        rows.append([order, g.m, g.n, g.r, ";".join(f"{q}:{o}" for q, o, _ in sylow), applies])
    lines.append(f"groups_listed={len(entries)}")
    return Report(
        {"max_order": ns.max_order},
        entries,
        {"groups_listed": len(entries), "failures": 0},
        lines,
        ["order", "m", "n", "r", "sylow", "theorem1_applies"],
        rows=rows,
    )


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lensbordism",
        description=(
            "Invariant pairs of 5-dimensional lens spaces, generator-pair "
            "verification over prime ranges, bordism order formulas, and "
            "metacyclic presentation enumeration."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    lemma5 = sub.add_parser(
        "lemma5",
        help="verify an independent generator pair exists for every prime in range",
    )
    lemma5.add_argument("--min", type=int, required=True, help="first prime bound (>= 5)")
    lemma5.add_argument("--max", type=int, required=True, help="last prime bound")
    lemma5.add_argument(
        "--brute-below", type=int, default=31, dest="brute_below",
        help=(
            "cross-check primes up to this bound with the exhaustive oracle "
            f"(default 31; at most {BRUTE_BELOW_MAX} unless --max is)"
        ),
    )
    lemma5.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "worker processes (0 = all cores; capped at the number of primes but "
            "not at the number of cores, so the determinism check can run 3 "
            "workers on any machine)"
        ),
    )
    lemma5.set_defaults(handler=cmd_lemma5)

    invariants = sub.add_parser(
        "invariants", help="Q, normalized invariant pair and canonical form of one lens space"
    )
    invariants.add_argument("--p", type=int, required=True)
    invariants.add_argument("--q", type=_triple, required=True, metavar="a,b,c")
    invariants.set_defaults(handler=cmd_invariants)

    indep = sub.add_parser(
        "independent", help="independence verdict for two weight triples"
    )
    indep.add_argument("--p", type=int, required=True)
    indep.add_argument("--qa", type=_triple, required=True, metavar="a,b,c")
    indep.add_argument("--qb", type=_triple, required=True, metavar="a,b,c")
    indep.add_argument(
        "--brute", action="store_true",
        help=f"also run the exhaustive oracle (--p at most {BRUTE_MAX_P})",
    )
    indep.set_defaults(handler=cmd_independent)

    orders = sub.add_parser("orders", help="bordism orders over a cyclic group of order p**k")
    orders.add_argument("--p", type=int, required=True)
    orders.add_argument("--k", type=int, default=1)
    orders.set_defaults(handler=cmd_orders)

    orders_d3 = sub.add_parser(
        "orders-d3", help="bordism order over the metacyclic group (p**k, 3, r)"
    )
    orders_d3.add_argument("--p", type=int, required=True)
    orders_d3.add_argument("--k", type=int, default=1)
    orders_d3.set_defaults(handler=cmd_orders_d3)

    groups = sub.add_parser("groups", help="enumerate odd-order presentations up to a bound")
    groups.add_argument("--max-order", type=int, required=True, dest="max_order")
    groups.set_defaults(handler=cmd_groups)

    for command in sub.choices.values():
        command.add_argument("--format", choices=("text", "csv", "json"), default="text")
        command.add_argument(
            "--out", metavar="FILE", default=None, help="write to FILE instead of stdout"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report = ns.handler(ns)
        out, err = render(report, ns.command, ns.format)
    except (LensBordismError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    sys.stderr.write(err)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
