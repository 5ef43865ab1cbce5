"""Batch command line front end.

Every subcommand wraps library operations and emits a deterministic report
in text, CSV, or JSON; JSON output is always the object
{version, command, params, entries, summary}.  Exit codes: 0 success,
1 verification failure or oracle disagreement, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

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


def _write_output(content: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _csv_content(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _report(command: str, params: dict, entries: list[dict], summary: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "params": params,
        "entries": entries,
        "summary": summary,
    }


def _emit(ns, report: dict, text: str, csv_fields: list[str], csv_rows: list[dict]) -> None:
    if ns.format == "json":
        content = json.dumps(report, indent=2) + "\n"
    elif ns.format == "csv":
        content = _csv_content(csv_fields, csv_rows)
    else:
        content = text
    _write_output(content, ns.out)


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
        "brute_checked": False,
    }
    if p <= brute_below:
        entry["brute_checked"] = True
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


_LEMMA5_CSV_FIELDS = [
    "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3",
    "Q", "R", "stage", "certificate", "brute_checked",
]


def _lemma5_csv_rows(entries: list[dict]) -> list[dict]:
    rows = []
    for e in entries:
        qa, qb = e["weights_a"], e["weights_b"]
        rows.append({
            "p": e["p"],
            "qa1": qa[0], "qa2": qa[1], "qa3": qa[2],
            "qb1": qb[0], "qb2": qb[1], "qb3": qb[2],
            "Q": e["Q"], "R": e["R"], "stage": e["stage"],
            "certificate": e["certificate"],
            "brute_checked": e["brute_checked"],
        })
    return rows


def _lemma5_text(report: dict) -> str:
    lines = []
    params = report["params"]
    lines.append(f"generator pairs for primes in [{params['min']}, {params['max']}]")
    for e in report["entries"]:
        qa = ",".join(str(x) for x in e["weights_a"])
        qb = ",".join(str(x) for x in e["weights_b"])
        line = (
            f"p={e['p']}  weights_a=({qa})  weights_b=({qb})  "
            f"Q={e['Q']}  R={e['R']}  stage={e['stage']}  certificate={e['certificate']}"
        )
        if e["brute_checked"]:
            line += "  [brute-checked]"
        lines.append(line)
    summary = report["summary"]
    lines.append(f"primes_checked={summary['primes_checked']} failures={summary['failures']}")
    return "\n".join(lines) + "\n"


def _lemma5_workers(requested: int, tasks: int, cpus: int) -> int:
    """Worker processes for ``lemma5 --jobs requested`` over ``tasks`` primes.

    ``requested`` 0 means one per core (``cpus``); any count is capped at the
    number of tasks; a count of 1 runs in this process.  More workers
    than cores are allowed on purpose, so the pool path can run anywhere.
    """
    return max(1, min(requested or cpus, tasks))


def cmd_lemma5(ns) -> int:
    if not 5 <= ns.min <= ns.max:
        print(f"error: need 5 <= min <= max, got [{ns.min}, {ns.max}]", file=sys.stderr)
        return EXIT_USAGE
    if ns.brute_below < 0:
        print("error: --brute-below must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if ns.jobs < 0:
        print("error: --jobs must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
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
    results.sort(key=lambda r: r["p"])
    entries = [r["entry"] for r in results if r["ok"]]
    failures = [r for r in results if not r["ok"]]
    report = _report(
        "lemma5",
        {"min": ns.min, "max": ns.max, "brute_below": ns.brute_below},
        entries,
        {"primes_checked": len(primes), "failures": len(failures)},
    )
    _emit(ns, report, _lemma5_text(report), _LEMMA5_CSV_FIELDS, _lemma5_csv_rows(entries))
    for failure in failures:
        print(f"FAILURE p={failure['p']}: {failure['reason']}", file=sys.stderr)
        print(json.dumps(failure, indent=2), file=sys.stderr)
    return EXIT_FAILURE if failures else EXIT_OK


# ---------------------------------------------------------------------------
# invariants: Q, normalized pair and canonical form of one lens space


_INVARIANTS_CSV_FIELDS = ["p", "q1", "q2", "q3", "Q", "beta0", "beta1", "canonical0", "canonical1"]


def cmd_invariants(ns) -> int:
    p = _odd_prime(ns.p)
    lens = LensSpace(p, ns.q)
    slope = int(q_sum(lens))
    pair = pontrjagin_pair(lens)
    canon = canonical_form(pair)
    entry = {
        "p": ns.p,
        "weights": list(lens.weight_values()),
        "Q": slope,
        "pair": list(pair.values()),
        "canonical": list(canon.values()),
    }
    report = _report(
        "invariants",
        {"p": ns.p, "q": list(ns.q)},
        [entry],
        {"failures": 0},
    )
    w = ",".join(str(x) for x in entry["weights"])
    text = (
        f"p={ns.p} weights=({w})\n"
        f"Q = {slope}\n"
        f"pair = ({entry['pair'][0]}, {entry['pair'][1]})\n"
        f"canonical = ({entry['canonical'][0]}, {entry['canonical'][1]})\n"
    )
    rows = [{
        "p": ns.p,
        "q1": entry["weights"][0], "q2": entry["weights"][1], "q3": entry["weights"][2],
        "Q": slope,
        "beta0": entry["pair"][0], "beta1": entry["pair"][1],
        "canonical0": entry["canonical"][0], "canonical1": entry["canonical"][1],
    }]
    _emit(ns, report, text, _INVARIANTS_CSV_FIELDS, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# independent: verdict for two weight triples, optionally oracle-checked


_INDEPENDENT_CSV_FIELDS = [
    "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3", "Q", "R",
    "independent", "oracle", "agree",
]


def cmd_independent(ns) -> int:
    p = _odd_prime(ns.p)
    lens_a = LensSpace(p, ns.qa)
    lens_b = LensSpace(p, ns.qb)
    pair_a = pontrjagin_pair(lens_a)
    pair_b = pontrjagin_pair(lens_b)
    verdict = independent(pair_a, pair_b)
    entry = {
        "p": ns.p,
        "weights_a": list(lens_a.weight_values()),
        "weights_b": list(lens_b.weight_values()),
        "Q": int(q_sum(lens_a)),
        "R": int(q_sum(lens_b)),
        "independent": verdict,
        "oracle": None,
        "agree": None,
    }
    failures = 0
    if ns.brute:
        oracle = independent_bruteforce(pair_a, pair_b)
        entry["oracle"] = oracle
        entry["agree"] = oracle == verdict
        if oracle != verdict:
            failures = 1
    report = _report(
        "independent",
        {"p": ns.p, "qa": list(ns.qa), "qb": list(ns.qb), "brute": bool(ns.brute)},
        [entry],
        {"failures": failures},
    )
    word = "independent" if verdict else "dependent"
    lines = [
        f"p={ns.p}",
        f"A: weights=({','.join(map(str, entry['weights_a']))}) Q={entry['Q']}",
        f"B: weights=({','.join(map(str, entry['weights_b']))}) R={entry['R']}",
        f"verdict: {word}",
    ]
    if ns.brute:
        oracle_word = "independent" if entry["oracle"] else "dependent"
        lines.append(
            f"oracle: {oracle_word} ({'agree' if entry['agree'] else 'DISAGREE'})"
        )
    text = "\n".join(lines) + "\n"
    rows = [{
        "p": ns.p,
        "qa1": entry["weights_a"][0], "qa2": entry["weights_a"][1], "qa3": entry["weights_a"][2],
        "qb1": entry["weights_b"][0], "qb2": entry["weights_b"][1], "qb3": entry["weights_b"][2],
        "Q": entry["Q"], "R": entry["R"],
        "independent": verdict, "oracle": entry["oracle"], "agree": entry["agree"],
    }]
    _emit(ns, report, text, _INDEPENDENT_CSV_FIELDS, rows)
    if failures:
        print("error: oracle disagreement (implementation bug trap)", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# orders / orders-d3: order formulas for cyclic and metacyclic groups


_ORDERS_CSV_FIELDS = [
    "p", "k", "bordism_order", "lens_class_order", "group_structure",
    "extension_order_check", "non_splitness",
]


def cmd_orders(ns) -> int:
    p, k = ns.p, ns.k
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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
    extension: bool | str | None = None
    non_split: bool | str | None = None
    if k >= 2:
        if p >= 5:
            extension = extension_order_check(p, k)
            non_split = non_splitness_witness(p, k)
        else:
            extension = "unspecified"
            non_split = "unspecified"
    entry = {
        "p": p,
        "k": k,
        "bordism_order": order,
        "lens_class_order": lens_order,
        "group_structure": structure,
        "extension_order_check": extension,
        "non_splitness": non_split,
    }
    report = _report("orders", {"p": p, "k": k}, [entry], {"failures": 0})
    lines = [
        f"p={p} k={k}",
        f"bordism order: {order}",
        f"lens class order: {lens_order}",
        f"group structure: {structure}",
    ]
    if extension is not None:
        lines.append(f"extension order check: {_flag(extension)}")
        if non_split == "unspecified":
            lines.append("non-split extension: unspecified")
        else:
            lines.append(f"non-split extension: {'yes' if non_split else 'no'}")
    text = "\n".join(lines) + "\n"
    _emit(ns, report, text, _ORDERS_CSV_FIELDS, [entry])
    return EXIT_OK


def _flag(value) -> str:
    if value == "unspecified":
        return "unspecified"
    return "ok" if value else "FAILED"


_ORDERS_D3_CSV_FIELDS = ["p", "k", "m", "n", "r", "group_order", "bordism_order", "cyclic"]


def cmd_orders_d3(ns) -> int:
    if ns.k < 1:
        raise ValueError(f"k must be at least 1, got {ns.k}")
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
    report = _report("orders-d3", {"p": ns.p, "k": ns.k}, [entry], {"failures": 0})
    text = (
        f"p={ns.p} k={ns.k}\n"
        f"group: m={params.m} n={params.n} r={params.r} (order {group_order(params)})\n"
        f"bordism order: {order} (cyclic)\n"
    )
    _emit(ns, report, text, _ORDERS_D3_CSV_FIELDS, [entry])
    return EXIT_OK


# ---------------------------------------------------------------------------
# groups: enumeration of odd-order presentations


_GROUPS_CSV_FIELDS = ["order", "m", "n", "r", "sylow", "theorem1_applies"]


def cmd_groups(ns) -> int:
    groups = enumerate_periodic_odd(ns.max_order)
    entries = []
    for g in groups:
        sylow = sylow_structure(g)
        entries.append({
            "m": g.m,
            "n": g.n,
            "r": g.r,
            "order": group_order(g),
            "sylow": [
                {"prime": q, "order": o, "shape": shape}
                for q, o, shape in sylow.entries
            ],
            "theorem1_applies": theorem1_applies(g),
        })
    report = _report(
        "groups",
        {"max_order": ns.max_order},
        entries,
        {"groups_listed": len(entries), "failures": 0},
    )
    lines = [f"odd-order presentations with order <= {ns.max_order}"]
    for e in entries:
        sylow_txt = ",".join(f"{s['prime']}:{s['order']}" for s in e["sylow"])
        flag = "yes" if e["theorem1_applies"] else "no"
        lines.append(
            f"order={e['order']} m={e['m']} n={e['n']} r={e['r']} "
            f"sylow={sylow_txt or '-'} theorem1={flag}"
        )
    lines.append(f"groups_listed={len(entries)}")
    text = "\n".join(lines) + "\n"
    rows = [
        {
            "order": e["order"], "m": e["m"], "n": e["n"], "r": e["r"],
            "sylow": ";".join(f"{s['prime']}:{s['order']}" for s in e["sylow"]),
            "theorem1_applies": e["theorem1_applies"],
        }
        for e in entries
    ]
    _emit(ns, report, text, _GROUPS_CSV_FIELDS, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--out", metavar="FILE", default=None, help="write to FILE instead of stdout")


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
        help="cross-check primes up to this bound with the exhaustive oracle (default 31)",
    )
    lemma5.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (0 = all cores; capped at the number of primes)",
    )
    _add_output_options(lemma5)
    lemma5.set_defaults(handler=cmd_lemma5)

    invariants = sub.add_parser(
        "invariants", help="Q, normalized invariant pair and canonical form of one lens space"
    )
    invariants.add_argument("--p", type=int, required=True)
    invariants.add_argument("--q", type=_triple, required=True, metavar="a,b,c")
    _add_output_options(invariants)
    invariants.set_defaults(handler=cmd_invariants)

    indep = sub.add_parser(
        "independent", help="independence verdict for two weight triples"
    )
    indep.add_argument("--p", type=int, required=True)
    indep.add_argument("--qa", type=_triple, required=True, metavar="a,b,c")
    indep.add_argument("--qb", type=_triple, required=True, metavar="a,b,c")
    indep.add_argument("--brute", action="store_true", help="also run the exhaustive oracle")
    _add_output_options(indep)
    indep.set_defaults(handler=cmd_independent)

    orders = sub.add_parser("orders", help="bordism orders over a cyclic group of order p**k")
    orders.add_argument("--p", type=int, required=True)
    orders.add_argument("--k", type=int, default=1)
    _add_output_options(orders)
    orders.set_defaults(handler=cmd_orders)

    orders_d3 = sub.add_parser(
        "orders-d3", help="bordism order over the metacyclic group (p**k, 3, r)"
    )
    orders_d3.add_argument("--p", type=int, required=True)
    orders_d3.add_argument("--k", type=int, default=1)
    _add_output_options(orders_d3)
    orders_d3.set_defaults(handler=cmd_orders_d3)

    groups = sub.add_parser("groups", help="enumerate odd-order presentations up to a bound")
    groups.add_argument("--max-order", type=int, required=True, dest="max_order")
    _add_output_options(groups)
    groups.set_defaults(handler=cmd_groups)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return ns.handler(ns)
    except (LensBordismError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
