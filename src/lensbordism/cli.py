"""Batch command line front end.

Each ``cmd_<name>`` handler runs its input checks, and every eager step
that can raise an input error, then returns a ``Report``: the params, an
iterator over the entries and one text, one CSV and one JSON formatter per
entry.  ``main`` streams it with ``_write_report`` to stdout or ``--out``
as text, CSV or JSON, entry by entry as they are computed, and builds only
the format asked for.  JSON output is always the object {version,
command, params, entries, summary}, byte for byte as the standard ``json``
module writes it with an indent of 2.  The many entries of ``lemma5`` and
``groups`` are rendered by a function compiled once, at import, from each
command's declared entry shape (``_json_template``); everything else, the
single entries of the other commands, the params, the summary and the
stderr dicts, by the generic ``_json``.

Exit codes: 0 success, 1 verification failure or oracle disagreement, 2
usage or input error, running out of memory or an output that cannot be
written (one ``error:`` line), 130 interrupted and 141 stdout closed by
its reader (neither prints anything, not even a traceback).  Input errors
raise before the first byte of the report, so stdout stays empty and an
``--out`` file is neither created nor truncated; the same holds for an
interrupt or running out of memory before the first byte.  After it, they
leave a truncated report on stdout and no ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import LensBordismError, SearchExhausted, Unspecified
from .groups import _d_pk3, _presentations, _theorem1_order
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a write to a closed pipe

# Largest accepted `lemma5 --max` and `groups --max-order`.  The sieve and
# the smallest-prime-factor table grow about linearly with them (reports and
# presentations are streamed); at these bounds a JSON run peaked at 23.4-23.6
# and 20.5 MB and took 4.2-4.7 and 0.8-1.4 s on a shared 2-core machine (4 and
# 5 runs, Python 3.11), against 4.4-5.8 and 2.0-2.8 s in interleaved runs
# without the compiled entry templates and the pruned ``groups`` walk.
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
# Largest `lemma5 --jobs`, per core: the process pool starts all its workers
# at once, and 4 per core still admits the 3 workers that the determinism
# check runs on a one-core machine.
JOBS_PER_CORE = 4


_quote = json.encoder.encode_basestring_ascii


def _json(obj, pad: str = "") -> str:
    """``obj`` as ``json.dumps`` writes it with an indent of 2, with every
    line after the first indented by ``pad``.  Dict keys must be strings.

    The standard encoder indents in pure Python; this keeps its output and
    does the same work in fewer calls, with the C string quoting.  It is
    the writer of every JSON value except the ``lemma5`` and ``groups``
    entries, which ``_json_template`` renders as this does, 3 to 4 times
    faster.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def _json_entry(entry: dict) -> str:
    """``entry`` as it sits in a report's entries list."""
    return _json(entry, "    ")


def _fstring_text(text: str) -> str:
    """``text`` escaped as literal text inside ``f"..."``."""
    for a, b in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("{", "{{"), ("}", "}}")):
        text = text.replace(a, b)
    return text


def _json_template(shape: dict, pad: str = "    "):
    """A function that renders a dict of the non-empty ``shape`` as
    ``_json(entry, pad)`` does, with one f-string compiled here.

    ``shape`` maps each key, in the order the entries hold them, to its
    kind: ``int``, ``bool``, ``str``, ``[int]`` (a list of ints) or
    ``[inner]`` (a list of dicts of the flat shape ``inner``).  The keys
    are written in ``shape``'s order and each value as its declared kind,
    so the shape must match what the handler builds; the tests check the
    two shapes in use against ``_json`` over whole ranges.
    """
    inner, deeper = pad + "  ", pad + "    "
    env: dict = {"_q": _quote}

    def bind(value) -> str:
        """A name for ``value`` in the compiled function's globals."""
        name = f"_{len(env)}"
        env[name] = value
        return name

    fields = []
    for key, kind in shape.items():
        value = f"e[{bind(key)}]"
        if kind is int:
            expr = value
        elif kind is bool:
            expr = f"{bind('true')} if {value} else {bind('false')}"
        elif kind is str:
            expr = f"_q({value})"
        else:
            (item,) = kind
            each = "str" if item is int else bind(_json_template(item, deeper))
            head, sep, tail = "[\n" + deeper, ",\n" + deeper, "\n" + inner + "]"
            expr = (
                f"{bind(head)} + {bind(sep)}.join(map({each}, {value})) + {bind(tail)} "
                f"if {value} else {bind('[]')}"
            )
        fields.append(_fstring_text(_quote(key) + ": ") + "{" + expr + "}")
    body = _fstring_text(",\n" + inner).join(fields)
    head, tail = _fstring_text("{\n" + inner), _fstring_text("\n" + pad + "}")
    exec(f'def render(e):\n    return f"{head}{body}{tail}"\n', env)
    return env["render"]


def _spread(entry: dict) -> list:
    """An entry's values in order, each list spread over one item per column."""
    return [x for v in entry.values() for x in (v if isinstance(v, list) else [v])]


class Report:
    """What one subcommand computes, for ``_write_report`` to stream.

    ``entries`` is an iterable of entry dicts, read once.  ``to_text(entry)``
    is an entry's text lines as one string, ``to_row(entry)`` its CSV row
    (by default its values, each list spread over one column per item) and
    ``to_json(entry)`` its JSON, indented to sit in the entries list (by
    default ``_json``); ``head`` and ``tail`` are the text lines before and
    after the entries and ``fields`` the CSV header.  ``summary`` defaults
    to {"failures": 0}, and the lists to new empty ones.  Iterating
    ``entries`` to its end may fill in ``summary``, ``tail``, ``stderr`` (a
    dict is written as JSON) and ``code``, so they are read only after it.
    """

    def __init__(
        self,
        params: dict,
        entries,
        to_text,
        fields: list[str],
        to_row=_spread,
        to_json=_json_entry,
        head: list[str] | None = None,
        summary: dict | None = None,
        tail: list[str] | None = None,
        stderr: list[str | dict] | None = None,
        code: int = EXIT_OK,
    ) -> None:
        self.params, self.entries, self.fields = params, entries, fields
        self.to_text, self.to_row, self.to_json = to_text, to_row, to_json
        self.head = [] if head is None else head
        self.summary = {"failures": 0} if summary is None else summary
        self.tail = [] if tail is None else tail
        self.stderr = [] if stderr is None else stderr
        self.code = code


class _Batched:
    """A text sink that passes its writes on to ``out`` about 64 KiB at a
    time.  Where stdout is unbuffered (``python -u``), each write to it is a
    system call: one per entry took a JSON ``groups --max-order 3000`` from
    162 to 179 ms (medians of 40 runs)."""

    def __init__(self, out) -> None:
        self.out, self.parts, self.size = out, [], 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= 1 << 16:
            self.flush()

    def flush(self) -> None:
        self.out.write("".join(self.parts))
        self.parts, self.size = [], 0


def _write_report(report: Report, command: str, fmt: str, out) -> None:
    """Write ``command``'s report to the text file ``out`` as ``fmt`` (text,
    csv or json), as ``report.entries`` yields the entries."""
    sink = _Batched(out)
    write = sink.write
    try:
        if fmt == "json":
            write(
                "{\n"
                f'  "version": {_json(__version__)},\n'
                f'  "command": {_json(command)},\n'
                f'  "params": {_json(report.params, "  ")},\n'
                '  "entries": ['
            )
            sep, to_json = "\n    ", report.to_json
            for entry in report.entries:
                write(sep + to_json(entry))
                sep = ",\n    "
            close = "]" if sep == "\n    " else "\n  ]"
            write(f'{close},\n  "summary": {_json(report.summary, "  ")}\n}}\n')
        elif fmt == "csv":
            # imported here so text and JSON runs do not pay for it
            import csv

            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(report.fields)
            to_row = report.to_row
            for entry in report.entries:
                writer.writerow(to_row(entry))
        else:
            to_text = report.to_text
            for line in report.head:
                write(line + "\n")
            for entry in report.entries:
                write(to_text(entry) + "\n")
            for line in report.tail:
                write(line + "\n")
    finally:
        # Entries cut short are closed here, so a process pool behind them
        # shuts down in this thread: left to the garbage collector, they
        # could be closed in the pool's own thread, which cannot join itself.
        if hasattr(report.entries, "close"):
            report.entries.close()
        sink.flush()  # what was written so far, also when cut short


def _write_file(report: Report, command: str, fmt: str, path: str) -> None:
    """``_write_report`` to the file ``path``, which is removed again if the
    report is cut short, so it never holds a truncated report."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            _write_report(report, command, fmt, fh)
    except BaseException:
        if os.path.isfile(path):  # not a device such as /dev/null
            os.remove(path)
        raise


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated integers")
    try:
        return tuple(int(x) for x in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
            "trace": [step._asdict() for step in exc.trace],
        }
    entry = {
        "p": p,
        "weights_a": list(result.first.weights),
        "weights_b": list(result.second.weights),
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
    than cores are allowed on purpose, so the pool path can run anywhere;
    ``cmd_lemma5`` rejects more than ``JOBS_PER_CORE`` per core beforehand.
    """
    return max(1, min(requested or cpus, tasks))


def _lemma5_results(primes: list[int], brute_below: int, jobs: int):
    """``_lemma5_worker``'s result for each prime, in order, as the workers
    return them."""
    tasks = ((p, brute_below) for p in primes)
    if jobs == 1:
        yield from map(_lemma5_worker, tasks)
        return
    # imported here so single-process runs do not pay for it
    from concurrent.futures import ProcessPoolExecutor

    # The parent holds a chunk's results until it has written them, so a
    # chunk is at most 1,000 primes: at --max 10**6 that took peak RSS from
    # 44-48 to 34 MB and let the parent start writing sooner.
    chunk = max(1, min(len(primes) // (jobs * 4), 1000))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_lemma5_worker, tasks, chunksize=chunk)


def _lemma5_text(e: dict) -> str:
    line = (
        f"p={e['p']}  weights_a=({','.join(map(str, e['weights_a']))})  "
        f"weights_b=({','.join(map(str, e['weights_b']))})  Q={e['Q']}  R={e['R']}  "
        f"stage={e['stage']}  certificate={e['certificate']}"
    )
    return line + "  [brute-checked]" if e["brute_checked"] else line


_lemma5_json = _json_template(
    {
        "p": int,
        "weights_a": [int],
        "weights_b": [int],
        "Q": int,
        "R": int,
        "stage": str,
        "certificate": int,
        "brute_checked": bool,
    }
)


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
    cpus = os.cpu_count() or 1
    if ns.jobs > JOBS_PER_CORE * cpus:
        raise ValueError(
            f"--jobs must be at most {JOBS_PER_CORE * cpus} "
            f"({JOBS_PER_CORE} per core), got {ns.jobs}"
        )
    primes = [int(p) for p in primes_in_range(ns.min, ns.max)]
    jobs = _lemma5_workers(ns.jobs, len(primes), cpus)

    def entries():
        failures = []
        for result in _lemma5_results(primes, ns.brute_below, jobs):
            if result["ok"]:
                yield result["entry"]
            else:
                failures.append(result)
        report.summary = {"primes_checked": len(primes), "failures": len(failures)}
        report.tail = [f"primes_checked={len(primes)} failures={len(failures)}"]
        for failure in failures:
            report.stderr += [f"FAILURE p={failure['p']}: {failure['reason']}", failure]
        report.code = EXIT_FAILURE if failures else EXIT_OK

    report = Report(
        {"min": ns.min, "max": ns.max, "brute_below": ns.brute_below},
        entries(),
        _lemma5_text,
        [
            "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3",
            "Q", "R", "stage", "certificate", "brute_checked",
        ],
        to_json=_lemma5_json,
        head=[f"generator pairs for primes in [{ns.min}, {ns.max}]"],
    )
    return report


# ---------------------------------------------------------------------------
# invariants: Q, normalized pair and canonical form of one lens space


def _invariants_text(e: dict) -> str:
    return (
        f"p={e['p']} weights=({','.join(map(str, e['weights']))})\n"
        f"Q = {e['Q']}\n"
        f"pair = ({e['pair'][0]}, {e['pair'][1]})\n"
        f"canonical = ({e['canonical'][0]}, {e['canonical'][1]})"
    )


def cmd_invariants(ns) -> Report:
    lens = LensSpace(ns.p, ns.q)
    pair = pontrjagin_pair(lens)
    entry = {
        "p": ns.p,
        "weights": list(lens.weights),
        "Q": q_sum(lens),
        "pair": list(pair.values()),
        "canonical": list(canonical_form(pair).values()),
    }
    return Report(
        {"p": ns.p, "q": list(ns.q)},
        [entry],
        _invariants_text,
        ["p", "q1", "q2", "q3", "Q", "beta0", "beta1", "canonical0", "canonical1"],
    )


# ---------------------------------------------------------------------------
# independent: verdict for two weight triples, optionally oracle-checked


def _independent_text(e: dict) -> str:
    text = (
        f"p={e['p']}\n"
        f"A: weights=({','.join(map(str, e['weights_a']))}) Q={e['Q']}\n"
        f"B: weights=({','.join(map(str, e['weights_b']))}) R={e['R']}\n"
        f"verdict: {'independent' if e['independent'] else 'dependent'}"
    )
    if e["oracle"] is None:
        return text
    return (
        f"{text}\noracle: {'independent' if e['oracle'] else 'dependent'} "
        f"({'agree' if e['agree'] else 'DISAGREE'})"
    )


def cmd_independent(ns) -> Report:
    if ns.brute and ns.p > BRUTE_MAX_P:
        raise ValueError(f"--brute needs --p at most {BRUTE_MAX_P}, got {ns.p}")
    lens_a = LensSpace(ns.p, ns.qa)
    lens_b = LensSpace(lens_a.p, ns.qb)
    pair_a = pontrjagin_pair(lens_a)
    pair_b = pontrjagin_pair(lens_b)
    verdict = independent(pair_a, pair_b)
    oracle = independent_bruteforce(pair_a, pair_b) if ns.brute else None
    agree = None if oracle is None else oracle == verdict
    entry = {
        "p": ns.p,
        "weights_a": list(lens_a.weights),
        "weights_b": list(lens_b.weights),
        "Q": q_sum(lens_a),
        "R": q_sum(lens_b),
        "independent": verdict,
        "oracle": oracle,
        "agree": agree,
    }
    failures = int(agree is False)
    return Report(
        {"p": ns.p, "qa": list(ns.qa), "qb": list(ns.qb), "brute": bool(ns.brute)},
        [entry],
        _independent_text,
        [
            "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3", "Q", "R",
            "independent", "oracle", "agree",
        ],
        summary={"failures": failures},
        stderr=["error: oracle disagreement (implementation bug trap)"] if failures else [],
        code=EXIT_FAILURE if failures else EXIT_OK,
    )


# ---------------------------------------------------------------------------
# orders / orders-d3: order formulas for cyclic and metacyclic groups


def _orders_text(e: dict) -> str:
    text = (
        f"p={e['p']} k={e['k']}\n"
        f"bordism order: {e['bordism_order']}\n"
        f"lens class order: {e['lens_class_order']}\n"
        f"group structure: {e['group_structure']}"
    )
    extension, non_split = e["extension_order_check"], e["non_splitness"]
    if extension is None:
        return text
    if extension == "unspecified":
        return f"{text}\nextension order check: unspecified\nnon-split extension: unspecified"
    return (
        f"{text}\nextension order check: {'ok' if extension else 'FAILED'}\n"
        f"non-split extension: {'yes' if non_split else 'no'}"
    )


def cmd_orders(ns) -> Report:
    # tested for primality here once; the formulas take a PrimeModulus as it is
    p, k = PrimeModulus(ns.p), ns.k
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
    if k >= 2 and p >= 5:
        extension = extension_order_check(p, k)
        non_split = non_splitness_witness(p, k)
    elif k >= 2:
        extension = non_split = "unspecified"
    entry = {
        "p": ns.p,
        "k": k,
        "bordism_order": order,
        "lens_class_order": lens_order,
        "group_structure": structure,
        "extension_order_check": extension,
        "non_splitness": non_split,
    }
    return Report({"p": ns.p, "k": k}, [entry], _orders_text, list(entry))


def _orders_d3_text(e: dict) -> str:
    return (
        f"p={e['p']} k={e['k']}\n"
        f"group: m={e['m']} n={e['n']} r={e['r']} (order {e['group_order']})\n"
        f"bordism order: {e['bordism_order']} (cyclic)"
    )


def cmd_orders_d3(ns) -> Report:
    # the family's rule and the bound on 9 * p**k are decided once, here,
    # before ``_d_pk3`` works mod p**k (minutes at a k far beyond the bound)
    p = PrimeModulus(ns.p)
    order = bordism_order_metacyclic_d3(p, ns.k)
    m, n, r = _d_pk3(p, ns.k)
    entry = {
        "p": ns.p,
        "k": ns.k,
        "m": m,
        "n": n,
        "r": r,
        "group_order": m * n,
        "bordism_order": order,
        "cyclic": True,
    }
    return Report({"p": ns.p, "k": ns.k}, [entry], _orders_d3_text, list(entry))


# ---------------------------------------------------------------------------
# groups: enumeration of odd-order presentations


def _groups_text(e: dict) -> str:
    sylow = ",".join(f"{s['prime']}:{s['order']}" for s in e["sylow"]) or "-"
    return (
        f"order={e['order']} m={e['m']} n={e['n']} r={e['r']} sylow={sylow} "
        f"theorem1={'yes' if e['theorem1_applies'] else 'no'}"
    )


def _groups_row(e: dict) -> list:
    sylow = ";".join(f"{s['prime']}:{s['order']}" for s in e["sylow"])
    return [e["order"], e["m"], e["n"], e["r"], sylow, e["theorem1_applies"]]


_groups_json = _json_template(
    {
        "m": int,
        "n": int,
        "r": int,
        "order": int,
        "sylow": [{"prime": int, "order": int, "shape": str}],
        "theorem1_applies": bool,
    }
)


def cmd_groups(ns) -> Report:
    if ns.max_order > GROUPS_MAX_ORDER:
        raise ValueError(f"--max-order must be at most {GROUPS_MAX_ORDER}, got {ns.max_order}")
    presentations = _presentations(ns.max_order)

    def entries():
        listed = 0
        for listed, (m, n, r, sylow) in enumerate(presentations, 1):
            yield {
                "m": m,
                "n": n,
                "r": r,
                "order": m * n,
                # every Sylow subgroup is cyclic of the full prime-power
                # order, as ``sylow_structure`` says
                "sylow": [
                    {"prime": q, "order": o, "shape": "cyclic"}
                    for q, o in sylow
                ],
                "theorem1_applies": _theorem1_order(m * n),
            }
        report.summary = {"groups_listed": listed, "failures": 0}
        report.tail = [f"groups_listed={listed}"]

    report = Report(
        {"max_order": ns.max_order},
        entries(),
        _groups_text,
        ["order", "m", "n", "r", "sylow", "theorem1_applies"],
        to_row=_groups_row,
        to_json=_groups_json,
        head=[f"odd-order presentations with order <= {ns.max_order}"],
    )
    return report


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
            "worker processes (0 = all cores; capped at the number of primes; "
            f"at most {JOBS_PER_CORE} per core, so the determinism check can run "
            "3 workers on any machine)"
        ),
    )

    invariants = sub.add_parser(
        "invariants", help="Q, normalized invariant pair and canonical form of one lens space"
    )
    invariants.add_argument("--p", type=int, required=True)
    invariants.add_argument("--q", type=_triple, required=True, metavar="a,b,c")

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

    orders = sub.add_parser("orders", help="bordism orders over a cyclic group of order p**k")
    orders.add_argument("--p", type=int, required=True)
    orders.add_argument("--k", type=int, default=1)

    orders_d3 = sub.add_parser(
        "orders-d3", help="bordism order over the metacyclic group (p**k, 3, r)"
    )
    orders_d3.add_argument("--p", type=int, required=True)
    orders_d3.add_argument("--k", type=int, default=1)

    groups = sub.add_parser("groups", help="enumerate odd-order presentations up to a bound")
    groups.add_argument("--max-order", type=int, required=True, dest="max_order")

    for command in sub.choices.values():
        command.add_argument("--format", choices=("text", "csv", "json"), default="text")
        command.add_argument(
            "--out", metavar="FILE", default=None, help="write to FILE instead of stdout"
        )
    return parser


# Built by the first ``main`` call, not at import; parsing leaves it unchanged,
# so every later call reuses it.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # looked up on each call, so a replaced or wrapped handler is the one run
    handler = globals()["cmd_" + ns.command.replace("-", "_")]
    try:
        report = handler(ns)
        if ns.out:
            _write_file(report, ns.command, ns.format, ns.out)
        else:
            _write_report(report, ns.command, ns.format, sys.stdout)
            sys.stdout.flush()  # so that a failed write is caught here, not at exit
    except (LensBordismError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except OSError as exc:  # an output that cannot be written
        if not ns.out:
            # what stdout still buffers goes to os.devnull, so the flush at
            # exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left, as in ``| head``
            return EXIT_BROKEN_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stderr.write(
        "".join((line if isinstance(line, str) else _json(line)) + "\n" for line in report.stderr)
    )
    return report.code


if __name__ == "__main__":
    sys.exit(main())
