"""Batch command line front end.

Each ``cmd_<name>`` handler runs its input checks, and every eager step
that can raise an input error, then returns a ``Report``: the params as
JSON text, an iterable of the entries and one text, one CSV and one JSON
formatter per entry.  ``main`` streams it with ``_write_report`` to stdout
or ``--out`` (``-`` is stdout) as text, CSV or JSON, entry by entry as
they are computed, and builds only the format asked for.  JSON output is
always the object {version, command, params, entries, summary}, byte for
byte as the standard ``json`` module writes it with an indent of 2, and
it is written by f-strings laid out as what they write.  Each handler
writes its params (an int list through ``_json_list``); each command has
its own entry writer (``_lemma5_json``, ``_invariants_json``,
``_independent_json``, ``_orders_json``, ``_orders_d3_json`` and
``_groups_json``, with ``_scalar`` for a value that may be a str, a bool
or null); and ``_write_report`` writes the version, command, the frame
around the entries and the summary, a flat dict of ints.
Every entry is a plain tuple, its values in the order of its JSON keys,
and each text and JSON writer unpacks it, so a key name is written once,
in its command's JSON writer.  A CSV row is the tuple as ``_spread``
spreads it, one column per item of a tuple value, except for ``groups``,
whose entry is the walk's (m, n, r, sylow) as ``_presentations`` yields
it.  A ``lemma5`` failure is its stderr text, made in the worker that
found it.

``invariants`` and ``independent`` check p and the weights once, by
``LensSpace``, and then work on ints, as ``lemma5`` does: the canonical
form through ``lens._canonical`` and the verdict through
``lens._dependence_free``; the oracle of ``independent --brute`` is the
one place they build ``PontrjaginPair`` records.  A one-number ``lemma5``
range is tested and searched before the report starts, with no prime
stream, and only a text report formats its closing line.

``main`` parses a call (``_parse``) in one of two ways, both from one
table, ``_COMMANDS``, which holds each subcommand's help and options, each
option as the keyword arguments of its ``add_argument`` call.  A
well-formed call is parsed directly from that table (``_parse_direct``),
with no argparse imported and no parser built: its first argument names a
subcommand and every later one is either one of that subcommand's option
strings, in full, or the value of the option before it, which does not
begin with ``-``.  Each value is converted by its option's ``type`` and
checked against its ``choices``, and the defaults are filled in.  Any
other call, and one that fails a check or leaves out a required option,
goes through a full parser that ``build_parser`` builds from the table for
that call, so help, usage lines, errors and abbreviations are argparse's
own, and every call gets the attributes that the full parser would give it.

Exit codes: 0 success, 1 verification failure or oracle disagreement (a
nonzero ``failures`` in the report's summary), 2 usage or input error,
running out of memory, an output that cannot be written or another OS
error, such as a failed pipe or fork (one ``error:`` line), 130
interrupted and 141 stdout closed by its reader (neither prints anything,
not even a traceback).  An uncaught internal error, such as a ``lemma5``
worker that ends before it returns its block, prints a traceback and
exits 1 too; the report stops where the error came, before its summary.
Input errors raise before the first byte of the report, so stdout stays
empty and an ``--out`` file is neither created nor truncated; the same
holds for an interrupt or running out of memory before the first byte.
After it, they leave a truncated report on stdout and no ``--out`` file;
the ``lemma5`` sieve runs only as the entries are computed, so it runs
out of memory after the first byte.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import LensBordismError, SearchExhausted, Unspecified
from .groups import _d_pk3, _presentations, _theorem1_order
from .lens import (
    LensSpace,
    _canonical,
    _dependence_free,
    _generator_pair,
    independent,
    independent_bruteforce,
    pontrjagin_pair,
    q_sum,
)
from .numtheory import PrimeModulus, _prime_modulus, _prime_stream, is_prime
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

# Largest accepted `lemma5 --max` and `groups --max-order`.  The `lemma5`
# sieve holds one window and the primes up to isqrt(--max), while the
# `groups` smallest-prime-factor table grows about linearly with its bound
# (reports and presentations are streamed).  At these bounds a JSON run
# peaked at 13.9-14.0 MB (``lemma5``, as at 10^6) and 25.2-25.3 MB
# (``groups``) and took 16.8-18.9 s (``lemma5 --jobs 1``), 10.4-10.7 s
# (``--jobs 2``) and 9.3-9.6 s (``groups``) on a shared 2-core machine
# (quartiles of 5 rounds of ``tools/capbench.py``, ``BENCH_36.json``;
# Python 3.11).
LEMMA5_MAX = 10**7
GROUPS_MAX_ORDER = 10**6
# Largest `--p` accepted with `independent --brute`: the oracle is O(p) time
# and p bytes, and a whole CLI run on an independent pair at p = 999983 took
# 0.32-0.40 s on the same machine.
BRUTE_MAX_P = 10**6
# Largest `lemma5 --brute-below` accepted over a `--max` above it: the oracle
# runs on every prime up to the bound, about N**2 / ln N steps in all, and
# [5, 10000] took 1.13-1.17 s on the same machine.
BRUTE_BELOW_MAX = 10**4
# Largest `lemma5 --jobs`, per core: all the workers are forked at once, and
# 4 per core still admits the 3 workers that the determinism check runs on a
# one-core machine.
JOBS_PER_CORE = 4


_quote = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    """A str, int, bool or None as ``json.dumps`` writes it."""
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return _quote(value) if type(value) is str else int.__repr__(value)


def _json_list(items, pad: str = "      ") -> str:
    """The rendered ``items`` as ``json.dumps`` writes a list with an indent
    of 2 that is the value of a key indented by ``pad``, by default a key of
    a report entry: one item per line, or ``[]``."""
    body = f",\n{pad}  ".join(items)
    return f"[\n{pad}  {body}\n{pad}]" if body else "[]"


def _spread(entry: tuple) -> list:
    """An entry's values in order, each tuple spread over one item per column."""
    return [x for v in entry for x in (v if isinstance(v, tuple) else (v,))]


class Report:
    """What one subcommand computes, for ``_write_report`` to stream.

    ``params`` is the report's params as JSON text, indented to sit in the
    report, as each handler's f-string writes them.  ``entries`` is an
    iterable of tuples, read once.  ``to_text(entry)`` is an entry's text
    lines as one string, ``to_json(entry)`` its JSON, indented to sit in the
    entries list, and ``to_row(entry)`` its CSV row (by default its values,
    each tuple spread over one column per item); ``fields`` is the CSV
    header.  ``head`` is a text line before the entries and ``tail`` one
    after them, written only in text, with ``str.format_map`` over the
    summary; either may be empty.  ``summary``, a dict of ints, defaults to
    {"failures": 0}, and ``stderr``, the texts written to stderr one per
    line, to a new empty list; a nonzero ``summary["failures"]`` makes the
    exit code 1.  Iterating ``entries`` to its end may fill in ``summary``
    and ``stderr``, so they are read only after it.
    """

    def __init__(
        self,
        params: str,
        entries,
        to_text,
        to_json,
        fields,
        to_row=_spread,
        head: str = "",
        tail: str = "",
        summary: dict | None = None,
        stderr: list[str] | None = None,
    ) -> None:
        self.params, self.entries, self.fields = params, entries, fields
        self.to_text, self.to_json, self.to_row = to_text, to_json, to_row
        self.head, self.tail = head, tail
        self.summary = {"failures": 0} if summary is None else summary
        self.stderr = [] if stderr is None else stderr


class _Batched:
    """A text sink that passes its writes on to ``out`` about 64 KiB at a
    time.  Where stdout is unbuffered (``python -u``), each write to it is a
    system call: one per entry took a JSON ``groups --max-order 3000`` from
    162 to 179 ms (medians of 40 runs).  It pays on a buffered stdout too
    when that is a pipe, as for a report read by another program: writing
    each entry straight to ``out`` made the same spawned run slower in 17
    and 14 of 20 alternated spawns (medians 81.6 against 75.0 ms and 98.3
    against 93.9 ms, a shared 2-core machine), while to ``/dev/null`` it
    was slower in only 12 and 9 of 20, no steady difference."""

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
                f'  "version": {_quote(__version__)},\n'
                f'  "command": {_quote(command)},\n'
                f'  "params": {report.params},\n'
                '  "entries": ['
            )
            sep, to_json = "\n    ", report.to_json
            for entry in report.entries:
                write(sep + to_json(entry))
                sep = ",\n    "
            close = "]" if sep == "\n    " else "\n  ]"
            summary = ",\n    ".join(f"{_quote(key)}: {n}" for key, n in report.summary.items())
            write(f'{close},\n  "summary": {{\n    {summary}\n  }}\n}}\n')
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
            if report.head:
                write(report.head + "\n")
            for entry in report.entries:
                write(to_text(entry) + "\n")
            if report.tail:
                write(report.tail.format_map(report.summary) + "\n")
    finally:
        # Entries cut short are closed here, so the forked workers behind
        # them are waited for before the report ends, not whenever the
        # garbage collector gets to them.
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
    message = "expected three comma-separated integers"
    if len(parts) == 3:
        try:
            return tuple(int(x) for x in parts)  # type: ignore[return-value]
        except ValueError as exc:
            message = str(exc)
    # imported only here, where argparse is to report the error
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(message)


# ---------------------------------------------------------------------------
# lemma5: per-prime generator-pair verification over a range


def _lemma5_worker(p: int, brute_below: int) -> tuple | str:
    """Verify one prime; returns its entry, or a failure as the text to
    write to stderr: a ``FAILURE p=...`` line and then its record as JSON,
    with ``ok`` false, p, the ``reason`` and the trace or entry.

    p is a plain int that the prime stream, or ``is_prime`` for a range of
    one number, has already tested, and the search runs on it as it is
    (``_generator_pair``), building no record.  Only the oracle wraps p,
    untested, for the ``LensSpace``s whose pairs it checks.  An entry is
    (p, weights_a, weights_b, Q, R, stage, certificate, brute_checked), all
    plain values, as ``marshal`` needs."""
    try:
        stage, q, r, certificate, weights_a, weights_b, _ = _generator_pair(p)
    except SearchExhausted as exc:
        reason, detail = "search exhausted", {"trace": [step._asdict() for step in exc.trace]}
    else:
        entry = (p, weights_a, weights_b, q, r, stage, certificate, p <= brute_below)
        if p > brute_below:
            return entry
        pm = PrimeModulus._trusted(p)
        pair_a = pontrjagin_pair(LensSpace(pm, weights_a))
        pair_b = pontrjagin_pair(LensSpace(pm, weights_b))
        if independent(pair_a, pair_b) and independent_bruteforce(pair_a, pair_b):
            return entry
        reason, detail = "oracle disagreement", {"entry": json.loads(_lemma5_json(entry))}
    record = {"ok": False, "p": p, "reason": reason, **detail}
    return f"FAILURE p={p}: {reason}\n{json.dumps(record, indent=2)}"


# Numbers per block of ``lemma5``: block k is min + k*width to
# min + (k+1)*width - 1, cut at max, so every block is known before any
# prime is sieved and a worker sieves only its own blocks.  A block costs
# more than its share of one stream, for two reasons: it sieves the base
# primes up to isqrt(max) again, and it strikes every base prime from its
# 4096 numbers, where one stream strikes each from 65,536 at a time.
# Sieving only, in process, medians, one stream against block by block:
# 49.6 against 82.5 ms at 10^6, and 396 against 1,051 ms at 10^7.  Sieving
# the base primes again is 8 ms of the difference at 10^6 (34 us x 245
# blocks) and 213 ms at 10^7 (87 us x 2,442 blocks); the strikes are the
# rest.  The workers share that cost.  A wider block costs less but splits
# the benchmark's [5, 10^4] unevenly: at 4096 it is 3 blocks of 563, 463
# and 201 primes, at 8192 2 blocks of 1,028 and 201.
_LEMMA5_BLOCK = 4096


def _lemma5_child(starts, hi: int, brute_below: int, fd: int, inherited: list[int]) -> None:
    """A forked worker: ``_lemma5_worker`` on each prime of the blocks that
    begin at ``starts``, each ``_LEMMA5_BLOCK`` numbers wide and cut at
    ``hi``, each block's results written to the pipe ``fd`` as ``marshal``
    bytes behind an 8-byte length.

    It first closes the read ends it ``inherited``.  It leaves only through
    ``os._exit``, so it never returns into the parent's code and never
    flushes what the parent had buffered: report parts, stdout or an
    ``--out`` file.  A reader that has gone or an interrupt ends it quietly;
    any other exception prints its traceback first.
    """
    code = 1
    try:
        for other in inherited:
            os.close(other)
        out = open(fd, "wb")
        for start in starts:
            primes = _prime_stream(start, min(start + _LEMMA5_BLOCK - 1, hi))
            data = marshal.dumps([_lemma5_worker(p, brute_below) for p in primes])
            out.write(len(data).to_bytes(8, "little"))
            out.write(data)
            out.flush()
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _lemma5_results(lo: int, hi: int, brute_below: int, jobs: int):
    """``_lemma5_worker``'s result for each prime of [lo, hi], in order.

    With more than one block of ``_LEMMA5_BLOCK`` numbers and more than one
    job, where ``os.fork`` exists, it forks one worker per job up to one per
    block (``_lemma5_child``): worker w sieves and checks the blocks k with
    k mod jobs = w and writes them to its own pipe, and the parent, which
    sieves nothing, reads them back in order k = 0, 1, 2, ...  A full pipe
    blocks its writer, so no worker runs more than about one block ahead of
    the reader.  A worker that ends before its block is read raises
    ``RuntimeError``.  However the results end, the read ends are closed and
    every child is waited for.
    """
    starts = range(lo, hi + 1, _LEMMA5_BLOCK)
    jobs = min(jobs, len(starts))
    if jobs <= 1 or not hasattr(os, "fork"):
        for p in _prime_stream(lo, hi):
            yield _lemma5_worker(p, brute_below)
        return
    readers, pids = [], []
    try:
        for worker in range(jobs):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _lemma5_child(
                        starts[worker::jobs], hi, brute_below, w, [f.fileno() for f in readers]
                    )
            finally:
                os.close(w)
            pids.append(pid)
        for k, start in enumerate(starts):
            worker = k % jobs
            head = readers[worker].read(8)
            size = int.from_bytes(head, "little")
            data = readers[worker].read(size)
            if len(head) < 8 or len(data) < size:
                raise RuntimeError(
                    f"lemma5 worker {worker} ended before returning its block from {start}"
                )
            yield from marshal.loads(data)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _lemma5_text(e: tuple) -> str:
    p, weights_a, weights_b, q, r, stage, certificate, brute_checked = e
    line = (
        f"p={p}  weights_a=({','.join(map(str, weights_a))})  "
        f"weights_b=({','.join(map(str, weights_b))})  Q={q}  R={r}  "
        f"stage={stage}  certificate={certificate}"
    )
    return line + "  [brute-checked]" if brute_checked else line


def _lemma5_json(e: tuple) -> str:
    """A ``lemma5`` entry as ``json.dumps`` writes it in a report."""
    p, weights_a, weights_b, q, r, stage, certificate, brute_checked = e
    return f"""{{
      "p": {p},
      "weights_a": {_json_list(map(str, weights_a))},
      "weights_b": {_json_list(map(str, weights_b))},
      "Q": {q},
      "R": {r},
      "stage": {_quote(stage)},
      "certificate": {certificate},
      "brute_checked": {'true' if brute_checked else 'false'}
    }}"""


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
    # every machine has a core, so the cores are counted only where the cap
    # or --jobs 0 needs them
    cpus = 1 if 0 < ns.jobs <= JOBS_PER_CORE else os.cpu_count() or 1
    if ns.jobs > JOBS_PER_CORE * cpus:
        raise ValueError(
            f"--jobs must be at most {JOBS_PER_CORE * cpus} "
            f"({JOBS_PER_CORE} per core), got {ns.jobs}"
        )
    # 0 means one worker per core, and more than cores stay allowed, so the
    # forked path runs anywhere
    jobs = ns.jobs or cpus
    if ns.min == ns.max:  # one number: tested here, with no stream to set up
        results = [_lemma5_worker(ns.min, ns.brute_below)] if is_prime(ns.min) else []
    else:
        results = _lemma5_results(ns.min, ns.max, ns.brute_below, jobs)

    failures: list[str] = []

    def entries():
        checked = 0
        for result in results:
            checked += 1
            if type(result) is str:
                failures.append(result)
            else:
                yield result
        report.summary = {"primes_checked": checked, "failures": len(failures)}

    report = Report(
        f'{{\n    "min": {ns.min},\n    "max": {ns.max},\n'
        f'    "brute_below": {ns.brute_below}\n  }}',
        entries(),
        _lemma5_text,
        _lemma5_json,
        [
            "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3",
            "Q", "R", "stage", "certificate", "brute_checked",
        ],
        head=f"generator pairs for primes in [{ns.min}, {ns.max}]",
        tail="primes_checked={primes_checked} failures={failures}",
        stderr=failures,
    )
    return report


# ---------------------------------------------------------------------------
# invariants: Q, normalized pair and canonical form of one lens space


def _invariants_text(e: tuple) -> str:
    p, weights, q, (b0, b1), (c0, c1) = e
    return (
        f"p={p} weights=({','.join(map(str, weights))})\n"
        f"Q = {q}\n"
        f"pair = ({b0}, {b1})\n"
        f"canonical = ({c0}, {c1})"
    )


def _invariants_json(e: tuple) -> str:
    """An ``invariants`` entry as ``json.dumps`` writes it in a report."""
    p, weights, q, pair, canonical = e
    return f"""{{
      "p": {p},
      "weights": {_json_list(map(str, weights))},
      "Q": {q},
      "pair": {_json_list(map(str, pair))},
      "canonical": {_json_list(map(str, canonical))}
    }}"""


def cmd_invariants(ns) -> Report:
    # p and the weights are checked once, by LensSpace; the rest is on ints
    lens = LensSpace(ns.p, ns.q)
    q = q_sum(lens)
    # the pair is pontrjagin_pair(lens), whose beta0 is 1
    entry = (ns.p, lens.weights, q, (1, q), _canonical(1, q, lens.p))
    return Report(
        f'{{\n    "p": {ns.p},\n    "q": {_json_list(map(str, ns.q), "    ")}\n  }}',
        [entry],
        _invariants_text,
        _invariants_json,
        ["p", "q1", "q2", "q3", "Q", "beta0", "beta1", "canonical0", "canonical1"],
    )


# ---------------------------------------------------------------------------
# independent: verdict for two weight triples, optionally oracle-checked


def _independent_text(e: tuple) -> str:
    p, weights_a, weights_b, q, r, verdict, oracle, agree = e
    text = (
        f"p={p}\n"
        f"A: weights=({','.join(map(str, weights_a))}) Q={q}\n"
        f"B: weights=({','.join(map(str, weights_b))}) R={r}\n"
        f"verdict: {'independent' if verdict else 'dependent'}"
    )
    if oracle is None:
        return text
    return (
        f"{text}\noracle: {'independent' if oracle else 'dependent'} "
        f"({'agree' if agree else 'DISAGREE'})"
    )


def _independent_json(e: tuple) -> str:
    """An ``independent`` entry as ``json.dumps`` writes it in a report."""
    p, weights_a, weights_b, q, r, verdict, oracle, agree = e
    return f"""{{
      "p": {p},
      "weights_a": {_json_list(map(str, weights_a))},
      "weights_b": {_json_list(map(str, weights_b))},
      "Q": {q},
      "R": {r},
      "independent": {_scalar(verdict)},
      "oracle": {_scalar(oracle)},
      "agree": {_scalar(agree)}
    }}"""


def cmd_independent(ns) -> Report:
    if ns.brute and ns.p > BRUTE_MAX_P:
        raise ValueError(f"--brute needs --p at most {BRUTE_MAX_P}, got {ns.p}")
    # p and the weights are checked once, by LensSpace; the verdict is on
    # ints, the slopes Q and R of two pairs whose beta0 is 1
    lens_a = LensSpace(ns.p, ns.qa)
    lens_b = LensSpace(lens_a.p, ns.qb)
    q, r = q_sum(lens_a), q_sum(lens_b)
    verdict = _dependence_free(_prime_modulus(lens_a.p, 5), q, r)[0]
    oracle = None
    if ns.brute:
        oracle = independent_bruteforce(pontrjagin_pair(lens_a), pontrjagin_pair(lens_b))
    agree = None if oracle is None else oracle == verdict
    entry = (ns.p, lens_a.weights, lens_b.weights, q, r, verdict, oracle, agree)
    failures = int(agree is False)
    return Report(
        f'{{\n    "p": {ns.p},\n    "qa": {_json_list(map(str, ns.qa), "    ")},\n'
        f'    "qb": {_json_list(map(str, ns.qb), "    ")},\n'
        f'    "brute": {"true" if ns.brute else "false"}\n  }}',
        [entry],
        _independent_text,
        _independent_json,
        [
            "p", "qa1", "qa2", "qa3", "qb1", "qb2", "qb3", "Q", "R",
            "independent", "oracle", "agree",
        ],
        summary={"failures": failures},
        stderr=["error: oracle disagreement (implementation bug trap)"] if failures else [],
    )


# ---------------------------------------------------------------------------
# orders / orders-d3: order formulas for cyclic and metacyclic groups


def _orders_text(e: tuple) -> str:
    p, k, order, lens_order, structure, extension, non_split = e
    text = (
        f"p={p} k={k}\n"
        f"bordism order: {order}\n"
        f"lens class order: {lens_order}\n"
        f"group structure: {structure}"
    )
    if extension is None:
        return text
    if extension == "unspecified":
        return f"{text}\nextension order check: unspecified\nnon-split extension: unspecified"
    return (
        f"{text}\nextension order check: {'ok' if extension else 'FAILED'}\n"
        f"non-split extension: {'yes' if non_split else 'no'}"
    )


def _orders_json(e: tuple) -> str:
    """An ``orders`` entry as ``json.dumps`` writes it in a report: the lens
    class order and group structure may be "unspecified", and the last two
    checks "unspecified" or null."""
    p, k, order, lens_order, structure, extension, non_split = e
    return f"""{{
      "p": {p},
      "k": {k},
      "bordism_order": {order},
      "lens_class_order": {_scalar(lens_order)},
      "group_structure": {_quote(structure)},
      "extension_order_check": {_scalar(extension)},
      "non_splitness": {_scalar(non_split)}
    }}"""


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
    entry = (ns.p, k, order, lens_order, structure, extension, non_split)
    fields = [
        "p", "k", "bordism_order", "lens_class_order", "group_structure",
        "extension_order_check", "non_splitness",
    ]
    params = f'{{\n    "p": {ns.p},\n    "k": {k}\n  }}'
    return Report(params, [entry], _orders_text, _orders_json, fields)


def _orders_d3_text(e: tuple) -> str:
    p, k, m, n, r, group_order, order, _ = e
    return (
        f"p={p} k={k}\n"
        f"group: m={m} n={n} r={r} (order {group_order})\n"
        f"bordism order: {order} (cyclic)"
    )


def _orders_d3_json(e: tuple) -> str:
    """An ``orders-d3`` entry as ``json.dumps`` writes it in a report."""
    p, k, m, n, r, group_order, order, cyclic = e
    return f"""{{
      "p": {p},
      "k": {k},
      "m": {m},
      "n": {n},
      "r": {r},
      "group_order": {group_order},
      "bordism_order": {order},
      "cyclic": {_scalar(cyclic)}
    }}"""


def cmd_orders_d3(ns) -> Report:
    # the family's rule and the bound on 9 * p**k are decided once, here,
    # before ``_d_pk3`` works mod p**k (minutes at a k far beyond the bound)
    p = PrimeModulus(ns.p)
    order = bordism_order_metacyclic_d3(p, ns.k)
    m, n, r = _d_pk3(p, ns.k)
    entry = (ns.p, ns.k, m, n, r, m * n, order, True)
    fields = ["p", "k", "m", "n", "r", "group_order", "bordism_order", "cyclic"]
    params = f'{{\n    "p": {ns.p},\n    "k": {ns.k}\n  }}'
    return Report(params, [entry], _orders_d3_text, _orders_d3_json, fields)


# ---------------------------------------------------------------------------
# groups: enumeration of odd-order presentations


def _groups_text(e: tuple) -> str:
    m, n, r, sylow = e
    sylow = ",".join(f"{q}:{o}" for q, o in sylow) or "-"
    return (
        f"order={m * n} m={m} n={n} r={r} sylow={sylow} "
        f"theorem1={'yes' if _theorem1_order(m * n) else 'no'}"
    )


def _groups_row(e: tuple) -> list:
    m, n, r, sylow = e
    return [m * n, m, n, r, ";".join(f"{q}:{o}" for q, o in sylow), _theorem1_order(m * n)]


def _groups_json(e: tuple) -> str:
    """A ``groups`` entry, the walk's (m, n, r, sylow), as ``json.dumps``
    writes the object it stands for in a report: m, n, r, the order m*n, one
    {prime, order, shape} per (prime, order) pair of ``sylow`` and
    ``theorem1_applies``.  Every Sylow subgroup is cyclic of the full
    prime-power order, as ``sylow_structure`` says."""
    m, n, r, sylow = e
    items = [
        f"""{{
          "prime": {q},
          "order": {o},
          "shape": "cyclic"
        }}"""
        for q, o in sylow
    ]
    return f"""{{
      "m": {m},
      "n": {n},
      "r": {r},
      "order": {m * n},
      "sylow": {_json_list(items)},
      "theorem1_applies": {'true' if _theorem1_order(m * n) else 'false'}
    }}"""


def cmd_groups(ns) -> Report:
    if ns.max_order > GROUPS_MAX_ORDER:
        raise ValueError(f"--max-order must be at most {GROUPS_MAX_ORDER}, got {ns.max_order}")
    presentations = _presentations(ns.max_order)

    def entries():
        listed = 0
        for listed, presentation in enumerate(presentations, 1):
            yield presentation
        report.summary = {"groups_listed": listed, "failures": 0}

    report = Report(
        f'{{\n    "max_order": {ns.max_order}\n  }}',
        entries(),
        _groups_text,
        _groups_json,
        ["order", "m", "n", "r", "sylow", "theorem1_applies"],
        to_row=_groups_row,
        head=f"odd-order presentations with order <= {ns.max_order}",
        tail="groups_listed={groups_listed}",
    )
    return report


# ---------------------------------------------------------------------------


# Each subcommand's help and its options, each option as the keyword
# arguments of the ``add_argument`` call that declares it; options that
# several subcommands take are declared once, below.  ``dest`` is given even
# where argparse would derive it, so the direct parse need not.  An option
# either is required or has a default, and ``--brute`` states the default
# that its ``store_true`` gives.  The help strings are formatted at import.
_OUTPUT = {
    "--format": {"dest": "format", "choices": ("text", "csv", "json"), "default": "text"},
    "--out": {
        "dest": "out", "metavar": "FILE", "default": None,
        "help": "write to FILE instead of stdout (- is stdout)",
    },
}
_PRIME = {"--p": {"dest": "p", "type": int, "required": True}}
_PRIME_POWER = {**_PRIME, "--k": {"dest": "k", "type": int, "default": 1}}
_COMMANDS = {
    "lemma5": (
        "verify an independent generator pair exists for every prime in range",
        {
            "--min": {
                "dest": "min", "type": int, "required": True, "help": "first prime bound (>= 5)"
            },
            "--max": {"dest": "max", "type": int, "required": True, "help": "last prime bound"},
            "--brute-below": {
                "dest": "brute_below", "type": int, "default": 31,
                "help": (
                    "cross-check primes up to this bound with the exhaustive oracle "
                    f"(default 31; at most {BRUTE_BELOW_MAX} unless --max is)"
                ),
            },
            "--jobs": {
                "dest": "jobs", "type": int, "default": 1,
                "help": (
                    f"worker processes (0 = all cores; at most one per block of {_LEMMA5_BLOCK} "
                    f"numbers and {JOBS_PER_CORE} per core, so the determinism check can run "
                    "3 workers on any machine)"
                ),
            },
            **_OUTPUT,
        },
    ),
    "invariants": (
        "Q, normalized invariant pair and canonical form of one lens space",
        {
            **_PRIME,
            "--q": {"dest": "q", "type": _triple, "required": True, "metavar": "a,b,c"},
            **_OUTPUT,
        },
    ),
    "independent": (
        "independence verdict for two weight triples",
        {
            **_PRIME,
            "--qa": {"dest": "qa", "type": _triple, "required": True, "metavar": "a,b,c"},
            "--qb": {"dest": "qb", "type": _triple, "required": True, "metavar": "a,b,c"},
            "--brute": {
                "dest": "brute", "action": "store_true", "default": False,
                "help": f"also run the exhaustive oracle (--p at most {BRUTE_MAX_P})",
            },
            **_OUTPUT,
        },
    ),
    "orders": ("bordism orders over a cyclic group of order p**k", {**_PRIME_POWER, **_OUTPUT}),
    "orders-d3": (
        "bordism order over the metacyclic group (p**k, 3, r)", {**_PRIME_POWER, **_OUTPUT}
    ),
    "groups": (
        "enumerate odd-order presentations up to a bound",
        {"--max-order": {"dest": "max_order", "type": int, "required": True}, **_OUTPUT},
    ),
}


def build_parser():
    """A new full parser, built from ``_COMMANDS``."""
    import argparse

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
    for name, (about, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=about)
        for option, keywords in options.items():
            command.add_argument(option, **keywords)
    return parser


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, built from
    ``_COMMANDS`` without argparse, or None.

    It parses an ``argv`` whose first item names a subcommand and whose
    every later item is either exactly one of that subcommand's option
    strings or, after an option that takes a value, that value, which does
    not begin with ``-``.  Each value goes through the option's ``type``
    and must be one of its ``choices``; ``--brute`` stores True; a repeated
    option keeps its last value.  Every option not given gets its default.
    Any other ``argv``, such as one with ``-h``, an abbreviation, ``--p=5``
    or a stray value, or one where ``type`` rejects a value or a required
    option is missing, returns None, for argparse to give its own help,
    usage line or error."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command[1]
    values = {}
    i, n = 1, len(argv)
    while i < n:
        keywords = options.get(argv[i])
        if keywords is None:
            return None
        if "action" in keywords:  # a store_true flag: --brute
            values[keywords["dest"]] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1][:1] == "-":
            return None
        value = argv[i + 1]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except Exception:
                # a value that its type rejects, as int does with ValueError
                # and _triple with ArgumentTypeError: the full parser
                # converts it again and reports the error
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[keywords["dest"]] = value
        i += 2
    for keywords in options.values():
        if keywords["dest"] not in values:
            if "required" in keywords:
                return None
            values[keywords["dest"]] = keywords["default"]
    return SimpleNamespace(command=argv[0], **values)


def _parse(argv: list[str]):
    """``build_parser().parse_args(argv)``: ``_parse_direct`` where it gives
    a namespace, else a full parser built for this call."""
    ns = _parse_direct(argv)
    return build_parser().parse_args(argv) if ns is None else ns


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # looked up on each call, so a replaced or wrapped handler is the one run
    handler = globals()["cmd_" + ns.command.replace("-", "_")]
    try:
        report = handler(ns)
        if ns.out not in (None, "-"):
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
    except OSError as exc:  # an output that cannot be written, or a failed pipe or fork
        if ns.out in (None, "-"):
            # what stdout still buffers goes to os.devnull, so the flush at
            # exit cannot fail again
            try:
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
            except ValueError:  # stdout has no descriptor, as a StringIO, or is closed
                pass
        if isinstance(exc, BrokenPipeError):  # the reader left, as in ``| head``
            return EXIT_BROKEN_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report.stderr:
        sys.stderr.write("".join(line + "\n" for line in report.stderr))
    return EXIT_FAILURE if report.summary["failures"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
