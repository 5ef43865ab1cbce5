"""Byte-for-byte golden outputs of every subcommand in every format.

Each case runs ``cli.main`` in-process and compares stdout, stderr and the
exit code with the files under ``tests/golden/``: ``<case>.out``,
``<case>.err`` and the code in ``exit_codes.json``.  The calls whose output
is argparse's own are kept apart, in ``ARGPARSE`` and the same three kinds
of file under ``tests/golden-argparse/``.  After a deliberate change of
output, rewrite the files with ``python tests/test_golden.py`` and review
the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from lensbordism import cli  # noqa: E402
from lensbordism.errors import SearchExhausted  # noqa: E402
from lensbordism.lens import TraceStep  # noqa: E402

FORMATS = ("text", "csv", "json")

SCENARIOS = {
    "lemma5-200": ["lemma5", "--min", "5", "--max", "200"],
    "lemma5-200-nobrute": ["lemma5", "--min", "5", "--max", "200", "--brute-below", "0"],
    # a window far from 5, whose sieve starts at neither 2 nor a base prime
    "lemma5-999000": ["lemma5", "--min", "999000", "--max", "1000000"],
    # one prime, checked at stage iii
    "lemma5-999983": ["lemma5", "--min", "999983", "--max", "999983"],
    # a window with no prime in it: nothing checked, exit 0
    "lemma5-999984": ["lemma5", "--min", "999984", "--max", "1000000"],
    "lemma5-inverted": ["lemma5", "--min", "10", "--max", "9"],
    "lemma5-exhausted": ["lemma5", "--min", "5", "--max", "13"],
    "lemma5-disagree": ["lemma5", "--min", "5", "--max", "7"],
    "invariants-13": ["invariants", "--p", "13", "--q", "2,3,4"],
    "invariants-nonunit": ["invariants", "--p", "5", "--q", "1,1,5"],
    # p = 2 mod 3: cubing permutes the units
    "invariants-11": ["invariants", "--p", "11", "--q", "2,3,4"],
    # Q = 0: the canonical form is (1, 0)
    "invariants-7-zero": ["invariants", "--p", "7", "--q", "1,2,3"],
    "independent-brute": ["independent", "--p", "7", "--qa", "1,1,1", "--qb", "1,2,2", "--brute"],
    "independent-dependent": ["independent", "--p", "5", "--qa", "1,1,1", "--qb", "1,1,1"],
    "independent-disagree": ["independent", "--p", "5", "--qa", "1,1,1", "--qb", "1,1,2", "--brute"],
    # no --brute: oracle and agree are null
    "independent-nobrute": ["independent", "--p", "101", "--qa", "1,1,1", "--qb", "1,1,2"],
    "orders-5-1": ["orders", "--p", "5", "--k", "1"],
    "orders-5-2": ["orders", "--p", "5", "--k", "2"],
    "orders-3-2": ["orders", "--p", "3", "--k", "2"],
    "orders-9": ["orders", "--p", "9"],
    "orders-d3-7": ["orders-d3", "--p", "7", "--k", "1"],
    "orders-d3-5": ["orders-d3", "--p", "5"],
    "orders-d3-7-2": ["orders-d3", "--p", "7", "--k", "2"],
    "groups-300": ["groups", "--max-order", "300"],
    "groups-1": ["groups", "--max-order", "1"],
    "groups-0": ["groups", "--max-order", "0"],
}


def _exhausted_at_7(real):
    def fake(pm):
        if int(pm) == 7:
            raise SearchExhausted(7, [TraceStep("i", 3, 6, 3, False)])
        return real(pm)

    return fake


# Cases that reach the failure paths (exit 1) by replacing one library call.
PATCHES = {
    "lemma5-exhausted": ("_generator_pair", lambda: _exhausted_at_7(cli._generator_pair)),
    "lemma5-disagree": ("independent_bruteforce", lambda: lambda a, b: False),
    "independent-disagree": ("independent_bruteforce", lambda: lambda a, b: False),
}

CASES = {
    f"{name}.{fmt}": (name, [*argv, "--format", fmt])
    for name, argv in SCENARIOS.items()
    for fmt in FORMATS
}

# Calls whose output argparse writes itself, help and usage lines wrapped
# at COLUMNS=80: help, the version, errors and an abbreviation it accepts.
ARGPARSE_GOLDEN = GOLDEN.parent / "golden-argparse"
ARGPARSE = {
    "help": ["-h"],
    **{f"{command}-help": [command, "-h"] for command in (
        "lemma5", "invariants", "independent", "orders", "orders-d3", "groups"
    )},
    "version": ["--version"],
    "missing-required": ["lemma5", "--min", "5"],
    "unknown-option": ["orders", "--p", "5", "--bogus"],
    "abbreviation": ["groups", "--max-o", "30"],
    "short-triple": ["invariants", "--p", "7", "--q", "1,2"],
    "format-choice": ["orders", "--p", "5", "--format", "xml"],
}


def run_argv(argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def run_case(case: str, extra: tuple[str, ...] = ()) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one case."""
    name, argv = CASES[case]
    with contextlib.ExitStack() as stack:
        if name in PATCHES:
            attr, make = PATCHES[name]
            stack.enter_context(mock.patch.object(cli, attr, make()))
        return run_argv([*argv, *extra])


def run_argparse_case(case: str) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one ``ARGPARSE`` call."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return run_argv(ARGPARSE[case])


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def exit_codes() -> dict[str, int]:
    return json.loads(_read(GOLDEN / "exit_codes.json"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, exit_codes):
    out, err, code = run_case(case)
    assert out == _read(GOLDEN / f"{case}.out")
    assert err == _read(GOLDEN / f"{case}.err")
    assert code == exit_codes[case]


@pytest.mark.parametrize(
    "case",
    sorted(c for c, (name, _) in CASES.items() if name in ("lemma5-exhausted", "lemma5-disagree")),
)
def test_failures_cross_the_worker_pipes(case, exit_codes):
    """At ``--jobs 2`` the forked workers inherit the patch and send their
    failure dicts, trace dicts included, back through their pipes.

    Both ranges are narrower than one block, so the block is shrunk to one
    number: several blocks, two forked workers."""
    real, forked = cli.os.fork, []

    def counting():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(cli, "_LEMMA5_BLOCK", 1), mock.patch.object(cli.os, "fork", counting):
        out, err, code = run_case(case, ("--jobs", "2"))
    assert len(forked) == 2
    assert out == _read(GOLDEN / f"{case}.out")
    assert err == _read(GOLDEN / f"{case}.err")
    assert code == exit_codes[case] == 1


@pytest.mark.parametrize(
    "case",
    sorted(c for c, (name, _) in CASES.items() if name.startswith("lemma5") and name not in PATCHES),
)
def test_lemma5_goldens_from_forked_workers(case, exit_codes):
    """Each lemma5 report is the same from two forked workers, which sieve
    blocks of 16 numbers each."""
    with mock.patch.object(cli, "_LEMMA5_BLOCK", 16):
        out, err, code = run_case(case, ("--jobs", "2"))
    assert out == _read(GOLDEN / f"{case}.out")
    assert err == _read(GOLDEN / f"{case}.err")
    assert code == exit_codes[case]


@pytest.mark.parametrize("case", sorted(ARGPARSE))
def test_argparse_output(case):
    out, err, code = run_argparse_case(case)
    assert out == _read(ARGPARSE_GOLDEN / f"{case}.out")
    assert err == _read(ARGPARSE_GOLDEN / f"{case}.err")
    assert code == json.loads(_read(ARGPARSE_GOLDEN / "exit_codes.json"))[case]


def test_golden_cases_complete(exit_codes):
    files = {p.name for p in GOLDEN.iterdir()} - {"exit_codes.json"}
    assert files == {f"{case}.{s}" for case in CASES for s in ("out", "err")}
    assert set(exit_codes) == set(CASES)
    files = {p.name for p in ARGPARSE_GOLDEN.iterdir()} - {"exit_codes.json"}
    assert files == {f"{case}.{s}" for case in ARGPARSE for s in ("out", "err")}
    assert set(json.loads(_read(ARGPARSE_GOLDEN / "exit_codes.json"))) == set(ARGPARSE)


def test_out_file_holds_the_golden_stdout(tmp_path, exit_codes):
    path = tmp_path / "report.csv"
    out, err, code = run_case("lemma5-200.csv", ("--out", str(path)))
    assert (out, err) == ("", "")
    assert code == exit_codes["lemma5-200.csv"] == 0
    assert path.read_bytes() == (GOLDEN / "lemma5-200.csv.out").read_bytes()


def _write_golden() -> None:
    for directory, cases, run in (
        (GOLDEN, CASES, run_case), (ARGPARSE_GOLDEN, ARGPARSE, run_argparse_case)
    ):
        directory.mkdir(exist_ok=True)
        codes = {}
        for case in sorted(cases):
            out, err, codes[case] = run(case)
            (directory / f"{case}.out").write_bytes(out.encode("utf-8"))
            (directory / f"{case}.err").write_bytes(err.encode("utf-8"))
        text = json.dumps(codes, indent=2) + "\n"
        (directory / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
