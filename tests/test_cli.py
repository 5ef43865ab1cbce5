"""Tests for the command line front end."""

import argparse
import contextlib
import errno
import inspect
import io
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import typing
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lensbordism import __version__, cli, groups, orders
from lensbordism.cli import Report, _write_report, main
from lensbordism.groups import MetacyclicParams, sylow_structure
from lensbordism.lens import (
    LensSpace,
    canonical_form,
    independent_bruteforce,
    pontrjagin_pair,
    q_sum,
)
from lensbordism.numtheory import PrimeModulus, _prime_stream
from test_groups import _scan_periodic_odd

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env() -> dict:
    """The environment, with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter on this checkout's package."""
    return subprocess.run(
        [sys.executable, *args], env=checkout_env(), stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=60,
    )


class TestLemma5:
    def test_small_range_json(self, capsys):
        code, out, _ = run(
            capsys, "lemma5", "--min", "5", "--max", "13", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "lemma5"
        assert report["params"] == {"min": 5, "max": 13, "brute_below": 31}
        assert [e["p"] for e in report["entries"]] == [5, 7, 11, 13]
        assert report["summary"] == {"primes_checked": 4, "failures": 0}
        p5 = report["entries"][0]
        assert p5["weights_a"] == [1, 1, 1]
        assert p5["weights_b"] == [1, 1, 2]
        assert (p5["Q"], p5["R"], p5["stage"]) == (3, 6, "i")
        assert p5["brute_checked"] is True  # 5 <= default brute_below

    def test_brute_below_zero_disables_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "lemma5", "--min", "5", "--max", "13",
            "--brute-below", "0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert all(e["brute_checked"] is False for e in report["entries"])

    def test_single_prime_brute_checked(self, capsys):
        code, out, _ = run(
            capsys,
            "lemma5", "--min", "5", "--max", "5",
            "--brute-below", "31", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["entries"]) == 1
        assert report["entries"][0]["brute_checked"] is True

    def test_inverted_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lemma5", "--min", "10", "--max", "9")
        assert code == 2
        assert "error" in err

    def test_min_below_five_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "lemma5", "--min", "3", "--max", "13")
        assert code == 2

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "lemma5", "--min", "5", "--max", "13", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("p,qa1,qa2,qa3,qb1")
        assert len(lines) == 5  # header + four primes

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "lemma5", "--min", "5", "--max", "13")
        assert code == 0
        assert "p=5" in out and "stage=i" in out
        assert "failures=0" in out

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "lemma5", "--min", "5", "--max", "31",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "lemma5", "--min", "5", "--max", "31", "--format", "json"
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == out

    def test_parallel_output_identical(self, capsys):
        # [5, 20000] is 5 blocks of 4096 numbers, so each of the 4 workers
        # computes at least one
        code, serial, _ = run(
            capsys, "lemma5", "--min", "5", "--max", "20000", "--format", "json"
        )
        assert code == 0
        code, parallel, _ = run(
            capsys,
            "lemma5", "--min", "5", "--max", "20000",
            "--format", "json", "--jobs", "4",
        )
        assert code == 0
        assert serial == parallel

    def test_negative_jobs_is_usage_error(self, capsys):
        code, out, err = run(capsys, "lemma5", "--min", "5", "--max", "13", "--jobs", "-1")
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    def test_jobs_above_bound_is_usage_error_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieve or worker started")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_prime_stream", refuse)
        monkeypatch.setattr(cli.os, "fork", refuse)
        for jobs in ("9", "100000"):
            code, out, err = run(
                capsys, "lemma5", "--min", "5", "--max", "1000000", "--jobs", jobs
            )
            assert (code, out) == (2, "")
            assert err == f"error: --jobs must be at most 8 (4 per core), got {jobs}\n"
        # on one core the bound still admits the counts in use: 1, 2, 4 and
        # the determinism check's max(cpu_count, 3); each reaches the sieve
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        for jobs in ("1", "2", "3", "4"):
            with pytest.raises(AssertionError, match="sieve or worker started"):
                main(["lemma5", "--min", "5", "--max", "13", "--jobs", jobs])

    def test_jobs_up_to_the_per_core_cap_count_no_cores(self, capsys, monkeypatch):
        # every machine has a core, so --jobs 1 to JOBS_PER_CORE never asks
        def refuse():
            raise AssertionError("cores counted")

        # two blocks, so --jobs 2 and above fork
        argv = ("lemma5", "--min", "5", "--max", "6000", "--format", "json")
        expected = run(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setattr(cli.os, "cpu_count", refuse)
        for jobs in range(1, cli.JOBS_PER_CORE + 1):
            assert run(capsys, *argv, "--jobs", str(jobs)) == expected
        # --jobs 0 and a count above the cap of one core still count them
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        assert run(capsys, *argv, "--jobs", "0") == expected
        assert run(capsys, "lemma5", "--min", "5", "--max", "13", "--jobs", "5") == (
            2, "", "error: --jobs must be at most 4 (4 per core), got 5\n"
        )
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # not known
        assert run(capsys, "lemma5", "--min", "5", "--max", "13", "--jobs", "5")[2] == (
            "error: --jobs must be at most 4 (4 per core), got 5\n"
        )

    def test_max_above_cap_is_input_error(self, capsys, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError("sieve allocated")

        monkeypatch.setattr(cli, "_prime_stream", no_sieve)
        code, out, err = run(capsys, "lemma5", "--min", "5", "--max", "10000001")
        assert (code, out) == (2, "")
        assert err == "error: --max must be at most 10000000, got 10000001\n"
        monkeypatch.setattr(cli, "_prime_stream", lambda lo, hi: iter(()))
        assert run(capsys, "lemma5", "--min", "9999990", "--max", "10000000")[0] == 0

    def test_negative_brute_below_is_input_error(self, capsys):
        assert run(
            capsys, "lemma5", "--min", "5", "--max", "13", "--brute-below", "-1"
        ) == (2, "", "error: --brute-below must be nonnegative\n")

    def test_brute_below_above_cap_is_input_error(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("search ran")

        monkeypatch.setattr(cli, "_prime_stream", fail)
        monkeypatch.setattr(cli, "independent_bruteforce", fail)
        over = str(cli.BRUTE_BELOW_MAX + 1)
        code, out, err = run(
            capsys, "lemma5", "--min", "5", "--max", over, "--brute-below", over
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: --brute-below must be at most {cli.BRUTE_BELOW_MAX} "
            f"unless --max is, got {over}\n"
        )
        # a --brute-below above the cap is fine while --max is at most the cap
        monkeypatch.undo()
        code, out, _ = run(capsys, "lemma5", "--min", "5", "--max", "40", "--brute-below", "10000")
        assert code == 0
        assert "primes_checked=10 failures=0" in out
        assert out.count("[brute-checked]") == 10

    @pytest.mark.parametrize(
        "span, jobs, forks",
        [
            # [5, 4100] is exactly one block of 4096 numbers: run in process
            (("--max", "4100"), "2", 0),
            # [5, 6000] is two blocks: one worker each, not four
            (("--max", "6000"), "4", 2),
            # [5, 20000] is five blocks: one worker per core up to five
            (("--max", "20000"), "0", min(os.cpu_count() or 1, 5)),
        ],
        ids=["one-block", "two-blocks", "all-cores"],
    )
    def test_forks_no_more_workers_than_blocks(self, capsys, monkeypatch, span, jobs, forks):
        real, forked = os.fork, []

        def counting():
            pid = real()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(cli.os, "fork", counting)
        assert run(capsys, "lemma5", "--min", "5", *span, "--jobs", jobs)[0] == 0
        assert len(forked) == (forks if forks > 1 else 0)  # one worker runs in process

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(
            capsys, "lemma5", "--min", "5", "--max", "31", "--format", "json"
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report


class TestInvariants:
    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "invariants", "--p", "5", "--q", "1,1,1")
        assert code == 0
        assert "Q = 3" in out
        assert "pair = (1, 3)" in out
        assert "canonical = (1, 3)" in out

    def test_reduced_slope(self, capsys):
        code, out, _ = run(capsys, "invariants", "--p", "5", "--q", "1,1,2")
        assert code == 0
        assert "Q = 1" in out
        assert "pair = (1, 1)" in out
        assert "canonical = (1, 1)" in out

    def test_non_unit_weight_is_input_error(self, capsys):
        code, _, err = run(capsys, "invariants", "--p", "5", "--q", "1,1,5")
        assert code == 2
        assert "error" in err

    def test_composite_p_is_input_error(self, capsys):
        code, _, _ = run(capsys, "invariants", "--p", "9", "--q", "1,1,1")
        assert code == 2

    def test_even_p_is_input_error(self, capsys):
        code, _, _ = run(capsys, "invariants", "--p", "2", "--q", "1,1,1")
        assert code == 2

    def test_malformed_triple_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "invariants", "--p", "5", "--q", "1,1")
        assert code == 2

    def test_non_integer_triple_is_usage_error(self, capsys):
        code, out, err = run(capsys, "invariants", "--p", "5", "--q", "1,x,2")
        assert (code, out) == (2, "")
        assert "--q" in err

    def test_eighteen_digit_p(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--p", "1000000000000000003", "--q", "1,2,3"
        )
        assert code == 0
        assert "canonical = (1, 14)" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--p", "5", "--q", "1,1,1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"version", "command", "params", "entries", "summary"}
        assert report["entries"][0]["pair"] == [1, 3]


class TestIndependent:
    def test_independent_pair(self, capsys):
        code, out, _ = run(
            capsys, "independent", "--p", "5", "--qa", "1,1,1", "--qb", "1,1,2"
        )
        assert code == 0
        assert "verdict: independent" in out

    def test_identical_pair_dependent(self, capsys):
        code, out, _ = run(
            capsys, "independent", "--p", "5", "--qa", "1,1,1", "--qb", "1,1,1"
        )
        assert code == 0
        assert "verdict: dependent" in out

    def test_brute_agrees(self, capsys):
        code, out, _ = run(
            capsys,
            "independent", "--p", "7",
            "--qa", "1,1,1", "--qb", "1,2,2", "--brute",
        )
        assert code == 0
        assert "verdict: independent" in out
        assert "oracle: independent (agree)" in out

    def test_bad_weights(self, capsys):
        code, _, _ = run(
            capsys, "independent", "--p", "5", "--qa", "1,1,5", "--qb", "1,1,1"
        )
        assert code == 2

    def test_brute_above_cap_is_input_error(self, capsys, monkeypatch):
        def no_oracle(a, b):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "independent_bruteforce", no_oracle)
        over = str(cli.BRUTE_MAX_P + 1)
        code, out, err = run(
            capsys,
            "independent", "--p", over, "--qa", "1,1,1", "--qb", "1,1,2", "--brute",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --brute needs --p at most {cli.BRUTE_MAX_P}, got {over}\n"

    def test_brute_near_cap(self, capsys):
        # Q = 3 and R = 2 + 200343**2 = -3 mod 999983, so Q/R = -1, a
        # non-residue because 999983 = 3 mod 4
        code, out, _ = run(
            capsys,
            "independent", "--p", "999983", "--qa", "1,1,1", "--qb", "1,1,200343",
            "--brute", "--format", "json",
        )
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert (entry["independent"], entry["oracle"], entry["agree"]) == (True, True, True)


class TestOrders:
    def test_prime_power(self, capsys):
        code, out, _ = run(capsys, "orders", "--p", "5", "--k", "2")
        assert code == 0
        assert "bordism order: 625" in out
        assert "lens class order: 25" in out
        assert "group structure: unspecified" in out
        assert "extension order check: ok" in out
        assert "non-split extension: yes" in out

    def test_three(self, capsys):
        code, out, _ = run(capsys, "orders", "--p", "3", "--k", "1")
        assert code == 0
        assert "bordism order: 9" in out
        assert "lens class order: 9" in out
        assert "group structure: Z_9" in out

    def test_three_squared_unspecified(self, capsys):
        code, out, _ = run(capsys, "orders", "--p", "3", "--k", "2")
        assert code == 0
        assert "bordism order: 81" in out
        assert "lens class order: unspecified" in out
        assert "extension order check: unspecified" in out

    def test_five_k1_structure(self, capsys):
        code, out, _ = run(capsys, "orders", "--p", "5", "--k", "1")
        assert code == 0
        assert "group structure: Z_5 x Z_5" in out

    def test_p_is_tested_for_primality_once_per_formula(self, capsys, is_prime_calls):
        code, out, _ = run(capsys, "orders", "--p", "5", "--k", "2")
        assert code == 0 and "non-split extension: yes" in out
        # once for all five formulas, which take the checked prime as it is
        assert is_prime_calls == [5]

    def test_p2_is_input_error(self, capsys):
        assert run(capsys, "orders", "--p", "2", "--k", "1") == (
            2, "", "error: p must be at least 3, got 2\n"
        )

    def test_k_zero_is_input_error(self, capsys):
        assert run(capsys, "orders", "--p", "5", "--k", "0") == (
            2, "", "error: k must be at least 1, got 0\n"
        )

    @pytest.mark.parametrize(
        "command, p, k, power",
        [
            ("orders", "3", "30000000", "3**60000000"),
            ("orders", "3", "100000", "3**200000"),
            ("orders-d3", "7", "3000", "9 * 7**3000"),
            ("orders-d3", "7", "20000", "9 * 7**20000"),
        ],
    )
    def test_large_k_is_input_error_naming_the_bound(self, capsys, command, p, k, power):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--p", p, "--k", k)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == f"error: {power} exceeds the supported 2**63 - 1 bound\n"


@pytest.mark.parametrize(
    "args",
    [
        ("orders-d3", "--p", "1000000000039"),
        ("invariants", "--p", "100003", "--q", "1,2,3"),
        ("independent", "--p", "100003", "--qa", "1,1,1", "--qb", "1,1,2", "--brute"),
    ],
)
def test_p_is_tested_for_primality_once_per_query(capsys, is_prime_calls, args):
    code, _, _ = run(capsys, *args)
    assert code == 0
    assert is_prime_calls == [int(args[2])]


@pytest.mark.parametrize(
    "args",
    [
        ("lemma5", "--min", "5", "--max", "40"),
        ("invariants", "--p", "13", "--q", "2,3,4"),
        ("independent", "--p", "7", "--qa", "1,1,1", "--qb", "1,2,2", "--brute"),
        ("orders", "--p", "5", "--k", "2"),
        ("orders", "--p", "3", "--k", "1"),
        ("orders-d3", "--p", "7"),
        ("lemma5", "--min", "5", "--max", "5"),
        ("lemma5", "--min", "5", "--max", "9000", "--jobs", "2"),
        ("independent", "--p", "101", "--qa", "1,1,1", "--qb", "1,1,2"),
        ("groups", "--max-order", "300"),
    ],
)
def test_reports_hold_plain_ints(args):
    """Every entry is a plain tuple, which its writers unpack, and no
    ``PrimeModulus`` reaches a report, whatever the handler computed with:
    its values are plain ints, as ``marshal`` and the f-string writers take
    them."""
    ns = cli.build_parser().parse_args(args)
    report = getattr(cli, "cmd_" + ns.command.replace("-", "_"))(ns)
    entries = list(report.entries)
    assert entries and all(type(entry) is tuple for entry in entries)

    def prime_moduli(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            return [x for v in value for x in prime_moduli(v)]
        return [value] if isinstance(value, PrimeModulus) else []

    assert prime_moduli([report.params, entries, report.summary]) == []
    planted = PrimeModulus(7)
    assert prime_moduli([report.params, [(1, (2, planted))], {"n": 0}]) == [planted]


def recording_stream(monkeypatch, path):
    """Patch ``cli._prime_stream`` to append "pid lo hi" to the file
    ``path`` at each call, in the process that makes it: forked workers
    inherit the patch, and each line is written and closed at once."""
    real_stream = cli._prime_stream

    def stream(lo, hi):
        with open(path, "a") as calls:
            calls.write(f"{os.getpid()} {lo} {hi}\n")
        yield from real_stream(lo, hi)

    monkeypatch.setattr(cli, "_prime_stream", stream)


@pytest.mark.parametrize("span, jobs", [("10000", "1"), ("4100", "2")])
def test_lemma5_in_process_sieves_its_range_once(monkeypatch, tmp_path, span, jobs):
    """At ``--jobs 1``, or with one block, the range is one ``_prime_stream``
    call in this process, and each entry holds p as a plain int, which
    ``marshal`` writes."""
    path = tmp_path / "calls"
    recording_stream(monkeypatch, path)
    ns = cli.build_parser().parse_args(("lemma5", "--min", "5", "--max", span, "--jobs", jobs))
    entries = list(cli.cmd_lemma5(ns).entries)
    assert path.read_text().split("\n") == [f"{os.getpid()} 5 {span}", ""]
    primes = list(_prime_stream(5, int(span)))
    assert [e[0] for e in entries] == primes and primes[:4] == [5, 7, 11, 13]
    assert all(type(e[0]) is int for e in entries)


@pytest.mark.parametrize("jobs", [2, 3])
def test_lemma5_workers_sieve_only_their_own_blocks(monkeypatch, tmp_path, jobs):
    """Forked, the parent sieves nothing, and worker w sieves blocks
    w, w + jobs, ... of [5, 20000], each once: 4096 numbers wide, the last
    one cut at 20000."""
    path = tmp_path / "calls"
    recording_stream(monkeypatch, path)
    real, pids = os.fork, []

    def counting():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli.os, "fork", counting)
    ns = cli.build_parser().parse_args(
        ("lemma5", "--min", "5", "--max", "20000", "--jobs", str(jobs))
    )
    report = cli.cmd_lemma5(ns)
    entries = list(report.entries)
    calls = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    assert len(pids) == jobs and os.getpid() not in {pid for pid, _, _ in calls}
    blocks = [(5, 4100), (4101, 8196), (8197, 12292), (12293, 16388), (16389, 20000)]
    assert sorted(calls, key=lambda call: call[1]) == [
        (pids[k % jobs], lo, hi) for k, (lo, hi) in enumerate(blocks)
    ]
    assert [e[0] for e in entries] == list(_prime_stream(5, 20000))
    assert report.summary == {"primes_checked": 2260, "failures": 0}


@pytest.mark.parametrize("flags, built", [((), 18), (("--brute-below", "0"), 0)])
def test_lemma5_builds_lens_spaces_only_for_the_oracle(
    capsys, monkeypatch, is_prime_calls, flags, built
):
    """The search runs on ints, so a ``LensSpace`` is built only for each
    of the 9 brute-checked primes of [5, 200] (the default --brute-below is
    31), two each, and from the sieved prime as it is: no prime is tested
    again."""
    moduli = []
    real = LensSpace.__new__

    def counting(cls, p, weights):
        moduli.append(p)
        return real(cls, p, weights)

    monkeypatch.setattr(LensSpace, "__new__", counting)
    assert run(capsys, "lemma5", "--min", "5", "--max", "200", *flags)[0] == 0
    assert len(moduli) == built
    assert all(type(p) is PrimeModulus for p in moduli)
    assert is_prime_calls == []


class TestOrdersD3:
    def test_seven(self, capsys):
        code, out, _ = run(capsys, "orders-d3", "--p", "7", "--k", "1")
        assert code == 0
        assert "m=7 n=3 r=2" in out
        assert "order 21" in out
        assert "bordism order: 63 (cyclic)" in out

    def test_no_group_for_five(self, capsys):
        code, _, err = run(capsys, "orders-d3", "--p", "5", "--k", "1")
        assert code == 2
        assert "error" in err

    def test_k_zero_is_input_error(self, capsys):
        assert run(capsys, "orders-d3", "--p", "7", "--k", "0") == (
            2, "", "error: k must be at least 1, got 0\n"
        )

    def test_family_rule_is_decided_once(self, capsys, monkeypatch):
        calls = []
        real = orders._check_d3

        def counting(p, k):
            calls.append((p, k))
            return real(p, k)

        monkeypatch.setattr(orders, "_check_d3", counting)
        monkeypatch.setattr(groups, "_check_d3", counting)
        assert run(capsys, "orders-d3", "--p", "13", "--k", "2")[0] == 0
        assert calls == [(13, 2)]

    def test_p_beyond_primality_bound_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "orders-d3", "--p", "3317044064679887385961983", "--k", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "orders-d3", "--p", "13", "--k", "1", "--format", "json"
        )
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert entry["m"] == 13 and entry["n"] == 3 and entry["r"] == 3
        assert entry["bordism_order"] == 117 and entry["cyclic"] is True


class TestGroups:
    def test_order_21_contains_nonabelian(self, capsys):
        code, out, _ = run(capsys, "groups", "--max-order", "21")
        assert code == 0
        assert "order=21 m=7 n=3 r=2" in out

    def test_order_27_not_applicable(self, capsys):
        code, out, _ = run(capsys, "groups", "--max-order", "27")
        assert code == 0
        assert "order=27 m=1 n=27 r=0 sylow=3:27 theorem1=no" in out

    def test_trivial_bound(self, capsys):
        code, out, _ = run(capsys, "groups", "--max-order", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["entries"]) == 1
        assert report["entries"][0]["m"] == 1

    def test_zero_bound_is_input_error(self, capsys):
        code, _, _ = run(capsys, "groups", "--max-order", "0")
        assert code == 2

    def test_max_order_above_cap_is_input_error(self, capsys, monkeypatch):
        def no_table(max_order):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "_presentations", no_table)
        code, out, err = run(capsys, "groups", "--max-order", "1000001")
        assert (code, out) == (2, "")
        assert err == "error: --max-order must be at most 1000000, got 1000001\n"
        monkeypatch.setattr(cli, "_presentations", lambda max_order: [])
        assert run(capsys, "groups", "--max-order", "1000000")[0] == 0

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "groups", "--max-order", "60", "--format", "json")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        assert report["summary"]["failures"] == 0

    def test_output_matches_direct_scan(self, capsys, monkeypatch):
        # the scan oracle's presentations, each with the Sylow pairs that
        # ``sylow_structure`` finds by trial division, against the walk's
        args = [("groups", "--max-order", "600", "--format", fmt) for fmt in ("json", "csv", "text")]
        built = [run(capsys, *a) for a in args]
        scanned = [
            (g.m, g.n, g.r, [(q, o) for q, o, _ in sylow_structure(g).entries])
            for g in _scan_periodic_odd(600)
        ]
        monkeypatch.setattr(cli, "_presentations", lambda max_order: scanned)
        for a, b in zip(built, (run(capsys, *a) for a in args)):
            assert a[0] == b[0] == 0
            assert a[1] == b[1]

    def test_report_streams(self, tmp_path):
        # the presentations are written as the walk yields them: held as a
        # list they trace about 2 MB at this bound, streamed about 0.6 MB
        tracemalloc.start()
        try:
            argv = ["groups", "--max-order", "10000", "--format", "json"]
            code = main([*argv, "--out", str(tmp_path / "groups.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.2e6

    def test_report_checks_no_triple_again(self, capsys, monkeypatch):
        # the walk's triples are valid by construction and reach the report
        # as ints; only ``enumerate_periodic_odd`` checks them
        calls = []
        real = groups.validate_metacyclic
        monkeypatch.setattr(groups, "validate_metacyclic", lambda *g: calls.append(g) or real(*g))
        code, out, _ = run(capsys, "groups", "--max-order", "3000", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["groups_listed"] == 2064
        assert calls == []

    def test_sylow_entries_match_sylow_structure(self, capsys):
        # the CLI factors each order from one smallest-prime-factor table;
        # ``sylow_structure`` factors it again by trial division
        code, out, _ = run(capsys, "groups", "--max-order", "20000", "--format", "json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) > 10_000
        for e in entries:
            oracle = sylow_structure(MetacyclicParams(e["m"], e["n"], e["r"])).entries
            assert [(s["prime"], s["order"], s["shape"]) for s in e["sylow"]] == list(oracle)


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("lemma5", "--min", "5", "--max", "100", "--format", "json"),
            ("lemma5", "--min", "5", "--max", "100", "--format", "csv"),
            ("groups", "--max-order", "60", "--format", "json"),
            ("invariants", "--p", "13", "--q", "2,3,4", "--format", "json"),
        ],
    )
    def test_repeat_runs_byte_identical(self, capsys, args):
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestFailurePolicy:
    def test_search_exhausted_reported_as_failure(self, capsys, monkeypatch):
        import lensbordism.cli as cli_mod
        from lensbordism.errors import SearchExhausted

        real = cli_mod._generator_pair

        def fake(pm):
            if int(pm) == 7:
                raise SearchExhausted(7, [])
            return real(pm)

        monkeypatch.setattr(cli_mod, "_generator_pair", fake)
        code = cli_mod.main(["lemma5", "--min", "5", "--max", "13", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        assert report["summary"]["failures"] == 1
        assert [e["p"] for e in report["entries"]] == [5, 11, 13]
        assert "FAILURE p=7" in captured.err

    def test_oracle_disagreement_is_failure(self, capsys, monkeypatch):
        import lensbordism.cli as cli_mod

        monkeypatch.setattr(cli_mod, "independent_bruteforce", lambda a, b: False)
        code = cli_mod.main(
            ["independent", "--p", "5", "--qa", "1,1,1", "--qb", "1,1,2", "--brute"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "DISAGREE" in captured.out


def test_startup_loads_only_what_every_run_needs():
    """Importing the CLI, as every run does, and building its full parser,
    as help and errors do, loads no ``dataclasses`` or ``inspect`` (the
    records are named tuples), no ``csv`` (imported where it is used) and no
    process pool (the ``lemma5`` workers are forked).  Only the modules the
    import adds count, not those ``site`` loaded before."""
    code = (
        "import sys; before = set(sys.modules); "
        "import lensbordism.cli as c; c.build_parser(); "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "lensbordism.cli" in added
    assert not added & {
        "dataclasses", "inspect", "csv", "concurrent.futures", "multiprocessing"
    }


def test_valid_call_imports_no_argparse():
    """A well-formed call, text or JSON, is parsed without ``argparse`` and
    the ``gettext`` it loads; a call with an error still gets argparse's
    usage line and exit code 2.  Only the modules the run adds count."""
    script = """
import contextlib, io, sys
before = set(sys.modules)
from lensbordism.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""
    for fmt in ("text", "json"):
        proc = python("-c", script, "orders", "--p", "5", "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        code, *added = proc.stdout.split()
        assert code == "0" and "lensbordism.cli" in added
        assert not {"argparse", "gettext"} & set(added)
    proc = python("-m", "lensbordism", "orders", "--p", "5", "--bogus")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: lensbordism [-h]")


def test_every_function_in_cli_has_type_hints_that_resolve():
    """The annotations of each function and method that ``cli`` defines name
    only what ``cli`` binds at import, so ``typing.get_type_hints`` resolves
    them all (argparse is imported only where a parser is built)."""
    defined = [v for v in vars(cli).values() if getattr(v, "__module__", None) == cli.__name__]
    functions = [f for f in defined if inspect.isfunction(f)]
    functions += [
        m for c in defined if isinstance(c, type) for m in vars(c).values() if inspect.isfunction(m)
    ]
    assert {cli.build_parser, cli._parse, cli.main, cli.Report.__init__} <= set(functions)
    for function in functions:
        typing.get_type_hints(function)


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    """Out of memory is one error line: before the first byte (the ``groups``
    factor table is built before the report starts) stdout stays empty, and
    after it (the ``lemma5`` sieve runs as the entries are computed) the
    report is left truncated."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(groups, "_smallest_prime_factors", exhausted)
    code, out, err = run(capsys, "groups", "--max-order", "100")
    assert (code, out, err) == (2, "", "error: out of memory\n")
    monkeypatch.setattr(cli, "_prime_stream", exhausted)
    code, out, err = run(capsys, "lemma5", "--min", "5", "--max", "100", "--format", "json")
    assert (code, err) == (2, "error: out of memory\n")
    assert out.endswith('"entries": [') and json.loads(out + "]}")["entries"] == []


def test_keyboard_interrupt_exits_130_quietly(capsys, monkeypatch):
    def interrupted(a, b):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "independent_bruteforce", interrupted)
    code, out, err = run(
        capsys, "independent", "--p", "7", "--qa", "1,1,1", "--qb", "1,2,2", "--brute"
    )
    assert (code, out, err) == (130, "", "")


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("usage: lensbordism [-h]")


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("usage: lensbordism [-h]")


# Calls that ``main`` may parse directly from the option table, or must send
# through the full parser: help, version, usage and input errors, and a few
# that succeed.
DISPATCH = [
    [],
    ["--version"],
    ["-h"],
    ["frobnicate"],
    ["--version", "lemma5"],
    ["lemma5"],
    ["lemma5", "-h"],
    ["lemma5", "--min", "5"],
    ["lemma5", "--min", "5", "--max", "x"],
    ["lemma5", "--min", "5", "--max", "13", "-h"],
    ["lemma5", "--min", "5", "--max", "50", "--jobs", "1", "--jobs", "2"],
    ["orders", "--p", "5", "--bogus"],
    ["orders", "--p", "5", "--version"],
    ["orders", "--p", "5", "extra"],
    ["orders", "--p", "5", "--form", "json"],
    ["orders", "--p=5"],
    ["orders", "--p", "5", "--format", "xml"],
    ["orders", "--", "--p", "5"],
    ["orders", "--p", "-5"],
    ["orders", "--p", "9"],
    # the full parser rejects it before the subcommand sees it
    ["orders", "--=5"],
    ["orders-d3", "--p", "7", "--k", "2", "--format", "json"],
    ["groups", "--max-o", "30"],
    ["groups", "--max-order", "30", "--out"],
    ["groups", "--max-order", "60", "--format", "csv"],
    ["invariants", "--p", "7", "--q", "1,2"],
    ["invariants", "--p", "13", "--q", "2,3,4", "--format", "json"],
    ["independent", "--p", "7", "--qa", "1,1,1", "--qb", "1,2,2", "--brute"],
    # each stops the direct parse at a different check, or passes it
    # "-" is stdout, and the full parser reads a value beginning with "-"
    ["orders", "--p", "5", "--out", "-"],
    ["orders", "--p", ""],
    ["orders", "--p", "\u0665"],  # ARABIC-INDIC DIGIT FIVE, which int reads as 5
    ["orders", "--p", "5_0"],
    ["orders", "--p", "5", "--format", "csv", "--format", "json"],
    ["independent", "--p", "7", "--qa", "1,1,1", "--qb", "1,2,2", "--brute", "--brute"],
    ["invariants", "--p", "7", "--q", "1,2,3,4"],
    ["orders", "--p", "5", "--format", "JSON"],
    ["orders", "--p", "5", "--k"],
    ["orders", "--p", "1" * 4301],  # beyond int's default limit of 4300 digits
]


def run_in(directory, argv) -> tuple:
    """``main(argv)`` run in ``directory``, which starts empty: its exit
    code, stdout, stderr and the files it left there, which are removed."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        files = {}
        for name in sorted(os.listdir()):
            files[name] = Path(name).read_bytes()
            os.remove(name)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), files


def run_both(directory, argv) -> tuple:
    """``run_in`` with the direct parse and then with the full parser alone."""
    direct = run_in(directory, argv)
    with mock.patch.object(cli, "_parse_direct", lambda argv: None):
        full = run_in(directory, argv)
    return direct, full


@pytest.mark.parametrize("argv", DISPATCH, ids=" ".join)
def test_dispatch_matches_the_full_parser(monkeypatch, tmp_path, argv):
    monkeypatch.setenv("COLUMNS", "80")
    direct, full = run_both(tmp_path, argv)
    assert direct == full


# Argv lists for the direct parse: a subcommand, then its options in any
# order, required ones mostly, others half the time, each but ``--brute``
# followed by a value of its type or, a quarter of the time, by one that
# may be wrong or look like an option.  Half of them get up to three more
# tokens put anywhere: another subcommand's option, an abbreviation, a word
# that argparse reads itself or another value.  Options, types and choices
# come from the table that both parsers are built from.
_VALUES = st.integers(-3, 45).map(str) | st.sampled_from(
    ["", "-", "--", "--=5", "1,2,3", "1,1,1", "2,3,4", "1,2", "-1,2,3", "json", "xml", "csv"]
)
_OTHER = st.sampled_from(
    sorted({option for _, options in cli._COMMANDS.values() for option in options})
    + ["--m", "--max-o", "--brute-b", "--j", "--for", "--o", "--h", "-h", "--version"]
) | _VALUES


def _typed_values(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(0, 45).map(str)
    if keywords.get("type") is cli._triple:
        return st.sampled_from(["1,2,3", "1,1,1", "2,3,4", "1,2,2"])
    return st.sampled_from(["report", "json"])  # --out


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][1]
    argv = [command]
    for option in draw(st.permutations(sorted(options))):
        keywords = options[option]
        if not draw(st.sampled_from([True] * (5 if keywords.get("required") else 1) + [False])):
            continue
        argv.append(option)
        if "action" not in keywords:  # all but the flag --brute take a value
            typed = _typed_values(keywords)
            argv.append(draw(st.one_of(typed, typed, typed, _VALUES)))
    for token in draw(st.lists(_OTHER, max_size=3) | st.just([])):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@given(_argvs())
@example(["orders", "--p", "5", "--format", "json"])
@example(["independent", "--brute", "--qb", "1,1,1", "--p", "7", "--qa", "1,2,3", "--brute"])
@example(["lemma5", "--max", "40", "--jobs", "0", "--min", "5", "--brute-below", "40"])
@example(["groups", "--max-order", "30", "--out", "json"])
@example(["orders", "--p", "5", "--out", ""])
def test_direct_parse_matches_the_full_parser(argv):
    ns = cli._parse_direct(argv)
    if ns is not None:
        assert vars(ns) == vars(cli.build_parser().parse_args(argv))
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as directory:
        direct, full = run_both(directory, argv)
    assert direct == full


def test_valid_call_skips_the_full_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed the call")

    # no parser, full or of a subcommand, may parse these
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    code, out, _ = run(capsys, "lemma5", "--min", "5", "--max", "13", "--format", "csv")
    assert code == 0 and out.startswith("p,qa1,")
    code, out, _ = run(capsys, "orders", "--p", "5", "--k", "2", "--format", "json")
    assert code == 0 and json.loads(out)["params"] == {"p": 5, "k": 2}
    code, out, _ = run(capsys, "invariants", "--p", "13", "--q", "2,3,4")
    assert code == 0 and out.startswith("p=13 weights=(2,3,4)\n")
    code, out, _ = run(
        capsys, "independent", "--p", "7", "--qa", "1,1,1", "--qb", "1,2,2", "--brute"
    )
    assert code == 0 and out.endswith("(agree)\n")
    # a call that argparse must parse reaches it
    with pytest.raises(AssertionError, match="argparse parsed the call"):
        main(["orders", "--p", "-5"])


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_out_dash_writes_to_stdout(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    argv = ("lemma5", "--min", "5", "--max", "40", "--format", fmt)
    assert run(capsys, *argv, "--out", "-") == run(capsys, *argv)
    assert not any(tmp_path.iterdir())


def test_empty_out_path_is_an_output_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "orders", "--p", "5", "--out", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


# JSON values as the standard library reads them: dicts keyed by strings,
# lists, strings (ASCII and not), ints of any size, floats, bools and None.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.text(st.characters(max_codepoint=127))
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


def indented(value, pad: str = "    ") -> str:
    """``value`` as ``json.dumps`` writes it with an indent of 2, each line
    after the first indented by ``pad``, by default as an entry sits in a
    report.  A string's newlines are escaped, so every newline is a line's
    end."""
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


@given(
    st.dictionaries(st.text(), JSON_VALUES, max_size=3),
    st.lists(JSON_VALUES, max_size=4),
    st.dictionaries(st.text(), st.integers(), min_size=1, max_size=3),
)
@example({}, [], {"failures": 0})
def test_streamed_report_matches_json_dumps(params, entries, summary):
    """The frame that ``_write_report`` puts around the params, given as
    JSON text, the entries, as their writer renders them, and a summary of
    ints is laid out as ``json.dumps`` lays out the whole report."""
    out = io.StringIO()
    report = Report(indented(params, "  "), iter(entries), str, indented, [], summary=summary)
    _write_report(report, "cmd", "json", out)
    data = {
        "version": __version__,
        "command": "cmd",
        "params": params,
        "entries": entries,
        "summary": summary,
    }
    assert out.getvalue() == json.dumps(data, indent=2) + "\n"


# The keys of each command's entries but ``groups``, in the order of the
# tuple's values: the layout that the command's JSON writer must write.
ENTRY_KEYS = {
    "lemma5": ("p", "weights_a", "weights_b", "Q", "R", "stage", "certificate", "brute_checked"),
    "invariants": ("p", "weights", "Q", "pair", "canonical"),
    "independent": ("p", "weights_a", "weights_b", "Q", "R", "independent", "oracle", "agree"),
    "orders": (
        "p", "k", "bordism_order", "lens_class_order", "group_structure",
        "extension_order_check", "non_splitness",
    ),
    "orders-d3": ("p", "k", "m", "n", "r", "group_order", "bordism_order", "cyclic"),
}


def entry_dict(command: str, entry: tuple) -> dict:
    """The dict that an entry of ``command`` stands for in a JSON report,
    each tuple in it a list, as ``json.dumps`` writes it."""
    if command == "groups":
        return groups_entry_dict(entry)
    return dict(zip(ENTRY_KEYS[command], entry, strict=True))


def groups_entry_dict(entry: tuple) -> dict:
    """The dict that a ``groups`` entry, the walk's (m, n, r, sylow), stands
    for in a JSON report: the layout that ``_groups_json`` must write."""
    m, n, r, sylow = entry
    order = m * n
    return {
        "m": m,
        "n": n,
        "r": r,
        "order": order,
        "sylow": [{"prime": q, "order": o, "shape": "cyclic"} for q, o in sylow],
        "theorem1_applies": order % 2 == 1 and order % 9 != 0,
    }


@pytest.mark.parametrize(
    "args, renderer",
    [
        (("lemma5", "--min", "5", "--max", "20000"), cli._lemma5_json),
        # brute-checked up to the largest --brute-below that --max 20000 admits
        (("lemma5", "--min", "5", "--max", "20000", "--brute-below", "10000"), cli._lemma5_json),
        (("groups", "--max-order", "3000"), cli._groups_json),
    ],
    ids=["lemma5", "lemma5-brute-checked", "groups"],
)
def test_entry_templates_match_json_writer_over_whole_ranges(args, renderer):
    """A renderer that drifts from the entry's layout, such as a key renamed
    or moved, renders differently from ``json.dumps`` of the dict the entry
    stands for (``entry_dict``); a ``groups`` entry is the walk's tuple.
    The renderers are plain module-level functions, so they pickle."""
    ns = cli.build_parser().parse_args(args)
    report = getattr(cli, "cmd_" + ns.command)(ns)
    assert report.to_json is renderer
    assert pickle.loads(pickle.dumps(renderer)) is renderer
    entries = list(report.entries)
    assert len(entries) == {"lemma5": 2260, "groups": 2064}[ns.command]
    if ns.command == "groups":
        assert entries == list(groups._presentations(3000))
    for entry in entries:
        assert renderer(entry) == indented(entry_dict(ns.command, entry)), entry


SMALL_PRIMES = [int(q) for q in _prime_stream(3, 2000)]
ENTRY_WRITERS = {
    "invariants": cli._invariants_json,
    "independent": cli._independent_json,
    "orders": cli._orders_json,
    "orders-d3": cli._orders_d3_json,
}


@st.composite
def single_entry_queries(draw):
    """The argv of a valid ``invariants``, ``independent``, ``orders`` or
    ``orders-d3`` query, with weights drawn as any positive integers that
    are units mod p."""
    command = draw(st.sampled_from(sorted(ENTRY_WRITERS)))
    if command.startswith("orders"):
        # below 1000, p**(2k) stays under the 2**63 bound of `orders`
        primes = [p for p in SMALL_PRIMES if p < 1000 and (command == "orders" or p % 3 == 1)]
        p, k = draw(st.sampled_from(primes)), draw(st.integers(1, 3))
        return [command, "--p", str(p), "--k", str(k)]
    p = draw(st.sampled_from(SMALL_PRIMES if command == "invariants" else SMALL_PRIMES[1:]))

    def weights():
        units = st.integers(1, p - 1).flatmap(lambda w: st.sampled_from([w, w + p, w + 5 * p]))
        return ",".join(str(draw(units)) for _ in range(3))

    if command == "invariants":
        return [command, "--p", str(p), "--q", weights()]
    brute = ["--brute"] if draw(st.booleans()) else []
    return [command, "--p", str(p), "--qa", weights(), "--qb", weights(), *brute]


@given(single_entry_queries())
@example(["orders", "--p", "3", "--k", "2"])  # the "unspecified" branches
@example(["orders", "--p", "7", "--k", "1"])  # the null checks
@example(["orders", "--p", "5", "--k", "2"])  # both checks true
@example(["invariants", "--p", "7", "--q", "1,2,3"])  # Q = 0
@example(["independent", "--p", "101", "--qa", "1,1,1", "--qb", "1,1,2"])  # no oracle
@example(["independent", "--p", "5", "--qa", "1,1,1", "--qb", "1,1,1", "--brute"])  # dependent
def test_entry_writers_match_json_writer_on_drawn_queries(argv):
    """Each one-entry report's f-string writer renders its entry as
    ``json.dumps`` renders the dict it stands for, and the whole report,
    its params written by the handler's own f-string, is ``json.dumps``'s
    layout of the namespace's values."""
    ns = cli.build_parser().parse_args(argv)
    report = getattr(cli, "cmd_" + ns.command.replace("-", "_"))(ns)
    writer = ENTRY_WRITERS[ns.command]
    assert report.to_json is writer
    [entry] = report.entries
    assert writer(entry) == indented(entry_dict(ns.command, entry))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    data = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(data, indent=2) + "\n"
    params = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in vars(ns).items()
        if key not in ("command", "format", "out")
    }
    assert data == {
        "version": __version__,
        "command": ns.command,
        "params": params,
        "entries": [json.loads(json.dumps(entry_dict(ns.command, entry)))],
        "summary": {"failures": 0},
    }


def test_int_paths_match_the_public_records_at_every_prime_below_2000():
    """``invariants`` and ``independent`` check p and the weights once, by
    ``LensSpace``, and work on ints from there; at every prime below 2000,
    with random weights, their entries are those that the public records
    give: ``LensSpace``, ``pontrjagin_pair``, ``canonical_form`` and the
    exhaustive ``independent_bruteforce``."""
    rng = random.Random(33)
    parser = cli.build_parser()
    for p in SMALL_PRIMES:
        qa, qb = ([rng.randrange(1, p) + p * rng.randrange(3) for _ in range(3)] for _ in range(2))
        lens_a, lens_b = LensSpace(p, qa), LensSpace(p, qb)
        pair_a, pair_b = pontrjagin_pair(lens_a), pontrjagin_pair(lens_b)
        triple_a, triple_b = ",".join(map(str, qa)), ",".join(map(str, qb))
        ns = parser.parse_args(["invariants", "--p", str(p), "--q", triple_a])
        assert cli.cmd_invariants(ns).entries == [
            (
                p,
                lens_a.weights,
                q_sum(lens_a),
                tuple(pair_a.values()),
                tuple(canonical_form(pair_a).values()),
            )
        ], p
        if p < 5:
            continue
        argv = ["independent", "--p", str(p), "--qa", triple_a, "--qb", triple_b, "--brute"]
        oracle = independent_bruteforce(pair_a, pair_b)
        assert cli.cmd_independent(parser.parse_args(argv)).entries == [
            (p, lens_a.weights, lens_b.weights, q_sum(lens_a), q_sum(lens_b), oracle, oracle, True)
        ], p


@pytest.mark.parametrize(
    "args",
    [
        ("lemma5", "--min", "5", "--max", "20000", "--jobs", "1"),
        ("lemma5", "--min", "5", "--max", "20000", "--jobs", "2"),
        ("groups", "--max-order", "30000"),
    ],
)
def test_json_report_is_standard_indent_2_at_scale(capsys, args):
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize(
    "args",
    [
        ("lemma5", "--min", "10", "--max", "9"),
        ("groups", "--max-order", "0"),
        ("lemma5", "--min", "5", "--max", str(cli.LEMMA5_MAX + 1)),
    ],
)
def test_input_error_leaves_out_file_alone(capsys, tmp_path, args):
    fresh, existing = tmp_path / "new.json", tmp_path / "old.json"
    existing.write_text("an earlier report\n", encoding="utf-8")
    for path in (fresh, existing):
        code, out, err = run(capsys, *args, "--format", "json", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not fresh.exists()
    assert existing.read_text(encoding="utf-8") == "an earlier report\n"


class TestOutputErrors:
    """An output that cannot be written exits 2 with one ``error:`` line; a
    stdout whose reader has gone exits 141 in silence."""

    ARGV = ("-m", "lensbordism", "groups", "--max-order", "300", "--format", "json")

    def assert_error_line(self, proc):
        assert (proc.returncode, proc.stdout or "") == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "groups.json"
        self.assert_error_line(python(*self.ARGV, "--out", str(path)))
        assert not path.parent.exists()

    def test_out_is_a_directory(self, tmp_path):
        self.assert_error_line(python(*self.ARGV, "--out", str(tmp_path)))
        assert tmp_path.is_dir() and not any(tmp_path.iterdir())

    # with a buffered stdout what is left in the buffer is written again at
    # exit, so each case runs buffered and unbuffered (``-u``)
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flags", [(), ("-u",)])
    def test_full_device(self, flags, monkeypatch):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        self.assert_error_line(python(*flags, *self.ARGV, "--out", "/dev/full"))
        with open("/dev/full", "w") as full:
            self.assert_error_line(python(*flags, *self.ARGV, stdout=full))
            self.assert_error_line(python(*flags, *self.ARGV, "--out", "-", stdout=full))

    @pytest.mark.parametrize("flags", [(), ("-u",)])
    @pytest.mark.parametrize(
        "argv",
        [
            ("groups", "--max-order", "30000"),
            # the forked workers are still at work when the reader leaves
            ("lemma5", "--min", "5", "--max", "300000", "--jobs", "2"),
        ],
    )
    def test_closed_pipe(self, argv, flags, monkeypatch):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        self.assert_silent_141([*flags, "-m", "lensbordism", *argv])

    @pytest.mark.parametrize("flags", [(), ("-u",)])
    def test_closed_pipe_behind_out_dash(self, flags, monkeypatch):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        self.assert_silent_141([*flags, "-m", "lensbordism", "groups", "--max-order", "30000",
                                "--out", "-"])

    @staticmethod
    def assert_silent_141(args):
        with subprocess.Popen(
            [sys.executable, *args], env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.readline()  # what ``| head -1`` reads before it exits
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")


def no_child_left() -> bool:
    """Whether this process has no child process, running or exited."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedWorkers:
    """``lemma5 --jobs N`` forks N workers that each write to one pipe.
    However the run ends, each worker is waited for, and none writes to the
    report or to stderr unless it failed."""

    ARGV = ("lemma5", "--min", "5", "--max", "20000", "--format", "json")
    PARALLEL = (*ARGV, "--jobs", "2")

    # Python leaves SIGINT ignored where whatever started it ignored it, as
    # a shell does for a background job, so the CLI restores the handler
    INTERRUPTIBLE = (
        "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
        "from lensbordism.cli import main; sys.exit(main(sys.argv[1:]))"
    )

    # 4111 is in block 1 of [5, 20000], [4101, 8196], which worker 1
    # computes; block 0 holds the 563 primes up to 4099
    FAILING = """
import os, sys
import lensbordism.cli as cli

real = cli._lemma5_worker

def failing(p, brute_below):
    if p == 4111:
        raise ZeroDivisionError("planted in a worker")
    return real(p, brute_below)

cli._lemma5_worker = failing
try:
    cli.main(sys.argv[1:])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", file=sys.stderr)
"""

    def test_normal_end(self, capsys):
        serial = run(capsys, *self.ARGV)
        assert run(capsys, *self.PARALLEL) == serial
        assert serial[0] == 0
        assert no_child_left()

    def test_without_fork_runs_in_process(self, capsys, monkeypatch):
        serial = run(capsys, *self.ARGV)
        monkeypatch.delattr(cli.os, "fork")
        assert run(capsys, *self.PARALLEL) == serial

    def test_closed_output(self):
        class Closed:
            def write(self, text):
                raise BrokenPipeError

        report = cli.cmd_lemma5(cli.build_parser().parse_args(self.PARALLEL))
        with pytest.raises(BrokenPipeError):
            _write_report(report, "lemma5", "json", Closed())
        assert no_child_left()

    def test_failed_pipe_under_a_redirected_stdout(self, capsys, monkeypatch):
        # the second pipe fails after worker 0 was forked, and the captured
        # stdout has no descriptor to point at os.devnull
        real, calls = os.pipe, []

        def failing():
            calls.append(1)
            if len(calls) == 2:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return real()

        monkeypatch.setattr(cli.os, "pipe", failing)
        code, _, err = run(capsys, "lemma5", "--min", "5", "--max", "20000", "--jobs", "2")
        assert (code, err, len(calls)) == (2, "error: [Errno 24] Too many open files\n", 2)
        assert no_child_left()

    def test_interrupt_in_the_parent(self, capsys, monkeypatch):
        real, rendered = cli._lemma5_json, []

        def interrupted(entry):
            rendered.append(entry[0])
            if len(rendered) == 600:  # in block 1, so both workers have run
                raise KeyboardInterrupt
            return real(entry)

        monkeypatch.setattr(cli, "_lemma5_json", interrupted)
        code, _, err = run(capsys, *self.PARALLEL)
        assert (code, err, len(rendered)) == (130, "", 600)
        assert no_child_left()

    def test_worker_failure_exits_nonzero(self):
        proc = python("-c", self.FAILING, *self.PARALLEL)
        assert proc.returncode == 1
        assert "ZeroDivisionError: planted in a worker" in proc.stderr
        assert "no child left" in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "RuntimeError: lemma5 worker 1 ended before returning its block from 4101"
        )
        # the report stops at the end of block 0, never with a summary
        entries = json.loads(proc.stdout + "]}")["entries"]
        assert (len(entries), entries[-1]["p"]) == (563, 4099)

    def test_interrupt_to_the_process_group(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", self.INTERRUPTIBLE,
             "lemma5", "--min", "5", "--max", "300000", "--jobs", "2"],
            env=checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        proc.stdout.readline()  # the report has begun, so the workers are at work
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (130, b"")


def test_interrupt_mid_report(capsys, monkeypatch, tmp_path):
    argv = ("lemma5", "--min", "5", "--max", "100", "--format", "json")
    full = run(capsys, *argv)[1]
    real = cli._generator_pair
    calls = []

    def interrupted_at_third_prime(pm):
        calls.append(int(pm))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(pm)

    monkeypatch.setattr(cli, "_generator_pair", interrupted_at_third_prime)
    fresh, existing = tmp_path / "new.json", tmp_path / "old.json"
    existing.write_text("an earlier report\n", encoding="utf-8")
    for path in (fresh, existing):
        calls.clear()
        assert run(capsys, *argv, "--out", str(path)) == (130, "", "")
        assert calls == [5, 7, 11]
        assert not path.exists()
    # on stdout the report stops after the last entry written
    calls.clear()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (130, "")
    assert full.startswith(out) and out.endswith('"brute_checked": true\n    }')
    assert [e["p"] for e in json.loads(out + "]}")["entries"]] == [5, 7]


def test_parser_reused_across_calls_matches_fresh_runs():
    calls = [
        ["groups", "--max-order", "60", "--format", "csv"],
        ["lemma5", "--min", "5", "--max", "60", "--format", "json"],
        ["orders", "--p", "5", "--k", "0"],
        ["invariants", "--p", "13", "--q", "2,3,4"],
        ["orders", "--p", "5", "--bogus"],
    ]
    script = """
import contextlib, io, json, sys
import lensbordism.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
    proc = python("-c", script, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    fresh = [python("-m", "lensbordism", *argv) for argv in calls]
    assert json.loads(proc.stdout) == [[p.returncode, p.stdout, p.stderr] for p in fresh]
    assert cli.build_parser() is not cli.build_parser()


def test_handler_is_looked_up_at_call_time(capsys, monkeypatch):
    assert run(capsys, "orders", "--p", "5")[0] == 0
    real, seen = cli.cmd_orders, []

    def wrapped(ns):
        seen.append(ns.p)
        return real(ns)

    monkeypatch.setattr(cli, "cmd_orders", wrapped)
    assert run(capsys, "orders", "--p", "7")[0] == 0
    assert seen == [7]
