"""Tests for the command line front end."""

import concurrent.futures
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lensbordism import __version__, cli, groups, orders
from lensbordism.cli import Report, _json, _lemma5_workers, _write_report, main
from lensbordism.groups import MetacyclicParams, sylow_structure
from lensbordism.numtheory import PrimeModulus
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
        code, serial, _ = run(
            capsys, "lemma5", "--min", "5", "--max", "200", "--format", "json"
        )
        assert code == 0
        code, parallel, _ = run(
            capsys,
            "lemma5", "--min", "5", "--max", "200",
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
            raise AssertionError("sieve or pool started")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "primes_in_range", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
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
            with pytest.raises(AssertionError, match="sieve or pool started"):
                main(["lemma5", "--min", "5", "--max", "13", "--jobs", jobs])

    def test_max_above_cap_is_input_error(self, capsys, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError("sieve allocated")

        monkeypatch.setattr(cli, "primes_in_range", no_sieve)
        over = str(cli.LEMMA5_MAX + 1)
        code, out, err = run(capsys, "lemma5", "--min", "5", "--max", over)
        assert (code, out) == (2, "")
        assert err == f"error: --max must be at most {cli.LEMMA5_MAX}, got {over}\n"
        monkeypatch.setattr(cli, "primes_in_range", lambda lo, hi: [])
        at_cap = str(cli.LEMMA5_MAX)
        assert run(capsys, "lemma5", "--min", "999990", "--max", at_cap)[0] == 0

    def test_negative_brute_below_is_input_error(self, capsys):
        assert run(
            capsys, "lemma5", "--min", "5", "--max", "13", "--brute-below", "-1"
        ) == (2, "", "error: --brute-below must be nonnegative\n")

    def test_brute_below_above_cap_is_input_error(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("search ran")

        monkeypatch.setattr(cli, "primes_in_range", fail)
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

    def test_worker_count(self):
        # 0 means one per core; every count is capped at the number of primes
        assert _lemma5_workers(1, 100, 8) == 1
        assert _lemma5_workers(0, 100, 8) == 8
        assert _lemma5_workers(0, 3, 8) == 3
        assert _lemma5_workers(10**6, 5, 2) == 5
        # more workers than cores stay allowed, so the pool path runs anywhere
        assert _lemma5_workers(3, 100, 1) == 3
        assert _lemma5_workers(4, 1, 2) == 1
        assert _lemma5_workers(4, 0, 2) == 1

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
    ],
)
def test_reports_hold_plain_ints(args):
    """No ``PrimeModulus`` reaches a report, whatever the handler computed
    with: its values are plain ints, as ``_json`` writes them fastest."""
    ns = cli.build_parser().parse_args(args)
    report = getattr(cli, "cmd_" + ns.command.replace("-", "_"))(ns)
    entries = list(report.entries)
    assert entries

    def prime_moduli(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [x for v in value for x in prime_moduli(v)]
        return [value] if isinstance(value, PrimeModulus) else []

    assert prime_moduli([report.params, entries, report.summary]) == []


def test_lemma5_sends_plain_int_primes_to_its_workers(capsys, monkeypatch):
    """A ``PrimeModulus`` is tested again when it is unpickled, so the primes
    that cross the process pool are plain ints."""
    sent = []
    real = cli._lemma5_results

    def recording(primes, brute_below, jobs):
        sent.extend(primes)
        return real(primes, brute_below, jobs)

    monkeypatch.setattr(cli, "_lemma5_results", recording)
    assert run(capsys, "lemma5", "--min", "5", "--max", "40")[0] == 0
    assert sent == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert all(type(p) is int for p in sent)


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
        over = str(cli.GROUPS_MAX_ORDER + 1)
        code, out, err = run(capsys, "groups", "--max-order", over)
        assert (code, out) == (2, "")
        assert err == f"error: --max-order must be at most {cli.GROUPS_MAX_ORDER}, got {over}\n"
        monkeypatch.setattr(cli, "_presentations", lambda max_order: [])
        assert run(capsys, "groups", "--max-order", str(cli.GROUPS_MAX_ORDER))[0] == 0

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

        real = cli_mod.find_generator_pair

        def fake(pm):
            if int(pm) == 7:
                raise SearchExhausted(7, [])
            return real(pm)

        monkeypatch.setattr(cli_mod, "find_generator_pair", fake)
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
    """Importing the CLI and building its parser, as every run does, loads
    no ``dataclasses`` or ``inspect`` (the records are named tuples), no
    ``csv`` and no process pool (each is imported where it is used).  Only
    the modules the import adds count, not those ``site`` loaded before."""
    code = (
        "import sys; before = set(sys.modules); "
        "import lensbordism.cli as c; c.build_parser(); "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "lensbordism.cli" in added
    assert not added & {"dataclasses", "inspect", "csv", "concurrent.futures"}


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    def exhausted(lo, hi):
        raise MemoryError

    monkeypatch.setattr(cli, "primes_in_range", exhausted)
    code, out, err = run(capsys, "lemma5", "--min", "5", "--max", "100")
    assert (code, out, err) == (2, "", "error: out of memory\n")


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


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


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


@given(JSON_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "\u00e9\u4e2d": -(2**70)})
@example({"p": PrimeModulus(7)})  # written as {"p": 7}
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@given(
    st.dictionaries(st.text(), JSON_VALUES, max_size=3),
    st.lists(JSON_VALUES, max_size=4),
    st.dictionaries(st.text(), JSON_VALUES, max_size=3),
)
@example({}, [], {})
def test_streamed_report_matches_json_dumps(params, entries, summary):
    out = io.StringIO()
    _write_report(Report(params, iter(entries), str, [], summary=summary), "cmd", "json", out)
    data = {
        "version": __version__,
        "command": "cmd",
        "params": params,
        "entries": entries,
        "summary": summary,
    }
    assert out.getvalue() == json.dumps(data, indent=2) + "\n"


# Entry shapes as ``_json_template`` declares them, each with a matching
# value: keys of any text, ints of any size, empty lists and non-ASCII text.
def _values_of(shape: dict):
    def kind_values(kind):
        if kind is int:
            return st.integers() | st.integers(min_value=2**64, max_value=2**200)
        if kind is bool:
            return st.booleans()
        if kind is str:
            return st.text()
        (item,) = kind
        return st.lists(kind_values(item) if item is int else _values_of(item), max_size=3)

    values = st.fixed_dictionaries({key: kind_values(kind) for key, kind in shape.items()})
    return values.map(lambda value: {key: value[key] for key in shape})


_FLAT_SHAPES = st.dictionaries(st.text(), st.sampled_from([int, bool, str]), min_size=1, max_size=4)
_SHAPES = st.dictionaries(
    st.text(),
    st.sampled_from([int, bool, str, [int]]) | _FLAT_SHAPES.map(lambda inner: [inner]),
    min_size=1,
    max_size=6,
)


@given(_SHAPES.flatmap(lambda shape: _values_of(shape).map(lambda value: (shape, value))))
@example(({"order": int, "sylow": [{"prime": int, "order": int, "shape": str}]}, {"order": 1, "sylow": []}))
@example(
    (
        {"é\"{x}\\\n": [int], "s": str, "b": bool, "d": [{"k": str}]},
        {"é\"{x}\\\n": [], "s": "中}{\n\"", "b": False, "d": [{"k": ""}, {"k": "é"}]},
    )
)
@example(({"big": int, "l": [int]}, {"big": -(2**70), "l": [2**64, 0, -1]}))
def test_json_template_matches_json_dumps(shape_and_value):
    shape, value = shape_and_value
    expected = json.dumps(value, indent=2).replace("\n", "\n    ")
    assert cli._json_template(shape)(value) == expected


@pytest.mark.parametrize(
    "args, template",
    [
        (("lemma5", "--min", "5", "--max", "20000"), cli._lemma5_json),
        # brute-checked up to the largest --brute-below that --max 20000 admits
        (("lemma5", "--min", "5", "--max", "20000", "--brute-below", "10000"), cli._lemma5_json),
        (("groups", "--max-order", "3000"), cli._groups_json),
    ],
    ids=["lemma5", "lemma5-brute-checked", "groups"],
)
def test_entry_templates_match_json_writer_over_whole_ranges(args, template):
    """A declared kind that drifts from what the handler builds, such as an
    int declared for a bool, renders differently from ``_json``."""
    ns = cli.build_parser().parse_args(args)
    report = getattr(cli, "cmd_" + ns.command)(ns)
    assert report.to_json is template
    count = 0
    for count, entry in enumerate(report.entries, 1):
        assert template(entry) == _json(entry, "    "), entry
    assert count == {"lemma5": 2260, "groups": 2064}[ns.command]


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

    @pytest.mark.parametrize("flags", [(), ("-u",)])
    @pytest.mark.parametrize(
        "argv",
        [
            ("groups", "--max-order", "30000"),
            # from about this --max on, unless the cut-short entries are
            # closed, the garbage collector shuts their pool down in the
            # pool's own thread, and that prints a RuntimeError
            ("lemma5", "--min", "5", "--max", "300000", "--jobs", "2"),
        ],
    )
    def test_closed_pipe(self, argv, flags, monkeypatch):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "lensbordism", *argv], env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.readline()  # what ``| head -1`` reads before it exits
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


def test_interrupt_mid_report(capsys, monkeypatch, tmp_path):
    argv = ("lemma5", "--min", "5", "--max", "100", "--format", "json")
    full = run(capsys, *argv)[1]
    real = cli.find_generator_pair
    calls = []

    def interrupted_at_third_prime(pm):
        calls.append(int(pm))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(pm)

    monkeypatch.setattr(cli, "find_generator_pair", interrupted_at_third_prime)
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
    ]
    script = """
import contextlib, io, json, sys
import lensbordism.cli as cli
assert cli._parser is None  # not built at import
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
    assert run(capsys, "orders", "--p", "5")[0] == 0  # the parser exists from here on
    real, seen = cli.cmd_orders, []

    def wrapped(ns):
        seen.append(ns.p)
        return real(ns)

    monkeypatch.setattr(cli, "cmd_orders", wrapped)
    assert run(capsys, "orders", "--p", "7")[0] == 0
    assert seen == [7]
