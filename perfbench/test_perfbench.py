"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from stats import percentile, spread, tail_percentile  # noqa: E402
from tracer import inclusive_time, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent=-1, request=0):
    return (name, start, end, parent, request)


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("lens.find_generator_pair", 1.0, 4.0, 0),
        span("numtheory.sum_three_unit_squares", 2.0, 3.0, 1),
        span("numtheory.is_prime", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # Self times of all spans add up to the root span: every second is
    # accounted to exactly one layer.
    m = layer_metrics(spans, Counter())
    assert m["cli.self_s"] + m["lens.self_s"] + m["numtheory.self_s"] == 10.0
    assert m["lens.find_generator_pair.self_s"] == 2.0


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, 0), span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == 3.0


def test_inclusive_time_counts_recursion_once():
    spans = [
        span("orders.x", 0.0, 5.0),
        span("orders.x", 1.0, 2.0, 0),
        span("orders.y", 6.0, 7.0),
        span("orders.x", 6.5, 7.0, 2),
    ]
    assert inclusive_time(spans, "orders.x") == 5.5


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_and_spread():
    values = list(range(1, 102))
    assert percentile(values, 50) == 51
    assert percentile(values, 90) == 91
    assert spread([10, 10, 10, 10]) == 0


def cli_report(argv):
    from lensbordism.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main([*argv, "--format", "json"]) == 0
    return json.loads(buf.getvalue())


def test_lemma5_checker_flags_one_corrupted_entry():
    report = cli_report(["lemma5", "--min", "5", "--max", "300"])
    assert checks.check_lemma5(report, 5, 300) == []
    for corrupt in (
        lambda e: e["weights_a"].__setitem__(0, e["weights_a"][0] + 1),
        lambda e: e.update(certificate=e["certificate"] + 1),
        lambda e: e["weights_b"].__setitem__(2, 0),
        lambda e: e.update(p=e["p"] + 2),
    ):
        bad = copy.deepcopy(report)
        corrupt(bad["entries"][17])
        assert checks.check_lemma5(bad, 5, 300), corrupt
    assert checks.entries_digest(bad) != checks.entries_digest(report)


def test_groups_checker_flags_one_corrupted_entry():
    report = cli_report(["groups", "--max-order", "400"])
    reference = checks.groups_reference(400)
    assert checks.check_groups(report, 400, reference) == []
    bad = copy.deepcopy(report)
    target = next(e for e in bad["entries"] if e["m"] > 1)
    target["r"] = (target["r"] + 1) % target["m"]
    assert checks.check_groups(bad, 400, reference)
    dropped = copy.deepcopy(report)
    del dropped["entries"][5]
    dropped["summary"]["groups_listed"] -= 1
    assert checks.check_groups(dropped, 400, reference)


@pytest.mark.parametrize(
    "argv, field",
    [
        (["invariants", "--p", "97", "--q", "1,2,3"], "canonical"),
        (["invariants", "--p", "101", "--q", "5,6,7"], "canonical"),
        (["independent", "--p", "13", "--qa", "1,1,1", "--qb", "1,1,2", "--brute"], "oracle"),
        (["orders", "--p", "11", "--k", "2"], "bordism_order"),
        (["orders-d3", "--p", "13", "--k", "2"], "r"),
    ],
)
def test_query_checker_flags_a_corrupted_field(argv, field):
    report = cli_report(argv)
    assert checks.check_query(argv, report) == []
    bad = copy.deepcopy(report)
    value = bad["entries"][0][field]
    bad["entries"][0][field] = (not value) if isinstance(value, bool) else (
        [value[0], value[1] + 1] if isinstance(value, list) else value + 1
    )
    assert checks.check_query(argv, bad)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics([], Counter())) <= names


def test_child_answers_query_blocks_on_request():
    child = run.Child([str(BENCH / "child.py")], json.dumps({"seed": 1}))
    part = json.loads(child.ask("1"))
    code, rest, rss = child.finish()
    assert (code, rest) == (0, "")
    assert rss > 0
    assert len(part["argvs"]) == run.BLOCK_QUERIES == len(part["latencies"])
    tally = run.Tally()
    run.record_outputs(part, tally, run.check_query)
    assert (tally.attempted, tally.failed) == (run.BLOCK_QUERIES, 0)
