"""``tools/capbench.py``: case parsing, quartiles, the growth-exponent fit,
the layout of its JSON report, its checks on malformed input, and one small
run end to end on two sides of a copy of this checkout's ``src/``.  Its runs
are timed only where it is used; no test here asserts a timing."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import capbench  # noqa: E402


def test_parse_case_takes_leading_caps():
    assert capbench.parse_case("lemma5 --max 10") == ({}, ["lemma5", "--max", "10"])
    assert capbench.parse_case("LEMMA5_MAX=20 A=3 lemma5 --max 20") == (
        {"LEMMA5_MAX": 20, "A": 3}, ["lemma5", "--max", "20"]
    )
    with pytest.raises(ValueError):
        capbench.parse_case("LEMMA5_MAX=20")


def test_without_drops_a_flag_and_its_value():
    argv = ["lemma5", "--max", "10", "--jobs", "2"]
    assert capbench.without(argv, "--jobs") == (["lemma5", "--max", "10"], "2")
    assert capbench.without(argv, "--min") == (argv, None)


def test_quartiles():
    assert capbench.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert capbench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert capbench.quartiles([4.0, 1.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_growth_exponent_recovers_a_power_law():
    sizes = [10**5, 3 * 10**5, 10**6, 10**7]
    for b in (0.5, 1.0, 1.3):
        assert math.isclose(capbench.growth_exponent(sizes, [2e-6 * n**b for n in sizes]), b)
    with pytest.raises(ValueError):
        capbench.growth_exponent([10, 10], [1.0, 2.0])


def _runs(wall, peak, sha="a" * 64, code=0):
    return [{"wall_s": w, "peak_rss_mb": peak, "exit": code, "sha256": sha} for w in wall]


def _case(argv, parent, change, caps=None):
    return {"caps": caps or {}, "argv": argv.split(), "runs": {"parent": parent, "change": change}, "sides": {}}


def test_summary_layout_ladders_and_agreement():
    cases = [
        _case("lemma5 --min 5 --max 1000 --jobs 1", _runs([1.0, 1.2, 1.1], 10.0), _runs([0.9], 9.0)),
        _case("lemma5 --min 5 --max 10000 --jobs 1", _runs([10.0], 20.0, "b" * 64), _runs([9.0], 18.0, "b" * 64)),
        _case("lemma5 --min 5 --max 10000 --jobs 2", _runs([6.0], 21.0, "b" * 64), _runs([5.0], 18.0, "b" * 64)),
        _case("lemma5 --min 7 --max 7", _runs([0.1], 14.0, "c" * 64), _runs([0.1], 14.0, "c" * 64)),
    ]
    fits, problems = capbench.summarise(cases, ["parent", "change"])
    assert problems == []
    row = cases[0]["sides"]["parent"]
    assert row == {
        "wall_s": {"median": 1.1, "q1": 1.05, "q3": 1.15},
        "peak_rss_mb": {"median": 10.0, "q1": 10.0, "q3": 10.0},
        "exits": [0],
        "sha256": ["a" * 64],
    }
    # one ladder: --jobs 1 over two sizes; --jobs 2 and the one-prime case
    # have one size each
    assert len(fits) == 1
    (fit,) = fits
    assert (fit["argv"], fit["size_flag"], fit["sizes"]) == (
        ["lemma5", "--min", "5", "--jobs", "1"], "--max", [1000, 10000]
    )
    assert math.isclose(fit["exponents"]["parent"]["wall_s"], math.log10(10.0 / 1.1))
    assert math.isclose(fit["exponents"]["change"]["peak_rss_mb"], math.log10(2.0))
    json.dumps({"cases": cases, "ladders": fits, "problems": problems})


def test_summary_names_failed_runs_and_differing_hashes():
    cases = [
        _case("lemma5 --max 100 --jobs 1", _runs([1.0], 10.0), _runs([1.0], 10.0)),
        _case("lemma5 --max 100 --jobs 2", _runs([1.0], 10.0), _runs([1.0], 10.0, "d" * 64)),
        _case("groups --max-order 10", _runs([1.0], 10.0, code=2), _runs([1.0], 10.0)),
    ]
    _, problems = capbench.summarise(cases, ["parent", "change"])
    assert problems == [
        "parent: groups --max-order 10 exited [2]",
        "2 outputs of lemma5 --max 100 at the sides and --jobs run",
    ]


def test_summary_of_one_side():
    cases = [
        {"caps": {}, "argv": f"lemma5 --max 100 --jobs {jobs}".split(),
         "runs": {"ci": _runs([1.0], 10.0, sha)}, "sides": {}}
        for jobs, sha in ((1, "a" * 64), (2, "b" * 64))
    ]
    fits, problems = capbench.summarise(cases, ["ci"])
    assert [list(case["sides"]) for case in cases] == [["ci"], ["ci"]]
    assert cases[1]["sides"]["ci"]["sha256"] == ["b" * 64]
    assert problems == ["2 outputs of lemma5 --max 100 at the sides and --jobs run"]
    # one size of --max: no ladder
    assert fits == []


def _no_process(*args, **kwargs):
    raise AssertionError("a process was started")


CASE = "lemma5 --max 10"


@pytest.mark.parametrize("args, message", [
    (["--side", f"a={REPO}", "--rounds", "0", CASE], "--rounds must be at least 1, not 0"),
    (["--side", f"a={REPO}", "--rounds", "-1", CASE], "--rounds must be at least 1, not -1"),
    (["--side", "foo", CASE], "--side 'foo' is not NAME=TREE"),
    (["--side", f"a={REPO}", "--side", "a=../p", CASE], "--side 'a' given twice"),
    (["--side", "a={tmp}", CASE], "no src/lensbordism/cli.py in {tmp}"),
    (["--side", f"a={REPO}", "LEMMA5_MAX=10"], "case 'LEMMA5_MAX=10': no command after the caps"),
    (["--side", f"a={REPO}", "LEMMA5_MAX=x " + CASE], "case 'LEMMA5_MAX=x lemma5 --max 10': invalid literal"),
])
def test_malformed_input_exits_2_before_any_process(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(subprocess, "run", _no_process)
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        capbench.main(["--out", str(out), *(arg.format(tmp=tmp_path) for arg in args)])
    assert exit_info.value.code == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(shutil.which("timeout") is None, reason="needs coreutils timeout")
def test_two_sides_of_this_checkout_end_to_end(tmp_path):
    # capbench writes each side's bytecode cache, so both sides run on a copy
    # of src/ and the checkout is left without one
    tree = tmp_path / "tree"
    shutil.copytree(REPO / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "caps.json"
    argv = ["--side", f"a={tree}", "--side", f"b={tree}", "--rounds", "1", "--out", str(out)]
    assert capbench.main([*argv, "lemma5 --min 5 --max 100"]) == 0
    report = json.loads(out.read_text())
    assert (report["rounds"], report["sides"], report["problems"], report["ladders"]) == (1, ["a", "b"], [], [])
    (case,) = report["cases"]
    assert case["argv"] == ["lemma5", "--min", "5", "--max", "100"]
    rows = case["sides"]
    assert rows["a"]["exits"] == rows["b"]["exits"] == [0]
    assert len(rows["a"]["sha256"]) == 1 and rows["a"]["sha256"] == rows["b"]["sha256"]
