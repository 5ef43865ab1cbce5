"""The pure parts of ``tools/capbench.py``: case parsing, quartiles, the
growth-exponent fit and the layout of its JSON report.  Its runs are timed
only where it is used; no test here times anything."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

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
