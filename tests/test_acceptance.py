"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion is checked at its stated tolerance (exact equality unless a
runtime bound is given).  Oracles used here are written independently of the
library code paths they check: prime counts come from a local sieve,
residuosity from exhaustive square tables, independence from exhaustive
witness scans, and the presentation listing from a direct triple loop.
"""

import json
import math
import os
import time

import pytest

from lensbordism.cli import main
from lensbordism.lens import (
    PontrjaginPair,
    canonical_form,
    independent,
    independent_bruteforce,
    reparametrize,
)
from lensbordism.numtheory import PrimeModulus, is_quadratic_residue
from lensbordism.orders import (
    bordism_order_cyclic,
    bordism_order_metacyclic_d3,
    e2_diagonal,
    extension_order_check,
    lens_class_order,
    transfer_inclusion_scalar,
)


def _sieve_primes(lo: int, hi: int) -> list[int]:
    flags = bytearray([1]) * (hi + 1)
    flags[0] = flags[1] = 0
    for n in range(2, math.isqrt(hi) + 1):
        if flags[n]:
            flags[n * n :: n] = bytearray(len(range(n * n, hi + 1, n)))
    return [n for n in range(lo, hi + 1) if flags[n]]


def _criterion(num: int, description: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{note}]" if note else ""
    print(f"criterion {num} ({description}): {status}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def full_range_run(tmp_path_factory):
    """One full run of lemma5 over [5, 10000], shared by criteria 1 and 2."""
    path = tmp_path_factory.mktemp("acceptance") / "full.json"
    start = time.perf_counter()
    code = main([
        "lemma5", "--min", "5", "--max", "10000",
        "--format", "json", "--out", str(path),
    ])
    elapsed = time.perf_counter() - start
    report = json.loads(path.read_text(encoding="utf-8"))
    return code, report, elapsed


def _entry_reverifies(entry) -> bool:
    p = entry["p"]
    qa = sum(w * w for w in entry["weights_a"]) % p
    qb = sum(w * w for w in entry["weights_b"]) % p
    pair_a = PontrjaginPair(1, qa, p)
    pair_b = PontrjaginPair(1, qb, p)
    return independent(pair_a, pair_b)


def test_criterion_1_full_range_verification(full_range_run):
    code, report, elapsed = full_range_run
    primes = _sieve_primes(5, 10000)
    entries = report["entries"]
    ok = (
        code == 0
        and report["summary"]["failures"] == 0
        and [e["p"] for e in entries] == primes
        and all(
            len(e["weights_a"]) == 3
            and len(e["weights_b"]) == 3
            and all(0 < w < e["p"] for w in e["weights_a"] + e["weights_b"])
            and _entry_reverifies(e)
            for e in entries
        )
        and elapsed < 60.0
    )
    _criterion(
        1,
        "generator pair for every prime in [5, 10000], failures = 0, under 60 s",
        ok,
        note=f"{len(entries)} primes in {elapsed:.1f} s",
    )


def test_criterion_2_p5_entry_exact(full_range_run):
    _, report, _ = full_range_run
    entry = report["entries"][0]
    ok = entry == {
        "p": 5,
        "weights_a": [1, 1, 1],
        "weights_b": [1, 1, 2],
        "Q": 3,
        "R": 6,
        "stage": "i",
        "certificate": 3,
        "brute_checked": True,
    }
    _criterion(2, "p=5 entry: stage i, Q=3, R=6, weights (1,1,1)/(1,1,2)", ok)


def _independent_by_four_variable_scan(p: int, q: int, r: int) -> bool:
    cubes = [k * k * k % p for k in range(p)]
    for a in range(1, p):
        for b in range(1, p):
            for k in range(1, p):
                ak = a * cubes[k] % p
                akq = a * k * q % p
                for l in range(1, p):
                    if (ak + b * cubes[l]) % p == 0 and (akq + b * l * r) % p == 0:
                        return False
    return True


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    violations = []
    for p in _sieve_primes(5, 31):
        for q in range(p):
            for r in range(p):
                a = PontrjaginPair(1, q, p)
                b = PontrjaginPair(1, r, p)
                fast = independent(a, b)
                if fast != independent_bruteforce(a, b):
                    violations.append((p, q, r, "normalized oracle"))
                if p <= 11 and fast != _independent_by_four_variable_scan(p, q, r):
                    violations.append((p, q, r, "four-variable oracle"))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    _criterion(
        3,
        "independent == brute force on all (Q,R), 5 <= p <= 31, under 30 s",
        ok,
        note=f"{elapsed:.1f} s" + (f", first violation {violations[0]}" if violations else ""),
    )


def test_criterion_4_quadratic_residue_oracle():
    start = time.perf_counter()
    violations = []
    for p in _sieve_primes(3, 997):
        pm = PrimeModulus(p)
        squares = {k * k % p for k in range(1, p)}
        for a in range(1, p):
            if is_quadratic_residue(a, pm) != (a in squares):
                violations.append((p, a))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 5.0
    _criterion(
        4,
        "power-test residuosity matches square tables for all p <= 997, under 5 s",
        ok,
        note=f"{elapsed:.1f} s",
    )


def test_criterion_5_order_formulas():
    primes = _sieve_primes(3, 97)
    ok = True
    for p in primes:
        for k in (1, 2, 3):
            if bordism_order_cyclic(p, k) != p ** (2 * k):
                ok = False
            if bordism_order_cyclic(p, k) != e2_diagonal(p**k).product:
                ok = False
        if p >= 5:
            for k in (2, 3):
                if extension_order_check(p, k) is not True:
                    ok = False
        if p >= 5 and p % 3 == 1:
            for k in (1, 2, 3):
                if bordism_order_metacyclic_d3(p, k) != 9 * p**k:
                    ok = False
    _criterion(
        5,
        "p**2k = diagonal product, extension checks, 9*p**k metacyclic orders",
        ok,
    )


def test_criterion_6_transfer_dichotomy():
    ok = True
    for p in _sieve_primes(5, 97) + [997]:
        if transfer_inclusion_scalar(p, p) != 1:
            ok = False
        if transfer_inclusion_scalar(p, 9) != 9:
            ok = False
    # At p = 3 the composition is multiplication by 3 on a class of order 9,
    # which has order 9 // gcd(9, 3) = 3: nonzero (unlike every p >= 5 case,
    # where the class is killed outright), which is exactly what breaks the
    # zero-map argument there.
    if transfer_inclusion_scalar(3, 9) != 3:
        ok = False
    if transfer_inclusion_scalar(3, 9) == 1:
        ok = False
    _criterion(
        6,
        "transfer/inclusion scalar: kills order-p classes for p >= 5, not the order-9 class at p=3",
        ok,
        note="scalar(3, 9) = 3: the order-9 class survives with order 3",
    )


def test_criterion_7_canonicalization_properties():
    ok = True
    for p in (5, 7, 11, 13):
        for b0 in range(p):
            for b1 in range(p):
                x = PontrjaginPair(b0, b1, p)
                canon = canonical_form(x)
                if canonical_form(canon) != canon:
                    ok = False
                orbit = set()
                for k in range(1, p):
                    y = reparametrize(x, k)
                    orbit.add(y.values())
                    if canonical_form(y) != canon:
                        ok = False
                if (p - 1) % len(orbit) != 0:
                    ok = False
    _criterion(
        7,
        "canonical_form idempotent, orbit-constant; orbit sizes divide p-1 (p <= 13)",
        ok,
    )


def _oracle_presentation_scan(max_order: int) -> list[tuple[int, int, int]]:
    out = []
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            order = m * n
            if order % 2 == 0:
                continue
            if m == 1:
                out.append((1, n, 0))
                continue
            seen = set()
            for r in range(m):
                if math.gcd((r - 1) * n, m) != 1:
                    continue
                if pow(r, n, m) != 1:
                    continue
                span = {1}
                x = r
                while x != 1:
                    span.add(x)
                    x = x * r % m
                key = frozenset(span)
                if key in seen:
                    continue
                seen.add(key)
                out.append((m, n, r))
    out.sort(key=lambda t: (t[0] * t[1], t[0], t[1], t[2]))
    return out


def test_criterion_8_group_enumeration(tmp_path, capsys):
    path = tmp_path / "groups.json"
    code = main(["groups", "--max-order", "100", "--format", "json", "--out", str(path)])
    capsys.readouterr()
    report = json.loads(path.read_text(encoding="utf-8"))
    listed = [(e["m"], e["n"], e["r"]) for e in report["entries"]]
    oracle = _oracle_presentation_scan(100)
    entry_21 = [e for e in report["entries"] if (e["m"], e["n"], e["r"]) == (7, 3, 2)]
    entry_27 = [e for e in report["entries"] if (e["m"], e["n"], e["r"]) == (1, 27, 0)]
    ok = (
        code == 0
        and listed == oracle
        and len(entry_21) == 1
        and entry_21[0]["order"] == 21
        and entry_21[0]["theorem1_applies"] is True
        and len(entry_27) == 1
        and entry_27[0]["theorem1_applies"] is False
    )
    _criterion(
        8,
        "groups --max-order 100 matches the direct presentation scan",
        ok,
        note=f"{len(listed)} presentations",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    def run_to_file(name, *args):
        path = tmp_path / name
        code = main([*args, "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        return path.read_bytes()

    # at least 3 workers so the forked path runs even on a single-core box,
    # and at least one block of 4096 numbers for each, so every worker
    # computes ([5, 20000] is 5 blocks)
    max_jobs = max(os.cpu_count() or 1, 3)
    hi = max(20000, 4096 * max_jobs)
    assert len(range(5, hi + 1, 4096)) >= max_jobs
    lemma_args = ("lemma5", "--min", "5", "--max", str(hi), "--format", "json")
    first = run_to_file("a.json", *lemma_args)
    second = run_to_file("b.json", *lemma_args)
    parallel = run_to_file("c.json", *lemma_args, "--jobs", str(max_jobs))
    groups_args = ("groups", "--max-order", "100", "--format", "csv")
    g1 = run_to_file("g1.csv", *groups_args)
    g2 = run_to_file("g2.csv", *groups_args)
    inv_args = ("invariants", "--p", "13", "--q", "2,3,4", "--format", "json")
    i1 = run_to_file("i1.json", *inv_args)
    i2 = run_to_file("i2.json", *inv_args)
    ok = first == second == parallel and g1 == g2 and i1 == i2
    _criterion(
        9,
        "byte-identical reports across repeat runs and maximal parallelism",
        ok,
        note=f"parallel jobs={max_jobs}",
    )
