"""Output checks that do not rely on the code under test.

Each ``check_*`` function takes a parsed JSON report and returns a list of
problems; an empty list means the report is correct.  Only ``inputs`` (the
benchmark's own sieve and Euler test) is used, never ``lensbordism``.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

from inputs import is_nonresidue, sieve

STAGES = ("i", "ii", "iii", "iv", "exhaustive")
BRUTE_BELOW = 31  # the CLI default for lemma5 --brute-below


def entries_digest(report: dict) -> str:
    """SHA-256 of the entries alone; the summary may gain fields later."""
    blob = json.dumps(report["entries"], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_lemma5(report: dict, lo: int, hi: int) -> list[str]:
    problems = []
    entries = report["entries"]
    primes = [e["p"] for e in entries]
    if primes != sieve(lo, hi):
        problems.append(f"prime list differs from the sieve of [{lo}, {hi}]")
    for e in entries:
        p = e["p"]
        where = f"p={p}"
        for key, target in (("weights_a", e["Q"]), ("weights_b", e["R"])):
            ws = e[key]
            if len(ws) != 3 or not all(0 < w < p for w in ws):
                problems.append(f"{where}: {key} {ws} are not three units")
            elif sum(w * w for w in ws) % p != target % p:
                problems.append(f"{where}: squares of {key} do not sum to {target}")
        q, r = e["Q"] % p, e["R"] % p
        if q == 0 and r == 0:
            problems.append(f"{where}: Q = R = 0 is never independent")
        elif q == 0 or r == 0:
            if e["certificate"] != 0:
                problems.append(f"{where}: certificate must be 0 when one side is 0")
        else:
            k2 = q * pow(r, -1, p) % p
            if not is_nonresidue(k2, p):
                problems.append(f"{where}: Q/R = {k2} is a quadratic residue")
            if e["certificate"] != k2:
                problems.append(f"{where}: certificate {e['certificate']} != Q/R = {k2}")
        if e["stage"] not in STAGES:
            problems.append(f"{where}: unknown stage {e['stage']!r}")
        if e["brute_checked"] != (p <= BRUTE_BELOW):
            problems.append(f"{where}: brute_checked is {e['brute_checked']}")
    summary = report["summary"]
    if summary.get("primes_checked") != len(primes) or summary.get("failures") != 0:
        problems.append(f"summary {summary} does not match {len(primes)} primes")
    return problems


def _span(r: int, m: int) -> frozenset[int]:
    span, x = {1}, r % m
    while x != 1:
        span.add(x)
        x = x * r % m
    return frozenset(span)


def groups_reference(max_order: int) -> list[tuple[int, int, int]]:
    """Every (m, n, least r per subgroup <r>) of odd order m*n <= max_order.

    Straight from the definition: gcd((r-1) n, m) = 1 and r**n = 1 mod m,
    which needs gcd(n, m) = 1; m = 1 is stored with r = 0.
    """
    found = []
    for m in range(1, max_order + 1, 2):
        for n in range(1, max_order // m + 1, 2):
            if m == 1:
                found.append((1, n, 0))
                continue
            if gcd(n, m) != 1:
                continue
            seen = set()
            for r in range(m):
                if gcd(r - 1, m) == 1 and pow(r, n, m) == 1:
                    span = _span(r, m)
                    if span not in seen:
                        seen.add(span)
                        found.append((m, n, r))
    found.sort(key=lambda t: (t[0] * t[1], t))
    return found


def _factor(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n, e = n // d, e + 1
            out.append((d, d**e))
        d += 1
    if n > 1:
        out.append((n, n))
    return out


def check_groups(report: dict, max_order: int, reference=None) -> list[str]:
    """Per-entry conditions, order and keys; and, given ``reference``
    (from ``groups_reference``), the exact list of triples."""
    problems = []
    keys = []
    for e in report["entries"]:
        m, n, r = e["m"], e["n"], e["r"]
        where = f"(m, n, r) = ({m}, {n}, {r})"
        order = m * n
        if m == 1:
            valid = r == 0
        else:
            valid = 0 <= r < m and gcd((r - 1) * n, m) == 1 and pow(r, n, m) == 1
        if not valid:
            problems.append(f"{where}: not a valid presentation")
            continue
        if e["order"] != order or order % 2 == 0 or order > max_order:
            problems.append(f"{where}: order {e['order']} is wrong or out of range")
        sylow = [(s["prime"], s["order"]) for s in e["sylow"]]
        if sylow != _factor(order) or any(s["shape"] != "cyclic" for s in e["sylow"]):
            problems.append(f"{where}: Sylow data {e['sylow']} is wrong")
        if e["theorem1_applies"] != (order % 9 != 0):
            problems.append(f"{where}: theorem1_applies is wrong")
        keys.append((order, m, n, r, _span(r, m) if m > 1 else frozenset()))
    if [k[:4] for k in keys] != sorted(k[:4] for k in keys):
        problems.append("entries are not sorted by (order, m, n, r)")
    if len({(k[1], k[2], k[4]) for k in keys}) != len(keys):
        problems.append("duplicate (m, n, <r>) key")
    if reference is not None:
        listed = [(e["m"], e["n"], e["r"]) for e in report["entries"]]
        if listed != reference:
            problems.append(f"{len(listed)} triples listed, {len(reference)} expected")
    if report["summary"].get("groups_listed") != len(report["entries"]):
        problems.append("summary groups_listed does not match the entries")
    return problems


def _cube_roots_of_unity(p: int) -> list[int]:
    if p % 3 != 1:
        return [1]
    for g in range(2, p):
        w = pow(g, (p - 1) // 3, p)
        if w != 1:
            return [1, w, w * w % p]
    raise ValueError(p)


def check_query(argv: list[str], report: dict) -> list[str]:
    """Check the JSON report of one single query against its argv."""
    kind = argv[0]
    opts = {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}
    if kind == "lemma5":
        return check_lemma5(report, int(opts["--min"]), int(opts["--max"]))
    (e,) = report["entries"]
    p = int(opts["--p"])
    if kind == "invariants":
        ws = [int(x) % p for x in opts["--q"].split(",")]
        q = sum(w * w for w in ws) % p
        # Orbit of (1, Q) is {(k**3, kQ)}; its least element has k**3 = 1.
        canon = [1, min(w * q % p for w in _cube_roots_of_unity(p))]
        expected = {"p": p, "weights": ws, "Q": q, "pair": [1, q], "canonical": canon}
    elif kind == "independent":
        qa = [int(x) % p for x in opts["--qa"].split(",")]
        qb = [int(x) % p for x in opts["--qb"].split(",")]
        q, r = sum(w * w for w in qa) % p, sum(w * w for w in qb) % p
        if q == 0 or r == 0:
            verdict = q != r
        else:
            verdict = is_nonresidue(q * pow(r, -1, p), p)
        expected = {
            "p": p, "weights_a": qa, "weights_b": qb, "Q": q, "R": r,
            "independent": verdict, "oracle": verdict, "agree": True,
        }
    elif kind == "orders":
        k = int(opts["--k"])
        expected = {
            "p": p, "k": k, "bordism_order": p ** (2 * k), "lens_class_order": p**k,
            "group_structure": f"Z_{p} x Z_{p}" if k == 1 else "unspecified",
            "extension_order_check": True if k >= 2 else None,
            "non_splitness": True if k >= 2 else None,
        }
    elif kind == "orders-d3":
        k = int(opts["--k"])
        m, r = p**k, e["r"]
        if not (1 < r < m and pow(r, 3, m) == 1 and r < r * r % m):
            return [f"orders-d3 p={p} k={k}: r={r} is not the least nontrivial cube root of 1"]
        expected = {
            "p": p, "k": k, "m": m, "n": 3, "r": r, "group_order": 3 * m,
            "bordism_order": 9 * p**k, "cyclic": True,
        }
    else:
        return [f"unknown query kind {kind!r}"]
    if e != expected:
        return [f"{' '.join(argv)}: got {e}, expected {expected}"]
    return []
