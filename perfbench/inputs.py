"""Seeded workload inputs and the benchmark's own number theory.

Nothing here imports ``lensbordism``: the primes, residuosity tests and
query parameters are computed independently, so the output checks in
``checks.py`` do not rely on the code under test.
"""

from __future__ import annotations

import itertools
import math
import random

LEMMA5_BASE = 10_000  # lemma5 bound; the seed moves it within +-LEMMA5_BAND
LEMMA5_BAND = 100
GROUPS_BASE = 3_000  # groups --max-order; the seed moves it within +-GROUPS_BAND
GROUPS_BAND = 30

# One block of the query stream.  Whole blocks are answered, so every run
# has exactly this mix; the seed draws the parameters and the order.
# The shares put the median inside the invariants/independent latency
# band and p90 inside the band of fresh lemma5 queries, away from the
# edges, so a small change in the mix does not move either percentile.
QUERY_BLOCK = (
    ("invariants", 3),  # canonical_form, O(p) at p near 10**5
    ("independent", 2),  # independent_bruteforce, O(p**2) at p near 500
    ("lemma5", 2),  # one find_generator_pair at p near 10**5
    ("orders-d3-large", 1),  # trial-division is_prime at 12-digit p
    ("orders", 1),  # argument parsing and rendering dominate
    ("orders-d3", 1),
)
# Every other block, one lemma5 query repeats one of the last REUSE_WINDOW
# lemma5 primes: a quarter of the generator-pair queries reuse a prime.
REUSE_WINDOW = 4


def sieve(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for n in range(2, math.isqrt(hi) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, hi + 1, n)))
    return [n for n in range(max(lo, 2), hi + 1) if flags[n]]


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_nonresidue(a: int, p: int) -> bool:
    """Euler's criterion: a**((p-1)/2) = -1 mod p."""
    return pow(a % p, (p - 1) // 2, p) == p - 1


def lemma5_bound(seed: int) -> int:
    """Upper bound of the lemma5 range; shared by both lemma5 workloads."""
    return LEMMA5_BASE + random.Random(f"lemma5:{seed}").randint(-LEMMA5_BAND, LEMMA5_BAND)


def groups_bound(seed: int) -> int:
    return GROUPS_BASE + random.Random(f"groups:{seed}").randint(-GROUPS_BAND, GROUPS_BAND)


def _prime_near(rng: random.Random, lo: int, hi: int, mod3: int | None = None) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if (mod3 is None or n % 3 == mod3) and is_prime(n):
            return n


def _units(rng: random.Random, p: int) -> list[int]:
    return [rng.randrange(1, p) for _ in range(3)]


def _sq_sum(ws: list[int], p: int) -> int:
    return sum(w * w for w in ws) % p


def _triple(ws: list[int]) -> str:
    return ",".join(map(str, ws))


def query_blocks(seed: int):
    """Blocks of the query mix as argv lists, endlessly, drawn from the seed."""
    rng = random.Random(f"queries:{seed}")
    recent: list[int] = []
    for b in itertools.count():
        block: list[list[str]] = []
        reuse_slot = b % 2 == 1  # one lemma5 reuse in every other block
        for kind, count in QUERY_BLOCK:
            for _ in range(count):
                block.append(_query(rng, kind, recent, reuse_slot))
                if kind == "lemma5":
                    reuse_slot = False
        rng.shuffle(block)
        yield block


def _query(rng: random.Random, kind: str, recent: list[int], reuse: bool) -> list[str]:
    fmt = ["--format", "json"]
    if kind == "invariants":
        p = _prime_near(rng, 95_000, 105_000)
        return ["invariants", "--p", str(p), "--q", _triple(_units(rng, p)), *fmt]
    if kind == "independent":
        # Only independent pairs: the oracle then scans all (p-1)**2 candidates.
        p = _prime_near(rng, 450, 550)
        while True:
            qa, qb = _units(rng, p), _units(rng, p)
            q, r = _sq_sum(qa, p), _sq_sum(qb, p)
            if q and r and is_nonresidue(q * pow(r, -1, p), p):
                break
        return ["independent", "--p", str(p), "--qa", _triple(qa), "--qb", _triple(qb), "--brute", *fmt]
    if kind == "lemma5":
        if reuse and recent:
            p = rng.choice(recent)
        else:
            p = _prime_near(rng, 95_000, 105_000)
            recent.append(p)
            del recent[:-REUSE_WINDOW]
        return ["lemma5", "--min", str(p), "--max", str(p), "--jobs", "1", *fmt]
    if kind == "orders-d3-large":
        # `orders` itself overflows at 12 digits (p**2 > 2**63 - 1), so the
        # large-prime queries go through orders-d3, which needs p = 1 mod 3.
        p = _prime_near(rng, 900_000_000_000, 1_000_000_000_000, mod3=1)
        return ["orders-d3", "--p", str(p), "--k", "1", *fmt]
    if kind == "orders":
        p = rng.choice(sieve(5, 200))
        return ["orders", "--p", str(p), "--k", str(rng.randint(1, 3)), *fmt]
    if kind == "orders-d3":
        p = rng.choice([q for q in sieve(7, 200) if q % 3 == 1])
        return ["orders-d3", "--p", str(p), "--k", str(rng.randint(1, 2)), *fmt]
    raise ValueError(kind)
