"""Metacyclic presentations (m, n, r) of odd-order periodic groups.

A triple (m, n, r) presents the group with generators x, y and relations
x**m = y**n = 1, y x y**-1 = x**r, subject to gcd((r-1)*n, m) = 1 and
r**n = 1 mod m.  The order is m*n; m = 1 gives the cyclic groups (stored
with r = 0, since every congruence mod 1 holds vacuously).  This module
validates triples, computes Sylow shapes (all cyclic in odd order), builds
the n = 3 primitive-cube-root family, and enumerates all presentations up
to a given order.

The enumeration builds the admissible r instead of scanning every r < m.
For odd m = prod p**e the condition forces gcd(n, m) = 1 and r != 1 mod
each p.  The units mod p**e form a cyclic group of order p**(e-1) (p-1),
so the r with r**n = 1 mod p**e are its unique subgroup of order
d = gcd(n, p-1).  That subgroup has order prime to p, so reduction mod p
is injective on it and 1 is its only element = 1 mod p: the local
solutions are exactly its d - 1 nontrivial elements, and there are none
for any n once some d is 1.  They are the powers of one element of exact
order d (``_element_of_order``, from the primes of d alone).  The Chinese
remainder theorem combines them into the r mod m.  In ascending order, the
first r met in each cyclic subgroup <r> is kept and the generators of <r>
(walked, like the roots, by ``_powers``) are marked, so the work is ord(r)
once per subgroup.  As gcd(n, m) = 1, only the m that are products of
exact prime powers of the order m*n can list anything.  The cost is
output-sensitive: a smallest-prime-factor table of max_order + 1 entries
per call, one factorisation from it per odd order, one ``_admissible_r``
per such divisor m, not per pair (m, n), and work proportional to the
admissible r built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import EvenOrder, NoPrimitiveCubeRoot
from .numtheory import _element_of_order, _factorize, _prime_modulus


def validate_metacyclic(m: int, n: int, r: int) -> tuple[bool, str | None]:
    """Check the presentation conditions; returns (ok, reason).

    Never raises for a failed condition: the reason string names the first
    failing check instead.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m == 1:
        if r != 0:
            return False, "r must be 0 when m = 1"
        return True, None
    if not 0 <= r < m:
        return False, f"r = {r} out of range [0, {m})"
    g = gcd((r - 1) * n, m)
    if g != 1:
        return False, f"gcd((r-1)*n, m) = {g} != 1"
    if pow(r, n, m) != 1:
        return False, f"r**n = {pow(r, n, m)} != 1 mod m"
    return True, None


@dataclass(frozen=True)
class MetacyclicParams:
    """A validated presentation triple; invalid triples cannot be constructed."""

    m: int
    n: int
    r: int

    def __post_init__(self) -> None:
        ok, reason = validate_metacyclic(self.m, self.n, self.r)
        if not ok:
            raise ValueError(f"invalid presentation ({self.m}, {self.n}, {self.r}): {reason}")


def group_order(params: MetacyclicParams) -> int:
    """The group order m*n."""
    return params.m * params.n


def theorem1_applies(params: MetacyclicParams) -> bool:
    """Whether the group order is odd and not divisible by 9."""
    order = group_order(params)
    return order % 2 == 1 and order % 9 != 0


@dataclass(frozen=True)
class SylowDescriptor:
    """Sylow subgroup data: one (prime, order, shape) entry per prime divisor."""

    entries: tuple[tuple[int, int, str], ...]

    @property
    def total_order(self) -> int:
        total = 1
        for _, order, _ in self.entries:
            total *= order
        return total


def sylow_structure(params: MetacyclicParams) -> SylowDescriptor:
    """Sylow shapes of an odd-order metacyclic group: all cyclic.

    The validity condition forces gcd(m, n) = 1, so every prime divides
    exactly one of m and n and its Sylow subgroup is cyclic of the full
    prime-power order.
    """
    order = group_order(params)
    if order % 2 == 0:
        raise EvenOrder(f"order {order} is even; only odd order is encoded")
    entries = tuple(
        (q, q**e, "cyclic") for q, e in _factorize(order).items()
    )
    return SylowDescriptor(entries)


def d_pk3_params(p: int, k: int) -> MetacyclicParams:
    """The presentation (p**k, 3, r) with r the least nontrivial cube root
    of 1 mod p**k: the lesser of h and h**2 for one h of exact order 3 mod
    p**k (``_element_of_order``); exists exactly when p = 1 mod 3, for a
    prime p >= 5 (``_prime_modulus``)."""
    p = _prime_modulus(p, 5)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if p % 3 != 1:
        raise NoPrimitiveCubeRoot(f"3 does not divide p - 1 for p = {p}")
    m = p**k
    return MetacyclicParams(m, 3, min(_powers(_element_of_order(p, m, 3, [3]), m)))


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[k] is the least prime factor of k, for 2 <= k <= limit."""
    spf = list(range(limit + 1))
    for q in range(2, isqrt(limit) + 1):
        if spf[q] == q:
            for k in range(q * q, limit + 1, q):
                if spf[k] == k:
                    spf[k] = q
    return spf


def _prime_powers(k: int, spf: list[int]) -> list[tuple[int, int]]:
    """(p, p**e) for each prime power p**e exactly dividing k, p ascending."""
    out = []
    while k > 1:
        p, q = spf[k], 1
        while k % p == 0:
            k //= p
            q *= p
        out.append((p, q))
    return out


def _powers(x: int, m: int) -> list[int]:
    """x, x**2, ... mod m, up to the last power before the first 1; x must
    be a unit mod m > 1."""
    powers, y = [], x
    while y != 1:
        powers.append(y)
        y = y * x % m
    return powers


def _admissible_r(m: int, n: int, spf: list[int]) -> list[int]:
    """All r in [0, m) with gcd((r-1)*n, m) = 1 and r**n = 1 mod m, ascending.

    Built by the Chinese remainder theorem from the local roots of each
    prime power exactly dividing m (see the module docstring); ``spf`` must
    cover m.  For m = 1 this is [0].
    """
    roots, modulus = [0], 1
    for p, q in _prime_powers(m, spf):
        d = gcd(n, p - 1)
        if n % p == 0 or d == 1:
            return []
        h = _element_of_order(p, q, d, [f for f, _ in _prime_powers(d, spf)])
        local = _powers(h, q)
        inv = pow(modulus, -1, q)
        roots = [a + modulus * ((b - a) * inv % q) for a in roots for b in local]
        modulus *= q
    roots.sort()
    return roots


def _presentations(max_order: int):
    """Each odd-order presentation with m*n <= max_order and the (prime,
    order) pairs of its Sylow subgroups, sorted by (order, m, n, r).

    The bound is checked and the one smallest-prime-factor table built on
    the call, before the first item.  The walk takes the odd orders
    ascending; for each, m = 1 and then the products m > 1 of its exact
    prime powers, ascending; and for each (m, n) the admissible r,
    ascending.  An r is emitted unless it is marked, and then the
    generators r**a of <r>, gcd(a, ord r) = 1, are marked, so the first r
    met in each subgroup is its least (the module docstring gives the
    argument and the cost).  Every emitted triple is still checked by
    ``MetacyclicParams``.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    spf = _smallest_prime_factors(max_order)

    def walk():
        for order in range(1, max_order + 1, 2):
            sylow = _prime_powers(order, spf)
            yield MetacyclicParams(1, order, 0), sylow
            divisors: list[int] = []
            for _, q in sylow:
                divisors += [q] + [m * q for m in divisors]
            for m in sorted(divisors):
                n = order // m
                marked: set[int] = set()
                for r in _admissible_r(m, n, spf):
                    if r not in marked:
                        yield MetacyclicParams(m, n, r), sylow
                        powers = _powers(r, m)
                        order_r = len(powers) + 1
                        marked.update(y for a, y in enumerate(powers, 1) if gcd(a, order_r) == 1)

    return walk()


def enumerate_periodic_odd(max_order: int) -> list[MetacyclicParams]:
    """All odd-order presentations with m*n <= max_order, deduplicated.

    Two triples with equal (m, n) and equal cyclic subgroup generated by r
    are merged into the least-r representative.  That key is a conservative
    merge, not a complete isomorphism invariant: distinct keys may in
    principle still present isomorphic groups.  Output is sorted by
    (order, m, n, r), as ``_presentations`` walks them.
    """
    return [g for g, _ in _presentations(max_order)]
