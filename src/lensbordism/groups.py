"""Metacyclic presentations (m, n, r) of odd-order periodic groups.

A triple (m, n, r) presents the group with generators x, y and relations
x**m = y**n = 1, y x y**-1 = x**r, subject to gcd((r-1)*n, m) = 1 and
r**n = 1 mod m.  The order is m*n; m = 1 gives the cyclic groups (stored
with r = 0, since every congruence mod 1 holds vacuously).  This module
validates triples, computes Sylow shapes (all cyclic in odd order), builds
the n = 3 primitive-cube-root family, and enumerates the presentations up
to a given order, one per isomorphism class.

The enumeration builds the admissible r instead of scanning every r < m.
For odd m = prod p**e the condition forces gcd(n, m) = 1 and r != 1 mod
each p.  The units mod p**e form a cyclic group of order p**(e-1) (p-1),
so the r with r**n = 1 mod p**e are its unique subgroup of order
d = gcd(n, p-1).  That subgroup has order prime to p, so 1 is its only
element = 1 mod p: the local solutions are its d - 1 nontrivial elements,
the powers of one element of exact order d (``_element_of_order``), and
there are none once some d is 1.  The Chinese remainder theorem combines
them into the r mod m.  In ascending order, the first r met in each cyclic
subgroup <r> is kept and the generators of <r> are marked, so the work is
ord(r) once per subgroup.  Only the m that are products of exact prime
powers of the order m*n can list anything, and only of those p**e with
gcd(order / p**e, p-1) > 1: n divides order / p**e, so otherwise d is 1.
The cost: a smallest-prime-factor table per call, a flat array of
max_order + 1 machine ints filled by slices; one factorisation from it per
odd order (whose primes also serve each ``_element_of_order`` call, as the
primes of d divide the order); and work proportional to the admissible r
built; few (m, n) left after the pruning have no r (6 of the 473 up to
order 3,000, 477 of the 23,953 up to 10**5).  The walk yields plain ints, valid by construction;
``enumerate_periodic_odd``, the public edge, checks each as a
``MetacyclicParams``, and the tests check the walk against a scan.

One presentation per isomorphism class: for m > 1, [y, x] = x**(r-1)
generates <x> and G/<x> is cyclic, so the commutator subgroup G' is <x>
and m = |G'| and n = |G|/m are invariants.  An isomorphism onto (m, n, r')
maps <x> onto <x'>, a normal Hall subgroup, so by Schur-Zassenhaus the
image of <y> is conjugate to <y'>; after an inner automorphism it sends x
to x'**s and y to y'**u, u a unit mod n.  Then y x y**-1 = x**r gives
r = r'**u mod m, so <r> = <r'>.  Conversely, if r = r'**v with v prime to
ord(r'), some unit u mod n is v mod ord(r'), and x -> x', y -> y'**u is an
isomorphism.  So (m, n, <r>) is a complete invariant.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, prod

from .numtheory import _Checked, _element_of_order, _factorize
from .orders import _check_d3, _odd_order


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


class MetacyclicParams(_Checked, namedtuple("MetacyclicParams", "m n r")):
    """A validated presentation triple; invalid triples cannot be constructed.

    Fields: ``m``, ``n`` and ``r``, ints (``validate_metacyclic``)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, r: int) -> MetacyclicParams:
        ok, reason = validate_metacyclic(m, n, r)
        if not ok:
            raise ValueError(f"invalid presentation ({m}, {n}, {r}): {reason}")
        return tuple.__new__(cls, (m, n, r))


def group_order(params: MetacyclicParams) -> int:
    """The group order m*n."""
    return params.m * params.n


def theorem1_applies(params: MetacyclicParams) -> bool:
    """Whether the group order is odd and not divisible by 9."""
    return _theorem1_order(group_order(params))


def _theorem1_order(order: int) -> bool:
    return order % 2 == 1 and order % 9 != 0


class SylowDescriptor(namedtuple("SylowDescriptor", "entries")):
    """Sylow subgroup data: one (prime, order, shape) entry per prime divisor.

    Fields: ``entries``, a tuple of (int, int, str) tuples."""

    __slots__ = ()

    @property
    def total_order(self) -> int:
        return prod(order for _, order, _ in self.entries)


def sylow_structure(params: MetacyclicParams) -> SylowDescriptor:
    """Sylow shapes of an odd-order metacyclic group: all cyclic.

    The validity condition forces gcd(m, n) = 1, so every prime divides
    exactly one of m and n and its Sylow subgroup is cyclic of the full
    prime-power order.
    """
    order = _odd_order(group_order(params))
    return SylowDescriptor(tuple((q, q**e, "cyclic") for q, e in _factorize(order).items()))


def d_pk3_params(p: int, k: int) -> MetacyclicParams:
    """The presentation (p**k, 3, r), r the least nontrivial cube root of 1
    mod p**k, for a prime p = 1 mod 3 and k >= 1 (``orders._check_d3``)."""
    return MetacyclicParams(*_d_pk3(_check_d3(p, k), k))


def _d_pk3(p: int, k: int) -> tuple[int, int, int]:
    """``d_pk3_params``' triple, unchecked: r is the lesser of h and h**2 for
    one h of exact order 3 mod p**k (``_element_of_order``)."""
    m = p**k
    return m, 3, min(_powers(_element_of_order(p, m, 3, [3]), m))


def _smallest_prime_factors(limit: int):
    """spf[k] is the least prime factor of k, for 2 <= k <= limit, in one
    flat ``array`` of machine ints.

    Each q from isqrt(limit) down to 2 overwrites all its multiples from
    q**2 by slice, so the last q written over a composite k is the least q
    with q | k and q**2 <= k: the least prime factor of k."""
    from array import array

    spf = array("l", range(limit + 1))
    for q in range(isqrt(limit), 1, -1):
        spf[q * q::q] = array("l", [q]) * len(range(q * q, limit + 1, q))
    return spf


def _prime_powers(k: int, spf) -> list[tuple[int, int]]:
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


def _admissible_r(prime_powers: list[tuple[int, int]], n: int, order_powers: list) -> list[int]:
    """All r in [0, m) with gcd((r-1)*n, m) = 1 and r**n = 1 mod m, ascending,
    for m with the exact prime powers ``prime_powers`` (see the module
    docstring; [0] for m = 1).  ``order_powers`` are the (prime, power)
    pairs of a multiple of n, such as the order m*n: each d = gcd(n, p-1)
    divides n, so the primes of d are among them."""
    roots, modulus = [0], 1
    for p, q in prime_powers:
        d = gcd(n, p - 1)
        if n % p == 0 or d == 1:
            return []
        h = _element_of_order(p, q, d, [f for f, _ in order_powers if d % f == 0])
        local = _powers(h, q)
        inv = pow(modulus, -1, q)
        roots = [a + modulus * ((b - a) * inv % q) for a in roots for b in local]
        modulus *= q
    roots.sort()
    return roots


def _presentations(max_order: int):
    """(m, n, r, sylow) as plain ints for each odd-order presentation with
    m*n <= max_order, one per isomorphism class, sorted by (order, m, n, r),
    with the (prime, order) pairs of its Sylow subgroups; valid by
    construction, so not checked here.

    The bound is checked and the one smallest-prime-factor table built on
    the call, before the first item.  The walk takes the odd orders
    ascending; for each, m = 1 and then the products m > 1 of its exact
    prime powers p**e with gcd(order / p**e, p-1) > 1, ascending (no other
    divides a listed m); and for each (m, n) the admissible r, ascending.
    An r is emitted unless it is marked, and then the generators of <r>
    are marked (see the module docstring).
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    spf = _smallest_prime_factors(max_order)

    def walk():
        for order in range(1, max_order + 1, 2):
            sylow = _prime_powers(order, spf)
            yield 1, order, 0, sylow
            divisors: list[tuple[int, list]] = []
            for p, q in sylow:
                if gcd(order // q, p - 1) > 1:
                    divisors += [(q, [(p, q)])] + [(m * q, f + [(p, q)]) for m, f in divisors]
            for m, factors in sorted(divisors):
                n = order // m
                marked: set[int] = set()
                for r in _admissible_r(factors, n, sylow):
                    if r not in marked:
                        yield m, n, r, sylow
                        powers = _powers(r, m)
                        order_r = len(powers) + 1
                        marked.update(y for a, y in enumerate(powers, 1) if gcd(a, order_r) == 1)

    return walk()


def enumerate_periodic_odd(max_order: int) -> list[MetacyclicParams]:
    """All odd-order presentations with m*n <= max_order, one presentation
    per isomorphism class: the least r for each (m, n, <r>), a complete
    invariant (the module docstring gives the proof).  Output is sorted by
    (order, m, n, r), as ``_presentations`` walks them, and each triple is
    checked as a ``MetacyclicParams``.
    """
    return [MetacyclicParams(m, n, r) for m, n, r, _ in _presentations(max_order)]
