"""Exact modular arithmetic over prime moduli.

Everything here is pure and deterministic.  Primality is decided by a
strong-probable-prime (Miller-Rabin) test to the thirteen prime bases
2, 3, ..., 41, which no composite below
3,317,044,064,679,887,385,961,981 passes (Jaeschke 1993; Sorenson and
Webster 2015), so ``is_prime`` is exact below that bound and raises
``RangeError`` at or above it; a call costs thirteen modular powers, not
O(sqrt n) divisions.  Quadratic residuosity is decided by raising to the
power (p-1)/2 (Euler's criterion), and the sum-of-three-unit-squares search
always returns the lexicographically least witness so that downstream
reports are reproducible bit for bit.  That search keeps no per-prime
state: each candidate remainder is tested with Euler's criterion and, when
it is a square, one Adleman-Manders-Miller root (``_root_mod``, also the
package's cube roots) gives both of its roots, so a call costs a few
O(log p) modular powers per candidate rather than an O(p) table of roots.
Residues and primes are ints: a prime is tested once, by the one rule
``_prime_modulus``, and then passed on as a ``PrimeModulus``, an int.
"""

from __future__ import annotations

import math
import operator

from .errors import RangeError, ZeroInput


# The first thirteen primes.  Every odd composite n below _MR_BOUND fails the
# strong-probable-prime test to at least one of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n below
    3,317,044,064,679,887,385,961,981; larger n raise ``RangeError``.

    n is first divided by the bases themselves, so an n below 41**2 that
    survives is prime.  Otherwise, with n - 1 = d * 2**s and d odd, n passes
    base b when b**d = 1 or b**(d * 2**i) = -1 for some i < s.
    """
    n = operator.index(n)
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise RangeError(f"primality is decided only below {_MR_BOUND}, got {n}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus(int):
    """A prime, as an int tested for primality once, when it is built.

    ``PrimeModulus(9)`` raises ``ValueError`` ("9 is not prime"), and ``7.0``
    or ``"7"`` raise ``TypeError``.  The functions that take a prime take a
    ``PrimeModulus`` as it is and test any other int (``_prime_modulus``),
    so a prime checked once is not tested again.  Arithmetic on one gives
    plain ints."""

    __slots__ = ()

    def __new__(cls, p: int) -> "PrimeModulus":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return int.__new__(cls, p)

    def __reduce__(self):
        # unpickled through __new__, so p is tested again; at protocols 0
        # and 1 the default would rebuild the int without calling it
        return (PrimeModulus, (int(self),))

    @classmethod
    def _trusted(cls, p: int) -> "PrimeModulus":
        """A modulus for a p already known to be prime, such as a sieved
        one; skips the primality test that construction runs."""
        return int.__new__(cls, p)


class _Checked:
    """Mixed in before the ``namedtuple`` base of a record whose ``__new__``
    checks its fields: ``_make``, and so ``_replace``, and unpickling at any
    protocol all build through ``__new__``, so none of them makes a record
    that the constructor would reject."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        # at protocols 0 and 1 the default would rebuild the tuple without
        # calling __new__, as it would a PrimeModulus
        return (type(self), tuple(self))


def _prime_modulus(p: int, least: int = 2) -> PrimeModulus:
    """p as a prime of at least ``least``, the package's one rule for a
    prime argument: a ``PrimeModulus`` passes untested, anything else is
    tested (``TypeError`` when it is not an integer, ``ValueError`` "N is
    not prime"), and then a p below ``least`` raises ``ValueError`` "p must
    be at least L, got N"."""
    if not isinstance(p, PrimeModulus):
        p = PrimeModulus(p)
    if p < least:
        raise ValueError(f"p must be at least {least}, got {p}")
    return p


def _residue(value: int, modulus: int) -> int:
    """value reduced into [0, modulus), the package's one rule for accepting
    a residue: it must be an integer (``operator.index``, so that 1.5 raises
    ``TypeError`` rather than truncating)."""
    return operator.index(value) % modulus


def is_quadratic_residue(a: int, p: int) -> bool:
    """Whether a is a nonzero square mod the prime p >= 3.

    Decided by the power test a**((p-1)/2) == 1; zero is rejected because it
    is neither a residue nor a non-residue for the purposes of the callers.
    p must be a prime (``_prime_modulus``).
    """
    p = _prime_modulus(p, 3)
    v = _residue(a, p)
    if v == 0:
        raise ZeroInput("0 has no quadratic character")
    return pow(v, (p - 1) // 2, p) == 1


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for n by trial division, primes ascending; empty
    for n <= 1."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def primes_in_range(lo: int, hi: int) -> list[PrimeModulus]:
    """All primes in [lo, hi], ascending."""
    if lo > hi:
        raise RangeError(f"empty range [{lo}, {hi}]")
    if lo < 2:
        raise ValueError("lo must be at least 2")
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for n in range(2, math.isqrt(hi) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, hi + 1, n)))
    return [PrimeModulus._trusted(n) for n in range(lo, hi + 1) if sieve[n]]


def _element_of_order(p: int, q: int, d: int, primes_of_d: list[int]) -> int:
    """An element h of exact order d mod q = p**e, for d dividing p - 1;
    ``primes_of_d`` are the primes dividing d.

    For a unit a, h = a**(phi(q)/d) has order dividing d, and exactly d
    when h**(d/f) != 1 for every prime f of d.  A primitive root mod p below
    p gives such an h, so the search over a = 2, 3, ... stops before p; it
    raises ``ValueError`` if it does not (when d does not divide p - 1).
    """
    exponent = q // p * (p - 1) // d
    for a in range(2, p):
        h = pow(a, exponent, q)
        for f in primes_of_d:  # not all(...), which costs 3x the loop here
            if pow(h, d // f, q) == 1:
                break
        else:
            return h
    raise ValueError(f"no element of order {d} mod {q}")


def _root_mod(a: int, p: int, r: int) -> int:
    """One r-th root of the nonzero r-th power residue a mod the prime p,
    for a prime r dividing p - 1.

    Adleman-Manders-Miller (FOCS 1977; Tonelli-Shanks at r = 2): with
    p - 1 = t * r**s, r not dividing t, and r*e = 1 mod t, the guess x = a**e
    has error x**r / a = a**(r*e - 1), an r-th power in the cyclic r-Sylow
    subgroup.  Each round multiplies x by a power of c, a generator of a
    shrinking r-subgroup (at first of order r**s, from ``_element_of_order``),
    so that the error's order drops by a factor r.  A first guess that is
    already a root, as for r = 2 at p = 3 mod 4, needs no generator.
    """
    t, s = p - 1, 0
    while t % r == 0:
        t //= r
        s += 1
    e = pow(r, -1, t)
    x, err = pow(a, e, p), pow(a, r * e - 1, p)
    if err == 1:
        return x
    c, m = _element_of_order(p, p, r**s, [r]), s
    u = pow(c, r ** (s - 1), p)  # order r; equal to c**(r**(m-1)) for every c below
    while err != 1:
        # least i with err**(r**i) == 1, and w = err**(r**(i-1)), of order r;
        # i < m because err lies in the r-th powers of <c>, of order r**(m-1)
        i, y = 0, err
        while y != 1:
            w, y, i = y, y**r % p, i + 1
        b = pow(c, r ** (m - i - 1), p)  # order r**(i+1)
        c = b**r % p  # order r**i
        # x * b**j turns err into err * c**j, whose power r**(i-1) is
        # w * u**j: take the j in [1, r) with w * u**j = 1
        bj, cj, uj = b, c, u
        while w * uj % p != 1:
            bj, cj, uj = bj * b % p, cj * c % p, uj * u % p
        m, err, x = i, err * cj % p, x * bj % p
    return x


def sum_three_unit_squares(
    target: int, p: int
) -> tuple[int, int, int] | None:
    """Lexicographically least triple of units whose squares sum to target.

    Returns (t1, t2, t3) with t1**2 + t2**2 + t3**2 = target mod p and every
    ti invertible, or None when no such triple exists.  The restriction to
    units is what makes the triple usable as lens-space weights.

    Candidates (t1, t2) with t1 <= t2 are taken in lexicographic order.  The
    remainder s = target - t1**2 - t2**2 is skipped when it is 0 (t3 would
    not be a unit) or fails Euler's criterion; otherwise its roots are r and
    p - r for one root r (``_root_mod``), and t3 is the smaller one, lo.
    Every unit triple reorders to t1 <= t2 <= t3 with the same squares, so
    no triple is lost, and for fixed (t1, t2) the least t3 is the least
    triple with that prefix.  At the first hit lo >= t2 already: were
    lo < t2, then (t1, lo), or (lo, t1) when lo < t1, would be an earlier
    candidate with the nonzero square remainder t2**2.  So the first hit is
    the lexicographically least triple.  Each candidate costs one modular
    power and, for residues, one square root of O(log p) powers; no table
    is built.  p must be a prime >= 5 (``_prime_modulus``).
    """
    p = _prime_modulus(p, 5)
    t = _residue(target, p)
    half = (p - 1) // 2
    for t1 in range(1, p):
        s1 = (t - t1 * t1) % p
        for t2 in range(t1, p):
            s = (s1 - t2 * t2) % p
            if s == 0 or pow(s, half, p) != 1:
                continue
            r = _root_mod(s, p, 2)
            return (t1, t2, min(r, p - r))
    return None
