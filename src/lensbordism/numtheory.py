"""Exact modular arithmetic over prime moduli.

Everything here is pure and deterministic: primality is decided by trial
division (the target range is moduli up to 10**6), quadratic residuosity by
raising to the power (p-1)/2 (Euler's criterion), and the
sum-of-three-unit-squares search always returns the lexicographically least
witness so that downstream reports are reproducible bit for bit.  That
search keeps no per-prime state: each candidate remainder is tested with
Euler's criterion and, when it is a square, one Tonelli-Shanks root gives
both of its roots, so a call costs a few O(log p) modular powers per
candidate rather than an O(p) table of square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModulusMismatch, NotAUnit, RangeError, ZeroInput


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime modulus, verified at construction."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def _trusted(cls, p: int) -> "PrimeModulus":
        """A modulus for a p already known to be prime, such as a sieved
        one; skips the trial-division check that construction runs."""
        modulus = object.__new__(cls)
        object.__setattr__(modulus, "p", p)
        return modulus

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)

    def residue(self, value: int) -> "ResidueClass":
        return ResidueClass(value, self.p)


@dataclass(frozen=True)
class ResidueClass:
    """An integer reduced into [0, modulus).

    Arithmetic with another ``ResidueClass`` requires equal moduli; plain
    integers are reduced into the same modulus.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _coerce(self, other) -> int | None:
        if isinstance(other, ResidueClass):
            if other.modulus != self.modulus:
                raise ModulusMismatch(
                    f"mod {self.modulus} vs mod {other.modulus}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.modulus
        return None

    def __add__(self, other) -> "ResidueClass":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueClass(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other) -> "ResidueClass":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueClass(self.value - v, self.modulus)

    def __rsub__(self, other) -> "ResidueClass":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueClass(v - self.value, self.modulus)

    def __mul__(self, other) -> "ResidueClass":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueClass(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> "ResidueClass":
        return ResidueClass(-self.value, self.modulus)

    def __pow__(self, exp: int) -> "ResidueClass":
        return mod_pow(self, exp)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"ResidueClass({self.value}, mod {self.modulus})"

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus) == 1

    def inverse(self) -> "ResidueClass":
        return mod_inverse(self)


def mod_pow(base: ResidueClass, exp: int) -> ResidueClass:
    """base**exp reduced mod base.modulus; exp = 0 gives 1 for every base."""
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    return ResidueClass(pow(base.value, exp, base.modulus), base.modulus)


def mod_inverse(a: ResidueClass) -> ResidueClass:
    """The residue b with a*b = 1, if a is a unit."""
    if math.gcd(a.value, a.modulus) != 1:
        raise NotAUnit(f"{a.value} is not invertible mod {a.modulus}")
    return ResidueClass(pow(a.value, -1, a.modulus), a.modulus)


def is_quadratic_residue(a: int | ResidueClass, p: PrimeModulus) -> bool:
    """Whether a is a nonzero square mod p.

    Decided by the power test a**((p-1)/2) == 1; zero is rejected because it
    is neither a residue nor a non-residue for the purposes of the callers.
    """
    pp = int(p)
    if pp % 2 == 0:
        raise ValueError("odd prime modulus required")
    if isinstance(a, ResidueClass) and a.modulus != pp:
        raise ModulusMismatch(f"residue mod {a.modulus} tested against {pp}")
    v = int(a) % pp
    if v == 0:
        raise ZeroInput("0 has no quadratic character")
    return pow(v, (pp - 1) // 2, pp) == 1


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


def _sqrt_mod(a: int, p: int) -> int:
    """One square root of the nonzero quadratic residue a mod the odd prime p.

    Tonelli-Shanks: write p - 1 = q * 2**s with q odd; the first guess
    a**((q+1)/2) is corrected by powers of c = z**q, z a non-residue, until
    the error term t = a**q has been walked down to 1.  When p = 3 mod 4
    (s = 1) the first guess is already a root and no non-residue is needed.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return r
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, m = pow(z, q, p), s
    while t != 1:
        # least i with t**(2**i) == 1; i < m because t has order dividing 2**(m-1)
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        c = b * b % p
        m, t, r = i, t * c % p, r * b % p
    return r


def sum_three_unit_squares(
    target: int | ResidueClass, p: PrimeModulus
) -> tuple[int, int, int] | None:
    """Lexicographically least triple of units whose squares sum to target.

    Returns (t1, t2, t3) with t1**2 + t2**2 + t3**2 = target mod p and every
    ti invertible, or None when no such triple exists.  The restriction to
    units is what makes the triple usable as lens-space weights.

    Candidates (t1, t2) with t1 <= t2 are taken in lexicographic order.  The
    remainder s = target - t1**2 - t2**2 is skipped when it is 0 (t3 would
    not be a unit) or fails Euler's criterion; otherwise its roots are r and
    p - r for one Tonelli-Shanks root r, and t3 is the smaller of the two
    that is at least t2.  Every unit triple reorders to t1 <= t2 <= t3 with
    the same squares, so no triple is lost, and for fixed (t1, t2) the least
    admissible t3 is the least triple with that prefix: the first hit is the
    lexicographically least triple.  Each candidate costs one modular power
    and, for residues, one square root of O(log p) powers; no table is built.
    """
    pp = int(p)
    if pp < 5:
        raise ValueError("p must be at least 5")
    if isinstance(target, ResidueClass) and target.modulus != pp:
        raise ModulusMismatch(f"target mod {target.modulus} vs p={pp}")
    t = int(target) % pp
    half = (pp - 1) // 2
    for t1 in range(1, pp):
        s1 = (t - t1 * t1) % pp
        for t2 in range(t1, pp):
            s = (s1 - t2 * t2) % pp
            if s == 0 or pow(s, half, pp) != 1:
                continue
            r = _sqrt_mod(s, pp)
            lo = min(r, pp - r)
            if lo >= t2:
                return (t1, t2, lo)
            if pp - lo >= t2:
                return (t1, t2, pp - lo)
    return None
