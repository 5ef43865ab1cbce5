"""Order bookkeeping for reduced 5-dimensional spin bordism groups.

For cyclic groups of odd prime-power order the bordism spectral sequence
collapses at its second page, so the group order is the product of the
homology orders on the total-degree-5 diagonal; this module encodes that
diagonal, the resulting order formulas, the order of a lens class, the
order-level behaviour of the transfer/inclusion composition, and the cyclic
order 9*p**k for the index-3 metacyclic groups.  Only orders and the few
structure statements actually pinned down by the underlying theory are
encoded; anything else raises ``Unspecified`` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import EvenOrder, NoSuchGroup, Unspecified
from .numtheory import _factorize, _prime_modulus

_MAX_INT = 2**63 - 1


@dataclass(frozen=True)
class AbelianGroup:
    """Finite direct sum of cyclic groups; factor 0 marks an infinite summand."""

    factors: tuple[int, ...]

    @property
    def order(self) -> int | None:
        total = 1
        for m in self.factors:
            if m == 0:
                return None
            total *= m
        return total

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " x ".join("Z" if m == 0 else f"Z_{m}" for m in self.factors)


TRIVIAL = AbelianGroup(())
Z = AbelianGroup((0,))
Z2 = AbelianGroup((2,))


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficient groups of the bordism spectral sequence, by degree."""

    groups: tuple[AbelianGroup, ...]

    def group(self, degree: int) -> AbelianGroup:
        return self.groups[degree]


#: Low-degree spin bordism coefficients: Z, Z_2, Z_2, 0, Z, 0.
SPIN_COEFFICIENTS = CoefficientTable((Z, Z2, Z2, TRIVIAL, Z, TRIVIAL))


def _reduced_homology_order(r: int, n: int, coeff: AbelianGroup) -> int:
    """Order of degree-r reduced homology of the cyclic group of order n,
    with coefficients in the given sum of cyclic groups.

    Reduced integral homology is Z_n in positive odd degrees and 0
    otherwise; for a finite cyclic coefficient Z_m both the tensor and the
    torsion product with Z_n have order gcd(n, m).
    """
    if r <= 0:
        return 1
    total = 1
    for m in coeff.factors:
        if m == 0:
            total *= n if r % 2 == 1 else 1
        else:
            total *= gcd(n, m)
    return total


@dataclass(frozen=True)
class E2Diagonal:
    """Orders on the total-degree-5 diagonal of the collapsed second page."""

    n: int
    terms: tuple[tuple[int, int, int], ...]

    @property
    def product(self) -> int:
        total = 1
        for _, _, order in self.terms:
            total *= order
        return total


def e2_diagonal(n: int) -> E2Diagonal:
    """Total-degree-5 second-page diagonal for an odd prime power n.

    The page collapses, so these orders multiply to the bordism-group order:
    the only nonzero terms sit at (r, s) = (1, 4) and (5, 0), each of order
    n, since the Z_2-coefficient terms vanish for odd n.
    """
    if len(_factorize(_odd_order(n))) != 1:
        raise ValueError(f"odd prime power required, got {n}")
    terms = tuple(
        (r, 5 - r, _reduced_homology_order(r, n, SPIN_COEFFICIENTS.group(5 - r)))
        for r in range(6)
    )
    return E2Diagonal(n, terms)


def _checked_power(base: int, exponent: int, factor: int = 1) -> int:
    """factor * base**exponent for base >= 2, if at most 2**63 - 1.

    A base of b bits is at least 2**(b-1), so exponent * (b-1) >= 63 is
    rejected before any power is built, and any power built is below 2**128.
    The error names the power, not its digits.
    """
    if exponent * (base.bit_length() - 1) < 63:
        value = factor * base**exponent
        if value <= _MAX_INT:
            return value
    prefix = f"{factor} * " if factor != 1 else ""
    raise OverflowError(
        f"{prefix}{base}**{exponent} exceeds the supported 2**63 - 1 bound"
    )


def _odd_order(n: int) -> int:
    """n, if odd: the one rule of the odd-order restriction (``EvenOrder``)."""
    if n % 2 == 0:
        raise EvenOrder(f"order {n} is even; only odd order is encoded")
    return n


def _check(p: int, k: int, min_p: int = 3, min_k: int = 1) -> int:
    """p as a prime >= min_p (``_prime_modulus``), if k is at least min_k."""
    p = _prime_modulus(p, min_p)
    if k < min_k:
        raise ValueError(f"k must be at least {min_k}, got {k}")
    return p


def _check_d3(p: int, k: int) -> int:
    """p as a prime >= 5 with p = 1 mod 3, if k >= 1: the one rule of the
    n = 3 family (p**k, 3, r), which has no r unless 3 divides p - 1."""
    p = _check(p, k, 5)
    if p % 3 != 1:
        raise NoSuchGroup(f"3 does not divide p - 1 for p = {p}")
    return p


def bordism_order_cyclic(p: int, k: int) -> int:
    """p**(2k), the product of the two nonvanishing diagonal orders."""
    _check(p, k)
    return _checked_power(p, 2 * k)


def lens_class_order(p: int, k: int) -> int:
    """Order of a lens-space class over the cyclic group of order p**k.

    p**k for p >= 5; 9 for (p, k) = (3, 1).  The value for p = 3, k >= 2 is
    not encoded and raises ``Unspecified``.
    """
    _check(p, k)
    if p == 3:
        if k == 1:
            return 9
        raise Unspecified("lens-class order for p = 3, k >= 2 is not encoded")
    return _checked_power(p, k)


def group_structure_cyclic(p: int, k: int) -> AbelianGroup:
    """Isomorphism type of the bordism group, known only for k = 1:
    Z_9 at p = 3 and Z_p x Z_p for p >= 5."""
    _check(p, k)
    if k != 1:
        raise Unspecified(
            "only the order is encoded for k >= 2, not the isomorphism type"
        )
    return AbelianGroup((9,)) if p == 3 else AbelianGroup((p, p))


def extension_order_check(p: int, k: int) -> bool:
    """Middle order equals the product of the outer orders in the
    restriction/transfer extension relating exponents k-1, k and 1."""
    _check(p, k, 5, 2)
    return _checked_power(p, 2 * k) == _checked_power(p, 2 * k - 2) * _checked_power(p, 2)


def non_splitness_witness(p: int, k: int) -> bool:
    """A lens class of order p**k > p certifies that the extension does not
    split off a direct sum of exponent-p groups; true for every k >= 2."""
    _check(p, k, 5, 2)
    return _checked_power(p, k) > p


def transfer_inclusion_scalar(subgroup_index: int, class_order: int) -> int:
    """Order of index * x for x of the given order in a cyclic group.

    Models the composition of transfer and inclusion at order level, which
    is multiplication by the subgroup index: the class of order
    ``class_order`` is sent to one of order class_order // gcd(class_order,
    index).  Index equal to the order kills the class (result 1); index
    coprime to the order preserves it.
    """
    if subgroup_index < 1 or class_order < 1:
        raise ValueError("index and order must be positive")
    return class_order // gcd(class_order, subgroup_index)


def bordism_order_metacyclic_d3(p: int, k: int) -> int:
    """9 * p**k, the order of the (cyclic) bordism group over the metacyclic
    group with parameters (p**k, 3, r); requires p = 1 mod 3 for the group
    to exist (``_check_d3``)."""
    return _checked_power(_check_d3(p, k), k, 9)
