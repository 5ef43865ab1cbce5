"""Invariant pairs of 5-dimensional lens spaces and the generator-pair search.

A lens space here is an odd prime p together with a triple of unit weights
mod p; it stands for the quotient of the unit 5-sphere by the rotation action
with those weights (the weights must be units for the action to be free).
Its characteristic data is the pair (beta0, beta1) of residues mod p, with
beta1 = (q1**2 + q2**2 + q3**2) * beta0.  Weights, pairs and every residue
passed in are plain ints, stored reduced mod p and checked once when built;
p is held as a ``PrimeModulus``, an int tested for primality once.  We
normalize beta0 = 1 by fixing the classifying map; the residual ambiguity is
the reparametrization

    (beta0, beta1)  ->  (k**3 * beta0, k * beta1),   k a unit,

whose orbit ``canonical_form`` collapses to its least element.  A pair is the
zero bordism class exactly when both components vanish, and two lens classes
are independent exactly when no unit combination of their reparametrized
pairs vanishes; eliminating variables reduces that to the insolubility of
R * k**2 = Q over units, where Q and R are the two beta1/beta0 slopes.

``find_generator_pair`` runs the staged search that produces, for every prime
p >= 5, two lens spaces with independent pairs, together with a trace of the
candidates it tried.  The search itself (``_generator_pair``) is one loop on
plain ints, on a p checked once: it returns the winning candidate, its two
weight triples and how many candidates it tried, and builds no record.  The
checked ``LensSpace`` records, the trace (replayed by ``_trace``) and the
result are built once, at that public edge.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import (
    DegeneratePair,
    ModulusMismatch,
    NotAUnit,
    SearchExhausted,
)
from .numtheory import (
    PrimeModulus,
    _Checked,
    _element_of_order,
    _prime_modulus,
    _residue,
    _root_mod,
    _three_squares,
)


class LensSpace(_Checked, namedtuple("LensSpace", "p weights")):
    """An odd prime p and a triple of unit weights mod p.

    Fields: ``p``, a ``PrimeModulus`` (``_prime_modulus``); ``weights``, a
    tuple of three ints, stored reduced into [1, p), which may be given as
    any integers.
    """

    __slots__ = ()

    def __new__(cls, p: int, weights: tuple[int, int, int]) -> LensSpace:
        p = _prime_modulus(p, 3)
        if len(weights) != 3:
            raise ValueError("exactly three weights required")
        ws = []
        for w in weights:
            v = _residue(w, p)
            if not v:
                raise NotAUnit(f"weight 0 is 0 mod {p}; the action would not be free")
            ws.append(v)
        return tuple.__new__(cls, (p, tuple(ws)))


class PontrjaginPair(_Checked, namedtuple("PontrjaginPair", "beta0 beta1 modulus")):
    """The invariant pair (beta0, beta1) mod a positive int modulus.

    Fields: ``beta0`` and ``beta1``, ints, which may be given as any
    integers and are stored reduced into [0, modulus); ``modulus``, an int:
    a ``PrimeModulus`` is kept as it is, so it is not tested again, and any
    other is stored as an int."""

    __slots__ = ()

    def __new__(cls, beta0: int, beta1: int, modulus: int) -> PontrjaginPair:
        m = modulus
        if not isinstance(m, PrimeModulus):
            m = operator.index(m)
        if m < 1:
            raise ValueError("modulus must be positive")
        return tuple.__new__(cls, (_residue(beta0, m), _residue(beta1, m), m))

    def values(self) -> tuple[int, int]:
        return (self.beta0, self.beta1)


def q_sum(lens: LensSpace) -> int:
    """Sum of the squared weights mod p, as an int: the slope beta1/beta0."""
    w1, w2, w3 = lens.weights
    return (w1 * w1 + w2 * w2 + w3 * w3) % lens.p


def pontrjagin_pair(lens: LensSpace) -> PontrjaginPair:
    """The invariant pair of a lens space, classifying map fixed so beta0 = 1."""
    return PontrjaginPair(1, q_sum(lens), lens.p)


def reparametrize(pair: PontrjaginPair, k: int) -> PontrjaginPair:
    """Change of classifying map by a unit k: (b0, b1) -> (k**3 b0, k b1)."""
    p = pair.modulus
    kv = _residue(k, p)
    if math.gcd(kv, p) != 1:
        raise NotAUnit(f"{kv} is not a unit mod {p}")
    return PontrjaginPair(pair.beta0 * pow(kv, 3, p), pair.beta1 * kv, p)


def canonical_form(pair: PontrjaginPair) -> PontrjaginPair:
    """Least element of the reparametrization orbit, ordered by (beta0, beta1).

    Idempotent, and constant on orbits; (0, 0) is a fixed point of every
    reparametrization and is returned unchanged.  The modulus must be prime
    (``_prime_modulus``); the work is done on ints by ``_canonical``.
    """
    p = _prime_modulus(pair.modulus)
    return PontrjaginPair(*_canonical(pair.beta0, pair.beta1, p), p)


def _canonical(b0: int, b1: int, p: int) -> tuple[int, int]:
    """``canonical_form`` of (b0, b1), both reduced mod the prime p, as two
    plain ints.

    Computed in closed form rather than by trying every unit k.  With
    b0 = 0 the orbit is (0, k * b1), least at (0, 1) unless b1 = 0.  Else
    the least beta0 is the least c >= 1 with c / b0 a cube, and beta1 is the
    least k * b1 over the units k with k**3 = c / b0.  When 3 does not
    divide p - 1, cubing permutes the units: c = 1, and the only such k is
    b0**-e with 3e = 1 mod p - 1.  Otherwise c / b0 is a cube exactly when
    (c / b0)**((p-1)/3) = 1, and the k are k0, k0 * w and k0 * w**2 for one
    cube root k0 (``_root_mod``, or 1 where c / b0 = 1, as for every pair
    with b0 = 1) and either primitive cube root of unity w
    (``_element_of_order``): both give the same three k.  The cost is one
    modular power per c tried (the least c is small: the cubes are one of
    three cosets of equal size), one cube root and one search for w, O(log p)
    multiplications each rather than the O(p) of a scan over k.
    """
    if b0 == 0:
        return 0, 1 if b1 else 0
    if (p - 1) % 3:
        return 1, pow(b0, -pow(3, -1, p - 1), p) * b1 % p
    cube_test = (p - 1) // 3
    target = pow(b0, cube_test, p)
    c = 1
    while pow(c, cube_test, p) != target:
        c += 1
    cube = c * pow(b0, -1, p) % p
    k0 = 1 if cube == 1 else _root_mod(cube, p, 3)
    w = _element_of_order(p, p, 3, [3])
    x = k0 * b1 % p
    return c, min(x, x * w % p, x * w * w % p)


def is_null_bordant(pair: PontrjaginPair) -> bool:
    """True exactly when both invariant numbers vanish."""
    return pair.values() == (0, 0)


def _common_prime_modulus(a: PontrjaginPair, b: PontrjaginPair) -> PrimeModulus:
    if a.modulus != b.modulus:
        raise ModulusMismatch(f"pair mod {a.modulus} vs pair mod {b.modulus}")
    return _prime_modulus(a.modulus, 5)


def _slope(pair: PontrjaginPair) -> int:
    b0, b1, p = pair.beta0, pair.beta1, pair.modulus
    if math.gcd(b0, p) != 1:
        raise DegeneratePair(f"beta0 = {b0} mod {p} is not a unit")
    return b1 * pow(b0, -1, p) % p


def _dependence_free(p: int, q: int, r: int) -> tuple[bool, int]:
    """Decide insolubility of r * k**2 = q (mod p) over units k.

    Returns (insoluble, tested) where tested is the k**2 value whose
    non-residuosity certifies insolubility; in the cases where one side
    vanishes the forced value k**2 = 0 is recorded as 0.
    """
    q %= p
    r %= p
    if q == 0 and r == 0:
        return False, 0  # k = 1 already solves it
    if q == 0 or r == 0:
        return True, 0  # forces k**2 = 0, impossible for units
    k2 = q * pow(r, -1, p) % p
    return pow(k2, (p - 1) // 2, p) != 1, k2


def independent(a: PontrjaginPair, b: PontrjaginPair) -> bool:
    """Whether the two lens classes generate independently.

    With Q and R the beta1/beta0 slopes of the two pairs, this holds exactly
    when R * k**2 = Q (mod p) has no unit solution k: for nonzero Q and R
    that means Q/R is a quadratic non-residue; if exactly one of them
    vanishes the congruence is insoluble; if both vanish k = 1 solves it.
    """
    p = _common_prime_modulus(a, b)
    ok, _ = _dependence_free(p, _slope(a), _slope(b))
    return ok


def independent_bruteforce(a: PontrjaginPair, b: PontrjaginPair) -> bool:
    """Exhaustive-witness counterpart of ``independent``, for cross-checking.

    Decides whether units (a, b, k, l) exist with

        a * (k**3, k * Q) + b * (l**3, l * R) = (0, 0)   (mod p)

    (both pairs taken with first component 1, which is lossless because
    absorbing the actual first components into a and b is a bijection of
    unit tuples).  Scaling both congruences by a**-1 makes a = 1 lossless as
    well, and then the first congruence forces b = -k**3 * l**-3, always a
    unit.  At that b the second congruence reads k * Q - k**3 * l**-2 * R = 0,
    and multiplying by the unit l**2 / k turns it into

        Q * l**2 = R * k**2   (mod p),

    so the pairs are dependent exactly when some unit k and some unit l
    satisfy it.  A table of p bytes marks R * k**2, and the pairs are
    dependent exactly when some Q * l**2 is marked.  Since k and p - k have
    the same square, k = 1, ..., (p - 1) / 2 already give every unit square:
    the table holds every value the right side takes over units, and every
    value of the left side is looked up, so the check is still exhaustive.
    No residue symbol is used, so it stays independent of ``independent``.
    Cost: O(p) time and p bytes (1 MB at p = 10**6).
    """
    p = _common_prime_modulus(a, b)
    q = _slope(a)
    r = _slope(b)
    half = (p + 1) // 2
    marked = bytearray(p)
    for k in range(1, half):
        marked[r * k * k % p] = 1
    for l in range(1, half):
        if marked[q * l * l % p]:
            return False
    return True


class TraceStep(
    namedtuple("TraceStep", "stage q r tested independent_ok realized", defaults=(False,))
):
    """One attempted (Q, R) candidate in the generator-pair search.

    Fields: ``stage``, a str; ``q``, ``r`` and ``tested``, ints;
    ``independent_ok`` and ``realized`` (default False), bools."""

    __slots__ = ()


class GeneratorPairResult(
    namedtuple("GeneratorPairResult", "p first second q r stage certificate proof_trace")
):
    """Outcome of the staged search: two lens spaces with independent pairs.

    Fields: ``p``, a ``PrimeModulus``; ``first`` and ``second``,
    ``LensSpace``s; ``q`` and ``r``, ints; ``stage``, a str;
    ``certificate``, an int; ``proof_trace``, a tuple of ``TraceStep``s,
    left out of the repr.  ``q`` and ``r`` keep the stage's nominal values
    (3 and 6 for the first stage, and so on), which reduce mod p to the
    actual weight-square sums; ``certificate`` is the k**2 value whose
    non-residuosity certified independence (0 when one side of the
    congruence vanished).
    """

    __slots__ = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({shown})"


def _candidates(p: int):
    """The (stage, Q, R) candidates of the staged search, in the order tried."""
    yield "i", 3, 6
    yield "ii", 3, 2
    for j in range(1, p):
        q = (1 + j * j) % p
        yield ("iii" if q else "iv"), q, 2


def _generator_pair(p: int) -> tuple:
    """The staged search of ``find_generator_pair`` on plain ints, for a p
    already known to be a prime >= 5, which is not checked again.

    Returns (stage, q, r, certificate, weights_a, weights_b, tried): the
    first dependence-free candidate, its two weight triples
    (``_three_squares``) and the number of candidates tried, that one
    included.  It builds no ``TraceStep``; ``_trace(p, tried)`` replays the
    candidates where a trace is wanted.  A dependence-free candidate is
    always realized, since every residue is a sum of three unit squares for
    p >= 7 and every nonzero one at p = 5, where stage i wins; so the first
    one wins, as ``find_generator_pair`` explains.  ``SearchExhausted``,
    with the whole trace, is only a guard.
    """
    for tried, (stage, q, r) in enumerate(_candidates(p), 1):
        ok, tested = _dependence_free(p, q, r)
        if ok:
            return stage, q, r, tested, _three_squares(q % p, p), _three_squares(r % p, p), tried
    raise SearchExhausted(p, _trace(p, p + 1))


def _trace(p: int, tried: int) -> tuple:
    """The proof trace of the search at p: a ``TraceStep`` for each of the
    first ``tried`` candidates, with ``realized`` equal to
    ``independent_ok`` (``_generator_pair``)."""
    steps = []
    for _, (stage, q, r) in zip(range(tried), _candidates(p)):
        ok, tested = _dependence_free(p, q, r)
        steps.append(TraceStep(stage, q, r, tested, ok, ok))
    return tuple(steps)


def find_generator_pair(p: int) -> GeneratorPairResult:
    """Two lens spaces mod p whose invariant pairs are independent.

    Staged search: (i) Q=3, R=6, realized by weights (1,1,1) and (1,1,2);
    (ii) Q=3, R=2; (iii) Q = 2*inv2 + j**2 = 1 + j**2 with R=2 for j = 1,
    2, ..., where inv2 is the inverse of 2; (iv) the Q = 0 candidates
    arising in that sweep, which succeed with any realizable nonzero R.
    Every attempt is recorded in the proof trace.  The sweep always returns,
    so ``SearchExhausted`` is only a guard: every residue is a sum of three
    unit squares for p >= 7 (every nonzero one at p = 5), so a candidate
    fails only on dependence; stage i wins exactly when (2/p) = -1, as at
    p = 5, so the sweep runs only when (2/p) = 1 and p >= 7; there Q = 0 or
    a non-residue Q wins, and counting the p - 1 points of the conic
    y**2 - x**2 = 1 shows that at least (p - (-1/p))/2 values of j in
    [1, p-1] make 1 + j**2 a non-residue.  p must be a prime >= 5
    (``_prime_modulus``).

    This is the search's public edge: p is checked here, once, the search
    itself (``_generator_pair``) runs on ints, and the two ``LensSpace``s,
    the proof trace (``_trace``, a replay of the candidates it tried) and
    the result are built here.
    """
    p = _prime_modulus(p, 5)
    stage, q, r, certificate, wa, wb, tried = _generator_pair(p)
    return GeneratorPairResult(
        p, LensSpace(p, wa), LensSpace(p, wb), q, r, stage, certificate, _trace(p, tried)
    )
