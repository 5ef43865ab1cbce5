"""Tests for the modular arithmetic layer."""

import functools
import math
import pickle
import random
from bisect import bisect_left

import pytest

from lensbordism import numtheory
from lensbordism.errors import RangeError, ZeroInput
from lensbordism.numtheory import (
    PrimeModulus,
    _factorize,
    _prime_stream,
    _root_mod,
    is_prime,
    is_quadratic_residue,
    primes_in_range,
    sum_three_unit_squares,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _unit_square_roots(p):
    """roots[s] = ascending unit square roots of s mod p."""
    roots = [[] for _ in range(p)]
    for k in range(1, p):
        roots[k * k % p].append(k)
    return roots


def _sum_three_unit_squares_by_table(target, p, roots):
    """Square-root-table oracle: for each (t1, t2), look the remainder up in
    ``_unit_square_roots(p)`` and take the least root >= t2."""
    for t1 in range(1, p):
        for t2 in range(t1, p):
            cand = roots[(target - t1 * t1 - t2 * t2) % p]
            i = bisect_left(cand, t2)
            if i < len(cand):
                return (t1, t2, cand[i])
    return None


def _is_prime_by_trial_division(n):
    """Oracle: trial division by 2, 3 and every 6j +- 1 up to sqrt(n)."""
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


def test_is_prime_matches_trial_division_up_to_200000():
    for n in range(-5, 200_001):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


# psi_k, the least composite that passes the strong-probable-prime test to
# each of the first k prime bases, for k = 1 to 13 (Jaeschke 1993; Sorenson
# and Webster 2017).
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, b):
    """Whether the odd n passes the strong test to base b, written out."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    return x == 1 or any(pow(b, d << i, n) == n - 1 for i in range(s))


def test_is_prime_bases_by_size_stop_at_each_psi():
    # is_prime takes k bases below psi_k and so would accept psi_k itself
    # with a tier of fewer bases or a higher bound
    assert numtheory._MR_BASES == BASES
    assert numtheory._MR_PSI == PSI
    assert numtheory._MR_BOUND == PSI[-1]
    for k, n in enumerate(PSI, 1):
        assert all(_strong_probable_prime(n, b) for b in BASES[:k]), (k, n)
        # a prime passes to every base, so failing one proves n composite
        assert not all(_strong_probable_prime(n, b) for b in range(43, 200)), n


@pytest.mark.parametrize("k", range(1, len(PSI)))
def test_is_prime_agrees_with_all_bases_around_each_psi(k):
    # the test to all thirteen bases is exact below the last bound, so the
    # shortened one must agree with it on both sides of each tier's bound
    psi = PSI[k - 1]
    for n in range(psi - 300, psi + 301, 2):
        assert is_prime(n) == all(_strong_probable_prime(n, b) for b in BASES), n


def test_is_prime_rejects_strong_pseudoprimes(monkeypatch):
    # psi_1 to psi_12; psi_13 is the bound, at which is_prime raises
    for n in PSI[:-1]:
        assert is_prime(n) is False, n
    # psi_12 passes the first twelve bases: only the last tier, base 41,
    # catches it
    monkeypatch.setattr(numtheory, "_MR_PSI", numtheory._MR_PSI[:-1])
    assert is_prime(318665857834031151167461) is True


def test_is_prime_large_primes():
    for n in (2**61 - 1, 10**12 + 39, 10**18 + 3):
        assert is_prime(n) is True, n


def test_is_prime_above_its_bound_raises():
    with pytest.raises(RangeError):
        is_prime(3317044064679887385961981)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(7919)
    assert not is_prime(7917)


@pytest.mark.parametrize("bad", [2.5, 7.0, "7"])
@pytest.mark.parametrize("check", [is_prime, PrimeModulus])
def test_non_integer_rejected_by_primality(check, bad):
    with pytest.raises(TypeError):
        check(bad)


def test_prime_modulus_rejects_composites():
    PrimeModulus(5)
    with pytest.raises(ValueError):
        PrimeModulus(9)
    with pytest.raises(ValueError):
        PrimeModulus(1)


def test_prime_modulus_is_an_int():
    p = PrimeModulus(7)
    assert p == 7 and isinstance(p, int) and hash(p) == hash(7)
    assert (repr(p), str(p), f"{p}") == ("7", "7", "7")
    assert type(p + 1) is int and type(p**2) is int and type(3 % p) is int


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_a_prime_modulus_tests_it_again(protocol):
    p = pickle.loads(pickle.dumps(PrimeModulus(7), protocol))
    assert type(p) is PrimeModulus and p == 7
    data = pickle.dumps(PrimeModulus._trusted(9), protocol)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        pickle.loads(data)


@pytest.mark.parametrize(
    "check, a, p",
    [
        (sum_three_unit_squares, 2, 9),
        (sum_three_unit_squares, 1, 15),
        (is_quadratic_residue, 2, 15),
    ],
)
def test_composite_int_modulus_rejected(check, a, p):
    with pytest.raises(ValueError, match="is not prime"):
        check(a, p)


def test_sieved_primes_are_not_checked_again(is_prime_calls):
    primes = primes_in_range(5, 10_000)
    assert type(PrimeModulus._trusted(9)) is PrimeModulus
    assert is_prime_calls == []
    assert len(primes) == 1227
    assert primes[:2] == [PrimeModulus(5), PrimeModulus(7)]
    with pytest.raises(ValueError):
        PrimeModulus(9)  # the public constructor still checks
    assert is_prime_calls == [5, 7, 9]


def test_factorize_rebuilds_n_from_ascending_primes():
    assert _factorize(1) == {} and _factorize(0) == {}
    assert _factorize(2 * 3**4 * 7 * 7919**2) == {2: 1, 3: 4, 7: 1, 7919: 2}
    for n in range(2, 3000):
        factors = _factorize(n)
        assert list(factors) == sorted(factors) and all(is_prime(q) for q in factors)
        product = 1
        for q, e in factors.items():
            product *= q**e
        assert product == n


class TestQuadraticResidue:
    def test_examples(self):
        assert is_quadratic_residue(3, PrimeModulus(5)) is False
        assert is_quadratic_residue(5, PrimeModulus(7)) is False
        for p in SMALL_PRIMES:
            assert is_quadratic_residue(1, PrimeModulus(p)) is True

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            is_quadratic_residue(0, PrimeModulus(7))
        with pytest.raises(ZeroInput):
            is_quadratic_residue(14, PrimeModulus(7))

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            is_quadratic_residue(1, PrimeModulus(2))

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2"])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(TypeError):
            is_quadratic_residue(bad, PrimeModulus(7))

    def test_matches_square_table_up_to_200(self):
        for pm in primes_in_range(3, 200):
            p = int(pm)
            squares = {k * k % p for k in range(1, p)}
            for a in range(1, p):
                assert is_quadratic_residue(a, pm) == (a in squares)


class TestPrimesInRange:
    def test_examples(self):
        assert [int(p) for p in primes_in_range(5, 13)] == [5, 7, 11, 13]
        assert primes_in_range(24, 28) == []
        assert [int(p) for p in primes_in_range(5, 5)] == [5]

    def test_inverted_range_rejected(self):
        with pytest.raises(RangeError):
            primes_in_range(10, 9)

    def test_low_bound_rejected(self):
        with pytest.raises(ValueError):
            primes_in_range(1, 10)

    def test_matches_trial_division(self):
        got = [int(p) for p in primes_in_range(2, 500)]
        assert got == [n for n in range(2, 501) if is_prime(n)]


def _trial_division_primes(lo, hi):
    """The primes in [lo, hi], each found by trial division by the primes up
    to its square root; no package code."""
    divisors = [d for d in range(2, math.isqrt(hi) + 1) if all(d % e for e in range(2, d))]
    return [
        n for n in range(max(lo, 2), hi + 1)
        if all(n % d for d in divisors if d * d <= n)
    ]


# (lo, hi) windows where a segmented sieve goes wrong first
EDGE_WINDOWS = [
    # the smallest lo, each below hi and at hi
    *((lo, hi) for lo in (2, 3, 4, 5) for hi in (lo, 5, 6, 7, 24, 25, 1000) if lo <= hi),
    # one number: a prime, a composite, a prime square and a base prime
    (99991, 99991), (999983, 999983), (1000000, 1000000), (994009, 994009),
    (961, 961), (31, 31), (24, 28),
    # windows holding base primes, whose own flags must stay set
    (2, 50), (2, 2000), (7, 1000), (31, 1000),
    # windows from q**2 and just above it, for base primes q
    (49, 100), (50, 100), (961, 1100), (962, 1100), (994009, 995000), (994010, 995000),
    # windows across isqrt(hi), from it and just above it, and ending at a
    # prime square
    (90, 10000), (100, 10000), (101, 10000), (300, 100000), (2, 10201), (10000, 10201),
]


@functools.cache
def _division_primes(limit):
    """The primes up to ``limit``: those that no prime up to the square root
    of ``limit`` divides (``_trial_division_primes``), struck out as the
    multiples of each such prime; no package code."""
    composite = set()
    for d in _trial_division_primes(2, math.isqrt(limit)):
        composite.update(range(d * d, limit + 1, d))
    return [n for n in range(2, limit + 1) if n not in composite]


def _primes_by_division(lo, hi):
    """The primes in [lo, hi]: the numbers there that no prime up to
    isqrt(hi) divides, other than those primes themselves.  Each divisor
    strikes its own multiples from the window, so a window at 10**12 costs
    a few of its widths rather than a division by each prime up to 10**6
    for every prime in it."""
    composite, root = set(), math.isqrt(hi)
    for d in _division_primes(1 << root.bit_length()):  # few lists, each kept
        if d > root:
            break
        composite.update(range(max(d * d, lo + -lo % d), hi + 1, d))
    return [n for n in range(max(lo, 2), hi + 1) if n not in composite]


# Heights of ``_prime_stream`` windows, each with twice the width at which it
# stops testing each number with ``is_prime`` and sieves instead.
CROSSOVER_HEIGHTS = {
    10**2: 100, 10**3: 200, 10**4: 140, 10**5: 160, 10**6: 280,
    10**7: 560, 10**9: 3400, 10**12: 60000,
}


class TestPrimeStream:
    """``_prime_stream`` against ``_trial_division_primes``, which shares no
    code with it."""

    @pytest.mark.parametrize("lo, hi", EDGE_WINDOWS)
    def test_edge_windows(self, lo, hi):
        assert [int(p) for p in _prime_stream(lo, hi)] == _trial_division_primes(lo, hi)

    def test_seeded_random_windows_up_to_a_million(self):
        rng = random.Random(26)
        for _ in range(100):
            hi = rng.randint(2, 10**6)
            lo = max(2, hi - rng.choice((0, 1, 50, 3000)))
            assert [int(p) for p in _prime_stream(lo, hi)] == _trial_division_primes(lo, hi)

    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    def test_windows_join_without_a_gap(self, monkeypatch, window):
        # many windows per range, so every prime sits near a window edge
        monkeypatch.setattr(numtheory, "_SIEVE_WINDOW", window)
        for lo, hi in ((2, 3000), (5, 1000), (961, 1500), (99000, 99500)):
            assert [int(p) for p in _prime_stream(lo, hi)] == _trial_division_primes(lo, hi)

    def test_yields_trusted_moduli_without_a_primality_test(self, monkeypatch):
        # the stream yields plain ints, and primes_in_range wraps each in a
        # PrimeModulus; neither tests a sieved prime again
        def refuse(n):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(numtheory, "is_prime", refuse)
        primes = list(_prime_stream(999000, 1000000))
        assert len(primes) == 65
        assert all(type(p) is int for p in primes)
        moduli = primes_in_range(999000, 1000000)
        assert moduli == primes
        assert all(type(p) is PrimeModulus for p in moduli)

    def test_both_paths_around_the_crossover_up_to_10_to_the_12(self, monkeypatch):
        """Random windows of every width up to twice the crossover, and edge
        windows, at each height: both the ``is_prime`` path and the sieve
        run at every height from 10**3, and both give the division list."""
        calls = []
        real = numtheory.is_prime
        monkeypatch.setattr(numtheory, "is_prime", lambda n: calls.append(n) or real(n))
        rng = random.Random(32)
        for height, widths in CROSSOVER_HEIGHTS.items():
            square = _division_primes(math.isqrt(height))[-1] ** 2
            # the widest gap between the primes of [height, height + 3000]
            above = _primes_by_division(height, height + 3000)
            _, a, b = max((b - a, a, b) for a, b in zip(above, above[1:]))
            windows = [
                (height, height), (square, square), (square - 1, square + 1),
                (square, square + 20), (max(2, square - widths), square),
                (a + 1, b - 1), (a, b),
            ]
            if height <= 10**3:
                windows += [(lo, hi) for lo in (2, 3) for hi in (lo, height // 2, height)]
            count = {10**9: 12, 10**12: 6}.get(height, 40)
            for _ in range(count):
                hi = rng.randrange(height, 2 * height)
                windows.append((max(2, hi - rng.randint(0, widths)), hi))
            paths = set()
            for lo, hi in windows:
                calls.clear()
                primes = list(_prime_stream(lo, hi))
                assert all(type(p) is int for p in primes)
                assert primes == _primes_by_division(lo, hi), (lo, hi)
                paths.add("is_prime" if calls else "sieve")
            assert height == 10**2 or paths == {"is_prime", "sieve"}

    def test_lazy_and_checked_at_the_first_prime(self):
        stream = _prime_stream(10, 9)  # nothing is sieved or checked yet
        with pytest.raises(RangeError):
            next(stream)
        with pytest.raises(ValueError, match="lo must be at least 2"):
            next(_prime_stream(1, 10))


class TestSumThreeUnitSquares:
    def test_examples(self):
        for p in (5, 7, 11, 13, 101):
            assert sum_three_unit_squares(3, PrimeModulus(p)) == (1, 1, 1)
        assert sum_three_unit_squares(2, PrimeModulus(7)) == (1, 2, 2)
        assert sum_three_unit_squares(0, PrimeModulus(5)) is None

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            sum_three_unit_squares(1, PrimeModulus(3))

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
    def test_non_integer_target_rejected(self, bad):
        with pytest.raises(TypeError):
            sum_three_unit_squares(bad, PrimeModulus(7))

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_lex_least_against_naive_scan(self, p):
        pm = PrimeModulus(p)
        for target in range(p):
            naive = None
            for t1 in range(1, p):
                for t2 in range(1, p):
                    for t3 in range(1, p):
                        if (t1 * t1 + t2 * t2 + t3 * t3) % p == target:
                            cand = (t1, t2, t3)
                            if naive is None or cand < naive:
                                naive = cand
            assert sum_three_unit_squares(target, pm) == naive

    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
    def test_returned_triples_are_valid(self, p):
        pm = PrimeModulus(p)
        for target in range(p):
            triple = sum_three_unit_squares(target, pm)
            if triple is None:
                # None must mean the full cube of unit triples is empty.
                assert not any(
                    (t1 * t1 + t2 * t2 + t3 * t3) % p == target
                    for t1 in range(1, p)
                    for t2 in range(1, p)
                    for t3 in range(1, p)
                )
            else:
                t1, t2, t3 = triple
                assert all(1 <= t < p for t in triple)
                assert (t1 * t1 + t2 * t2 + t3 * t3) % p == target

    def test_every_residue_is_a_sum_of_three_unit_squares(self):
        # The premise under which lens.find_generator_pair's sweep always
        # returns: every residue for p >= 7, every nonzero one for p = 5.
        pm5 = PrimeModulus(5)
        assert [t for t in range(5) if sum_three_unit_squares(t, pm5) is None] == [0]
        for pm in primes_in_range(7, 1000):
            missing = [t for t in range(int(pm)) if sum_three_unit_squares(t, pm) is None]
            assert missing == [], int(pm)

    def test_matches_square_root_table_up_to_1000(self):
        for pm in primes_in_range(5, 1000):
            p = int(pm)
            roots = _unit_square_roots(p)
            for target in range(p):
                assert sum_three_unit_squares(target, pm) == (
                    _sum_three_unit_squares_by_table(target, p, roots)
                ), (p, target)


class _NoIntegerSquares:
    """Stands in for ``math`` in ``numtheory``: isqrt(s) is s + 1, whose
    square is never s, so ``sum_three_unit_squares`` takes every remainder
    through Euler's test and ``_root_mod``: the root path alone."""

    @staticmethod
    def isqrt(s):
        return s + 1


class TestSquareShortcut:
    """A remainder that is a square as an integer, c**2, has the roots c and
    p - c; the shortcut returns c without a root and must give the triple
    that the root path gives."""

    @staticmethod
    def both_ways(monkeypatch, cases):
        shortcut = [sum_three_unit_squares(t, pm) for t, pm in cases]
        with monkeypatch.context() as patch:
            patch.setattr(numtheory, "math", _NoIntegerSquares)
            roots = [sum_three_unit_squares(t, pm) for t, pm in cases]
        return shortcut, roots

    def test_every_target_at_every_prime_up_to_2000(self, monkeypatch):
        cases = [(t, pm) for pm in primes_in_range(5, 2000) for t in range(pm)]
        assert len(cases) == 277_045
        shortcut, roots = self.both_ways(monkeypatch, cases)
        assert shortcut == roots

    def test_lemma5_targets_at_every_prime_up_to_20000(self, monkeypatch):
        targets = [3, 6, 2, *(1 + j * j for j in range(1, 31))]
        cases = [(t, pm) for pm in primes_in_range(5, 20_000) for t in targets]
        shortcut, roots = self.both_ways(monkeypatch, cases)
        assert shortcut == roots

    def test_stage_i_and_stage_ii_q_take_no_root(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("root taken")

        monkeypatch.setattr(numtheory, "_root_mod", refuse)
        for pm in primes_in_range(5, 5000):
            assert sum_three_unit_squares(3, pm) == (1, 1, 1)
            assert sum_three_unit_squares(6, pm) == (1, 1, 2)


class TestSqrtMod:
    # p - 1 = 2**4, 2**5 * 3, 2**6 * 3, 2**8, 2**9 * 15, 2**16: Tonelli-Shanks
    # (_root_mod at r = 2) walks its error term down through up to 16
    # squarings; 7919 = 3 mod 4 takes the one-power shortcut.
    @pytest.mark.parametrize("p", [17, 97, 193, 257, 7681, 65537, 7919])
    def test_root_squares_back_for_every_residue(self, p):
        for x in range(1, (p + 1) // 2):
            a = x * x % p
            r = _root_mod(a, p, 2)
            assert 1 <= r < p
            assert r * r % p == a


class TestCbrtMod:
    # Every p = 1 mod 3 below 2000, among them 1459 = 2 * 3**6 + 1.
    def test_root_cubes_back_for_every_cube_residue(self):
        for p in primes_in_range(7, 2000):
            p = int(p)
            if p % 3 != 1:
                continue
            for a in {x * x * x % p for x in range(1, p)}:
                r = _root_mod(a, p, 3)
                assert 1 <= r < p
                assert pow(r, 3, p) == a, (p, a)
