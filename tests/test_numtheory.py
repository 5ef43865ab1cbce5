"""Tests for the modular arithmetic layer."""

import pickle
from bisect import bisect_left

import pytest

from lensbordism import numtheory
from lensbordism.errors import RangeError, ZeroInput
from lensbordism.numtheory import (
    PrimeModulus,
    _factorize,
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


def test_is_prime_rejects_strong_pseudoprimes(monkeypatch):
    # Strong pseudoprimes to every prime base up to 7, 31 and 37 respectively.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert is_prime(n) is False, n
    # Only base 41 catches the last one.
    monkeypatch.setattr(numtheory, "_MR_BASES", numtheory._MR_BASES[:-1])
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
