"""Tests for metacyclic presentation validation and enumeration."""

import math

import pytest

from lensbordism.errors import EvenOrder, NoPrimitiveCubeRoot
from lensbordism.groups import (
    MetacyclicParams,
    _admissible_r,
    _powers,
    _smallest_prime_factors,
    d_pk3_params,
    enumerate_periodic_odd,
    group_order,
    sylow_structure,
    theorem1_applies,
    validate_metacyclic,
)
from lensbordism.numtheory import _element_of_order, is_prime, primes_in_range


def _scan_periodic_odd(max_order):
    """Direct-scan oracle for ``enumerate_periodic_odd``: validate every
    r < m for every (m, n), keep the least r per cyclic subgroup <r>."""
    found = []
    for m in range(1, max_order + 1, 2):
        for n in range(1, max_order // m + 1, 2):
            if m == 1:
                found.append(MetacyclicParams(1, n, 0))
                continue
            seen = set()
            for r in range(m):
                ok, _ = validate_metacyclic(m, n, r)
                if not ok:
                    continue
                span, x = {1}, r
                while x != 1:
                    span.add(x)
                    x = x * r % m
                span = frozenset(span)
                if span in seen:
                    continue
                seen.add(span)
                found.append(MetacyclicParams(m, n, r))
    found.sort(key=lambda g: (group_order(g), g.m, g.n, g.r))
    return found


def _dedup_by_span(max_order):
    """Frozenset oracle for the duplicate removal in ``enumerate_periodic_odd``:
    over the same admissible r, keep the least r per set <r>."""
    spf = _smallest_prime_factors(max_order)
    found = []
    for m in range(1, max_order + 1, 2):
        for n in range(1, max_order // m + 1, 2):
            if m == 1:
                found.append(MetacyclicParams(1, n, 0))
                continue
            seen = set()
            for r in _admissible_r(m, n, spf):
                span, x = {1}, r
                while x != 1:
                    span.add(x)
                    x = x * r % m
                span = frozenset(span)
                if span not in seen:
                    seen.add(span)
                    found.append(MetacyclicParams(m, n, r))
    found.sort(key=lambda g: (group_order(g), g.m, g.n, g.r))
    return found


def _d_pk3_by_scan(p, k):
    """Scan oracle for ``d_pk3_params`` at p = 1 mod 3: the first unit a with
    y = a**(phi(p**k)/3) != 1 gives the roots y and y**2."""
    m = p**k
    exponent = p ** (k - 1) * (p - 1) // 3
    for a in range(2, m):
        if a % p == 0:
            continue
        y = pow(a, exponent, m)
        if y != 1:
            return MetacyclicParams(m, 3, min(y, y * y % m))
    raise AssertionError(f"no cube root of 1 found mod {m}")


class TestValidateMetacyclic:
    def test_examples(self):
        assert validate_metacyclic(7, 3, 2) == (True, None)
        assert validate_metacyclic(1, 15, 0) == (True, None)
        ok, reason = validate_metacyclic(9, 3, 4)
        assert not ok
        assert "gcd" in reason

    def test_trivial_action_invalid_for_m_above_one(self):
        for m in range(3, 50, 2):
            ok, _ = validate_metacyclic(m, 3, 1)
            assert not ok
        assert validate_metacyclic(1, 3, 0) == (True, None)

    def test_m_one_requires_r_zero(self):
        ok, reason = validate_metacyclic(1, 5, 1)
        assert not ok and "r must be 0" in reason

    def test_r_out_of_range(self):
        ok, reason = validate_metacyclic(7, 3, 9)
        assert not ok and "out of range" in reason

    def test_bad_m_n(self):
        with pytest.raises(ValueError):
            validate_metacyclic(0, 3, 0)
        with pytest.raises(ValueError):
            validate_metacyclic(7, 0, 2)


class TestMetacyclicParams:
    def test_invalid_cannot_be_constructed(self):
        with pytest.raises(ValueError):
            MetacyclicParams(9, 3, 4)
        with pytest.raises(ValueError):
            MetacyclicParams(7, 3, 1)

    def test_group_order(self):
        assert group_order(MetacyclicParams(7, 3, 2)) == 21
        assert group_order(MetacyclicParams(1, 15, 0)) == 15
        assert group_order(MetacyclicParams(13, 3, 3)) == 39


class TestTheorem1Applies:
    def test_examples(self):
        assert theorem1_applies(MetacyclicParams(7, 3, 2)) is True
        assert theorem1_applies(MetacyclicParams(1, 27, 0)) is False
        assert theorem1_applies(MetacyclicParams(1, 15, 0)) is True

    def test_even_order_excluded(self):
        assert theorem1_applies(MetacyclicParams(1, 2, 0)) is False


class TestSylowStructure:
    def test_examples(self):
        assert sylow_structure(MetacyclicParams(7, 3, 2)).entries == (
            (3, 3, "cyclic"),
            (7, 7, "cyclic"),
        )
        assert sylow_structure(MetacyclicParams(1, 15, 0)).entries == (
            (3, 3, "cyclic"),
            (5, 5, "cyclic"),
        )

    def test_prime_power_factor(self):
        params = d_pk3_params(7, 2)
        assert params == MetacyclicParams(49, 3, 18)
        assert sylow_structure(params).entries == (
            (3, 3, "cyclic"),
            (7, 49, "cyclic"),
        )

    def test_total_order_invariant(self):
        for g in enumerate_periodic_odd(100):
            assert sylow_structure(g).total_order == group_order(g)

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            sylow_structure(MetacyclicParams(1, 6, 0))


class TestDpk3Params:
    def test_examples(self):
        assert d_pk3_params(7, 1) == MetacyclicParams(7, 3, 2)
        assert d_pk3_params(13, 1) == MetacyclicParams(13, 3, 3)
        with pytest.raises(NoPrimitiveCubeRoot):
            d_pk3_params(5, 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            d_pk3_params(3, 1)
        with pytest.raises(ValueError):
            d_pk3_params(9, 1)
        with pytest.raises(ValueError):
            d_pk3_params(7, 0)

    def test_valid_for_all_suitable_primes_below_500(self):
        for pm in primes_in_range(5, 500):
            p = int(pm)
            if p % 3 != 1:
                with pytest.raises(NoPrimitiveCubeRoot):
                    d_pk3_params(p, 1)
                continue
            for k in (1, 2, 3):
                params = d_pk3_params(p, k)
                m = p**k
                assert params.m == m and params.n == 3
                assert pow(params.r, 3, m) == 1
                assert params.r != 1
                assert math.gcd((params.r - 1) * 3, m) == 1
                assert theorem1_applies(params) is True

    def test_matches_scan(self):
        for pm in primes_in_range(7, 20_000):
            p = int(pm)
            if p % 3 == 1:
                for k in (1, 2, 3):
                    assert d_pk3_params(p, k) == _d_pk3_by_scan(p, k), (p, k)

    def test_matches_scan_at_twelve_digits(self):
        primes = [
            p for p in range(10**12 + 1, 10**12 + 1000, 2) if p % 3 == 1 and is_prime(p)
        ][:3]
        assert len(primes) == 3
        for p in primes:
            assert d_pk3_params(p, 1) == _d_pk3_by_scan(p, 1), p

    def test_r_is_least_nontrivial_root(self):
        for p in (7, 13, 19, 31):
            params = d_pk3_params(p, 1)
            roots = [r for r in range(2, p) if pow(r, 3, p) == 1]
            assert params.r == min(roots)


class TestEnumeratePeriodicOdd:
    def test_trivial_bound(self):
        assert enumerate_periodic_odd(1) == [MetacyclicParams(1, 1, 0)]

    def test_only_cyclic_below_21(self):
        got = enumerate_periodic_odd(20)
        assert [(g.m, g.n, g.r) for g in got] == [
            (1, n, 0) for n in range(1, 20, 2)
        ]

    def test_first_nonabelian_at_21(self):
        got = [(g.m, g.n, g.r) for g in enumerate_periodic_odd(21)]
        assert (7, 3, 2) in got
        assert (7, 3, 4) not in got  # merged: <4> = <2> mod 7
        assert len(got) == 12

    def test_all_outputs_valid_odd_and_bounded(self):
        for g in enumerate_periodic_odd(150):
            assert validate_metacyclic(g.m, g.n, g.r) == (True, None)
            order = group_order(g)
            assert order % 2 == 1
            assert order <= 150

    def test_sorted_by_order_then_params(self):
        got = enumerate_periodic_odd(100)
        keys = [(group_order(g), g.m, g.n, g.r) for g in got]
        assert keys == sorted(keys)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_periodic_odd(0)

    def test_matches_direct_scan(self):
        assert enumerate_periodic_odd(1501) == _scan_periodic_odd(1501)

    def test_matches_dedup_by_span(self):
        # reaches subgroups far larger than the direct scan's bound of 1501
        assert enumerate_periodic_odd(20_000) == _dedup_by_span(20_000)

    def test_every_bound_is_a_prefix(self):
        full = _scan_periodic_odd(200)
        for bound in range(1, 201):
            assert enumerate_periodic_odd(bound) == [g for g in full if group_order(g) <= bound]


def test_admissible_r_is_the_crt_of_local_roots():
    # odd m <= 250 covers the prime powers 9, 27, 81, 243, 25, 125, 49, 121, 169
    spf = _smallest_prime_factors(250)
    for m in range(1, 251, 2):
        primes = [p for p in range(3, m + 1, 2) if m % p == 0 and is_prime(p)]
        for n in range(1, 46, 2):
            got = _admissible_r(m, n, spf)
            want = [
                r for r in range(m)
                if math.gcd((r - 1) * n, m) == 1 and pow(r, n, m) == 1 % m
            ]
            assert got == want, (m, n)
            if math.gcd(n, m) == 1:
                assert len(got) == math.prod(math.gcd(n, p - 1) - 1 for p in primes), (m, n)
            else:
                assert got == [], (m, n)


def test_roots_of_unity_are_the_nontrivial_dth_roots():
    # m is odd in the enumeration, so q runs over odd prime powers
    for p in primes_in_range(3, 2000):
        p = int(p)
        q = p
        while q <= 2000:
            for d in range(1, p):
                if (p - 1) % d:
                    continue
                primes_of_d = [f for f in range(2, d + 1) if d % f == 0 and is_prime(f)]
                roots = _powers(_element_of_order(p, q, d, primes_of_d), q)
                assert len(roots) == len(set(roots)) == d - 1, (q, d)
                assert all(pow(x, d, q) == 1 and x % q != 1 for x in roots), (q, d)
            q *= p
    # d = 9 does not divide 7 - 1: every candidate gives 1, and the search raises
    with pytest.raises(ValueError):
        _element_of_order(7, 7, 9, [3])
