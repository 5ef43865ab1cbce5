"""Tests for metacyclic presentation validation and enumeration."""

import math
from collections import Counter
from itertools import combinations

import pytest

from lensbordism import groups
from lensbordism.errors import EvenOrder, NoSuchGroup
from lensbordism.groups import (
    MetacyclicParams,
    _admissible_r,
    _powers,
    _presentations,
    _prime_powers,
    _smallest_prime_factors,
    d_pk3_params,
    enumerate_periodic_odd,
    group_order,
    sylow_structure,
    theorem1_applies,
    validate_metacyclic,
)
from lensbordism.numtheory import _element_of_order, _factorize, is_prime, primes_in_range


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
            for r in _admissible_r(_prime_powers(m, spf), n, _prime_powers(n, spf)):
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


def _multiply(m, n, r):
    """The product of the group presented by (m, n, r), its elements written
    as pairs (a, b) for x**a y**b: y**b x**c = x**(c r**b) y**b, so
    (a, b)(c, d) = (a + c r**b, b + d)."""
    rpow = [pow(r, b, m) for b in range(n)]
    return lambda g, h: ((g[0] + h[0] * rpow[g[1]]) % m, (g[1] + h[1]) % n)


def _element_orders(m, n, r):
    """{element: order} for the group presented by (m, n, r), by walking the
    powers of each element not yet met: g**i has order k / gcd(i, k) when g
    has order k."""
    mul, one = _multiply(m, n, r), (0, 0)
    orders = {one: 1}
    for g in ((a, b) for a in range(m) for b in range(n)):
        if g in orders:
            continue
        powers, h = [g], g
        while h != one:
            h = mul(h, g)
            powers.append(h)
        k = len(powers)
        for i, h in enumerate(powers, 1):
            orders[h] = k // math.gcd(i, k)
    return orders


def _isomorphic(first, second):
    """Whether the groups presented by two triples of the same order are
    isomorphic, by brute force: some X, Y in the second group satisfy the
    first one's relations X**m = Y**n = 1, Y X = X**r Y and generate it.

    X and Y are taken of exact orders m and n, as an isomorphism keeps the
    orders of x and y, and X one per cyclic subgroup, since x -> x**s, y -> y
    is an automorphism of the first group for every unit s mod m."""
    m, n, r = first
    mul = _multiply(*second)
    orders = _element_orders(*second)
    one, size = (0, 0), second[0] * second[1]
    ys = [g for g, k in orders.items() if k == n]
    seen = set()
    for x in (g for g, k in orders.items() if k == m):
        if x in seen:
            continue
        xr, h = one, one  # x**r, and the powers of x into seen
        for i in range(1, m + 1):
            h = mul(h, x)
            seen.add(h)
            if i == r:
                xr = h
        for y in ys:
            if mul(y, x) != mul(xr, y):
                continue
            span, todo = {one}, [one]
            while todo:
                g = todo.pop()
                for t in (mul(g, x), mul(g, y)):
                    if t not in span:
                        span.add(t)
                        todo.append(t)
            if len(span) == size:
                return True
    return False


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
        with pytest.raises(NoSuchGroup):
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
                with pytest.raises(NoSuchGroup):
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


def test_smallest_prime_factors_match_trial_division():
    for limit in (0, 1, 2, 3, 4, 20000):
        spf = _smallest_prime_factors(limit)
        assert len(spf) == limit + 1
        assert all(spf[k] == min(_factorize(k)) for k in range(2, limit + 1)), limit


def test_admissible_r_is_the_crt_of_local_roots():
    # odd m <= 250 covers the prime powers 9, 27, 81, 243, 25, 125, 49, 121, 169
    spf = _smallest_prime_factors(250)
    for m in range(1, 251, 2):
        primes = [p for p in range(3, m + 1, 2) if m % p == 0 and is_prime(p)]
        for n in range(1, 46, 2):
            got = _admissible_r(_prime_powers(m, spf), n, _prime_powers(n, spf))
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


class TestOnePresentationPerIsomorphismClass:
    """The brute-force oracle for the claim in the ``groups`` docstring."""

    def test_search_finds_the_merged_pairs(self):
        # the walk lists (7, 3, 2) only: <4> = <2> mod 7
        assert _isomorphic((7, 3, 2), (7, 3, 4))
        assert _isomorphic((7, 3, 4), (7, 3, 2))
        assert _isomorphic((13, 9, 3), (13, 9, 9))
        assert not _isomorphic((7, 3, 2), (1, 21, 0))
        assert not _isomorphic((1, 21, 0), (7, 3, 2))

    def test_listed_presentations_are_pairwise_non_isomorphic_up_to_1000(self):
        # 216 pairs of equal order; 7 of them have equal element-order
        # multisets, and the search finds none of those isomorphic
        by_order: dict[int, list] = {}
        for g in enumerate_periodic_odd(1000):
            by_order.setdefault(group_order(g), []).append((g.m, g.n, g.r))
        pairs = [pair for listed in by_order.values() for pair in combinations(listed, 2)]
        spectra = {
            g: Counter(_element_orders(*g).values()) for pair in pairs for g in pair
        }
        alike = [(g, h) for g, h in pairs if spectra[g] == spectra[h]]
        assert (len(pairs), len(alike)) == (216, 7)
        for g, h in alike:
            assert not _isomorphic(g, h), (g, h)


class TestEachTripleCheckedOnce:
    def test_only_the_public_list_checks_the_walk(self, monkeypatch):
        calls = []
        real = groups.validate_metacyclic

        def counting(m, n, r):
            calls.append((m, n, r))
            return real(m, n, r)

        monkeypatch.setattr(groups, "validate_metacyclic", counting)
        walked = [(m, n, r) for m, n, r, _ in _presentations(3000)]
        assert calls == []
        listed = enumerate_periodic_odd(3000)
        assert calls == walked == [(g.m, g.n, g.r) for g in listed]
        assert len(listed) == 2064

    def test_one_factorisation_per_order_and_per_root_search(self, monkeypatch):
        counts = Counter()

        def counted(name):
            real = getattr(groups, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(groups, name, wrapper)

        counted("_prime_powers")
        counted("_element_of_order")
        enumerate_periodic_odd(3000)
        # the root searches take the primes of d from the order's factorisation
        assert counts["_element_of_order"] > 0
        assert counts["_prime_powers"] == 1500

    def test_walk_skips_the_prime_powers_no_listed_m_holds(self, monkeypatch):
        # p**e divides no listed m of an order when gcd(order / p**e, p-1)
        # is 1; with those left out, 6 of the (m, n) tried still give no r
        calls, empty = [], []
        real = groups._admissible_r

        def counting(prime_powers, n, order_powers):
            roots = real(prime_powers, n, order_powers)
            calls.append((prime_powers, n))
            if not roots:
                empty.append((prime_powers, n))
            return roots

        monkeypatch.setattr(groups, "_admissible_r", counting)
        assert sum(1 for _ in _presentations(3000)) == 2064
        assert (len(calls), len(empty)) == (473, 6)
