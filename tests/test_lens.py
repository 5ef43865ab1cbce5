"""Tests for lens-space invariant pairs and the generator-pair search."""

import itertools
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensbordism import cli, lens as lens_module, numtheory
from lensbordism.errors import DegeneratePair, ModulusMismatch, NotAUnit, SearchExhausted
from lensbordism.lens import (
    GeneratorPairResult,
    LensSpace,
    PontrjaginPair,
    TraceStep,
    _canonical,
    _candidates,
    _dependence_free,
    _generator_pair,
    canonical_form,
    find_generator_pair,
    independent,
    independent_bruteforce,
    is_null_bordant,
    pontrjagin_pair,
    q_sum,
    reparametrize,
)
from lensbordism.numtheory import (
    PrimeModulus,
    _prime_stream,
    is_quadratic_residue,
    primes_in_range,
    sum_three_unit_squares,
)


def lens(p, *weights):
    return LensSpace(PrimeModulus(p), tuple(weights))


def pair(b0, b1, p):
    return PontrjaginPair(b0, b1, p)


class TestLensSpace:
    def test_weights_reduced_and_checked(self):
        L = lens(5, 6, 1, 2)
        assert L.weights == (1, 1, 2)
        assert all(type(w) is int for w in L.weights)

    def test_zero_weight_rejected(self):
        with pytest.raises(NotAUnit):
            lens(5, 1, 1, 5)

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            lens(2, 1, 1, 1)

    def test_zero_weight_message(self):
        with pytest.raises(NotAUnit, match=r"^weight 0 is 0 mod 5; the action would not be free$"):
            lens(5, 1, 10, 2)

    def test_two_weights_rejected(self):
        with pytest.raises(ValueError):
            lens(5, 1, 1)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "1"])
    def test_non_integer_weight_rejected(self, bad):
        with pytest.raises(TypeError):
            lens(5, 1, bad, 2)


class TestQSum:
    def test_examples(self):
        assert q_sum(lens(5, 1, 1, 1)) == 3
        assert q_sum(lens(5, 1, 1, 2)) == 1
        assert q_sum(lens(7, 1, 2, 2)) == 2
        q = q_sum(lens(5, 2, 2, 2))
        assert type(q) is int and int(q) == 2


class TestPontrjaginPair:
    def test_examples(self):
        assert pontrjagin_pair(lens(5, 1, 1, 1)).values() == (1, 3)
        assert pontrjagin_pair(lens(5, 1, 1, 2)).values() == (1, 1)
        assert pontrjagin_pair(lens(7, 1, 1, 1)).values() == (1, 3)

    def test_invariant_under_weight_permutation(self):
        for weights in [(1, 2, 3), (2, 3, 4), (1, 1, 4)]:
            values = {
                pontrjagin_pair(lens(7, *perm)).values()
                for perm in itertools.permutations(weights)
            }
            assert len(values) == 1

    def test_components_reduced_to_plain_ints(self):
        # the modulus keeps its type: an int stays an int, and a prime that
        # was checked stays a PrimeModulus, so it is not tested again
        x = pair(6, -2, 5)
        made = [
            (x, int),
            (pontrjagin_pair(lens(5, 1, 1, 1)), PrimeModulus),
            (reparametrize(x, 1), int),
            (canonical_form(x), PrimeModulus),
        ]
        for y, modulus_type in made:
            assert (y.beta0, y.beta1, y.modulus) == (1, 3, 5)
            assert (type(y.beta0), type(y.beta1)) == (int, int)
            assert type(y.modulus) is modulus_type

    @pytest.mark.parametrize("m", [0, -5])
    def test_non_positive_modulus_rejected(self, m):
        with pytest.raises(ValueError):
            pair(1, 3, m)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "1"])
    def test_non_integer_component_rejected(self, bad):
        with pytest.raises(TypeError):
            pair(bad, 3, 7)
        with pytest.raises(TypeError):
            pair(1, bad, 7)
        with pytest.raises(TypeError):
            pair(1, 3, bad)


class TestReparametrize:
    def test_examples(self):
        base = pair(1, 3, 5)
        assert reparametrize(base, 1).values() == (1, 3)
        assert reparametrize(base, 2).values() == (3, 1)
        assert reparametrize(base, 4).values() == (4, 2)

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            reparametrize(pair(1, 3, 5), 0)
        with pytest.raises(NotAUnit):
            reparametrize(pair(1, 3, 5), 5)

    @given(
        st.sampled_from([5, 7, 11, 13]),
        st.integers(0, 200),
        st.integers(0, 200),
        st.integers(1, 200),
        st.integers(1, 200),
    )
    @settings(max_examples=80)
    def test_group_action_law(self, p, b0, b1, k1, k2):
        if k1 % p == 0:
            k1 += 1
        if k2 % p == 0:
            k2 += 1
        x = pair(b0, b1, p)
        assert reparametrize(reparametrize(x, k1), k2) == reparametrize(x, k1 * k2)


class TestCanonicalForm:
    def test_examples(self):
        assert canonical_form(pair(1, 3, 5)).values() == (1, 3)
        assert canonical_form(pair(3, 1, 5)).values() == (1, 3)
        assert canonical_form(pair(0, 0, 7)).values() == (0, 0)

    def test_orbit_of_1_3_mod_5(self):
        orbit = {reparametrize(pair(1, 3, 5), k).values() for k in range(1, 5)}
        assert orbit == {(1, 3), (3, 1), (2, 4), (4, 2)}

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_idempotent_and_orbit_constant(self, p):
        for b0 in range(p):
            for b1 in range(p):
                x = pair(b0, b1, p)
                canon = canonical_form(x)
                assert canonical_form(canon) == canon
                for k in range(1, p):
                    assert canonical_form(reparametrize(x, k)) == canon


def _canonical_form_by_scan(x):
    """Oracle: the least (k**3 * b0, k * b1) over every unit k, by trying
    each k in turn (O(p) per pair)."""
    p = x.modulus
    b0, b1 = x.values()
    best = (b0, b1)
    for k in range(2, p):
        if math.gcd(k, p) != 1:
            continue
        cand = (pow(k, 3, p) * b0 % p, k * b1 % p)
        if cand < best:
            best = cand
    return pair(best[0], best[1], p)


def _assert_every_pair_matches_scan(p, form):
    """``form(b0, b1)`` is the scan's least orbit element for every pair mod
    p.  The scan runs once per orbit; every member of that orbit must map to
    its result, which covers all p**2 pairs in O(p**2) scan steps."""
    seen = set()
    for b0 in range(p):
        for b1 in range(p):
            if (b0, b1) in seen:
                continue
            expected = _canonical_form_by_scan(pair(b0, b1, p)).values()
            for k in range(1, p):
                member = (pow(k, 3, p) * b0 % p, k * b1 % p)
                if member not in seen:
                    seen.add(member)
                    assert form(*member) == expected, (p, member)


class TestCanonicalFormMatchesScan:
    @pytest.mark.parametrize("p", [int(q) for q in primes_in_range(2, 200)])
    def test_every_pair(self, p):
        _assert_every_pair_matches_scan(p, lambda b0, b1: canonical_form(pair(b0, b1, p)).values())

    @pytest.mark.parametrize("p", [int(q) for q in primes_in_range(2, 200)])
    def test_int_form_at_every_pair(self, p):
        """``_canonical``, the int-level form that ``canonical_form`` wraps
        and the CLI calls, given p as the ``PrimeModulus`` it gets there:
        two plain ints."""

        def form(b0, b1):
            got = _canonical(b0, b1, PrimeModulus(p))
            assert [type(x) for x in got] == [int, int]
            return got

        _assert_every_pair_matches_scan(p, form)

    def test_int_form_on_random_pairs(self):
        rng = random.Random(33)
        primes = [163, 487, 1459, 2917] + rng.sample(
            [int(q) for q in primes_in_range(200, 20000)], 24
        )
        for p in primes:
            for _ in range(8):
                b0, b1 = rng.randrange(p), rng.randrange(p)
                expected = _canonical_form_by_scan(pair(b0, b1, p)).values()
                assert _canonical(b0, b1, p) == expected, (p, b0, b1)

    def test_random_pairs_at_sampled_primes(self):
        # 3**4 .. 3**6 divide p - 1 for the four named primes, so the cube
        # root takes several correction rounds there.
        rng = random.Random(5)
        primes = [163, 487, 1459, 2917] + rng.sample(
            [int(q) for q in primes_in_range(200, 20000)], 24
        )
        for p in primes:
            for _ in range(8):
                x = pair(rng.randrange(p), rng.randrange(p), p)
                assert canonical_form(x) == _canonical_form_by_scan(x), (p, x)

    def test_idempotent_and_orbit_constant_at_large_prime(self):
        p = 10**18 + 3
        rng = random.Random(7)
        for _ in range(50):
            x = pair(rng.randrange(1, p), rng.randrange(p), p)
            canon = canonical_form(x)
            assert canonical_form(canon) == canon
            for _ in range(5):
                assert canonical_form(reparametrize(x, rng.randrange(1, p))) == canon

    @pytest.mark.parametrize("m", [9, 15])
    def test_composite_modulus_rejected(self, m):
        with pytest.raises(ValueError):
            canonical_form(pair(1, 2, m))


class TestIsNullBordant:
    def test_examples(self):
        assert is_null_bordant(pair(0, 0, 5)) is True
        assert is_null_bordant(pair(1, 3, 5)) is False
        assert is_null_bordant(pair(0, 2, 5)) is False

    def test_lens_pairs_never_null(self):
        for p in (5, 7):
            for weights in itertools.product(range(1, p), repeat=3):
                L = lens(p, *weights)
                assert not is_null_bordant(pontrjagin_pair(L))


class TestIndependent:
    def test_examples(self):
        assert independent(pair(1, 3, 5), pair(1, 6, 5)) is True
        assert independent(pair(1, 3, 5), pair(1, 3, 5)) is False
        assert independent(pair(1, 3, 7), pair(1, 2, 7)) is True

    def test_zero_slope_cases(self):
        # exactly one vanishing slope: independent; both: dependent
        assert independent(pair(1, 0, 7), pair(1, 2, 7)) is True
        assert independent(pair(1, 2, 7), pair(1, 0, 7)) is True
        assert independent(pair(1, 0, 7), pair(1, 0, 7)) is False

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePair):
            independent(pair(0, 1, 5), pair(1, 1, 5))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            independent(pair(1, 1, 5), pair(1, 1, 7))

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            independent(pair(1, 1, 3), pair(1, 2, 3))

    def test_symmetric_for_all_small_primes(self):
        for pm in primes_in_range(5, 31):
            p = int(pm)
            for q in range(p):
                for r in range(p):
                    a, b = pair(1, q, p), pair(1, r, p)
                    assert independent(a, b) == independent(b, a)

    def test_self_dependence(self):
        for p in (5, 7, 11, 13):
            for weights in [(1, 1, 1), (1, 1, 2), (1, 2, 3)]:
                A = pontrjagin_pair(lens(p, *weights))
                assert independent(A, A) is False


def _replace_in_package(monkeypatch, name, real, replacement):
    """Bind ``name`` to ``replacement`` in every module of the package that
    binds it to ``real``."""
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "lensbordism":
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, replacement)


def _independent_by_four_variable_scan(p, q, r):
    """Raw four-variable oracle: scan all unit (a, b, k, l)."""
    cubes = [k * k * k % p for k in range(p)]
    for a in range(1, p):
        for b in range(1, p):
            for k in range(1, p):
                for l in range(1, p):
                    if (a * cubes[k] + b * cubes[l]) % p == 0 and (
                        a * k * q + b * l * r
                    ) % p == 0:
                        return False
    return True


def _independent_by_scan(p, q, r):
    """The O(p**2) scan: a = 1, b forced to -k**3 * l**-3, every unit (k, l)."""
    inv_cubes = [0] + [pow(l, -3, p) for l in range(1, p)]
    for k in range(1, p):
        k3 = k * k * k % p
        kq = k * q % p
        for l in range(1, p):
            coeff = -k3 * inv_cubes[l] % p
            if (kq + coeff * l * r) % p == 0:
                return False
    return True


class TestIndependentBruteforce:
    def test_examples(self):
        assert independent_bruteforce(pair(1, 3, 5), pair(1, 6, 5)) is True
        assert independent_bruteforce(pair(1, 3, 5), pair(1, 3, 5)) is False

    def test_matches_scan_up_to_37(self):
        for pm in primes_in_range(5, 37):
            p = int(pm)
            for q in range(p):
                for r in range(p):
                    got = independent_bruteforce(pair(1, q, p), pair(1, r, p))
                    assert got == _independent_by_scan(p, q, r), (p, q, r)

    def test_matches_independent_up_to_100(self):
        # 65,783 (q, r) pairs; the bound is kept at 100 because the count
        # grows as its cube (216,273 pairs up to 150)
        for pm in primes_in_range(5, 100):
            p = int(pm)
            pairs = [pair(1, v, p) for v in range(p)]
            for a in pairs:
                for b in pairs:
                    assert independent_bruteforce(a, b) == independent(a, b), (p, a, b)

    @pytest.mark.parametrize("p", [999961, 999979, 999983])
    def test_matches_independent_below_cap(self, p):
        # the three largest primes below cli.BRUTE_MAX_P; Q/R = 4 is a
        # square, and Q/R = the least non-residue is not
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        a = pair(1, 4, p)
        r_nonresidue = 4 * pow(nonresidue, -1, p)
        for b, expected in ((pair(1, 1, p), False), (pair(1, r_nonresidue, p), True)):
            assert independent(a, b) is expected
            assert independent_bruteforce(a, b) is expected

    def test_truth_table_matches_independent_mod_7(self):
        for q in range(7):
            for r in range(7):
                a, b = pair(1, q, 7), pair(1, r, 7)
                assert independent_bruteforce(a, b) == independent(a, b)

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_four_variable_scan(self, p):
        for q in range(p):
            for r in range(p):
                got = independent_bruteforce(pair(1, q, p), pair(1, r, p))
                assert got == _independent_by_four_variable_scan(p, q, r)

    def test_matches_independent_on_a_sample_below_5000(self):
        # at every prime, every (q, r) drawn from 0 and three seeded units:
        # 16 pairs a prime, (0, 0), (0, r) and (q, 0) among them
        rng = random.Random(38)
        for p in _prime_stream(5, 5000):
            values = [0, *rng.sample(range(1, p), 3)]
            pairs = [pair(1, v, p) for v in values]
            for a in pairs:
                for b in pairs:
                    assert independent_bruteforce(a, b) == independent(a, b), (p, a, b)

    def test_runs_in_constant_memory_at_the_cap(self):
        # an independent pair scans every u up to (p - 1) / 2 at the largest
        # prime that ``independent --brute`` accepts; a table of p bytes
        # would peak near 1 MB
        p = 999983
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        a, b = pair(1, nonresidue, p), pair(1, 1, p)
        tracemalloc.start()
        try:
            assert independent_bruteforce(a, b) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_needs_no_residue_machinery(self, monkeypatch):
        # every module of the package that binds one of these names gets a
        # function that raises, so the oracle cannot lean on the fast path
        reals = {
            "_dependence_free": lens_module._dependence_free,
            "is_quadratic_residue": numtheory.is_quadratic_residue,
            "_root_mod": numtheory._root_mod,
            "_element_of_order": numtheory._element_of_order,
        }

        def refuse(*args):
            raise AssertionError("the oracle used the residue machinery")

        for name, real in reals.items():
            _replace_in_package(monkeypatch, name, real, refuse)
        with pytest.raises(AssertionError):
            independent(pair(1, 1, 7), pair(1, 2, 7))
        for p in (7, 11, 13):
            for q in range(p):
                for r in range(p):
                    got = independent_bruteforce(pair(1, q, p), pair(1, r, p))
                    assert got == _independent_by_scan(p, q, r), (p, q, r)


class TestFindGeneratorPair:
    def test_p5_first_stage(self):
        res = find_generator_pair(PrimeModulus(5))
        assert res.first.weights == (1, 1, 1)
        assert res.second.weights == (1, 1, 2)
        assert (res.q, res.r, res.stage) == (3, 6, "i")
        assert res.certificate == 3  # (p+1)/2, a non-residue mod 5

    def test_p7_second_stage(self):
        res = find_generator_pair(PrimeModulus(7))
        assert res.first.weights == (1, 1, 1)
        assert res.second.weights == (1, 2, 2)
        assert (res.q, res.r, res.stage) == (3, 2, "ii")
        assert res.certificate == 5  # (p+3)/2, a non-residue mod 7

    def test_p13_first_stage(self):
        res = find_generator_pair(PrimeModulus(13))
        assert res.first.weights == (1, 1, 1)
        assert res.second.weights == (1, 1, 2)
        assert res.stage == "i"

    def test_stage_one_exactly_when_half_plus_one_is_nonresidue(self):
        for pm in primes_in_range(5, 200):
            p = int(pm)
            res = find_generator_pair(pm)
            expect_stage_one = not is_quadratic_residue((p + 1) // 2, pm)
            assert (res.stage == "i") == expect_stage_one

    def test_stage_follows_reciprocity_predictor_up_to_20000(self):
        # Stage i tests 3/6 = 1/2, so it wins exactly when (2/p) = -1, i.e.
        # p = 3, 5 mod 8.  Stage ii tests 3/2; given (2/p) = 1 it wins exactly
        # when (3/p) = -1, i.e. p = 5, 7 mod 12.  Stage iii takes the rest,
        # and stage iv is never reached.
        for pm in primes_in_range(5, 20000):
            p = int(pm)
            if p % 8 in (3, 5):
                expected = "i"
            elif p % 12 in (5, 7):
                expected = "ii"
            else:
                expected = "iii"
            res = find_generator_pair(pm)
            assert res.stage == expected, p
            # every step fails but the last, which is independent and realized
            *failed, last = res.proof_trace
            assert all(not (s.independent_ok or s.realized) for s in failed), p
            assert last.independent_ok and last.realized, p

    @pytest.mark.parametrize(
        "p, trace",
        [
            (73, [
                ("i", 3, 6, 37, False, False),
                ("ii", 3, 2, 38, False, False),
                ("iii", 2, 2, 1, False, False),
                ("iii", 5, 2, 39, True, True),
            ]),
            (241, [
                ("i", 3, 6, 121, False, False),
                ("ii", 3, 2, 122, False, False),
                ("iii", 2, 2, 1, False, False),
                ("iii", 5, 2, 123, False, False),
                ("iii", 10, 2, 5, False, False),
                ("iii", 17, 2, 129, True, True),
            ]),
        ],
    )
    def test_stage_iii_trace(self, p, trace):
        # the stage order, the labels, the certificates and the realized
        # flag of every candidate tried, as the search has always made them
        res = find_generator_pair(PrimeModulus(p))
        assert [tuple(step) for step in res.proof_trace] == trace
        assert (res.stage, res.q, res.r, res.certificate) == trace[-1][:4]

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            find_generator_pair(PrimeModulus(3))

    def test_int_p_is_tested_for_primality(self):
        with pytest.raises(ValueError, match="is not prime"):
            find_generator_pair(9)
        assert find_generator_pair(7).p == PrimeModulus(7)

    def test_results_reverify_up_to_500(self):
        for pm in primes_in_range(5, 500):
            p = int(pm)
            res = find_generator_pair(pm)
            assert isinstance(res, GeneratorPairResult)
            a = pontrjagin_pair(res.first)
            b = pontrjagin_pair(res.second)
            assert independent(a, b) is True
            # nominal stage values reduce to the realized weight-square sums
            assert int(q_sum(res.first)) == res.q % p
            assert int(q_sum(res.second)) == res.r % p
            last = res.proof_trace[-1]
            assert last.independent_ok and last.realized
            assert (last.q, last.r, last.stage) == (res.q, res.r, res.stage)

    def test_trace_records_failed_attempts(self):
        res = find_generator_pair(PrimeModulus(7))
        assert len(res.proof_trace) == 2  # stage i failed, stage ii won
        first = res.proof_trace[0]
        assert (first.stage, first.independent_ok) == ("i", False)


def _generator_pair_with_trace(p):
    """The search as it was before its trace moved to the public edge: a
    ``TraceStep`` per candidate, built in the loop, with ``realized`` taken
    from the two triples, and the first realized candidate wins.  Returns
    (stage, q, r, certificate, weights_a, weights_b, proof_trace)."""
    trace = []
    for stage, q, r in _candidates(p):
        ok, tested = _dependence_free(p, q, r)
        wa = wb = None
        if ok:
            wa = sum_three_unit_squares(q % p, p)
            wb = sum_three_unit_squares(r % p, p)
        realized = wa is not None and wb is not None
        trace.append(TraceStep(stage, q, r, tested, ok, realized))
        if realized:
            return stage, q, r, tested, wa, wb, tuple(trace)
    raise SearchExhausted(p, trace)


def test_search_matches_the_loop_that_built_its_trace_up_to_2_10_to_the_5():
    """``find_generator_pair`` gives the old loop's result field by field,
    ``proof_trace`` included, at every prime of [5, 2 * 10**5], and the
    lean search's count of candidates tried is the length of that trace."""
    for pm in primes_in_range(5, 2 * 10**5):
        stage, q, r, certificate, wa, wb, trace = _generator_pair_with_trace(pm)
        res = find_generator_pair(pm)
        assert (res.p, res.first.weights, res.second.weights) == (pm, wa, wb)
        assert (res.q, res.r, res.stage, res.certificate) == (q, r, stage, certificate)
        assert res.proof_trace == trace, pm
        assert _generator_pair(int(pm)) == (stage, q, r, certificate, wa, wb, len(trace))


def test_search_and_worker_build_no_record_and_test_no_prime(monkeypatch):
    """The per-prime ``lemma5`` path, oracle off, runs on the ints that the
    stream yields: it builds no ``TraceStep`` and calls neither ``is_prime``
    nor ``_prime_modulus``, in any module of the package (``PrimeModulus``
    calls ``is_prime`` through ``numtheory``)."""
    primes = list(_prime_stream(5, 10**4))
    expected = [_generator_pair(p) for p in primes]

    def refuse(*args):
        raise AssertionError("called on the per-prime path")

    monkeypatch.setattr(lens_module, "TraceStep", refuse)
    for name in ("is_prime", "_prime_modulus"):
        _replace_in_package(monkeypatch, name, getattr(numtheory, name), refuse)
    assert [_generator_pair(p) for p in primes] == expected
    entries = [cli._lemma5_worker(p, 0) for p in primes]
    assert entries == [
        (p, wa, wb, q, r, stage, certificate, False)
        for p, (stage, q, r, certificate, wa, wb, _) in zip(primes, expected)
    ]


def test_exhausted_search_raises_with_every_candidate_in_its_trace(monkeypatch):
    # no candidate is ever dependence-free, so the guard fires with the
    # replayed trace of all p + 1 candidates
    monkeypatch.setattr(lens_module, "_dependence_free", lambda p, q, r: (False, 0))
    with pytest.raises(SearchExhausted) as info:
        _generator_pair(7)
    assert info.value.p == 7
    # Q = 1 + j**2 mod 7 for j = 1, ..., 6
    sweep = [("iii", q, 2, 0, False, False) for q in (2, 5, 3, 3, 5, 2)]
    assert [tuple(step) for step in info.value.trace] == [
        ("i", 3, 6, 0, False, False), ("ii", 3, 2, 0, False, False), *sweep
    ]
