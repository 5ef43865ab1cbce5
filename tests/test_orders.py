"""Tests for the bordism order formulas."""

import pytest

from lensbordism.errors import EvenOrder, NoSuchGroup, Unspecified
from lensbordism.numtheory import primes_in_range
from lensbordism.orders import (
    SPIN_COEFFICIENTS,
    AbelianGroup,
    bordism_order_cyclic,
    bordism_order_metacyclic_d3,
    e2_diagonal,
    extension_order_check,
    group_structure_cyclic,
    lens_class_order,
    non_splitness_witness,
    transfer_inclusion_scalar,
)

ODD_PRIMES_TO_97 = [int(p) for p in primes_in_range(3, 97)]


class TestAbelianGroup:
    def test_str_and_order(self):
        assert str(AbelianGroup(())) == "0"
        assert str(AbelianGroup((0,))) == "Z"
        assert str(AbelianGroup((9,))) == "Z_9"
        assert str(AbelianGroup((5, 5))) == "Z_5 x Z_5"
        assert AbelianGroup((5, 5)).order == 25
        assert AbelianGroup((0,)).order is None
        assert AbelianGroup(()).is_trivial


def test_spin_coefficient_table():
    assert SPIN_COEFFICIENTS.groups == (
        AbelianGroup((0,)),
        AbelianGroup((2,)),
        AbelianGroup((2,)),
        AbelianGroup(()),
        AbelianGroup((0,)),
        AbelianGroup(()),
    )


class TestE2Diagonal:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_only_two_nontrivial_terms(self, n):
        diag = e2_diagonal(n)
        orders = {(r, s): order for r, s, order in diag.terms}
        assert orders[(1, 4)] == n
        assert orders[(5, 0)] == n
        for (r, s), order in orders.items():
            if (r, s) not in ((1, 4), (5, 0)):
                assert order == 1
        assert diag.product == n * n

    def test_even_modulus_rejected(self):
        with pytest.raises(EvenOrder):
            e2_diagonal(8)
        with pytest.raises(EvenOrder):
            e2_diagonal(2)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            e2_diagonal(15)

    def test_z2_terms_vanish_for_odd_n(self):
        for n in (3, 5, 7, 9, 27, 121):
            diag = e2_diagonal(n)
            for r, s, order in diag.terms:
                if SPIN_COEFFICIENTS.group(s).factors == (2,):
                    assert order == 1


class TestBordismOrderCyclic:
    def test_examples(self):
        assert bordism_order_cyclic(5, 1) == 25
        assert bordism_order_cyclic(3, 1) == 9
        assert bordism_order_cyclic(5, 2) == 625

    def test_matches_diagonal_product(self):
        for p in ODD_PRIMES_TO_97:
            for k in (1, 2, 3):
                assert bordism_order_cyclic(p, k) == e2_diagonal(p**k).product

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            bordism_order_cyclic(1000003, 2)
        # decided from p and k, without building a power of about 10**18 digits
        with pytest.raises(OverflowError, match=r"3\*\*2000000000000000000 exceeds"):
            bordism_order_cyclic(3, 10**18)
        with pytest.raises(OverflowError, match=r"^5\*\*1000000000000000000 exceeds"):
            lens_class_order(5, 10**18)
        with pytest.raises(OverflowError, match=r"^9 \* 7\*\*1000000000000000000 exceeds"):
            bordism_order_metacyclic_d3(7, 10**18)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bordism_order_cyclic(2, 1)
        with pytest.raises(ValueError):
            bordism_order_cyclic(9, 1)
        with pytest.raises(ValueError):
            bordism_order_cyclic(5, 0)


class TestLensClassOrder:
    def test_examples(self):
        assert lens_class_order(5, 1) == 5
        assert lens_class_order(3, 1) == 9
        assert lens_class_order(7, 3) == 343

    def test_unspecified_for_three_squared(self):
        with pytest.raises(Unspecified):
            lens_class_order(3, 2)


class TestGroupStructureCyclic:
    def test_examples(self):
        assert group_structure_cyclic(3, 1) == AbelianGroup((9,))
        assert group_structure_cyclic(5, 1) == AbelianGroup((5, 5))
        with pytest.raises(Unspecified):
            group_structure_cyclic(7, 2)

    def test_order_matches_formula_at_k1(self):
        for p in ODD_PRIMES_TO_97:
            assert group_structure_cyclic(p, 1).order == bordism_order_cyclic(p, 1)


class TestExtensionOrderCheck:
    def test_examples(self):
        assert extension_order_check(5, 2) is True
        assert extension_order_check(7, 2) is True
        assert extension_order_check(5, 3) is True

    def test_grid(self):
        for p in ODD_PRIMES_TO_97:
            if p < 5:
                continue
            for k in (2, 3, 4):
                assert extension_order_check(p, k) is True

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            extension_order_check(3, 2)
        with pytest.raises(ValueError):
            extension_order_check(5, 1)


class TestNonSplitness:
    def test_examples(self):
        assert non_splitness_witness(5, 2) is True
        assert non_splitness_witness(7, 2) is True
        assert non_splitness_witness(11, 5) is True

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            non_splitness_witness(3, 2)
        with pytest.raises(ValueError):
            non_splitness_witness(5, 1)


class TestTransferInclusionScalar:
    def test_examples(self):
        assert transfer_inclusion_scalar(5, 5) == 1
        assert transfer_inclusion_scalar(5, 9) == 9
        assert transfer_inclusion_scalar(1, 7) == 7
        assert transfer_inclusion_scalar(1, 9) == 9

    def test_index_three_on_order_nine(self):
        # multiplication by 3 sends a generator of a cyclic order-9 group to
        # an element of order 3: nonzero, which is what breaks the zero-map
        # argument at p = 3, but not of full order either
        assert transfer_inclusion_scalar(3, 9) == 3

    def test_dichotomy(self):
        for p in ODD_PRIMES_TO_97:
            if p < 5:
                continue
            assert transfer_inclusion_scalar(p, p) == 1
            assert transfer_inclusion_scalar(p, 9) == 9

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            transfer_inclusion_scalar(0, 5)
        with pytest.raises(ValueError):
            transfer_inclusion_scalar(5, 0)


class TestMetacyclicD3Order:
    def test_examples(self):
        assert bordism_order_metacyclic_d3(7, 1) == 63
        assert bordism_order_metacyclic_d3(13, 1) == 117
        assert bordism_order_metacyclic_d3(7, 2) == 441

    def test_no_such_group(self):
        with pytest.raises(NoSuchGroup):
            bordism_order_metacyclic_d3(5, 1)
        with pytest.raises(NoSuchGroup):
            bordism_order_metacyclic_d3(11, 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bordism_order_metacyclic_d3(3, 1)
        with pytest.raises(ValueError):
            bordism_order_metacyclic_d3(4, 1)

    def test_is_nine_times_lens_class_order(self):
        for p in ODD_PRIMES_TO_97:
            if p < 5 or p % 3 != 1:
                continue
            for k in (1, 2, 3):
                expected = 9 * lens_class_order(p, k)
                assert bordism_order_metacyclic_d3(p, k) == expected
