"""General tensor product: order law, matrix reductions, closure of the
blocked structure, and agreement with a dense contraction oracle."""
import math
import random

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition
from triblock.errors import DimensionMismatch, OrderTooSmall, ProductOutOfRange

from _gen import dense_product, rand_blocked, rand_tensor


def matrix(values):
    return tb.tensor_from_matrix(np.array(values, dtype=float))


class TestOrderAndShape:
    @pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_result_order(self, m, k):
        rng = random.Random(m * 10 + k)
        a = rand_tensor(rng, 3, m)
        b = rand_tensor(rng, 3, k)
        c = tb.general_product(a, b)
        assert c.order == (m - 1) * (k - 1) + 1
        assert c.dim == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tb.general_product(tb.unit_tensor(3, 2), tb.unit_tensor(3, 3))

    def test_left_factor_needs_order_two(self):
        one = tb.new_tensor(1, 2, [((1,), 1.0), ((2,), 2.0)])
        with pytest.raises(OrderTooSmall):
            tb.general_product(one, tb.unit_tensor(2, 2))

    def test_vector_right_factor_is_application(self):
        rng = random.Random(7)
        a = rand_tensor(rng, 3, 3)
        x = [1.5, -2.0, 0.5]
        vec = tb.new_tensor(1, 3, [((i,), v) for i, v in enumerate(x, 1)])
        c = tb.general_product(a, vec)
        got = [c.get((i,)) for i in range(1, 4)]
        assert got == pytest.approx(tb.apply(a, x), abs=1e-12)


class TestMatrixCases:
    def test_reduces_to_matrix_multiplication(self):
        a = matrix([[1, 2], [0, 1]])
        b = matrix([[1, 0], [3, 1]])
        c = tb.general_product(a, b)
        assert np.array_equal(c.to_dense(), np.array([[7.0, 2.0], [3.0, 1.0]]))

    def test_identity_is_neutral(self):
        rng = random.Random(8)
        for m in (2, 3):
            a = rand_tensor(rng, 3, m)
            eye = tb.unit_tensor(2, 3)
            assert tb.general_product(eye, a) == a
            assert tb.general_product(a, eye) == a

    def test_matrix_times_unit_gives_row_diagonal(self):
        p = np.array([[2.0, -1.0], [0.5, 3.0]])
        got = tb.general_product(tb.tensor_from_matrix(p), tb.unit_tensor(4, 2))
        assert got == tb.row_diagonal_from_matrix(p, 4)

    def test_unit_times_matrix_separates_rows(self):
        q = np.array([[2.0, 1.0], [0.0, 3.0]])
        got = tb.general_product(tb.unit_tensor(3, 2), tb.tensor_from_matrix(q))
        for i in (1, 2):
            for i2 in (1, 2):
                for i3 in (1, 2):
                    assert got.get((i, i2, i3)) == \
                        pytest.approx(q[i - 1, i2 - 1] * q[i - 1, i3 - 1])

    def test_mixed_order_associativity(self):
        rng = random.Random(9)
        for _ in range(10):
            p = rand_tensor(rng, 3, 2, density=0.6)
            q = rand_tensor(rng, 3, 2, density=0.6)
            t = rand_tensor(rng, 3, 3, density=0.4)
            left = tb.general_product(p, tb.general_product(q, t))
            right = tb.general_product(tb.general_product(p, q), t)
            assert left.allclose(right, tol=1e-12)


class TestDenseOracle:
    @pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_matches_dense_contraction(self, m, k):
        rng = random.Random(40 + m + 10 * k)
        for _ in range(6):
            n = rng.randint(2, 3)
            a = rand_tensor(rng, n, m, density=0.5)
            b = rand_tensor(rng, n, k, density=0.5)
            got = tb.general_product(a, b)
            want = dense_product(a, b)
            assert got.allclose(want, tol=1e-10)

    def test_exact_zero_results_are_dropped(self):
        a = tb.new_tensor(2, 2, [((1, 1), 1.0), ((1, 2), -1.0)])
        b = tb.new_tensor(2, 2, [((1, 1), 1.0), ((2, 1), 1.0)])
        c = tb.general_product(a, b)
        assert (1, 1) not in c.entries
        assert c.get((1, 1)) == 0.0


class TestDoubleRange:
    @pytest.mark.parametrize("a, b, key", [
        ({(1, 1): 1e200}, {(1, 1): 1e200}, (1, 1)),  # one term past the range
        ({(1, 1): 1e308, (1, 2): 1e308}, {(1, 1): 1.0, (2, 1): 1.0}, (1, 1)),  # its sum
        ({(1, 1): 1e200, (1, 2): 1e200}, {(1, 1): 1e200, (2, 1): -1e200}, (1, 1)),  # inf - inf
        ({(1, 1): 1.0, (2, 2): 1e300}, {(1, 2): 1.0, (2, 1): 1e10}, (2, 1)),
    ])
    def test_refused_naming_the_entry(self, a, b, key):
        n = max(max(idx) for idx in a)
        with pytest.raises(ProductOutOfRange, match=rf"entry \({key[0]}, {key[1]}\) of the product"):
            tb.general_product(tb.Tensor(2, n, a), tb.Tensor(2, n, b))

    def test_order_three_term_past_the_range(self):
        a = tb.new_tensor(3, 2, [((1, 1, 1), 1.0), ((2, 2, 2), 1e200)])
        b = tb.new_tensor(2, 2, [((1, 1), 1.0), ((2, 2), 1e60)])
        with pytest.raises(ProductOutOfRange, match=r"entry \(2, 2, 2\)"):
            tb.general_product(a, b)

    def test_in_range_near_the_edge(self):
        # 1e308 - 1e308 cancels, and 1.7e308 is below the largest double
        a = tb.Tensor(2, 2, {(1, 1): 1e308, (1, 2): -1e308, (2, 2): 1e154})
        b = tb.Tensor(2, 2, {(1, 1): 1.0, (2, 1): 1.0, (1, 2): 1.7})
        assert tb.general_product(a, b).entries == {(1, 2): 1e308 * 1.7, (2, 1): 1e154}

    @staticmethod
    def column_sum(terms):
        """The product of a one-row matrix of ``terms`` with a column of ones."""
        n = len(terms)
        a = tb.Tensor(2, n, {(1, t): v for t, v in enumerate(terms, start=1)})
        return tb.general_product(a, tb.Tensor(2, n, {(t, 1): 1.0 for t in range(1, n + 1)}))

    @pytest.mark.parametrize("terms, want", [
        ([1e308, 1e308, -1e308], 1e308),  # fsum's partial sums overflow in this order
        ([1e308, 1e308, -1e308, -1e308, 3e-320], 3e-320),
        ([1.7e308, 1.7e308, -1.7e308, 1e-300, -1.0], 1.7e308),
        ([1e308, 1e308, -1e308, 2.0 ** -1074], 1e308),
    ])
    def test_in_range_past_fsums_partial_sums(self, terms, want):
        assert dict(self.column_sum(terms).entries) == {(1, 1): want}

    @pytest.mark.parametrize("terms", [
        [1e308, 1e308, 1e308, -1e308],  # the exact sum, 2e308, is past the largest double
        [1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308, 1e292],
    ])
    def test_out_of_range_past_fsums_partial_sums(self, terms):
        with pytest.raises(ProductOutOfRange, match=r"entry \(1, 1\) of the product"):
            self.column_sum(terms)

    def test_infinite_term_beside_an_overflowing_sum(self):
        a = tb.Tensor(2, 3, {(1, 1): 1e308, (1, 2): 1e308, (1, 3): 1e200})
        b = tb.Tensor(2, 3, {(1, 1): 1.0, (2, 1): 1.0, (3, 1): 1e200})
        with pytest.raises(ProductOutOfRange, match=r"entry \(1, 1\) of the product"):
            tb.general_product(a, b)

    def test_overflowing_partial_sums_round_once(self):
        # fsum of the terms scaled by 2^-64 (exact here) and scaled back is the correctly
        # rounded sum; groups whose own partial sums overflow take the exact fallback
        rng = random.Random(57)
        fallbacks = refused = 0
        for _ in range(400):
            big = [rng.uniform(1, 2) * 2.0 ** 1023 for _ in range(rng.randint(2, 4))]
            terms = big + [-v * rng.uniform(0.5, 1.0) for v in big[:-1]]
            terms += [rng.uniform(-2, 2) * 2.0 ** rng.randint(-950, 1000)
                      for _ in range(rng.randint(0, 3))]
            sign = rng.choice([-1.0, 1.0])
            terms = [sign * v for v in terms]
            want = math.fsum(v * 2.0 ** -64 for v in terms) * 2.0 ** 64
            try:
                math.fsum(terms)
            except OverflowError:
                fallbacks += 1
                refused += math.isinf(want)
            if math.isinf(want):
                with pytest.raises(ProductOutOfRange):
                    self.column_sum(terms)
            else:
                assert self.column_sum(terms).entries.get((1, 1), 0.0) == want
        assert fallbacks - refused > 100 and refused > 100


class TestBlockedClosure:
    """The product of two tensors blocked the same way is blocked the same way.

    Diagonal blocks of the product multiply blockwise for the first and
    second kinds (and their mirrors).  For the third kind only the top
    block is protected; see TestThirdKindBlocks below for why.
    """
    PARTS = [(1, 2), (2, 2), (1, 1, 2)]
    ORDERS = [(2, 2), (3, 2), (2, 3), (3, 3)]
    ALL_KINDS = list(BlockKind)
    FACTORING_KINDS = [BlockKind.UTB1, BlockKind.UTB2,
                       BlockKind.LTB1, BlockKind.LTB2, BlockKind.DIAG]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.token)
    def test_product_keeps_kind(self, kind):
        rng = random.Random(50)
        for parts in self.PARTS:
            p = Partition(parts)
            for m, k in self.ORDERS:
                a = rand_blocked(rng, parts, kind, m, density=0.4)
                b = rand_blocked(rng, parts, kind, k, density=0.4)
                c = tb.general_product(a, b)
                assert tb.is_blocked(c, p, kind), (parts, kind, m, k)

    @pytest.mark.parametrize("kind", FACTORING_KINDS, ids=lambda k: k.token)
    def test_blocks_factor_exactly(self, kind):
        rng = random.Random(51)
        for parts in self.PARTS:
            p = Partition(parts)
            for m, k in self.ORDERS:
                a = rand_blocked(rng, parts, kind, m, density=0.4)
                b = rand_blocked(rng, parts, kind, k, density=0.4)
                got = tb.diagonal_blocks(tb.general_product(a, b), p)
                want = [tb.general_product(x, y) for x, y in
                        zip(tb.diagonal_blocks(a, p), tb.diagonal_blocks(b, p))]
                assert got == want, (parts, kind, m, k)

    def test_unit_tensor_blocks_factor(self):
        p = Partition((2, 3))
        a = tb.unit_tensor(3, 5)
        c = tb.general_product(a, a)
        assert tb.diagonal_blocks(c, p) == [
            tb.general_product(x, x) for x in tb.diagonal_blocks(a, p)]


class TestThirdKindBlocks:
    """For the third kind only one end block of the product factors.

    An entry of A in row block l may carry feet from earlier blocks as
    long as one foot reaches block l, and the rows of B in those earlier
    blocks are unconstrained upward.  Such terms feed diagonal-block
    entries of the product that the blockwise product never sees, so
    factorization can only be guaranteed where no earlier block exists:
    the first block (third upper kind) or the last (third lower kind).
    """

    def test_first_block_factors_for_upper(self):
        rng = random.Random(52)
        for parts in [(1, 1), (1, 2), (2, 2), (1, 1, 2)]:
            p = Partition(parts)
            for m, k in [(3, 2), (3, 3)]:
                a = rand_blocked(rng, parts, BlockKind.UTB3, m, density=0.45)
                b = rand_blocked(rng, parts, BlockKind.UTB3, k, density=0.45)
                c = tb.general_product(a, b)
                got = tb.diagonal_blocks(c, p)[0]
                want = tb.general_product(tb.diagonal_blocks(a, p)[0],
                                       tb.diagonal_blocks(b, p)[0])
                assert got == want, (parts, m, k)

    def test_last_block_factors_for_lower(self):
        rng = random.Random(53)
        for parts in [(1, 1), (2, 1), (2, 2), (2, 1, 1)]:
            p = Partition(parts)
            for m, k in [(3, 2), (3, 3)]:
                a = rand_blocked(rng, parts, BlockKind.LTB3, m, density=0.45)
                b = rand_blocked(rng, parts, BlockKind.LTB3, k, density=0.45)
                c = tb.general_product(a, b)
                got = tb.diagonal_blocks(c, p)[-1]
                want = tb.general_product(tb.diagonal_blocks(a, p)[-1],
                                       tb.diagonal_blocks(b, p)[-1])
                assert got == want, (parts, m, k)

    def test_second_block_need_not_factor(self):
        # A has a straddling entry a_{212}; row 1 of B is unconstrained,
        # so a_{212} b_{122} b_{222} lands in the (2,2,2,2,2) slot of the
        # product while the blockwise product of the {2} blocks is zero.
        p = Partition((1, 1))
        a = tb.new_tensor(3, 2, [((2, 1, 2), 1.0)])
        b = tb.new_tensor(3, 2, [((1, 2, 2), 1.0), ((2, 2, 2), 1.0)])
        assert tb.is_blocked(a, p, BlockKind.UTB3)
        assert tb.is_blocked(b, p, BlockKind.UTB3)
        c = tb.general_product(a, b)
        assert tb.is_blocked(c, p, BlockKind.UTB3)
        got = tb.diagonal_blocks(c, p)[1]
        want = tb.general_product(tb.diagonal_blocks(a, p)[1],
                               tb.diagonal_blocks(b, p)[1])
        assert got.get((1, 1, 1, 1, 1)) == 1.0
        assert want.nnz == 0
        assert got != want

    @pytest.mark.xfail(
        strict=True,
        reason="later diagonal blocks of a third-kind product do not "
               "factor blockwise; see the straddling-entry example above")
    def test_all_blocks_factor_for_third_kind(self):
        rng = random.Random(54)
        for trial in range(40):
            parts = rng.choice([(1, 1), (1, 2), (2, 2), (1, 1, 2)])
            p = Partition(parts)
            a = rand_blocked(rng, parts, BlockKind.UTB3, 3, density=0.45)
            b = rand_blocked(rng, parts, BlockKind.UTB3, 3, density=0.45)
            got = tb.diagonal_blocks(tb.general_product(a, b), p)
            want = [tb.general_product(x, y) for x, y in
                    zip(tb.diagonal_blocks(a, p), tb.diagonal_blocks(b, p))]
            assert got == want, (trial, parts)
