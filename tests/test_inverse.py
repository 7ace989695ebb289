"""Left and right k-inverses through the two product forms, plus the
preservation of block structure on both sides."""
import itertools
import math
import random
import warnings

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition
from triblock.errors import (
    DimensionMismatch,
    NoLeftInverse,
    NotRightForm,
    NotRightInvertible,
    OrderTooSmall,
    TriblockError,
)

from _gen import is_blocked_matrix, rand_blocked_unimodular, rand_unimodular


def row_diag(p, m=3):
    return tb.row_diagonal_from_matrix(np.array(p, dtype=float), m)


def unit_times(q, m=3):
    n = len(q)
    return tb.general_product(tb.unit_tensor(m, n),
                           tb.tensor_from_matrix(np.array(q, dtype=float)))


class TestHasLeftInverse:
    def test_diagonal_row_matrix(self):
        assert tb.has_left_inverse(row_diag([[2, 0], [0, 3]]))

    def test_not_row_diagonal(self, ex24):
        assert not tb.has_left_inverse(ex24)

    def test_singular_row_matrix(self):
        assert not tb.has_left_inverse(row_diag([[1, 1], [1, 1]]))

    def test_order_guard(self):
        with pytest.raises(OrderTooSmall):
            tb.has_left_inverse(tb.new_tensor(1, 2, [((1,), 1.0)]))


class TestLeftKInverse:
    def test_diagonal_case(self):
        a = row_diag([[2, 0], [0, 3]])
        inv = tb.left_k_inverse(a, 2)
        assert inv == tb.tensor_from_matrix(np.array([[0.5, 0.0], [0.0, 1 / 3]]))
        assert tb.verify_inverse(inv, a, "left")

    def test_unit_tensor(self):
        assert tb.left_k_inverse(tb.unit_tensor(3, 3), 4) == tb.unit_tensor(4, 3)

    def test_m_matrix_inverse_is_positive(self):
        # P inverse is (1/3)[[2,1],[1,2]]; all 8 entries of the order-3
        # inverse are products of two of its entries, hence positive
        a = row_diag([[2, -1], [-1, 2]])
        inv = tb.left_k_inverse(a, 3)
        q = np.array([[2, 1], [1, 2]]) / 3.0
        for i, i2, i3 in itertools.product((1, 2), repeat=3):
            want = q[i - 1, i2 - 1] * q[i - 1, i3 - 1]
            assert inv.get((i, i2, i3)) == pytest.approx(want, abs=1e-15)
            assert inv.get((i, i2, i3)) > 0
        assert tb.verify_inverse(inv, a, "left")

    def test_round_trip_orders(self):
        rng = random.Random(31)
        for k in (2, 3):
            p = rand_unimodular(rng, 3).astype(float)
            a = row_diag(p)
            inv = tb.left_k_inverse(a, k)
            assert inv.order == k
            assert tb.verify_inverse(inv, a, "left")

    def test_unique_among_verified_candidates(self):
        rng = random.Random(32)
        for _ in range(10):
            p = rand_unimodular(rng, 3).astype(float)
            a = row_diag(p)
            ours = tb.left_k_inverse(a, 2)
            other = tb.general_product(tb.unit_tensor(2, 3),
                                    tb.tensor_from_matrix(np.linalg.inv(p)))
            assert tb.verify_inverse(other, a, "left", tol=1e-8)
            assert ours.allclose(other, tol=1e-10)

    def test_rejections(self, ex24):
        with pytest.raises(NoLeftInverse):
            tb.left_k_inverse(ex24, 2)
        with pytest.raises(NoLeftInverse, match="^row matrix is singular$"):
            tb.left_k_inverse(row_diag([[1, 1], [1, 1]]), 2)
        with pytest.raises(OrderTooSmall):
            tb.left_k_inverse(tb.unit_tensor(3, 2), 1)

    def test_inverse_past_the_double_range(self):
        # 1 / 1e-310 is beyond the largest double: a range fault, not a singular matrix
        want = "^row matrix: an inverse entry is beyond the double range$"
        with pytest.raises(NoLeftInverse, match=want) as info:
            tb.left_k_inverse(tb.new_tensor(2, 1, [((1, 1), 1e-310)]), 2)
        assert "inverse entry is beyond the double range" in str(info.value.__cause__)
        assert not tb.has_left_inverse(tb.new_tensor(3, 1, [((1, 1, 1), 1e-310)]))


class TestRecoverRightForm:
    def test_diagonal_squares(self):
        a = tb.new_tensor(3, 2, [((1, 1, 1), 4.0), ((2, 2, 2), 9.0)])
        rec = tb.recover_right_form(a)
        assert np.array_equal(rec.q, np.array([[2.0, 0.0], [0.0, 3.0]]))

    def test_unit_tensor(self):
        rec = tb.recover_right_form(tb.unit_tensor(4, 3))
        assert np.array_equal(rec.q, np.eye(3))

    def test_upper_triangular_exact(self):
        q = [[2, 1], [0, 3]]
        rec = tb.recover_right_form(unit_times(q))
        assert np.array_equal(rec.q, np.array(q, dtype=float))

    def test_even_degree_signs_from_mixed_entries(self):
        q = [[2, -1], [0, 3]]
        rec = tb.recover_right_form(unit_times(q))
        assert np.array_equal(rec.q, np.array(q, dtype=float))

    def test_even_degree_row_sign_is_canonicalized(self):
        # negating a whole row leaves every degree-2 product unchanged;
        # recovery picks the copy whose first nonzero is positive
        flipped = unit_times([[-2, 1], [0, 3]])
        rec = tb.recover_right_form(flipped)
        assert np.array_equal(rec.q, np.array([[2.0, -1.0], [0.0, 3.0]]))
        assert unit_times(rec.q) == flipped

    def test_odd_degree_keeps_negative_roots(self):
        q = [[-2, 0], [1, 3]]
        rec = tb.recover_right_form(unit_times(q, m=4))
        assert np.array_equal(rec.q, np.array(q, dtype=float))

    def test_order_two_is_the_matrix_itself(self):
        q = [[1, -7], [2, 5]]
        rec = tb.recover_right_form(unit_times(q, m=2))
        assert np.array_equal(rec.q, np.array(q, dtype=float))

    def test_inconsistent_mixed_entry(self, ex31):
        # the diagonal reads q_{11} = q_{12} = 1 but a_{112} = 0
        with pytest.raises(NotRightForm):
            tb.recover_right_form(ex31)

    def test_negative_even_radicand(self):
        with pytest.raises(NotRightForm):
            tb.recover_right_form(tb.diagonal_tensor(3, [-1.0, 2.0]))


class TestRightKInverse:
    def test_diagonal_case(self):
        a = unit_times([[2, 0], [0, 3]])
        inv = tb.right_k_inverse(a, 2)
        assert inv == tb.tensor_from_matrix(np.array([[0.5, 0.0], [0.0, 1 / 3]]))
        assert tb.verify_inverse(inv, a, "right")

    def test_unit_tensor(self):
        assert tb.right_k_inverse(tb.unit_tensor(3, 2), 3) == tb.unit_tensor(3, 2)

    def test_round_trip_orders(self):
        rng = random.Random(33)
        for k in (2, 3):
            q = rand_unimodular(rng, 3).astype(float)
            a = unit_times(q)
            inv = tb.right_k_inverse(a, k)
            assert inv.order == k
            assert tb.verify_inverse(inv, a, "right")

    def test_rejections(self, ex24):
        with pytest.raises(NotRightInvertible):
            tb.right_k_inverse(ex24, 2)
        with pytest.raises(NotRightInvertible, match="^recovered factor matrix is singular$"):
            tb.right_k_inverse(unit_times([[1, 1], [1, 1]]), 2)
        with pytest.raises(OrderTooSmall):
            tb.right_k_inverse(tb.unit_tensor(3, 2), 1)

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_order_must_be_an_integer(self, k):
        # refused as row_diagonal_from_matrix refuses it, not with a bare TypeError
        with pytest.raises(OrderTooSmall, match="^order must be an integer, got "):
            tb.right_k_inverse(tb.unit_tensor(3, 2), k)
        with pytest.raises(OrderTooSmall):
            tb.right_k_inverse(tb.unit_tensor(3, 2), True)

    def test_inverse_past_the_double_range(self):
        want = "^recovered factor matrix: an inverse entry is beyond the double range$"
        with pytest.raises(NotRightInvertible, match=want) as info:
            tb.right_k_inverse(tb.new_tensor(2, 1, [((1, 1), 1e-310)]), 2)
        assert "inverse entry is beyond the double range" in str(info.value.__cause__)

    def test_root_power_past_the_double_range(self):
        # float(round(root) ** 4) overflows: a domain error, not a bare OverflowError
        a = tb.new_tensor(5, 1, [((1, 1, 1, 1, 1), 1.7976931348623157e308)])
        with pytest.raises(TriblockError, match="beyond the double range"):
            tb.right_k_inverse(a, 2)

    def test_pivot_past_the_double_range_warns_nothing(self):
        # the factorization check sums |terms| past the double range: that sum
        # takes the fsum route without an overflow warning
        q = tb.tensor_from_matrix(np.array([[1e308, -1e308], [1e308, 1e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotRightInvertible,
                               match="^recovered factor matrix: a pivot is beyond"):
                tb.right_k_inverse(q, 2)

    def test_both_sides_on_a_monomial_tensor(self):
        # a_{122} = 2, a_{211} = 3 is both row diagonal and of the
        # unit-times-matrix form, so the two inverses coexist
        a = tb.new_tensor(3, 2, [((1, 2, 2), 2.0), ((2, 1, 1), 3.0)])
        left = tb.left_k_inverse(a, 2)
        right = tb.right_k_inverse(a, 2)
        assert tb.verify_inverse(left, a, "left")
        assert tb.verify_inverse(right, a, "right")
        assert tb.general_product(left, a).order == tb.general_product(a, right).order


class TestVerifyInverse:
    def test_unit_is_self_inverse(self):
        u = tb.unit_tensor(3, 2)
        assert tb.verify_inverse(u, u, "left")
        assert tb.verify_inverse(u, u, "right")

    def test_wrong_scaling_fails(self):
        a = row_diag([[2, 0], [0, 3]])
        half = tb.tensor_from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert not tb.verify_inverse(half, a, "left")

    def test_argument_checks(self):
        u = tb.unit_tensor(3, 2)
        with pytest.raises(ValueError):
            tb.verify_inverse(u, u, "middle")
        with pytest.raises(DimensionMismatch):
            tb.verify_inverse(u, tb.unit_tensor(3, 3), "left")

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, -math.inf])
    def test_nan_and_negative_tolerances_refused(self, tol):
        # a nan tolerance passed every entry: the wrong inverse verified
        a = row_diag([[2, 0], [0, 3]])
        half = tb.tensor_from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="^tol must be nonnegative$"):
            tb.verify_inverse(half, a, "left", tol=tol)
        with pytest.raises(ValueError, match="^tol must be nonnegative$"):
            half.allclose(a, tol)
        huge = tb.tensor_from_matrix(np.array([[1e300, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="^tol must be nonnegative$"):
            tb.verify_inverse(huge, huge, "right", tol=tol)  # the product is out of range
        assert half.allclose(half, 0.0) and half.allclose(tb.unit_tensor(2, 2), math.inf)


class TestBlockedInverses:
    PARTS = [(1, 2), (2, 2), (1, 1, 2)]
    UPPER = (BlockKind.UTB1, BlockKind.UTB2, BlockKind.UTB3)

    def test_row_diagonal_structure_tracks_the_matrix(self):
        rng = random.Random(34)
        for parts in self.PARTS:
            p = Partition(parts)
            for _ in range(10):
                mat = np.array([[float(rng.choice([0, 0, 1, 2, -1]))
                                 for _ in range(p.n)] for _ in range(p.n)])
                a = row_diag(mat)
                b = unit_times(mat)
                for kind in (BlockKind.UTB1, BlockKind.UTB3):
                    assert tb.is_blocked(a, p, kind) == is_blocked_matrix(mat, p)
                    assert tb.is_blocked(b, p, kind) == is_blocked_matrix(mat, p)

    def test_left_inverse_is_blocked_with_block_inverses(self):
        rng = random.Random(35)
        for parts in self.PARTS:
            p = Partition(parts)
            mat = rand_blocked_unimodular(rng, parts).astype(float)
            a = row_diag(mat)
            for k in (2, 3):
                inv = tb.left_k_inverse(a, k)
                assert tb.verify_inverse(inv, a, "left")
                for kind in self.UPPER:
                    assert tb.is_blocked(inv, p, kind)
                got = tb.diagonal_blocks(inv, p)
                want = [tb.left_k_inverse(block, k)
                        for block in tb.diagonal_blocks(a, p)]
                assert got == want

    def test_right_inverse_is_blocked_with_block_inverses(self):
        rng = random.Random(36)
        for parts in self.PARTS:
            p = Partition(parts)
            mat = rand_blocked_unimodular(rng, parts).astype(float)
            a = unit_times(mat)
            for k in (2, 3):
                inv = tb.right_k_inverse(a, k)
                assert tb.verify_inverse(inv, a, "right")
                for kind in self.UPPER:
                    assert tb.is_blocked(inv, p, kind)
                got = tb.diagonal_blocks(inv, p)
                want = [tb.right_k_inverse(block, k)
                        for block in tb.diagonal_blocks(a, p)]
                assert got == want
