"""Exact rational matrix inversion and the nonsingularity test that shares
it, plus the test-side matrix references (determinants, minors and the
structural predicates built on them) from ``_gen``."""
import random
import warnings

import numpy as np
import pytest

from triblock import Partition
from triblock.errors import DimensionMismatch, SingularMatrix
from triblock.linalg import invert, is_nonsingular

from _gen import (
    determinant,
    exact_int_det,
    is_blocked_matrix,
    is_irreducible_matrix,
    is_nonsingular_m_matrix,
    is_z_matrix,
    leading_principal_minors,
    rand_blocked_unimodular,
    rand_unimodular,
)


class TestDeterminant:
    def test_matches_rational_oracle_on_random_integers(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            mat = np.array([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            assert determinant(mat) == float(exact_int_det(mat))

    def test_triangular_is_product_of_diagonal(self):
        mat = np.array([[2.0, 5.0, -1.0], [0.0, -3.0, 7.0], [0.0, 0.0, 4.0]])
        assert determinant(mat) == -24.0

    def test_singular_gives_zero(self):
        assert determinant([[1.0, 2.0], [2.0, 4.0]]) == 0.0

    def test_unimodular_has_unit_determinant(self):
        rng = random.Random(12)
        for _ in range(20):
            mat = rand_unimodular(rng, rng.randint(2, 5))
            assert abs(determinant(mat)) == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            determinant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            determinant([[1.0, np.inf], [0.0, 1.0]])


class TestInvert:
    def test_known_integer_inverse_is_exact(self):
        inv = invert([[2.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(inv, np.array([[1.0, -1.0], [-1.0, 2.0]]))

    def test_triangular_inverse_keeps_exact_zeros(self):
        inv = invert([[1.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(inv, np.array([[1.0, -5.0], [0.0, 1.0]]))
        assert inv[1, 0] == 0.0

    def test_round_trip_on_random_unimodular(self):
        rng = random.Random(13)
        for _ in range(20):
            mat = rand_unimodular(rng, rng.randint(2, 5)).astype(float)
            inv = invert(mat)
            assert np.array_equal(mat @ inv, np.eye(mat.shape[0]))

    def test_blocked_inverse_is_blocked(self):
        rng = random.Random(14)
        for parts in [(1, 2), (2, 2), (1, 1, 2)]:
            p = Partition(parts)
            mat = rand_blocked_unimodular(rng, parts).astype(float)
            inv = invert(mat)
            assert is_blocked_matrix(inv, p)
            assert np.allclose(mat @ inv, np.eye(p.n))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert([[1.0, 2.0], [2.0, 4.0]])

    def test_near_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert([[1.0, 1.0], [1.0, 1.0 + 1e-14]])

    def test_ill_conditioned_warns(self):
        # pivots are both 1 so elimination succeeds, but the shear makes
        # the condition estimate blow past the warning threshold
        mat = np.array([[1.0, 1e7], [0.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="condition"):
            inv = invert(mat)
        assert np.array_equal(inv, np.array([[1.0, -1e7], [0.0, 1.0]]))

    def test_well_conditioned_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            invert([[2.0, -1.0], [-1.0, 2.0]])


class TestPredicates:
    def test_nonsingular_matches_invertibility(self):
        assert is_nonsingular([[2.0, 1.0], [1.0, 1.0]])
        assert not is_nonsingular([[1.0, 2.0], [2.0, 4.0]])
        assert not is_nonsingular([[0.0]])

    def test_nonsingular_matches_exact_determinant(self):
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(1, 5)
            mat = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            assert is_nonsingular(mat) == (exact_int_det(mat) != 0)

    def test_nonsingular_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_nonsingular([[1.0, 1e7], [0.0, 1.0]])
            assert not is_nonsingular([[1.0, 1.0], [1.0, 1.0 + 1e-14]])

    def test_leading_minors(self):
        mat = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        assert leading_principal_minors(mat) == [2.0, 3.0, 4.0]

    def test_z_matrix(self):
        assert is_z_matrix([[5.0, -1.0], [0.0, 3.0]])
        assert is_z_matrix([[-2.0, 0.0], [-1.0, 0.0]])
        assert not is_z_matrix([[1.0, 0.5], [0.0, 1.0]])

    def test_nonsingular_m_matrix(self):
        assert is_nonsingular_m_matrix([[2.0, -1.0], [-1.0, 2.0]])
        assert not is_nonsingular_m_matrix([[1.0, -2.0], [-2.0, 1.0]])
        assert not is_nonsingular_m_matrix([[2.0, 1.0], [1.0, 2.0]])
        assert not is_nonsingular_m_matrix([[1.0, -1.0], [-1.0, 1.0]])

    def test_irreducible_matrix(self):
        cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert is_irreducible_matrix(cycle)
        assert not is_irreducible_matrix([[1.0, 1.0], [0.0, 1.0]])
        assert is_irreducible_matrix([[0.0]])

    def test_blocked_matrix(self):
        p = Partition((1, 2))
        assert is_blocked_matrix([[1.0, 2.0, 3.0],
                                  [0.0, 4.0, 5.0],
                                  [0.0, 6.0, 7.0]], p)
        assert not is_blocked_matrix([[1.0, 0.0, 0.0],
                                      [1.0, 4.0, 5.0],
                                      [0.0, 6.0, 7.0]], p)
        with pytest.raises(DimensionMismatch):
            is_blocked_matrix([[1.0, 0.0], [0.0, 1.0]], p)

    def test_blocked_generator_agrees(self):
        rng = random.Random(15)
        for parts in [(2, 1), (1, 1, 1), (2, 2)]:
            mat = rand_blocked_unimodular(rng, parts)
            assert is_blocked_matrix(mat.astype(float), Partition(parts))
