"""Exact matrix inversion by integer elimination and the nonsingularity test
that shares it, checked against the ``Fraction`` elimination it replaced,
plus the test-side matrix references (determinants, minors and the
structural predicates built on them) from ``_gen``."""
import random
import warnings

import numpy as np
import pytest

from triblock import Partition
from triblock.errors import DimensionMismatch, SingularMatrix, TriblockError
from triblock.linalg import as_matrix, invert, is_nonsingular

from _gen import (
    INVERSE_KINDS,
    determinant,
    exact_int_det,
    is_blocked_matrix,
    is_irreducible_matrix,
    is_nonsingular_m_matrix,
    is_z_matrix,
    leading_principal_minors,
    loop_gauss_jordan,
    rand_blocked_unimodular,
    rand_inverse_case,
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


def _outcome(fn, mat) -> str | bytes:
    """The result's bytes (so the sign of a zero counts), or the error's class and message."""
    try:
        return fn(mat).tobytes()
    except TriblockError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestAgainstLoop:
    """``invert`` and ``is_nonsingular`` against the ``Fraction`` Gauss-Jordan."""

    def test_seeded_ensemble(self):
        rng = random.Random(1968)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the condition warning
            for trial in range(360):
                kind = INVERSE_KINDS[trial % len(INVERSE_KINDS)]
                n = rng.randint(1, 6 if kind in ("magnitude", "edge") else 12)
                mat = rand_inverse_case(rng, n, kind)
                want = _outcome(lambda m: loop_gauss_jordan(as_matrix(m)), mat)
                assert _outcome(invert, mat) == want, (trial, kind, n)
                assert is_nonsingular(mat) == isinstance(want, bytes), (trial, kind, n)

    def test_first_of_tied_pivots(self):
        # column 1 ties three ways: pivoting on the first row leaves pivots 1, 2, 1.5e-12,
        # below the floor; pivoting on the last would leave 1, 1, 3e-12, above it
        mat = [[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 1.0, 1.5e-12]]
        want = "SingularMatrix: pivot below the relative floor; treating as singular"
        assert _outcome(lambda m: loop_gauss_jordan(as_matrix(m)), mat) == want
        assert _outcome(invert, mat) == want
        assert not is_nonsingular(mat)

    def test_zero_entries_are_positive_zeros(self):
        # the determinant is negative, and 0 / -1 would be -0.0
        inv = invert([[-1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        assert inv.tobytes() == np.array([[-1.0, 5.0, 0.0], [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 0.5]]).tobytes()


class TestOutOfRange:
    def test_inverse_entry_past_the_double_range(self):
        with pytest.raises(SingularMatrix, match="^an inverse entry is beyond the double range$"):
            invert([[1e-310]])
        assert not is_nonsingular([[1e-310]])

    def test_pivot_past_the_double_range(self):
        mat = [[1e308, -1e308], [1e308, 1e308]]
        with pytest.raises(SingularMatrix, match="^a pivot is beyond the double range$"):
            invert(mat)
        assert not is_nonsingular(mat)


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
