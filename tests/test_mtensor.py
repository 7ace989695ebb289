"""Z-tensor splitting, M-tensor classification, and inverse positivity."""
import itertools
import random

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition, core
from triblock.errors import NotZTensor, OrderTooSmall

from _gen import (
    is_irreducible_matrix,
    is_nonsingular_m_matrix,
    is_z_matrix,
    loop_z_split,
    rand_blocked_m_matrix,
    rand_irreducible_nonneg,
    rand_m_matrix,
)


def row_diag(p, m=3):
    return tb.row_diagonal_from_matrix(np.array(p, dtype=float), m)


def ones(n=2, m=3):
    return tb.new_tensor(m, n, [
        (idx, 1.0) for idx in itertools.product(range(1, n + 1), repeat=m)])


def shifted_unit_minus_ones(s, n=2, m=3):
    """s * unit - all-ones, written out entrywise."""
    entries = []
    for idx in itertools.product(range(1, n + 1), repeat=m):
        base = float(s) if len(set(idx)) == 1 else 0.0
        entries.append((idx, base - 1.0))
    return tb.new_tensor(m, n, entries)


def reconstruct(split, m, n):
    entries = {}
    for i in range(1, n + 1):
        entries[(i,) * m] = split.s
    for idx, v in split.b.entries.items():
        entries[idx] = entries.get(idx, 0.0) - v
    return tb.new_tensor(m, n, list(entries.items()))


class TestIsZTensor:
    def test_examples(self):
        assert tb.is_z_tensor(row_diag([[2, -1], [-1, 2]]))
        assert not tb.is_z_tensor(ones())
        assert tb.is_z_tensor(tb.diagonal_tensor(3, [-1.0, 2.0]))

    def test_order_guard(self):
        with pytest.raises(OrderTooSmall):
            tb.is_z_tensor(tb.new_tensor(1, 2, [((1,), -1.0)]))


class TestZSplit:
    def test_shifted_ones(self):
        a = shifted_unit_minus_ones(5)
        split = tb.z_split(a)
        assert split.s == 4.0
        off_diagonal_ones = tb.new_tensor(3, 2, [
            (idx, 1.0) for idx in itertools.product((1, 2), repeat=3)
            if len(set(idx)) > 1])
        assert split.b == off_diagonal_ones
        assert reconstruct(split, 3, 2) == a

    def test_diagonal(self):
        split = tb.z_split(tb.diagonal_tensor(3, [1.0, 2.0]))
        assert split.s == 2.0
        assert split.b == tb.new_tensor(3, 2, [((1, 1, 1), 1.0)])

    def test_zero_tensor(self):
        split = tb.z_split(tb.new_tensor(3, 2, []))
        assert split.s == 0.0 and split.b.is_zero()

    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(NotZTensor):
            tb.z_split(ones())

    def test_random_round_trip(self):
        rng = random.Random(41)
        for _ in range(20):
            n, m = rng.randint(2, 4), rng.choice([2, 3])
            entries = []
            for idx in itertools.product(range(1, n + 1), repeat=m):
                if rng.random() < 0.4:
                    v = rng.randint(-3, 3)
                    if len(set(idx)) > 1:
                        v = -abs(v)
                    entries.append((idx, float(v)))
            a = tb.new_tensor(m, n, entries)
            split = tb.z_split(a)
            assert split.s == max(a.get((i,) * m) for i in range(1, n + 1))
            assert all(v >= 0.0 for v in split.b.entries.values())
            assert reconstruct(split, m, n) == a


class TestSplitView:
    def test_diagonal_entries_head_their_rows_without_a_sort(self, monkeypatch):
        # b's view is the stable sort by row of its diagonal entries followed by the rest in
        # view order; z_split builds it in that order, so the rows it hands on are sorted
        given = []

        def spy(idx, vals):
            given.append(idx[:, 0].copy())
            return row_sorted(idx, vals)

        row_sorted = core._row_sorted
        monkeypatch.setattr(core, "_row_sorted", spy)
        rng = random.Random(43)
        heads = 0
        for _ in range(60):
            n, m = rng.randint(1, 7), rng.choice([2, 3, 4])
            z = tb.Tensor(m, n, {idx: float(rng.randint(-2, 3)) if len(set(idx)) == 1
                                 else -float(rng.randint(1, 3))
                                 for idx in itertools.product(range(1, n + 1), repeat=m)
                                 if rng.random() < 0.4})
            assert z.coo.idx.flags.f_contiguous  # the given view is built before the split
            given.clear()
            b = tb.z_split(z).b
            assert len(given) == 1 and (given[0][1:] >= given[0][:-1]).all()
            want = loop_z_split(z)[1].coo
            assert b.coo.idx.flags.f_contiguous and not b.coo.idx.flags.writeable
            assert b.coo.idx.tobytes() == want.idx.tobytes()
            assert b.coo.vals.tobytes() == want.vals.tobytes()
            heads += len(set(map(tuple, b.coo.idx.tolist())) & {(i,) * m for i in range(n)})
        assert heads > 50  # shifted diagonal entries were placed


class TestMTensorClassification:
    def test_strict_margin(self):
        a = shifted_unit_minus_ones(5)
        assert tb.is_m_tensor(a)
        assert tb.is_nonsingular_m_tensor(a)

    def test_boundary_is_singular_m(self):
        a = shifted_unit_minus_ones(4)
        assert tb.is_m_tensor(a)
        assert not tb.is_nonsingular_m_tensor(a)

    def test_below_the_radius_is_not_m(self):
        a = shifted_unit_minus_ones(3)
        assert not tb.is_m_tensor(a)

    def test_m_matrix_row_tensor(self):
        assert tb.is_nonsingular_m_tensor(row_diag([[2, -1], [-1, 2]]))

    def test_zero_tensor_is_boundary(self):
        a = tb.new_tensor(3, 2, [])
        assert tb.is_m_tensor(a)
        assert not tb.is_nonsingular_m_tensor(a)

    def test_requires_z(self):
        with pytest.raises(NotZTensor):
            tb.is_m_tensor(ones())


class TestMarginScale:
    @pytest.mark.parametrize("ratio", [1.25, 0.8])
    def test_report_does_not_depend_on_scale(self, ratio):
        # Z = s * unit - b with s = ratio * rho(b): the margin is read relative to b's scale
        rng = random.Random(31)
        for _ in range(4):
            n = rng.randint(2, 5)
            b = {idx: rng.uniform(0.1, 1.0)
                 for idx in itertools.product(range(1, n + 1), repeat=3)
                 if len(set(idx)) > 1 and rng.random() < 0.5}
            b.update({(i, i % n + 1, i % n + 1): 1.0 for i in range(1, n + 1)})  # irreducible
            s = ratio * tb.spectral_radius(tb.Tensor(3, n, b)).rho
            z = {idx: -v for idx, v in b.items()}
            z.update({(i,) * 3: s for i in range(1, n + 1)})
            for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                got = tb.m_tensor_report(tb.Tensor(3, n, {idx: c * v for idx, v in z.items()}))
                assert got["z"] and got["m"] is got["nonsingular_m"] is (ratio > 1)
                assert got["s"] == c * s
                assert got["rho"] == pytest.approx(c * s / ratio, rel=1e-9)


class TestIsPositiveTensor:
    def test_inverse_of_m_matrix_tensor(self):
        inv = tb.left_k_inverse(row_diag([[2, -1], [-1, 2]]), 3)
        assert tb.is_positive_tensor(inv)

    def test_unit_and_ones(self):
        assert not tb.is_positive_tensor(tb.unit_tensor(3, 2))
        ones = tb.new_tensor(2, 2, [((i, j), 1.0) for i in (1, 2) for j in (1, 2)])
        assert tb.is_positive_tensor(ones)

    def test_one_missing_entry_fails(self):
        entries = [(idx, 1.0) for idx in itertools.product((1, 2), repeat=3)]
        assert not tb.is_positive_tensor(tb.new_tensor(3, 2, entries[1:]))


class TestReport:
    def test_nonsingular_case(self):
        got = tb.m_tensor_report(shifted_unit_minus_ones(5))
        assert got == {"z": True, "m": True, "nonsingular_m": True,
                       "s": 4.0, "rho": 3.0}

    def test_non_z_case(self):
        got = tb.m_tensor_report(ones())
        assert got == {"z": False, "m": False, "nonsingular_m": False,
                       "s": None, "rho": None}

    def test_nan_tolerance_refused(self):
        # min(nan, 1e-10) is nan, which the radius refuses
        for classify in (tb.m_tensor_report, tb.is_m_tensor):
            with pytest.raises(ValueError, match="^tol must be positive$"):
                classify(shifted_unit_minus_ones(5), tol=float("nan"))


class TestRowMatrixCorrespondence:
    def test_z_and_weak_irreducibility_track_the_matrix(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(2, 4)
            mat = np.array([[float(rng.choice([0, 0, 1, -1, -2, 3]))
                             for _ in range(n)] for _ in range(n)])
            a = row_diag(mat)
            assert tb.is_z_tensor(a) == is_z_matrix(mat)
            assert tb.is_weakly_irreducible(a) == is_irreducible_matrix(mat)

    def test_nonsingular_m_tracks_the_matrix(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(2, 4)
            good = rand_m_matrix(rng, n)
            assert is_nonsingular_m_matrix(good)
            assert tb.is_nonsingular_m_tensor(row_diag(good))
            b = rand_irreducible_nonneg(rng, n)
            rho = float(np.max(np.abs(np.linalg.eigvals(b))))
            bad = (rho - 0.5) * np.eye(n) - b
            assert not is_nonsingular_m_matrix(bad)
            assert not tb.is_nonsingular_m_tensor(row_diag(bad))

    def test_triangular_matrix_spectrum_lifts(self):
        a = row_diag([[2, 7], [0, 3]])
        spec = tb.spectrum_blocked(a, Partition((1, 1)), BlockKind.UTB1)
        assert spec.as_multiset() == {2.0: 2, 3.0: 2}


class TestInversePositivity:
    def test_irreducible_m_matrix_gives_positive_inverse(self):
        rng = random.Random(44)
        for _ in range(8):
            n = rng.randint(2, 4)
            p = rand_m_matrix(rng, n)
            for k in (2, 3):
                inv = tb.left_k_inverse(row_diag(p), k)
                assert tb.is_positive_tensor(inv)
                assert tb.verify_inverse(inv, row_diag(p), "left", tol=1e-8)

    def test_blocked_m_tensor_inverse_blocks_are_positive(self):
        rng = random.Random(45)
        for parts in [(2, 2), (2, 3), (2, 2, 2)]:
            p = Partition(parts)
            mat = rand_blocked_m_matrix(rng, parts)
            a = row_diag(mat)
            assert tb.is_z_tensor(a)
            assert tb.is_blocked(a, p, BlockKind.UTB1)
            inv = tb.left_k_inverse(a, 3)
            for kind in (BlockKind.UTB1, BlockKind.UTB2, BlockKind.UTB3):
                assert tb.is_blocked(inv, p, kind)
            for block in tb.diagonal_blocks(inv, p):
                assert tb.is_positive_tensor(block)
