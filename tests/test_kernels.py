"""The array kernels against the dict loops they replaced, bit for bit.

``apply``, ``general_product``, the probe's Jacobian, the allowed block
ends and the structural operations (principal subtensors, permutations,
diagonal blocks, ``is_blocked``, the reducibility tests, the diagonal
predicates, the majorization and representation matrices) all read
``Tensor.coo``; each must reproduce the loop reference in ``_gen``
exactly, not just to a tolerance. The power iteration's step is the one
kernel that sums in plain float64, and it is held to a relative 1e-13.
Also pinned: the view a structural operation hands on to its result, the
read-only ``entries`` mapping and pickling.
"""
import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind
from triblock import product as product_module
from triblock.blocked import _block_ends, _forbidden
from triblock.core import Coo
from triblock.errors import NegativeEntry
from triblock.spectra import _SHIFT, _is_diagonal, _largest_row_sum, _oracle_jacobian, _power_step
from triblock.structure import _pattern

from _gen import (
    loop_apply,
    loop_block_ends,
    loop_diagonal_blocks,
    loop_from_dense,
    loop_is_blocked,
    loop_is_diagonal,
    loop_is_row_diagonal,
    loop_is_z_tensor,
    loop_jacobian,
    loop_majorization_matrix,
    loop_pattern,
    loop_permute_similar,
    loop_principal_subtensor,
    loop_product,
    loop_reduces,
    loop_representation_matrix,
    loop_row_diagonal_from_matrix,
    loop_z_split,
    rand_blocked,
    rand_permutation,
)


def value(rng: random.Random, integral: bool) -> float:
    if integral:
        return float(rng.choice([-7, -3, -2, -1, 1, 2, 3, 12]))
    return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 8)


def rand_entries(rng, order, dim, density, integral):
    keys = [idx for idx in itertools.product(range(1, dim + 1), repeat=order)
            if rng.random() < density]
    rng.shuffle(keys)  # dict order differs from row order
    return {idx: value(rng, integral) for idx in keys}


def rand_tensor(rng, order, dim, density, integral):
    return tb.Tensor(order, dim, rand_entries(rng, order, dim, density, integral))


def rand_vector(rng, dim, kind):
    if kind == "real":
        return [rng.uniform(-2, 2) * 10.0 ** rng.uniform(-4, 4) for _ in range(dim)]
    if kind == "int":
        return [rng.choice([1, -1]) * rng.randint(0, 2 ** 60) for _ in range(dim)]
    if kind == "complex":
        return [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dim)]
    if kind == "numpy complex":
        return list(np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]))
    return [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if rng.random() < 0.5
            else rng.uniform(-2, 2) for _ in range(dim)]  # mixed


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def bits(entries) -> dict:
    return {idx: v.hex() for idx, v in entries.items()}


def ensemble(seed, trials):
    rng = random.Random(seed)
    for trial in range(trials):
        yield rng, trial % 2 == 0, rng.choice([0.0, 0.15, 0.5, 1.0])


class TestApply:
    @pytest.mark.parametrize("kind", ["real", "int", "complex", "numpy complex", "mixed"])
    def test_matches_loop(self, kind):
        for rng, integral, density in ensemble(401, 40):
            order, dim = rng.randint(2, 4), rng.randint(1, 6)
            t = rand_tensor(rng, order, dim, density, integral)
            x = rand_vector(rng, dim, kind)
            assert same_bits(tb.apply(t, x), loop_apply(t, x))

    def test_empty_tensor(self):
        t = tb.Tensor(3, 4, {})
        assert same_bits(tb.apply(t, [1.0] * 4), np.zeros(4))
        assert same_bits(tb.apply(t, [1j] * 4), np.zeros(4, dtype=complex))


class TestPowerStep:
    def test_matches_loop_apply_plus_shift(self):
        # nonnegative terms: float64 sums agree with fsum to a few ulps per component
        for rng, integral, density in ensemble(415, 60):
            order, dim = rng.randint(2, 4), rng.randint(1, 6)
            t = tb.Tensor(order, dim, {idx: abs(v) for idx, v in
                                       rand_entries(rng, order, dim, density, integral).items()})
            x = np.abs(rand_vector(rng, dim, "real"))
            scale = _largest_row_sum(t) or 1.0
            want = loop_apply(t, x) / scale + _SHIFT * x ** (order - 1)
            np.testing.assert_allclose(_power_step(t, scale)(x), want, rtol=1e-13, atol=0)


class TestGeneralProduct:
    def test_matches_loop(self):
        for rng, integral, density in ensemble(402, 80):
            m, k = rng.randint(2, 4), rng.randint(1, 3)
            dim = rng.randint(1, 6 if m == 2 else 4 if m + k <= 5 else 3)
            a = rand_tensor(rng, m, dim, density, integral)
            b = rand_tensor(rng, k, dim, rng.choice([0.0, 0.3, 0.8]), integral)
            c = tb.general_product(a, b)
            assert c.order == (m - 1) * (k - 1) + 1
            assert bits(c.entries) == bits(loop_product(a, b))

    def test_integral_sums_past_two_to_53_take_fsum(self):
        # float64 addition of these odd and even integers near 2^50 rounds
        # once partial sums pass 2^53, in whatever order it adds them
        rng = random.Random(409)
        n = 16
        a = tb.Tensor(2, n, {(i, t): float(2 ** 50 + rng.randint(1, 999))
                             for i in range(1, n + 1) for t in range(1, n + 1)})
        b = tb.Tensor(2, n, {(t, 1): 1.0 for t in range(1, n + 1)})
        rows = [[a.get((i, t)) for t in range(1, n + 1)] for i in range(1, n + 1)]
        assert any(sum(row) != math.fsum(row) for row in rows)
        assert bits(tb.general_product(a, b).entries) == bits(loop_product(a, b))

    def test_integral_products_stay_exact(self):
        rng = random.Random(403)
        for _ in range(8):
            cube = list(itertools.product(range(1, 4), repeat=3))
            a = tb.Tensor(3, 3, {idx: float(rng.randint(2 ** 20, 2 ** 26)) for idx in cube})
            b = tb.Tensor(3, 3, {idx: rng.choice([-1.0, 1.0]) * rng.randint(2 ** 20, 2 ** 26)
                                 for idx in cube})
            assert bits(tb.general_product(a, b).entries) == bits(loop_product(a, b))

    def test_rows_larger_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(product_module, "_CHUNK", 5)
        for rng, integral, density in ensemble(404, 8):
            a = rand_tensor(rng, 3, 4, max(density, 0.3), integral)
            b = rand_tensor(rng, 3, 4, 0.5, integral)
            assert bits(tb.general_product(a, b).entries) == bits(loop_product(a, b))

    def test_codes_past_int64(self):
        # 90^10 > 2^64 output coordinates: codes must be re-ranked before they
        # wrap, and the kernel's lexicographic output order shows if they did
        rng = random.Random(405)
        n = 90

        def sparse(count):
            keys = {tuple(rng.randint(1, n) for _ in range(4)) for _ in range(count)}
            return tb.Tensor(4, n, {idx: value(rng, False) for idx in keys})

        a, b = sparse(60), sparse(240)
        c = tb.general_product(a, b)
        assert c.order == 10 and c.nnz > 0
        assert list(c.entries) == sorted(c.entries)
        assert bits(c.entries) == bits(loop_product(a, b))

    def test_fold_reranks_near_the_int64_bound(self):
        code = np.array([2 ** 62 + 1, 7, 2 ** 62, 7])
        folded, top = product_module._fold(code, 2 ** 62 + 2, np.array([1, 0, 3, 2]), 4)
        assert folded.tolist() == [2 * 4 + 1, 0 * 4 + 0, 1 * 4 + 3, 0 * 4 + 2]
        assert top == 3 * 4

class TestOracleJacobian:
    def test_matches_loop(self):
        for rng, integral, density in ensemble(406, 40):
            order, dim = rng.randint(2, 4), rng.randint(1, 6)
            t = rand_tensor(rng, order, dim, density, integral)
            z = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)])
            assert same_bits(_oracle_jacobian(t)(z), loop_jacobian(t, z))


def structured(seed, trials):
    """Random tensors with shuffled dict order, every other one blocked."""
    rng = random.Random(seed)
    for trial in range(trials):
        if trial % 2:
            t = rand_tensor(rng, rng.randint(2, 4), rng.randint(1, 6),
                            rng.choice([0.02, 0.1, 0.3]), True)
        else:
            parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
            t = rand_blocked(rng, parts, rng.choice(list(BlockKind)), rng.randint(2, 3))
            keys = list(t.entries)
            rng.shuffle(keys)
            t = tb.Tensor(t.order, t.dim, {idx: t.entries[idx] for idx in keys})
        yield rng, t


def rand_partition(rng, n):
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    ends = [0] + cuts + [n]
    return tb.Partition(tuple(b - a for a, b in zip(ends, ends[1:])))


def same_view(got: Coo, want: Coo) -> bool:
    return (same_bits(got.idx, want.idx) and got.idx.shape == want.idx.shape
            and same_bits(got.vals, want.vals) and got.bounds == want.bounds)


def same_tensor(got: tb.Tensor, want: tb.Tensor) -> bool:
    """Equal entries, bit for bit, and the same view."""
    return ((got.order, got.dim) == (want.order, want.dim)
            and bits(got.entries) == bits(want.entries) and same_view(got.coo, want.coo))


def sparse_ends_cases(seed):
    """Sparse tensors of dims 15-40, plain and blocked, and the edge cases."""
    rng = random.Random(seed)
    yield tb.Tensor(3, 5, {})
    yield tb.Tensor(2, 1, {})
    yield tb.Tensor(3, 1, {(1, 1, 1): 2.0})
    yield tb.unit_tensor(3, 7)
    for n in (15, 22, 31, 40):
        m, p, kind = rng.randint(2, 4), rand_partition(rng, n), rng.choice(list(BlockKind))
        keys = list(dict.fromkeys(tuple(rng.randint(1, n) for _ in range(m))
                                  for _ in range(3 * n)))
        yield tb.Tensor(m, n, {idx: 1.0 for idx in keys})
        yield tb.Tensor(m, n, {idx: 1.0 for idx in keys
                               if not _forbidden(kind, p.S(p.block_of(idx[0]) - 1),
                                                 p.S(p.block_of(idx[0])), min(idx[1:]),
                                                 max(idx[1:]))})


class TestBlockEnds:
    def test_matches_loop(self):
        cases = [t for _, t in structured(407, 40)] + list(sparse_ends_cases(408))
        for trial, t in enumerate(cases):
            want = [loop_block_ends(t, kind) for kind in BlockKind]
            assert list(_block_ends(t, tuple(BlockKind))) == want, trial


class TestStructuralOps:
    def test_subtensors_permutations_and_blocks(self):
        for rng, t in structured(410, 60):
            members = rng.sample(range(1, t.dim + 1), rng.randint(1, t.dim))
            assert same_tensor(tb.principal_subtensor(t, members),
                               loop_principal_subtensor(t, members))
            sigma = rand_permutation(rng, t.dim)
            assert same_tensor(tb.permute_similar(t, sigma), loop_permute_similar(t, sigma))
            p = rand_partition(rng, t.dim)
            got, want = tb.diagonal_blocks(t, p), loop_diagonal_blocks(t, p)
            assert len(got) == len(want) and all(map(same_tensor, got, want))

    def test_from_dense_and_row_diagonal(self):
        for rng, t in structured(411, 30):
            arr = t.to_dense()
            matrix = arr.reshape(t.dim, -1)[:, :t.dim]
            for got, want in [(tb.Tensor.from_dense(arr), loop_from_dense(arr)),
                              (tb.row_diagonal_from_matrix(matrix, t.order),
                               loop_row_diagonal_from_matrix(matrix, t.order))]:
                assert same_tensor(got, want) and list(got.entries) == list(want.entries)

    def test_is_blocked(self):
        for rng, t in structured(412, 60):
            for kind in BlockKind:
                p = rand_partition(rng, t.dim)
                if t.dim < 2 or (kind.is_triangular and p.r < 2):
                    continue
                assert tb.is_blocked(t, p, kind) is loop_is_blocked(t, p, kind)

    def test_reducibility(self):
        for rng, t in structured(413, 60):
            members = frozenset(rng.sample(range(1, t.dim + 1), rng.randint(1, t.dim)))
            assert tb.strongly_reduces(t, members) is loop_reduces(t, members, weak=False)
            assert tb.weakly_reduces(t, members) is loop_reduces(t, members, weak=True)
            assert _pattern(t) == loop_pattern(t)

    def test_representation_matrix(self):
        # non-integral values in shuffled dict order: a cell's sum shows its order
        for rng, integral, density in ensemble(416, 60):
            order, dim = rng.randint(2, 4), rng.randint(1, 6)
            t = rand_tensor(rng, order, dim, density, integral)
            assert same_bits(tb.representation_matrix(t), loop_representation_matrix(t))

    def test_diagonal_predicates_and_majorization(self):
        for rng, t in structured(414, 60):
            assert _is_diagonal(t) is loop_is_diagonal(t)
            assert tb.is_row_diagonal(t) is loop_is_row_diagonal(t)
            assert tb.is_z_tensor(t) is loop_is_z_tensor(t)
            assert same_bits(tb.majorization_matrix(t), loop_majorization_matrix(t))
            z = tb.Tensor(t.order, t.dim, {idx: v if len(set(idx)) == 1 else -abs(v)
                                           for idx, v in t.entries.items()})
            split, (s, b) = tb.z_split(z), loop_z_split(z)
            assert split.s.hex() == s.hex() and same_tensor(split.b, b)
        row_diag = tb.row_diagonal_from_matrix(np.array([[2.0, -1.0], [0.0, -3.0]]), 3)
        assert tb.is_row_diagonal(row_diag) and tb.is_z_tensor(row_diag)
        assert not _is_diagonal(row_diag)


class TestHandedOnView:
    """A structural operation hands its result a view; it must be the one
    ``Tensor.coo`` would build from the result's entries, and read-only."""

    @staticmethod
    def children(rng, t):
        yield tb.principal_subtensor(t, rng.sample(range(1, t.dim + 1), rng.randint(1, t.dim)))
        yield tb.permute_similar(t, rand_permutation(rng, t.dim))
        yield from tb.diagonal_blocks(t, rand_partition(rng, t.dim))
        yield tb.Tensor.from_dense(t.to_dense())
        yield tb.row_diagonal_from_matrix(tb.majorization_matrix(t), t.order)
        yield tb.z_split(tb.Tensor(t.order, t.dim, {idx: -abs(v) for idx, v in t.entries.items()
                                                    if len(set(idx)) > 1})).b

    def test_view_is_rebuilt_view(self):
        for rng, t in structured(415, 40):
            for child in self.children(rng, t):
                handed = child.__dict__["coo"]  # seeded, not built on first use
                assert same_view(handed, tb.Tensor(child.order, child.dim, child.entries).coo)
                assert handed.idx.dtype == np.int64 and handed.vals.dtype == np.float64
                assert not handed.idx.flags.writeable and not handed.vals.flags.writeable


class TestReadOnlyEntries:
    def test_entries_cannot_be_assigned(self):
        t = tb.unit_tensor(2, 2)
        with pytest.raises(TypeError):
            t.entries[(1, 2)] = 5.0

    def test_callers_dict_is_copied(self):
        data = {(1, 1): 2.0, (2, 1): 1.0}
        t = tb.Tensor(2, 2, data)
        before = tb.apply(t, [1.0, 3.0])
        data[(1, 2)] = 7.0
        del data[(2, 1)]
        assert same_bits(tb.apply(t, [1.0, 3.0]), before)
        assert dict(t.entries) == {(1, 1): 2.0, (2, 1): 1.0}

    @pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy])
    def test_round_trip(self, clone):
        t = tb.Tensor(3, 2, {(2, 1, 2): -1.5, (1, 2, 2): 4.0})
        t.coo  # a built view does not travel
        back = clone(t)
        assert back == t and list(back.entries) == list(t.entries)
        assert same_bits(tb.apply(back, [0.5, 2.0]), tb.apply(t, [0.5, 2.0]))


class TestViewUsers:
    def test_dense_round_trip_keeps_c_order(self):
        arr = np.random.default_rng(408).normal(size=(3, 3, 3))
        arr[arr < 0] = 0.0
        t = tb.Tensor.from_dense(arr)
        assert list(t.entries) == [tuple(i + 1 for i in idx)
                                   for idx in np.ndindex(arr.shape) if arr[idx] != 0]
        assert same_bits(t.to_dense(), arr)

    def test_negative_entry_reported_in_dict_order(self):
        t = tb.Tensor(3, 2, {(2, 1, 1): -1.0, (1, 1, 1): -2.0, (1, 2, 2): 1.0})
        with pytest.raises(NegativeEntry, match=r"entry \(2, 1, 1\) is negative: -1.0"):
            tb.spectral_radius(t)
