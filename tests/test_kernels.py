"""The array kernels against the dict loops they replaced, bit for bit.

``apply``, ``general_product``, the probe's Jacobian, the allowed block
ends and the structural operations (principal subtensors, permutations,
diagonal blocks, ``is_blocked``, the reducibility tests, the diagonal
predicates, the majorization and representation matrices) all read
``Tensor.coo``; each must reproduce the loop reference in ``_gen``
exactly, not just to a tolerance. The power iteration's step is the one
kernel that sums in plain float64: the reference iteration's step in
``_gen`` is held to ``loop_apply`` plus the shift within a relative 1e-13,
and the batched radius to that reference bit for bit.
Also pinned: the view a structural operation hands on to its result, the
read-only ``entries`` mapping and pickling. The incremental peel behind
``normal_form_2nd``, ``find_weakly_reducing_set`` and
``exists_first_type_normal_form`` must give what the loop that rebuilt
the digraph for every sink gave, and stay near-linear at scale.
``connected_components`` must give what the union-find it replaced gave,
its labelling kernel must take a logarithmic number of hook rounds, and
the peel of a pattern whose edges all go both ways must give Tarjan's
sinks in order of their least index. ``Tensor.get`` and the bulk index
check must answer as the mapping and the component loop did.
"""
import copy
import itertools
import math
import pickle
import random
import time
import tracemalloc
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind
from triblock import product as product_module
from triblock import core, spectra, structure, tensorio
from triblock.blocked import _block_ends, _forbidden
from triblock.core import Coo
from triblock.errors import NegativeEntry, OrderTooSmall, TriblockError
from triblock.spectra import (
    _SHIFT,
    _block_radii,
    _is_diagonal,
    _largest_row_sum,
    _oracle_jacobian,
)
from triblock.structure import _components, _pattern

from _gen import (
    _power_step,
    loop_allclose,
    loop_apply,
    loop_block_ends,
    loop_diagonal_blocks,
    loop_find_weakly_reducing_set,
    loop_first_type,
    loop_connected_components,
    loop_from_dense,
    loop_index_set,
    loop_is_blocked,
    loop_is_diagonal,
    loop_is_row_diagonal,
    loop_is_z_tensor,
    loop_jacobian,
    loop_majorization_matrix,
    loop_normal_form_2nd,
    loop_pattern,
    loop_recover_right_form,
    loop_right_k_inverse,
    loop_permute_similar,
    loop_principal_subtensor,
    loop_product,
    loop_reduces,
    loop_representation_matrix,
    loop_row_diagonal_from_matrix,
    loop_spectral_radius,
    loop_z_split,
    rand_blocked,
    rand_hypergraph,
    rand_permutation,
    rand_sparse,
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

    @pytest.mark.parametrize("chunk", [1, 1 << 14])
    def test_merged_sums_cancel(self, monkeypatch, chunk):
        # rows 1 and 2 of b agree, so a[i, 1, t] = -a[i, 2, t] cancels every partial term
        # (i, alpha, t) after the first slot: all of row 1 of a, part of row 2. Row 3's two
        # partial terms differ in their last foot and cancel in the last slot, and rows 1
        # and 4 of the matrix product cancel whole.
        monkeypatch.setattr(product_module, "_CHUNK", chunk)  # 1: each row a chunk of its own
        b = tb.Tensor(3, 4, {**{(j, s, t): float(s + 2 * t) for j in (1, 2)
                                for s in (1, 2, 4) for t in (1, 3)},
                             (3, 2, 2): 2.0, (4, 2, 2): -2.0})
        a = tb.Tensor(3, 4, {(1, 1, 3): 2.0, (1, 2, 3): -2.0, (1, 1, 1): 1.0, (1, 2, 1): -1.0,
                             (2, 1, 2): 3.0, (2, 2, 2): -3.0, (2, 3, 3): 1.0,
                             (3, 3, 3): 1.0, (3, 3, 4): 1.0, (4, 1, 1): 1.0})
        c = tb.general_product(a, b)
        assert bits(c.entries) == bits(loop_product(a, b))
        assert {idx[0] for idx in c.entries} == {2, 4}
        rows = tb.Tensor(2, 4, {(1, 1): 1.0, (1, 2): -1.0, (2, 3): 1.0, (4, 1): 1.0, (4, 2): -1.0})
        c = tb.general_product(rows, b)
        assert bits(c.entries) == bits(loop_product(rows, b))
        assert {idx[0] for idx in c.entries} == {2}
        everything = tb.Tensor(2, 4, {(1, 1): 1.0, (1, 2): -1.0})
        assert tb.general_product(everything, b).entries == {}
        assert tb.general_product(a, tb.Tensor(3, 4, {})).nnz == 0

    def test_three_slots_with_cancellation(self):
        # order-4 left factors with values +-1, so partial terms often cancel in each slot
        rng = random.Random(416)
        for trial in range(60):
            k, dim = rng.randint(1, 3), rng.randint(1, 4)
            a = tb.Tensor(4, dim, {idx: rng.choice([-1.0, 1.0]) for idx in
                                   itertools.product(range(1, dim + 1), repeat=4)
                                   if rng.random() < 0.6})
            b = tb.Tensor(k, dim, {idx: rng.choice([-1.0, 1.0, 2.0]) for idx in
                                   itertools.product(range(1, dim + 1), repeat=k)
                                   if rng.random() < 0.7})
            if trial % 3 == 0:  # and non-integral factors, which merge nothing early
                b = tb.Tensor(k, dim, {idx: v / 3 for idx, v in b.entries.items()})
            c = tb.general_product(a, b)
            assert c.order == 3 * (k - 1) + 1
            assert bits(c.entries) == bits(loop_product(a, b))

    def test_feet_on_empty_rows_of_b(self, monkeypatch):
        rng = random.Random(417)
        for chunk in (1 << 14, 7):
            monkeypatch.setattr(product_module, "_CHUNK", chunk)
            for _, integral, density in ensemble(418, 30):
                m, k, dim = rng.randint(2, 4), rng.randint(1, 3), rng.randint(2, 4)
                a = rand_tensor(rng, m, dim, max(density, 0.5), integral)
                empty = set(rng.sample(range(1, dim + 1), rng.randint(1, dim - 1)))
                b = tb.Tensor(k, dim, {idx: v for idx, v in
                                       rand_entries(rng, k, dim, 0.6, integral).items()
                                       if idx[0] not in empty})
                assert bits(tb.general_product(a, b).entries) == bits(loop_product(a, b))

    def test_sum_past_two_to_53_only_after_the_first_slot(self):
        # a[i, j1, j2] with j1 on rows of b holding 1 and j2 on rows holding 2^50 + odd:
        # every sum after the first slot is 3, but the last slot's sums pass 2^53, where
        # adding the merged partial terms in order rounds away from their exact sum
        rng = random.Random(419)
        n, small, large = 8, (1, 2, 3), (4, 5, 6, 7, 8)
        b = tb.Tensor(2, n, {**{(s, 1): 1.0 for s in small},
                             **{(t, 1): float(2 ** 50 + 2 * rng.randint(0, 999) + 1)
                                for t in large}})
        feet = {i: sorted(rng.sample(large, rng.randint(3, 5))) for i in range(1, n + 1)}
        a = tb.Tensor(3, n, {(i, s, t): 1.0 for i in feet for s in small for t in feet[i]})
        merged = {i: [3.0 * b.get((t, 1)) for t in feet[i]] for i in feet}
        assert any(sum(row) != math.fsum(row) for row in merged.values())
        c = tb.general_product(a, b)
        assert c.entries == {(i, 1, 1): math.fsum(row) for i, row in merged.items()}
        assert bits(c.entries) == bits(loop_product(a, b))

    def test_dense_integral_dim_eight_is_fast(self):
        # 512 x 64 x 64 terms one by one; after the first slot's merge, 32k + 262k
        rng = np.random.default_rng(3)
        a, b = (tb.Tensor.from_dense(rng.integers(1, 10, (8,) * 3).astype(float))
                for _ in range(2))
        a.coo, b.coo
        times = []
        for _ in range(3):
            start = time.perf_counter()
            tb.general_product(a, b)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1

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
            and same_bits(got.vals, want.vals))


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
        for integral in (True, False):
            k = rng.randint(1, 2 if t.order == 4 else 3)
            yield tb.general_product(t, rand_tensor(rng, k, t.dim, 0.5, integral))
        yield tb.adjacency_tensor(rand_hypergraph(rng, t.order, [t.dim, rng.randint(1, 5)]))

    def test_view_is_rebuilt_view(self):
        for rng, t in structured(415, 40):
            for child in self.children(rng, t):
                handed = child.__dict__["coo"]  # seeded, not built on first use
                assert same_view(handed, tb.Tensor(child.order, child.dim, child.entries).coo)
                assert handed.idx.dtype == np.int64 and handed.vals.dtype == np.float64
                assert not handed.idx.flags.writeable and not handed.vals.flags.writeable


def det_outcome(t: tb.Tensor, partition: tb.Partition, kind: BlockKind):
    try:
        return tb.det_blocked(t, partition, kind)
    except TriblockError as exc:
        return type(exc), str(exc)


class TestMappingConstructor:
    """``Tensor(order, dim, mapping)`` checks its mapping at once and keeps the view that
    ``new_tensor`` keeps for the same pairs: exact zeros dropped."""

    def test_explicit_zero_is_dropped(self):
        entries = {(2, 1): 0.0, (1, 1): 1.0, (2, 2): 1.0}
        utb1 = (tb.Partition((1, 1)), BlockKind.UTB1)
        t, want = tb.Tensor(2, 2, entries), tb.new_tensor(2, 2, entries.items())
        assert t.nnz == want.nnz == 2 and same_view(t.coo, want.coo)
        for x in (t, want):
            assert tb.is_blocked(x, *utb1) and tb.det_blocked(x, *utb1) == 1.0

    def test_seeded_mappings_with_zeros_match_new_tensor(self):
        rng = random.Random(446)
        hidden = 0  # mappings whose zeros alone break the structure
        for _ in range(150):
            parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
            kind, m = rng.choice(list(BlockKind)), rng.randint(2, 3)
            partition = tb.Partition(parts)
            entries = dict(rand_blocked(rng, parts, kind, m).entries)
            zeros = [idx for idx in itertools.product(range(1, partition.n + 1), repeat=m)
                     if idx not in entries and rng.random() < 0.2]
            entries.update(dict.fromkeys(zeros, 0.0))
            keys = list(entries)
            rng.shuffle(keys)
            mapping = {idx: entries[idx] for idx in keys}
            t, want = tb.Tensor(m, partition.n, mapping), tb.new_tensor(m, partition.n,
                                                                        mapping.items())
            assert t.nnz == want.nnz and same_view(t.coo, want.coo)
            assert tb.is_blocked(t, partition, kind) and tb.is_blocked(want, partition, kind)
            for cut in (partition, tb.Partition((1,) * partition.n)):
                assert det_outcome(t, cut, kind) == det_outcome(want, cut, kind)
            ones = tb.new_tensor(m, partition.n, [(idx, 1.0) for idx in zeros])
            hidden += not tb.is_blocked(ones, partition, kind)
        assert hidden > 30, hidden

    def test_order_refused_as_new_tensor_refuses_it(self):
        for order, dim, entries, message in [(0, 2, {}, r"^order must be >= 1, got 0$"),
                                             (True, 1, {(1,): 1.0},
                                              r"^order must be an integer, got True$")]:
            with pytest.raises(OrderTooSmall, match=message):
                tb.new_tensor(order, dim, entries.items())
            with pytest.raises(OrderTooSmall, match=message):
                tb.Tensor(order, dim, entries)
        for order in (True, 2.0):
            with pytest.raises(OrderTooSmall, match=rf"^order must be an integer, got {order}$"):
                tb.diagonal_tensor(order, [1.0])


class TestViewOnlyStorage:
    """Every tensor keeps only its view; its entries mapping is built on first read, which
    none of the constructors, kernels and protocols below does."""

    @staticmethod
    def built(rng):
        dense = np.array([[[rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(4)]
                           for _ in range(4)] for _ in range(4)])
        t = tb.Tensor.from_dense(dense)
        yield t
        yield tb.new_tensor(3, 4, [((2, 1, 3), 1.5), ((1, 4, 4), 2.0), ((2, 2, 2), 0.0)])
        yield tb.Tensor(3, 4, {(2, 1, 3): 1.5, (1, 4, 4): 2.0, (2, 2, 2): 0.0})
        yield tb.diagonal_tensor(3, [1.0, 0.0, 2.0, 0.5])
        yield tb.row_diagonal_from_matrix(dense[:, :, 0], 3)
        yield tensorio.loads_tensor(tensorio.dumps_tensor(t))  # the canonical reader
        yield tensorio.loads_tensor(tensorio.dumps_tensor(t).replace(", ", ","))  # the general one
        yield tb.principal_subtensor(t, [1, 3, 4])
        yield tb.permute_similar(t, tb.Permutation((3, 1, 4, 2)))
        yield from tb.diagonal_blocks(t, tb.Partition((1, 3)))
        yield tb.general_product(t, tb.Tensor.from_dense(dense[:, :, 0]))
        shift = 9.0 * np.eye(4)[:, :, None] * np.eye(4)  # 9 at (i, i, i)
        yield tb.z_split(tb.Tensor.from_dense(shift - dense)).b
        yield tb.adjacency_tensor(tb.Hypergraph.from_edge_lists(3, 4, [[1, 2, 3], [2, 3, 4]]))
        yield tb.unit_tensor(3, 4)
        yield pickle.loads(pickle.dumps(t))
        yield copy.deepcopy(t)

    def test_constructors_and_kernels_leave_the_mapping_unbuilt(self):
        assert Coo._fields == ("idx", "vals")  # sized by the entries alone
        rng = random.Random(442)
        for t in self.built(rng):
            assert set(t.__dict__) == {"order", "dim", "coo"}, t
            assert (t.coo.vals > 0).all()  # every kernel below runs
            tb.apply(t, [1.0] * t.dim)
            tb.spectral_radius(t)
            if t.dim > 1:
                tb.is_blocked(t, tb.Partition((1, t.dim - 1)), BlockKind.UTB1)
                tb.diagonal_blocks(t, tb.Partition((1, t.dim - 1)))
            tensorio.dumps_tensor(t)
            tensorio.tensor_to_obj(t)
            t.get((1.0,) * t.order)
            tb.verify_inverse(t, t, "left")
            assert "entries" not in t.__dict__, t
            before = t.nnz
            assert len(t.entries) == before and "entries" in t.__dict__  # built on first read
            assert t.entries is t.entries and t == tb.Tensor(t.order, t.dim, dict(t.entries))

    def test_equality_pickle_and_deepcopy_leave_the_mapping_unbuilt(self):
        rng = random.Random(445)
        for t in self.built(rng):
            doubled = core._from_arrays(t.order, t.dim, t.coo.idx, 2.0 * t.coo.vals)
            copies = [pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)]
            assert all(c == t and same_view(c.coo, t.coo) for c in copies)
            assert t != doubled and t != tb.Tensor(t.order + 1, t.dim, {})
            for x in (t, doubled, *copies):
                assert set(x.__dict__) == {"order", "dim", "coo"}, x

    def test_entries_follow_the_view(self):
        # rows ascending, the given order within a row
        t = tb.Tensor(2, 3, {(3, 1): 1.0, (1, 3): 2.0, (3, 3): 0.0, (1, 1): 3.0, (2, 2): 4.0})
        assert list(t.entries.items()) == [((1, 3), 2.0), ((1, 1), 3.0), ((2, 2), 4.0),
                                           ((3, 1), 1.0)]

    def test_from_dense_retains_the_arrays_only(self):
        # 64,000 entries: 1.5 MB of indices and 0.5 MB of values; a dict of tuples beside
        # them took another 9.8 MB
        arr = np.random.default_rng(443).uniform(0.5, 1.0, (40, 40, 40))
        tracemalloc.start()
        try:
            t = tb.Tensor.from_dense(arr)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.nnz == 64_000 and retained < 4_000_000, retained

    def test_permute_similar_retains_the_view_only(self):
        # the swap (1 2) takes the rows out of order; the row sort's permutation (8 bytes an
        # entry, 512,000 bytes here) is not kept beside the view
        t = tb.Tensor.from_dense(np.random.default_rng(447).uniform(0.5, 1.0, (40, 40, 40)))
        swap = tb.Permutation((2, 1) + tuple(range(3, 41)))
        tracemalloc.start()
        try:
            p = tb.permute_similar(t, swap)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        view = p.coo.idx.nbytes + p.coo.vals.nbytes  # 2,048,000 bytes
        assert retained < view + 64_000, (retained, view)


class TestViewReaders:
    """``allclose`` and ``recover_right_form`` read the views: their results and messages
    are those of the dict loops. ``right_k_inverse`` builds the row-diagonal tensor of Q^-1:
    its view is that of the product it replaced."""

    def test_allclose(self):
        for rng, integral, density in ensemble(444, 80):
            order, dim = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_tensor(rng, order, dim, density, integral)
            entries = dict(a.entries)
            for key in rng.sample(sorted(entries), min(2, len(entries))):
                entries[key] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.randint(-14, 2)
            for key in rng.sample(sorted(entries), min(1, len(entries))):
                del entries[key]
            entries[tuple(rng.randint(1, dim) for _ in range(order))] = value(rng, integral)
            b = tb.new_tensor(order, dim, list(entries.items()))
            for tol in (0.0, 1e-12, 1e-6, 0.5, 20.0, math.inf):
                assert a.allclose(b, tol) == loop_allclose(a, b, tol)
                assert b.allclose(a, tol) == loop_allclose(b, a, tol)
            assert a.allclose(a) and not a.allclose(tb.unit_tensor(order + 1, dim), math.inf)

    def test_recover_right_form(self):
        """Unit-times-Q tensors with integral, dyadic or Gaussian Q, singular ones included,
        and perturbed copies that are not right forms; the right k-inverse for k = 2-4."""
        rng = random.Random(445)

        def outcome(fn, *args):
            try:
                got = fn(*args)
            except TriblockError as exc:
                return type(exc), str(exc)
            if isinstance(got, tb.Tensor):
                view = got.coo
                return got.order, got.dim, view.idx.shape, view.idx.tobytes(), view.vals.tobytes()
            return got.q.tobytes(), got.sign_profile

        cells = [lambda: rng.choice([0, 0, 1, -1, 2, -3, 0.5]),
                 lambda: rng.choice([0, 0, 0.5, -0.25, 1.5, -2, 0.125]),
                 lambda: rng.gauss(0.0, 1.0) if rng.random() < 0.7 else 0.0]
        for trial in range(600):
            m, n = rng.randint(2, 5), rng.randint(1, 4 if trial < 300 else 5)
            cell = cells[0 if trial < 300 else 1 + trial % 2]
            q = np.array([[cell() for _ in range(n)] for _ in range(n)], dtype=float)
            entries = dict(tb.general_product(tb.unit_tensor(m, n), tb.tensor_from_matrix(q))
                           .entries)
            for _ in range(rng.choice([0, 0, 1, 2])):
                key = tuple(rng.randint(1, n) for _ in range(m))
                entries[key] = rng.choice([-1.0, 1.0 + 1e-9, 0.0]) * entries.get(key, 1.0)
            t = tb.new_tensor(m, n, list(entries.items()))
            assert outcome(tb.recover_right_form, t) == outcome(loop_recover_right_form, t)
            for k in (2, 3, 4):
                assert outcome(tb.right_k_inverse, t, k) == outcome(loop_right_k_inverse, t, k)


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
        # the first offender in view order (rows ascending), not in the mapping's order
        t = tb.Tensor(3, 2, {(2, 1, 1): -1.0, (1, 1, 1): -2.0, (1, 2, 2): 1.0})
        with pytest.raises(NegativeEntry, match=r"^entry \(1, 1, 1\) is negative: -2.0$"):
            tb.spectral_radius(t)


def same_peel(t: tb.Tensor) -> bool:
    nf = tb.normal_form_2nd(t)
    return ((nf.sigma.image, nf.partition.parts) == loop_normal_form_2nd(t)
            and tb.find_weakly_reducing_set(t) == loop_find_weakly_reducing_set(t)
            and tb.exists_first_type_normal_form(t) == loop_first_type(t))


class TestPeel:
    def test_matches_loop_on_random_tensors(self):
        rng = random.Random(420)
        for trial in range(300):
            t = rand_sparse(rng, rng.randint(2, 4), rng.randint(1, 40))
            assert same_peel(t), (trial, dict(t.entries))

    def test_matches_loop_on_upper_biased_patterns(self):
        rng = random.Random(421)
        blocks = 0
        for trial in range(300):
            t = rand_sparse(rng, rng.randint(2, 4), rng.randint(1, 40), upper=0.85)
            assert same_peel(t), (trial, dict(t.entries))
            blocks += tb.normal_form_2nd(t).partition.r
        assert blocks > 300 * 5  # the peels are long, not one block each

    def test_matches_loop_on_split_hypergraphs(self):
        rng = random.Random(422)
        for _ in range(40):
            groups = [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
            graph = rand_hypergraph(rng, rng.randint(2, 4), groups, edges_per_group=4)
            assert same_peel(tb.adjacency_tensor(graph))

    def test_peel_drops_entries_that_mention_the_sink(self):
        # {1, 2} is one component until {3} is peeled and takes a_123 with it
        t = tb.new_tensor(3, 3, [((1, 2, 3), 1.0), ((2, 1, 1), 1.0), ((3, 3, 3), 1.0)])
        assert same_peel(t)
        assert tb.find_weakly_reducing_set(t) == frozenset({3})
        assert tb.normal_form_2nd(t).partition.parts == (1, 1, 1)
        assert tb.exists_first_type_normal_form(t) is None

    def test_no_reversed_edges_after_the_last_sink(self, monkeypatch):
        built = []
        real = structure._successors
        monkeypatch.setattr(structure, "_successors", lambda *a: built.append(a) or real(*a))
        cycle = tb.new_tensor(3, 3, [((1, 2, 2), 1.0), ((2, 3, 3), 1.0), ((3, 1, 1), 1.0)])
        assert list(structure._peel(cycle)) == [frozenset({1, 2, 3})] and len(built) == 1

    def test_empty_tensor(self):
        t = tb.Tensor(3, 4, {})
        assert same_peel(t)
        assert tb.normal_form_2nd(t).partition.parts == (1, 1, 1, 1)


def timed(fn, *args):
    """(seconds taken, result) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class TestPeelScale:
    """Wide bounds: the loop that rebuilt the digraph for every sink took about
    a minute on the chain and 6 s on the pairs, and the search 6 s on the path."""

    def test_chain(self):
        # a_iii and a_{i,i+1,i+1}: every index is its own block, peeled from the end
        n = 2000
        chain = tb.new_tensor(3, n, [((i, i, i), 1.0) for i in range(1, n + 1)]
                              + [((i, i + 1, i + 1), 1.0) for i in range(1, n)])
        seconds, nf = timed(tb.normal_form_2nd, chain)
        assert seconds < 3.0 and nf.partition.r == n
        seconds, rho = timed(tb.spectral_radius, chain)
        assert seconds < 3.0 and rho.rho == 1.0

    def test_components_on_a_long_path(self):
        n = 20000
        succ = [set()] + [{v + 1} for v in range(1, n)] + [set()]
        seconds, comps = timed(_components, succ, range(1, n + 1))
        assert seconds < 1.0 and len(comps) == n

    def test_first_type_with_many_two_vertex_components(self):
        k = 2000
        entries = [((2 * i - 1, 2 * i, 2 * i), 1.0) for i in range(1, k + 1)]
        entries += [((2 * i, 2 * i - 1, 2 * i - 1), 1.0) for i in range(1, k + 1)]
        entries += [((2 * i, 2 * i + 1, 2 * i + 1), 1.0) for i in range(1, k)]
        pairs = tb.new_tensor(3, 2 * k, entries)
        seconds, (sigma, p) = timed(tb.exists_first_type_normal_form, pairs)
        assert seconds < 3.0
        assert sigma == tb.Permutation.identity(2 * k) and p.parts == (2,) * k


def rand_block_triangular(rng: random.Random, m: int, n: int) -> tb.Tensor:
    """A nonnegative tensor on shuffled indices that fall into blocks of dims 1-8.

    A block of dim >= 2 carries a weighted cycle through its indices plus
    random entries among them, so it is weakly irreducible; about a third
    reuse the entries of an earlier block of their dim, so their radii tie
    bit for bit. A dim-1 block has its diagonal entry or none. Every
    other entry reaches from a block into a later one.
    """
    perm, groups, templates = rng.sample(range(1, n + 1), n), [], {}
    while len(perm) > sum(map(len, groups)):
        start = sum(map(len, groups))
        groups.append(sorted(perm[start:start + rng.choice([1, 1, 2, 3, 4, 6, 8])]))
    entries = {}
    for g in groups:
        d = len(g)
        if d == 1:
            if rng.random() < 0.5:
                entries[(g[0],) * m] = rng.choice([0.5, 1.0, 2.0, 7.0])
            continue
        if d not in templates or rng.random() < 0.7:
            cycle = [((i,) + (i % d + 1,) * (m - 1), rng.uniform(0.5, 2.0))
                     for i in range(1, d + 1)]
            extra = [(tuple(rng.randint(1, d) for _ in range(m)), rng.choice([0.25, 1.0, 3.0]))
                     for _ in range(rng.randint(0, 2 * d))]
            templates[d] = cycle + extra
        for local, w in templates[d]:
            entries.setdefault(tuple(g[i - 1] for i in local), w)
    for _ in range(rng.randint(0, 2 * n)):
        j = rng.randrange(len(groups) - 1) if len(groups) > 1 else 0
        later = [v for g in groups[j + 1:] for v in g] or groups[j]
        feet = (rng.choice(later),) + tuple(rng.choice(later + groups[j]) for _ in range(m - 2))
        entries.setdefault((rng.choice(groups[j]),) + feet, rng.uniform(0.1, 3.0))
    keys = list(entries)
    if rng.random() < 0.5:  # dict order differs from row order
        rng.shuffle(keys)
    return tb.Tensor(m, n, {idx: entries[idx] for idx in keys})


def radius_outcome(fn, *args, **kwargs):
    """Every field of a radius result, or of the error raised, bit for bit."""
    try:
        r = fn(*args, **kwargs)
    except tb.errors.TriblockError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "lower", None),
                getattr(exc, "upper", None), getattr(exc, "iterations", None))
    return (r.rho.hex(), None if r.eigvec is None else r.eigvec.tobytes(), r.iterations,
            r.residual.hex())


class TestBlockRadii:
    """``spectral_radius`` reads its blocks off one peel and runs them in one batched
    iteration; every field must be what the SCC test and the ``normal_form_2nd`` blocks,
    taken one by one, gave."""

    def test_matches_loop_on_block_triangular_tensors(self):
        rng = random.Random(430)
        seen = set()
        for trial in range(300):
            t = rand_block_triangular(rng, rng.randint(2, 4), rng.randint(1, 40))
            for max_iter in (10000, rng.choice([1, 3, 10, 30])):
                got = radius_outcome(tb.spectral_radius, t, max_iter=max_iter)
                assert got == radius_outcome(loop_spectral_radius, t, max_iter=max_iter), trial
                seen.add(got[0] if len(got) == 5 else "ok")
        assert seen == {"ok", "NoConvergence"}

    def test_matches_loop_on_upper_biased_patterns(self):
        rng = random.Random(431)
        for trial in range(200):
            t = rand_sparse(rng, rng.randint(2, 4), rng.randint(1, 40), upper=0.85)
            t = tb.Tensor(t.order, t.dim, {idx: abs(v) for idx, v in t.entries.items()})
            for max_iter in (10000, 20):
                got = radius_outcome(tb.spectral_radius, t, max_iter=max_iter)
                assert got == radius_outcome(loop_spectral_radius, t, max_iter=max_iter), trial

    def test_tied_blocks_give_the_first(self):
        block = [((1, 2, 2), 1.0), ((2, 1, 1), 2.0), ((1, 1, 1), 0.5)]
        entries = [((i + 2 * k, j + 2 * k, l + 2 * k), v)
                   for k in range(3) for (i, j, l), v in block] + [((1, 3, 5), 1.0)]
        t = tb.new_tensor(3, 6, entries)
        got = tb.spectral_radius(t)
        assert radius_outcome(tb.spectral_radius, t) == radius_outcome(loop_spectral_radius, t)
        assert got.eigvec is None and got.iterations == 3 * tb.spectral_radius(
            tb.new_tensor(3, 2, block)).iterations

    def test_dim_one_blocks(self):
        # 1 -> 2 -> 3, a_111 = 2, no a_222, a_333 = 3: three dim-1 blocks, no iteration
        t = tb.new_tensor(3, 3, [((1, 1, 1), 2.0), ((1, 2, 2), 1.0), ((2, 3, 3), 5.0),
                                 ((3, 3, 3), 3.0)])
        assert tb.spectral_radius(t) == tb.SpectralResult(3.0, None, 0, 0.0)

    def test_first_open_block_raises(self):
        # a fast dense block before a slow cycle: the cycle is the block that fails
        cycle = [((4 + i, 4 + (i + 1) % 6, 4 + (i + 1) % 6), w)
                 for i, w in enumerate((1.0, 2.0, 3.0, 1.0, 5.0, 2.0))]
        dense = [((i, j, k), 1.0) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]
        t = tb.new_tensor(3, 9, dense + cycle + [((1, 4, 4), 1.0)])
        with pytest.raises(tb.errors.NoConvergence) as err:
            tb.spectral_radius(t, max_iter=50)
        assert radius_outcome(tb.spectral_radius, t, max_iter=50) == radius_outcome(
            loop_spectral_radius, t, max_iter=50)
        assert err.value.iterations == 50 and err.value.lower <= 60 ** (1 / 6) <= err.value.upper

    def test_hypergraph_components_in_one_call(self):
        rng = random.Random(432)
        for _ in range(30):
            groups = [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
            graph = rand_hypergraph(rng, rng.randint(2, 4), groups, edges_per_group=4)
            adjacency, comps = tb.adjacency_tensor(graph), tb.connected_components(graph)
            want = [radius_outcome(tb.spectral_radius, tb.principal_subtensor(adjacency, c))
                    for c in comps]
            rhos, steps, residuals, _ = _block_radii(adjacency, comps, 1e-10, 10000)
            got = zip(rhos.tolist(), steps.tolist(), residuals.tolist())
            assert [(rho.hex(), count, gap.hex()) for rho, count, gap in got] == [
                (w[0], w[2], w[3]) for w in want]

    def test_many_dim_one_blocks_beside_a_cycle(self):
        # a weighted 6-cycle and 19,994 dim-1 blocks, each linked into the cycle or into an
        # earlier one: the batch returns arrays, with no result object per block
        rng = random.Random(434)
        cycle = {(i, i % 6 + 1, i % 6 + 1): w
                 for i, w in enumerate((1.0, 2.0, 3.0, 1.0, 5.0, 2.0), start=1)}
        links = {(j, rng.randint(1, 6), rng.randint(1, j - 1)): 1.0 for j in range(7, 20001)}
        diagonal = {(j, j, j): rng.choice([0.5, 1.0, 1.5])
                    for j in range(7, 20001) if rng.random() < 0.5}
        t = tb.Tensor(3, 20000, {**cycle, **links, **diagonal})
        got = radius_outcome(tb.spectral_radius, t)
        assert got == radius_outcome(loop_spectral_radius, t)
        assert got[1] is None and got[2] == 216

    def test_converged_blocks_leave_the_loop(self, monkeypatch):
        # a dense dim-40 block (11 steps) linked to a weighted 6-cycle (216 steps): without
        # compaction every cycle step also multiplies the dense block's 64,000 entries; with
        # it, no step after the 11th does. Each step sums its terms by rows in one bincount.
        rng = np.random.default_rng(433)
        dense = {idx: rng.uniform(0.01, 1.0) for idx in itertools.product(range(1, 41), repeat=3)}
        cycle = {(41 + i, 41 + (i + 1) % 6, 41 + (i + 1) % 6): w
                 for i, w in enumerate((1.0, 2.0, 3.0, 1.0, 5.0, 2.0))}
        t = tb.Tensor(3, 46, {**dense, **cycle, (1, 41, 41): 1.0})
        want, fed = loop_spectral_radius(t), []

        class Counting:  # numpy as spectra sees it, recording the length each bincount sums
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def bincount(x, *args, **kwargs):
                fed.append(len(x))
                return np.bincount(x, *args, **kwargs)

        monkeypatch.setattr(spectra, "np", Counting())
        got = tb.spectral_radius(t)
        assert radius_outcome(lambda: got) == radius_outcome(lambda: want)
        assert got.iterations == 11 + 216
        # the row sums before the loop, then one bincount a step: the link entry is in neither
        assert fed == [64_000 + 6] * (1 + 11) + [6] * (216 - 11)


class CountingHooks:
    """numpy as ``structure`` sees it, counting the hook rounds (calls of ``np.minimum.at``)."""

    def __init__(self):
        self.hooks = 0
        self.minimum = types.SimpleNamespace(at=self.hook)

    def __getattr__(self, name):
        return getattr(np, name)

    def hook(self, *args):
        self.hooks += 1
        return np.minimum.at(*args)


def rand_graph(rng: random.Random) -> tb.Hypergraph:
    """A k-uniform hypergraph, k = 2-4, on up to 2,000 vertices: no edges, a few (most
    vertices isolated), or up to about one per vertex."""
    k, n = rng.randint(2, 4), rng.choice([1, 2, 3, 5, 8, 20, 100, 500, 2000])
    count = rng.choice([0, 1, 3, n // 4, n // 2, n]) if n >= k else 0
    edges = {frozenset(rng.sample(range(1, n + 1), k)) for _ in range(count)}
    return tb.Hypergraph(k, n, tuple(edges))


def hostile_shapes(n: int) -> dict[str, np.ndarray]:
    """Connected 0-based edge lists on [0, n) that slow a labelling that only hooks."""
    rng = np.random.default_rng(450)
    walk = rng.permutation(n)
    zigzag = np.stack((np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)), axis=1).ravel()
    heap = np.arange(1, n)  # node j under node (j - 1) // 2, labelled n - 1 - j
    return {
        "random path": np.stack((walk[:-1], walk[1:]), axis=1),
        "zigzag path": np.stack((zigzag[:-1], zigzag[1:]), axis=1),
        "reversed binary tree": np.stack((n - 1 - heap, n - 1 - (heap - 1) // 2), axis=1),
        "star": np.stack((np.full(n - 1, n - 1), np.arange(n - 1)), axis=1),
        "random cycle": np.stack((walk, np.roll(walk, 1)), axis=1),
    }


class TestLabels:
    """``connected_components`` labels the classes with ``structure._labels``; it must give
    what the union-find it replaced gave, in a logarithmic number of hook rounds."""

    def test_components_match_union_find(self):
        rng = random.Random(451)
        shapes = set()
        for trial in range(300):
            graph = rand_graph(rng)
            got = tb.connected_components(graph)
            assert got == loop_connected_components(graph), trial
            assert all(type(v) is int for comp in got for v in comp)
            shapes.add((graph.k, len(graph.edges) == 0, len(got) == graph.n))
        assert {k for k, _, _ in shapes} == {2, 3, 4} and (2, True, True) in shapes

    def test_components_of_split_hypergraphs(self):
        rng = random.Random(452)
        for _ in range(40):
            groups = [rng.randint(1, 50) for _ in range(rng.randint(1, 8))]
            graph = rand_hypergraph(rng, rng.randint(2, 4), groups, edges_per_group=30)
            assert tb.connected_components(graph) == loop_connected_components(graph)

    @pytest.mark.parametrize("shape", ["random path", "zigzag path", "reversed binary tree",
                                       "star", "random cycle"])
    def test_hook_rounds_on_hostile_shapes(self, shape, monkeypatch):
        n = 1 << 15
        pairs = hostile_shapes(n)[shape]
        counting = CountingHooks()
        monkeypatch.setattr(structure, "np", counting)
        label = structure._labels(pairs, n)
        assert (label == 0).all()
        assert 1 <= counting.hooks <= 2 * math.ceil(math.log2(n)) + 2, counting.hooks

    def test_two_interleaved_paths(self):
        # the even vertices in one random walk, the odd ones in another
        n = 1 << 12
        rng = np.random.default_rng(453)
        walks = [rng.permutation(np.arange(parity, n, 2)) for parity in (0, 1)]
        pairs = np.concatenate([np.stack((w[:-1], w[1:]), axis=1) for w in walks])
        assert (structure._labels(pairs, n) == np.arange(n) % 2).all()

    def test_no_pairs(self):
        assert structure._labels(np.zeros((0, 2), dtype=np.int64), 3).tolist() == [0, 1, 2]


def symmetrised(t: tb.Tensor) -> tb.Tensor:
    """The tensor with an entry (t, i, ..., i) beside each entry of row i mentioning t, so
    each edge of its entry digraph goes both ways."""
    entries = dict(t.entries)
    for idx in t.entries:
        for foot in idx[1:]:
            entries.setdefault((foot,) + (idx[0],) * (t.order - 1), 1.0)
    return tb.Tensor(t.order, t.dim, entries)


def symmetric_tensors(seed: int, count: int):
    """Symmetrised sparse tensors of orders 2-4 and dims 1-40 whose entries mention only
    some of the indices."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(2, 4), rng.randint(1, 40)
        used = rng.sample(range(1, n + 1), rng.randint(1, n))
        entries = {tuple(rng.choice(used) for _ in range(m)): rng.choice([0.5, 1.0, 2.0])
                   for _ in range(rng.randint(0, 2 * len(used)))}
        yield symmetrised(tb.Tensor(m, n, entries))


class TestSymmetricPeel:
    """Where every edge of the entry digraph goes both ways, ``_peel`` gives the classes
    of the undirected graph in order of their least index, without the Tarjan search."""

    def test_matches_tarjan_sinks(self):
        singletons = 0
        for trial, t in enumerate(symmetric_tensors(454, 300)):
            n = t.dim
            comps = _components(structure._successors(structure._edges(t.coo.idx, n), n),
                                range(1, n + 1))
            assert list(structure._peel(t)) == sorted(comps, key=min), trial
            assert same_peel(t), trial
            singletons += sum(len(c) == 1 for c in comps)
        assert singletons > 300  # indices with no entries come out on their own

    def test_asymmetric_input_takes_the_tarjan_path(self, monkeypatch):
        searched = []
        real = structure._components
        monkeypatch.setattr(structure, "_components",
                            lambda *a: searched.append(a) or real(*a))
        rng = random.Random(455)
        for t in symmetric_tensors(456, 40):
            assert list(structure._peel(t)) and not searched
        for _ in range(40):
            t = rand_sparse(rng, rng.randint(2, 4), rng.randint(2, 40), upper=0.85)
            edges = structure._edges(t.coo.idx, t.dim)
            if np.array_equal(edges, np.sort(edges % t.dim * t.dim + edges // t.dim)):
                continue
            searched.clear()
            assert same_peel(t) and searched

    def test_hypergraph_adjacency_and_subtensors(self, monkeypatch):
        monkeypatch.setattr(structure, "_components", None)  # never reached
        rng = random.Random(457)
        for _ in range(30):
            groups = [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
            graph = rand_hypergraph(rng, rng.randint(2, 4), groups, edges_per_group=4)
            a, comps = tb.adjacency_tensor(graph), tb.connected_components(graph)
            assert list(structure._peel(a)) == comps
            for comp in comps:
                sub = tb.principal_subtensor(a, comp)
                assert list(structure._peel(sub)) == [frozenset(range(1, len(comp) + 1))]


class TestGet:
    def test_dense_tensor_reads_the_view(self):
        arr = np.random.default_rng(458).uniform(0.5, 1.0, (40, 40, 40))
        t = tb.Tensor.from_dense(arr)
        assert t.get((1, 2, 3)) == arr[0, 1, 2] and t.get(np.array([40, 1, 40])) == arr[39, 0, 39]
        assert t.get((1, 2)) == 0.0 and t.get((41, 1, 1)) == 0.0 and t.get((0, 1, 1)) == 0.0
        assert "entries" not in t.__dict__

    def test_matches_the_mapping_on_a_mix_of_keys(self):
        rng = random.Random(459)
        components = [1, 2, 3, 4, 0, -1, 5, 2 ** 70, np.int64(2), np.uint64(3), np.int8(1),
                      True, False, 1.0, 2.5, np.float64(3.0), np.bool_(True)]
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            arr = np.array([rng.choice([0.0, -1.5, 2.0]) for _ in range(n ** m)]).reshape(
                (n,) * m)
            built = [tb.Tensor.from_dense(arr), tb.Tensor(m, n, dict(
                tb.Tensor.from_dense(arr).entries))]
            keys = [tuple(rng.choice(components) for _ in range(rng.choice([m, m, m - 1, m + 1])))
                    for _ in range(40)]
            for t in built:
                got = [t.get(key) for key in keys]
                want = [t.entries.get(key, 0.0) for key in keys]
                assert got == want and [type(v) for v in got] == [type(v) for v in want]

    @pytest.mark.parametrize("key", [
        (1, 2, 3), (1.0, 2, 3), (True, 2, 3), (np.float64(2.0), 1, 4), (4, 3.0, np.float32(2.0)),
        (Fraction(3), 1, 1), (Decimal(2), 4, 4), (1 + 0j, 2, 3), (np.bool_(True), True, True),
        (1, 2, 2.0), (1.5, 2, 3), ("1", 2, 3), (None, 2, 3), (math.nan, 2, 3), (math.inf, 2, 3),
        (0.0, 1, 1), (5.0, 1, 1), (2.0 ** 70, 1, 1), (1.0, 2), (1.0, 2, 3, 4), ()], ids=repr)
    def test_key_components_match_as_in_the_mapping(self, key):
        arr = np.arange(1.0, 65.0).reshape(4, 4, 4)
        arr[0, 1, 1] = 0.0  # (1, 2, 2) is absent
        t = tb.Tensor.from_dense(arr)
        got = t.get(key)
        assert "entries" not in t.__dict__
        want = t.entries.get(key, 0.0)
        assert got == want and type(got) is type(want)


class TestIndexSet:
    def test_matches_the_component_loop(self):
        rng = random.Random(460)
        components = [1, 2, 3, 4, 5, 0, -1, 2 ** 70, np.int64(2), np.uint64(4), True, 1.0]

        def outcome(fn, members, dim):
            try:
                return fn(members, dim)
            except tb.errors.TriblockError as exc:
                return type(exc).__name__, str(exc)

        for _ in range(500):
            members = [rng.choice(components[:5] * 6 + components[5:])
                       for _ in range(rng.randint(0, 6))]
            dim = rng.randint(1, 5)
            got = outcome(core._index_set, members, dim)
            assert got == outcome(loop_index_set, members, dim), (members, dim)
            assert isinstance(got, tuple) or all(type(v) is int for v in got)
