"""The array kernels against the dict loops they replaced, bit for bit.

``apply``, ``general_product``, the probe's Jacobian and the allowed
block ends all read ``Tensor.coo``; each must reproduce the loop
reference in ``_gen`` exactly, not just to a tolerance. Also pinned: the
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
from triblock.blocked import _block_ends
from triblock.errors import NegativeEntry
from triblock.spectra import _oracle_jacobian

from _gen import loop_apply, loop_block_ends, loop_jacobian, loop_product, rand_blocked


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


class TestBlockEnds:
    def test_matches_loop(self):
        rng = random.Random(407)
        for trial in range(40):
            if trial % 2:
                t = rand_tensor(rng, rng.randint(2, 4), rng.randint(1, 6),
                                rng.choice([0.02, 0.1, 0.3]), True)
            else:
                parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
                t = rand_blocked(rng, parts, rng.choice(list(BlockKind)), rng.randint(2, 3))
            for kind in BlockKind:
                assert _block_ends(t, kind) == loop_block_ends(t, kind), (trial, kind)


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
