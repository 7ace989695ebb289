"""End-to-end acceptance suite: one test per shipped criterion.

Each test prints a single ``criterion N PASS/FAIL`` line so the captured
log doubles as a scorecard. Criterion 6 checks the product laws the
blocked structure gives: closure for every upper kind, factorization of
every diagonal block for the first and second kinds, and for the third
kind factorization of the first block only. Later third-kind blocks need
not factor; the criterion pins the straddling-entry example, and
tests/test_product.py::TestThirdKindBlocks carries the counterexample
and the strict xfail that records the false all-blocks law.
"""
import itertools
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition
from triblock.errors import ThirdTypeUnsupported

from _gen import (
    blocked_or_trivial,
    brute_strong_sets,
    brute_weak_sets,
    is_irreducible_matrix,
    is_nonsingular_m_matrix,
    is_z_matrix,
    rand_blocked,
    rand_blocked_m_matrix,
    rand_blocked_unimodular,
    rand_hypergraph,
    rand_m_matrix,
    rand_tensor,
)

UPPER = (BlockKind.UTB1, BlockKind.UTB2, BlockKind.UTB3)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL {description}")
        raise
    print(f"criterion {num:2d} PASS {description}")


def test_criterion_01(ex24):
    with criterion(1, "single straddling entry classifies exactly per kind"):
        assert tb.is_blocked(ex24, Partition((1, 1, 1)), BlockKind.UTB2)
        assert not tb.is_blocked(ex24, Partition((1, 2)), BlockKind.UTB2)
        assert not tb.is_blocked(ex24, Partition((1, 1, 1)), BlockKind.UTB1)
        # all three two-subtensor conditions at the last cut hold for the
        # first kind even though the unsplit first-kind pattern fails
        assert tb.is_blocked(ex24, Partition((2, 1)), BlockKind.UTB1)
        head = tb.principal_subtensor(ex24, [1, 2])
        tail = tb.principal_subtensor(ex24, [3])
        assert blocked_or_trivial(head, (1, 1), BlockKind.UTB1)
        assert blocked_or_trivial(tail, (1,), BlockKind.UTB1)


def test_criterion_02(ex31):
    with criterion(2, "third-kind determinant formula is refused, and rightly"):
        p = Partition((1, 1))
        assert tb.is_blocked(ex31, p, BlockKind.UTB3)
        with pytest.raises(ThirdTypeUnsupported):
            tb.det_blocked(ex31, p, BlockKind.UTB3)
        # the would-be block formula gives prod det(block)^2 = 1^2 * 0^2 = 0 ...
        blocks = tb.diagonal_blocks(ex31, p)
        assert [tb.det_dim1(b) for b in blocks] == [1.0, 0.0]
        assert math.prod(tb.det_dim1(b) ** 2 for b in blocks) == 0.0
        # ... yet the tensor is far from singular, so 0 cannot be its determinant
        report = tb.singularity_oracle(ex31, restarts=64, seed=7)
        assert report.min_norm >= 0.9


def test_criterion_03(ex61):
    with criterion(3, "zero-row tensor: no first-kind form, both normal forms verify"):
        assert tb.exists_first_type_normal_form(ex61) is None
        nf2 = tb.normal_form_2nd(ex61)
        assert nf2.partition == Partition((1, 1, 1, 1))
        assert nf2.kind == BlockKind.UTB2
        moved = tb.permute_similar(ex61, nf2.sigma)
        assert tb.is_blocked(moved, nf2.partition, nf2.kind)
        assert list(nf2.blocks) == tb.diagonal_blocks(moved, nf2.partition)
        assert all(tb.is_weakly_irreducible(b) for b in nf2.blocks)
        nf3 = tb.normal_form_3rd(ex61)
        moved = tb.permute_similar(ex61, nf3.sigma)
        assert tb.is_blocked(moved, nf3.partition, nf3.kind)
        assert all(tb.is_irreducible(b) for b in nf3.blocks)


def test_criterion_04():
    with criterion(4, "triangular determinants and two-block exponents are exact"):
        rng = random.Random(104)
        kinds = [BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2]
        for trial in range(100):
            n = rng.randint(2, 5)
            kind = kinds[trial % 4]
            a = rand_blocked(rng, (1,) * n, kind, 3, density=0.5,
                             values=(-2, -1, 1, 2))
            exp = 2 ** (n - 1)
            want = math.prod(int(a.get((i,) * 3)) ** exp for i in range(1, n + 1))
            assert tb.det_blocked(a, Partition((1,) * n), kind) == float(want)
        for n, k in ((3, 1), (4, 2)):
            diag = [rng.randint(1, 3) for _ in range(n)]
            a = tb.diagonal_tensor(3, [float(d) for d in diag])
            det_head = math.prod(diag[:k]) ** (2 ** (k - 1))
            det_tail = math.prod(diag[k:]) ** (2 ** (n - k - 1))
            want = det_head ** (2 ** (n - k)) * det_tail ** (2 ** k)
            got = tb.det_blocked(a, Partition((k, n - k)), BlockKind.UTB1)
            assert got == float(want)


def test_criterion_05():
    with criterion(5, "spectrum degrees balance; radius is the max over blocks"):
        rng = random.Random(105)
        parts_pool = [(1, 1), (1, 2), (2, 2), (1, 1, 2), (2, 3)]
        for trial in range(20):
            parts = parts_pool[trial % len(parts_pool)]
            p = Partition(parts)
            n = p.n
            values = [rng.uniform(0.5, 3.0) for _ in range(n)]
            spec = tb.spectrum_blocked(tb.diagonal_tensor(3, values), p, BlockKind.DIAG)
            assert spec.total_degree == n * 2 ** (n - 1)
            assert sum(len(item.eigenvalues) * item.exponent
                       for item in spec.items) == spec.total_degree
            a = rand_blocked(rng, parts, BlockKind.DIAG, 3, density=0.5,
                             values=(0.5, 1.0, 1.5, 2.0))
            best = max(tb.spectral_radius(b).rho for b in tb.diagonal_blocks(a, p))
            assert tb.spectral_radius(a).rho == pytest.approx(best, abs=1e-8)
        for trial in range(10):
            groups = [3, 3] if trial % 2 else [3, 4]
            graph = rand_hypergraph(rng, 3, groups, edges_per_group=2)
            adjacency = tb.adjacency_tensor(graph)
            component_rhos = [
                tb.spectral_radius(tb.principal_subtensor(adjacency, sorted(c))).rho
                for c in tb.connected_components(graph)]
            assert tb.spectral_radius(adjacency).rho == pytest.approx(
                max(component_rhos), abs=1e-8)


def _blocked_pairs(seed: int, kind: BlockKind):
    rng = random.Random(seed)
    parts_pool = [(1, 2), (2, 2), (1, 1, 2), (3, 3), (2, 1, 3)]
    for trial in range(200):
        parts = parts_pool[trial % len(parts_pool)]
        m, k = (3, 2) if trial % 2 else (3, 3)
        a = rand_blocked(rng, parts, kind, m, density=0.3)
        b = rand_blocked(rng, parts, kind, k, density=0.3)
        yield Partition(parts), a, b


def test_criterion_06():
    with criterion(6, "blocked products keep their kind; utb1/utb2 blocks and "
                      "the first utb3 block factor blockwise"):
        for kind in UPPER:
            for p, a, b in _blocked_pairs(106, kind):
                c = tb.general_product(a, b)
                assert tb.is_blocked(c, p, kind), (
                    f"a {kind.token} product lost its block structure")
        for kind in UPPER:
            for p, a, b in _blocked_pairs(106, kind):
                got = tb.diagonal_blocks(tb.general_product(a, b), p)
                want = [tb.general_product(ba, bb)
                        for ba, bb in zip(tb.diagonal_blocks(a, p),
                                          tb.diagonal_blocks(b, p))]
                # Third kind: only the first block is guaranteed to factor.
                checked = 1 if kind is BlockKind.UTB3 else p.r
                for j in range(checked):
                    assert got[j] == want[j], (
                        f"diagonal block {j + 1} of a {kind.token} product is not "
                        f"the product of the factors' blocks {j + 1}")
        # The straddling entry a_{212} feeds block 2 of a third-kind product
        # although block 2 of a is zero, so later blocks need not factor.
        p = Partition((1, 1))
        a = tb.new_tensor(3, 2, [((2, 1, 2), 1.0)])
        b = tb.new_tensor(3, 2, [((1, 2, 2), 1.0), ((2, 2, 2), 1.0)])
        assert tb.is_blocked(a, p, BlockKind.UTB3)
        assert tb.is_blocked(b, p, BlockKind.UTB3)
        got = tb.diagonal_blocks(tb.general_product(a, b), p)[1]
        want = tb.general_product(tb.diagonal_blocks(a, p)[1],
                                  tb.diagonal_blocks(b, p)[1])
        assert got.entries == {(1, 1, 1, 1, 1): 1.0}
        assert want.nnz == 0


def test_criterion_07():
    with criterion(7, "blocked unimodular inverses verify, classify, and factor"):
        rng = random.Random(107)
        parts_pool = [(1, 2), (2, 2), (1, 1, 2), (2, 3)]
        for trial in range(50):
            p = Partition(parts_pool[trial % len(parts_pool)])
            k = 2 + trial % 2
            mat = rand_blocked_unimodular(rng, p.parts).astype(float)
            a = tb.row_diagonal_from_matrix(mat, 3)
            left = tb.left_k_inverse(a, k)
            assert tb.verify_inverse(left, a, "left", tol=1e-10)
            assert all(tb.is_blocked(left, p, kind) for kind in UPPER)
            assert tb.diagonal_blocks(left, p) == [
                tb.left_k_inverse(block, k) for block in tb.diagonal_blocks(a, p)]
            b = tb.general_product(tb.unit_tensor(3, p.n), tb.tensor_from_matrix(mat))
            right = tb.right_k_inverse(b, k)
            assert tb.verify_inverse(right, b, "right", tol=1e-10)
            assert all(tb.is_blocked(right, p, kind) for kind in UPPER)
            assert tb.diagonal_blocks(right, p) == [
                tb.right_k_inverse(block, k) for block in tb.diagonal_blocks(b, p)]


def _matrix_is_m(mat: np.ndarray, strict: bool, tol: float = 1e-9) -> bool:
    if not is_z_matrix(mat):
        return False
    s = float(np.max(np.diag(mat)))
    rho = float(np.max(np.abs(np.linalg.eigvals(s * np.eye(len(mat)) - mat))))
    margin = s - rho
    return margin > tol if strict else margin >= -tol


def test_criterion_08():
    with criterion(8, "inverse positivity and the row-diagonal correspondences"):
        rng = random.Random(108)
        for trial in range(25):
            n = rng.randint(2, 5)
            mat = rand_m_matrix(rng, n)
            a = tb.row_diagonal_from_matrix(mat, 3)
            assert tb.is_positive_tensor(tb.left_k_inverse(a, 3))
            # the five row-diagonal correspondences, both sides evaluated
            split = tb.z_split(a)
            lifted = tb.spectral_radius(split.b).rho
            shifted = split.s * np.eye(n) - mat
            assert lifted == pytest.approx(
                float(np.max(np.abs(np.linalg.eigvals(shifted)))), abs=1e-8)
            assert tb.is_z_tensor(a) and is_z_matrix(mat)
            assert tb.is_weakly_irreducible(a) and is_irreducible_matrix(mat)
            assert tb.is_m_tensor(a) and _matrix_is_m(mat, strict=False)
            assert tb.is_nonsingular_m_tensor(a) and is_nonsingular_m_matrix(mat)
        for trial in range(10):
            n = rng.randint(2, 4)
            good = rand_m_matrix(rng, n)
            shift = float(np.max(np.diag(good))) * 0.5
            bad = good - shift * np.eye(n)  # Z, but shifted below the M threshold
            a = tb.row_diagonal_from_matrix(bad, 3)
            assert tb.is_z_tensor(a) and is_z_matrix(bad)
            assert tb.is_m_tensor(a) == _matrix_is_m(bad, strict=False)
            assert tb.is_nonsingular_m_tensor(a) == is_nonsingular_m_matrix(bad)
        parts_pool = [(2, 2), (2, 3), (2, 2, 2)]
        for trial in range(25):
            p = Partition(parts_pool[trial % 3])
            mat = rand_blocked_m_matrix(rng, p.parts)
            a = tb.row_diagonal_from_matrix(mat, 3)
            assert tb.is_z_tensor(a)
            assert tb.is_nonsingular_m_tensor(a)
            left = tb.left_k_inverse(a, 3)
            assert all(tb.is_blocked(left, p, kind) for kind in UPPER)
            assert all(tb.is_positive_tensor(block)
                       for block in tb.diagonal_blocks(left, p))


def test_criterion_09():
    with criterion(9, "reducing-set searches agree with subset enumeration"):
        rng = random.Random(109)
        for trial in range(200):
            a = rand_tensor(rng, 3, 3, density=rng.choice([0.1, 0.25, 0.4, 0.6]))
            strong = brute_strong_sets(a)
            found = tb.find_reducing_set(a)
            assert (found is None) == (strong == [])
            assert found is None or found in strong
            weak = brute_weak_sets(a)
            wfound = tb.find_weakly_reducing_set(a)
            assert (wfound is None) == (weak == [])
            assert wfound is None or wfound in weak


def test_criterion_10():
    with criterion(10, "kind implications, two-block coincidence, diagonal meet"):
        rng = random.Random(110)
        parts_pool = [(1, 2), (2, 2), (1, 1, 2)]
        for trial in range(60):
            p = Partition(parts_pool[trial % 3])
            a = rand_tensor(rng, p.n, 3, density=0.3)
            u1 = tb.is_blocked(a, p, BlockKind.UTB1)
            u2 = tb.is_blocked(a, p, BlockKind.UTB2)
            u3 = tb.is_blocked(a, p, BlockKind.UTB3)
            assert (not u1 or u2) and (not u2 or u3)
            l1 = tb.is_blocked(a, p, BlockKind.LTB1)
            assert tb.is_blocked(a, p, BlockKind.DIAG) == (u1 and l1)
            if p.r == 2:
                assert u1 == u2
        for parts in parts_pool:
            drawn = rand_blocked(rng, parts, BlockKind.UTB1, 3, density=0.4)
            assert tb.is_blocked(drawn, Partition(parts), BlockKind.UTB2)
            assert tb.is_blocked(drawn, Partition(parts), BlockKind.UTB3)
        # one middle-block entry with feet on both outer sides is second and
        # third kind both upper and lower, yet not first kind or diagonal
        p = Partition((1, 2, 1))
        spiked = dict(tb.unit_tensor(3, 4).entries)
        spiked[(2, 1, 4)] = 1.0
        spiked = tb.new_tensor(3, 4, list(spiked.items()))
        for kind in (BlockKind.UTB2, BlockKind.UTB3, BlockKind.LTB2, BlockKind.LTB3):
            assert tb.is_blocked(spiked, p, kind)
        for kind in (BlockKind.DIAG, BlockKind.UTB1, BlockKind.LTB1):
            assert not tb.is_blocked(spiked, p, kind)
