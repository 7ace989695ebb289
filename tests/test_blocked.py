"""Partitions, the seven block kinds, and the cut/recursion laws that
relate them."""
import itertools
import random

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition
from triblock.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    OrderTooSmall,
    PartitionTooCoarse,
)

from _gen import (
    blocked_or_trivial,
    brute_partitions,
    forbidden_positions,
    rand_blocked,
    rand_tensor,
)

KINDS = list(BlockKind)
TRIANGULAR = [k for k in KINDS if k.is_triangular]
UPPER = [BlockKind.UTB1, BlockKind.UTB2, BlockKind.UTB3]
LOWER = [BlockKind.LTB1, BlockKind.LTB2, BlockKind.LTB3]


def reference_forbidden(kind, p, idx):
    """Restatement of the vanishing patterns, written against explicit block
    ranges instead of prefix-sum bisection."""
    i = idx[0]
    j = next(b for b in range(1, p.r + 1) if i in p.block(b))
    inside = all(t in p.block(j) for t in idx[1:])
    if kind is BlockKind.DIAG:
        return not inside
    lo, hi = min(idx[1:]), max(idx[1:])
    upper = {BlockKind.UTB1: j >= 2 and lo <= p.S(j - 1),
             BlockKind.UTB2: j >= 2 and lo <= p.S(j - 1) and hi <= p.S(j),
             BlockKind.UTB3: j >= 2 and hi <= p.S(j - 1),
             BlockKind.LTB1: j <= p.r - 1 and hi > p.S(j),
             BlockKind.LTB2: j <= p.r - 1 and hi > p.S(j) and lo > p.S(j - 1),
             BlockKind.LTB3: j <= p.r - 1 and lo > p.S(j)}
    return upper[kind]


def all_partitions(n, r_min=1):
    out = []
    for mask in range(2 ** (n - 1)):
        parts, size = [], 1
        for gap in range(n - 1):
            if mask >> gap & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        if len(parts) >= r_min:
            out.append(tuple(parts))
    return sorted(out)


def instances(rng, parts, kind, m, count=6):
    """Positives, near-misses, and plain random tensors for one partition."""
    n = sum(parts)
    cells = list(itertools.product(range(1, n + 1), repeat=m))
    out = []
    for _ in range(count):
        base = rand_blocked(rng, parts, kind, m, density=0.35)
        out.append(base)
        extra = rng.choice(cells)
        bumped = dict(base.entries)
        bumped[extra] = bumped.get(extra, 0.0) + 1.0
        out.append(tb.new_tensor(m, n, list(bumped.items())))
        out.append(rand_tensor(rng, n, m, density=0.2))
    return out


class TestPartition:
    def test_prefix_sums_and_blocks(self):
        p = Partition((2, 1, 3))
        assert p.n == 6 and p.r == 3
        assert [p.S(j) for j in range(4)] == [0, 2, 3, 6]
        assert list(p.block(2)) == [3]
        assert [p.block_of(i) for i in range(1, 7)] == [1, 1, 2, 3, 3, 3]

    def test_indices_out_of_range(self):
        p = Partition((1, 2))
        for call, bad in [(p.block_of, (0, 4, 9, -1)), (p.S, (-1, 3, 5)), (p.block, (0, 3, -1))]:
            for value in bad:
                with pytest.raises(IndexOutOfRange):
                    call(value)
        assert [p.block_of(1), p.block_of(3), p.S(0), p.S(2)] == [1, 2, 0, 3]
        assert list(p.block(1)) == [1] and list(p.block(2)) == [2, 3]

    def test_from_string_round_trip(self):
        p = Partition.from_string("1,1,2")
        assert p.parts == (1, 1, 2)
        assert str(p) == "1,1,2"

    def test_bad_parts_rejected(self):
        with pytest.raises(PartitionTooCoarse):
            Partition(())
        with pytest.raises(DimensionMismatch):
            Partition((2, 0))
        with pytest.raises(DimensionMismatch):
            Partition.from_string("1,x")
        for parts in [(True, 2), (1, 2.0), (np.bool_(True), 1), (1.5, 1)]:
            with pytest.raises(DimensionMismatch):
                Partition(parts)

    def test_numpy_integer_parts_become_ints(self):
        p = Partition((np.int64(1), 2))
        assert p == Partition((1, 2)) and all(type(part) is int for part in p.parts)
        assert p.n == 3 and str(p) == "1,2"


class TestClassifyExamples:
    def test_single_entry_213_tensor(self, ex24):
        assert tb.is_blocked(ex24, Partition((1, 1, 1)), BlockKind.UTB2)
        assert not tb.is_blocked(ex24, Partition((1, 2)), BlockKind.UTB2)
        assert not tb.is_blocked(ex24, Partition((1, 1, 1)), BlockKind.UTB1)

    def test_quadratic_pair_tensor(self, ex31):
        assert tb.is_blocked(ex31, Partition((1, 1)), BlockKind.UTB3)
        assert not tb.is_blocked(ex31, Partition((1, 1)), BlockKind.UTB2)

    def test_unit_tensor_satisfies_everything(self):
        u = tb.unit_tensor(3, 4)
        for kind in KINDS:
            for parts in all_partitions(4, 2 if kind.is_triangular else 1):
                assert tb.is_blocked(u, Partition(parts), kind)

    def test_validation_errors(self, ex31):
        with pytest.raises(DimensionMismatch):
            tb.is_blocked(ex31, Partition((1, 1, 1)), BlockKind.UTB1)
        with pytest.raises(PartitionTooCoarse):
            tb.is_blocked(ex31, Partition((2,)), BlockKind.UTB1)
        assert tb.is_blocked(ex31, Partition((2,)), BlockKind.DIAG)
        one_d = tb.new_tensor(1, 2, [((1,), 1.0)])
        with pytest.raises(OrderTooSmall):
            tb.is_blocked(one_d, Partition((1, 1)), BlockKind.UTB1)


class TestVanishingPatterns:
    @pytest.mark.parametrize("n,m", [(4, 3), (3, 4), (5, 2)])
    def test_masks_match_reference(self, n, m):
        for kind in KINDS:
            for parts in all_partitions(n, 2 if kind.is_triangular else 1):
                p = Partition(parts)
                expect = {idx for idx in itertools.product(range(1, n + 1), repeat=m)
                          if reference_forbidden(kind, p, idx)}
                assert forbidden_positions(n, m, p, kind) == expect, (kind, parts)

    def test_type_chain_masks(self):
        # a stricter pattern forbids more positions
        for n, m in [(4, 3), (5, 2)]:
            for parts in all_partitions(n, 2):
                p = Partition(parts)
                for chain in (UPPER, LOWER):
                    masks = [forbidden_positions(n, m, p, k) for k in chain]
                    assert masks[0] >= masks[1] >= masks[2], (parts, chain)

    def test_two_block_masks_coincide_for_first_and_second_kind(self):
        for n, m in [(4, 3), (5, 2)]:
            for k in range(1, n):
                p = Partition((k, n - k))
                assert forbidden_positions(n, m, p, BlockKind.UTB1) == \
                    forbidden_positions(n, m, p, BlockKind.UTB2)
                assert forbidden_positions(n, m, p, BlockKind.LTB1) == \
                    forbidden_positions(n, m, p, BlockKind.LTB2)

    def test_diagonal_mask_is_union_of_first_kind_masks(self):
        n, m = 4, 3
        for parts in all_partitions(n, 2):
            p = Partition(parts)
            diag = forbidden_positions(n, m, p, BlockKind.DIAG)
            up = forbidden_positions(n, m, p, BlockKind.UTB1)
            low = forbidden_positions(n, m, p, BlockKind.LTB1)
            assert diag == up | low, parts


class TestTypeChain:
    def test_chain_on_random_tensors(self):
        rng = random.Random(100)
        for _ in range(40):
            n = rng.randint(2, 5)
            t = rand_tensor(rng, n, 3, density=0.15)
            for parts in all_partitions(n, 2):
                p = Partition(parts)
                for chain in (UPPER, LOWER):
                    flags = [tb.is_blocked(t, p, k) for k in chain]
                    assert (not flags[0] or flags[1]) and (not flags[1] or flags[2])

    def test_chain_positives_exist(self):
        rng = random.Random(101)
        p = Partition((2, 2))
        seen_strict = False
        for _ in range(30):
            t = rand_blocked(rng, (2, 2), BlockKind.UTB3, 3, density=0.4)
            if tb.is_blocked(t, p, BlockKind.UTB3) and \
                    not tb.is_blocked(t, p, BlockKind.UTB1):
                seen_strict = True
        assert seen_strict


class TestDiagonalEquivalence:
    def test_diag_iff_both_first_kinds(self):
        rng = random.Random(102)
        for parts in [(1, 2), (2, 2), (1, 1, 2), (2, 1, 1)]:
            p = Partition(parts)
            pool = instances(rng, parts, BlockKind.DIAG, 3, count=5)
            pool += instances(rng, parts, BlockKind.UTB1, 3, count=3)
            for t in pool:
                both = tb.is_blocked(t, p, BlockKind.UTB1) and \
                    tb.is_blocked(t, p, BlockKind.LTB1)
                assert tb.is_blocked(t, p, BlockKind.DIAG) == both

    def test_counterexample_for_weaker_kinds(self):
        # a diagonal blocked tensor plus one entry a_{ipq} with the middle
        # row in block 2, p left of the block and q right of it
        p = Partition((1, 2, 1))
        base = dict(tb.unit_tensor(3, 4).entries)
        base[(2, 2, 3)] = 2.0
        base[(3, 3, 3)] = base.get((3, 3, 3), 0.0) + 1.0
        assert tb.is_blocked(tb.new_tensor(3, 4, list(base.items())), p,
                             BlockKind.DIAG)
        base[(2, 1, 4)] = 1.0
        spiked = tb.new_tensor(3, 4, list(base.items()))
        for kind in (BlockKind.UTB2, BlockKind.UTB3, BlockKind.LTB2,
                     BlockKind.LTB3):
            assert tb.is_blocked(spiked, p, kind), kind
        for kind in (BlockKind.DIAG, BlockKind.UTB1, BlockKind.LTB1):
            assert not tb.is_blocked(spiked, p, kind), kind


def cut_conditions(t, parts, tcut, kind):
    """The two-subtensor split of a partition at cut position tcut."""
    p = Partition(parts)
    k = p.S(tcut)
    n = p.n
    top = tb.is_blocked(t, Partition((k, n - k)), kind)
    head = blocked_or_trivial(tb.principal_subtensor(t, range(1, k + 1)),
                              parts[:tcut], kind)
    tail = blocked_or_trivial(tb.principal_subtensor(t, range(k + 1, n + 1)),
                              parts[tcut:], kind)
    return top, head, tail


class TestCutRecursions:
    PARTS = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 2)]

    def pool(self, rng, parts, kind):
        return instances(rng, parts, kind, 3, count=4)

    def test_third_kind_split_is_necessary(self):
        rng = random.Random(103)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB3):
                if not tb.is_blocked(t, p, BlockKind.UTB3):
                    continue
                for tcut in range(1, p.r):
                    assert all(cut_conditions(t, parts, tcut, BlockKind.UTB3))

    def test_third_kind_split_at_last_cut_is_equivalent(self):
        rng = random.Random(115)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB3):
                whole = tb.is_blocked(t, p, BlockKind.UTB3)
                split = all(cut_conditions(t, parts, p.r - 1, BlockKind.UTB3))
                assert whole == split, parts

    def test_third_kind_split_not_sufficient_at_early_cuts(self):
        # trailing indices that straddle the cut escape all three split
        # conditions but still violate the unsplit pattern
        t = tb.new_tensor(3, 4, [((4, 1, 3), 1.0)])
        assert all(cut_conditions(t, (2, 1, 1), 1, BlockKind.UTB3))
        assert not tb.is_blocked(t, Partition((2, 1, 1)), BlockKind.UTB3)

    @pytest.mark.xfail(reason="split conditions at an inner cut do not imply "
                       "the unsplit pattern; see the straddling-entry "
                       "counterexample above", strict=True)
    def test_third_kind_splits_at_every_cut(self):
        t = tb.new_tensor(3, 4, [((4, 1, 3), 1.0)])
        for tcut in range(1, 3):
            split = all(cut_conditions(t, (2, 1, 1), tcut, BlockKind.UTB3))
            assert split == tb.is_blocked(t, Partition((2, 1, 1)),
                                          BlockKind.UTB3), tcut

    def test_triangular_iff_all_two_block_cuts(self):
        rng = random.Random(116)
        for kind in (BlockKind.UTB1, BlockKind.UTB3):
            for parts in self.PARTS:
                p = Partition(parts)
                n = p.n
                for t in self.pool(rng, parts, kind):
                    cuts = all(tb.is_blocked(t, Partition((p.S(j), n - p.S(j))),
                                             kind)
                               for j in range(1, p.r))
                    assert cuts == tb.is_blocked(t, p, kind), (kind, parts)

    def test_first_kind_split_is_necessary(self):
        rng = random.Random(104)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB1):
                if not tb.is_blocked(t, p, BlockKind.UTB1):
                    continue
                for tcut in range(1, p.r):
                    assert all(cut_conditions(t, parts, tcut, BlockKind.UTB1))

    def test_first_kind_split_at_cut_one_is_sufficient(self):
        rng = random.Random(105)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB1):
                split = all(cut_conditions(t, parts, 1, BlockKind.UTB1))
                assert split == tb.is_blocked(t, p, BlockKind.UTB1), parts

    def test_first_kind_split_not_sufficient_at_later_cuts(self, ex24):
        # the a_{213}=1 tensor satisfies the three split conditions at the
        # second cut of (1,1,1) yet fails the first-kind test
        assert all(cut_conditions(ex24, (1, 1, 1), 2, BlockKind.UTB1))
        assert not tb.is_blocked(ex24, Partition((1, 1, 1)), BlockKind.UTB1)

    def test_second_kind_split_is_sufficient(self):
        rng = random.Random(106)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB2):
                for tcut in range(1, p.r):
                    if all(cut_conditions(t, parts, tcut, BlockKind.UTB2)):
                        assert tb.is_blocked(t, p, BlockKind.UTB2), (parts, tcut)

    def test_second_kind_split_at_last_cut_is_necessary(self):
        rng = random.Random(107)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB2):
                whole = tb.is_blocked(t, p, BlockKind.UTB2)
                split = all(cut_conditions(t, parts, p.r - 1, BlockKind.UTB2))
                assert whole == split, parts

    def test_second_kind_split_not_necessary_at_early_cuts(self, ex24):
        assert tb.is_blocked(ex24, Partition((1, 1, 1)), BlockKind.UTB2)
        assert not all(cut_conditions(ex24, (1, 1, 1), 1, BlockKind.UTB2))

    def test_second_kind_growing_prefix_chain(self):
        rng = random.Random(108)
        for parts in self.PARTS:
            p = Partition(parts)
            for t in self.pool(rng, parts, BlockKind.UTB2):
                chain = True
                for i in range(2, p.r + 1):
                    prefix = tb.principal_subtensor(t, range(1, p.S(i) + 1))
                    chain &= tb.is_blocked(
                        prefix, Partition((p.S(i - 1), parts[i - 1])),
                        BlockKind.UTB2)
                assert chain == tb.is_blocked(t, p, BlockKind.UTB2), parts


class TestReversalSimilarity:
    def test_upper_maps_to_lower_with_reversed_parts(self):
        rng = random.Random(109)
        pairs = [(BlockKind.UTB1, BlockKind.LTB1),
                 (BlockKind.UTB2, BlockKind.LTB2),
                 (BlockKind.UTB3, BlockKind.LTB3)]
        for parts in [(1, 2), (2, 1, 1), (1, 1, 2), (2, 2)]:
            n = sum(parts)
            sigma = tb.Permutation(tuple(n + 1 - i for i in range(1, n + 1)))
            rev = Partition(tuple(reversed(parts)))
            p = Partition(parts)
            for up, low in pairs:
                for t in instances(rng, parts, up, 3, count=3):
                    flipped = tb.permute_similar(t, sigma)
                    assert tb.is_blocked(t, p, up) == \
                        tb.is_blocked(flipped, rev, low), (parts, up)

    def test_structure_ignores_diagonal_block_interiors(self):
        rng = random.Random(110)
        for parts in [(2, 2), (1, 2, 1)]:
            p = Partition(parts)
            n = sum(parts)
            for kind in KINDS:
                t = rand_blocked(rng, parts, kind, 3, density=0.4)
                stuffed = dict(t.entries)
                for j in range(1, p.r + 1):
                    for idx in itertools.product(p.block(j), repeat=3):
                        stuffed[idx] = float(rng.choice([1, 2, -1]))
                full = tb.new_tensor(3, n, list(stuffed.items()))
                assert tb.is_blocked(full, p, kind)


class TestDiagonalBlocks:
    def test_quadratic_pair_blocks(self, ex31):
        blocks = tb.diagonal_blocks(ex31, Partition((1, 1)))
        assert [dict(b.entries) for b in blocks] == [{(1, 1, 1): 1.0}, {}]

    def test_unit_tensor_splits_into_unit_tensors(self):
        blocks = tb.diagonal_blocks(tb.unit_tensor(3, 5), Partition((2, 3)))
        assert blocks == [tb.unit_tensor(3, 2), tb.unit_tensor(3, 3)]

    def test_diagonal_tensor_split(self):
        blocks = tb.diagonal_blocks(tb.diagonal_tensor(3, [2.0, 3.0, 5.0]),
                                    Partition((1, 2)))
        assert blocks == [tb.diagonal_tensor(3, [2.0]),
                          tb.diagonal_tensor(3, [3.0, 5.0])]

    def test_dimension_checked(self, ex31):
        with pytest.raises(DimensionMismatch):
            tb.diagonal_blocks(ex31, Partition((1, 1, 1)))


class TestBlockedPartitions:
    def test_single_entry_213_partitions(self, ex24):
        found = tb.blocked_partitions(ex24, BlockKind.UTB2, 2)
        parts = [p.parts for p in found]
        assert (1, 1, 1) in parts and (1, 2) not in parts

    def test_zero_tensor_gets_every_composition(self):
        z = tb.new_tensor(3, 3, [])
        found = tb.blocked_partitions(z, BlockKind.UTB1, 2)
        assert [p.parts for p in found] == [(1, 1, 1), (1, 2), (2, 1)]

    def test_all_ones_has_none(self):
        ones = tb.new_tensor(3, 2, [((i, j, k), 1.0) for i in (1, 2)
                                    for j in (1, 2) for k in (1, 2)])
        assert tb.blocked_partitions(ones, BlockKind.UTB1, 2) == []

    def test_results_sorted_lexicographically(self):
        z = tb.new_tensor(3, 4, [])
        found = [p.parts for p in tb.blocked_partitions(z, BlockKind.DIAG, 1)]
        assert found == sorted(found)
        assert (4,) in found

    def test_dimension_guard(self):
        big = tb.unit_tensor(2, 13)
        with pytest.raises(DimensionTooLarge):
            tb.blocked_partitions(big, BlockKind.UTB1, 2)

    def test_matches_exhaustive_filter(self):
        rng = random.Random(401)
        for trial in range(90):
            m = (2, 3, 4)[trial % 3]
            n = rng.randint(1, 8 if m < 4 else 5)
            if trial % 2 and n > 1:
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
                parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
                a = rand_blocked(rng, parts, rng.choice(KINDS), m, density=0.25)
            else:
                a = rand_tensor(rng, n, m, density=rng.choice([0.02, 0.08, 0.2]))
            for kind in KINDS:
                for r_min in (1, 3):
                    assert (tb.blocked_partitions(a, kind, r_min)
                            == brute_partitions(a, kind, r_min)), (trial, kind, r_min)

    def test_order_one_rejected(self):
        with pytest.raises(OrderTooSmall):
            tb.blocked_partitions(tb.new_tensor(1, 3, []), BlockKind.DIAG)


class TestCompositions:
    def test_every_composition_once_in_order(self):
        for n in range(1, 9):
            found = list(tb.compositions(n))
            assert len(found) == 2 ** (n - 1) == len(set(found))
            assert found == sorted(found)
            assert all(sum(parts) == n and min(parts) >= 1 for parts in found)
            assert list(tb.compositions(n, 3)) == [p for p in found if len(p) >= 3]

    def test_lazy(self):
        # 2^29 compositions: only a generator can hand out the first ones
        first = itertools.islice(tb.compositions(30, 2), 2)
        assert list(first) == [(1,) * 30, (1,) * 28 + (2,)]

    def test_chains_deeper_than_the_recursion_limit(self):
        first = itertools.islice(tb.compositions(5000), 3)
        assert list(first) == [(1,) * 5000, (1,) * 4998 + (2,), (1,) * 4997 + (2, 1)]

    @pytest.mark.parametrize("n", [2.5, 2.0, -2, True, "3", None])
    def test_n_must_be_an_integer_at_least_zero(self, n):
        # refused at the call, before the generator is drawn from
        with pytest.raises(DimensionMismatch, match="^n must be an integer >= 0, got "):
            tb.compositions(n)
        with pytest.raises(DimensionMismatch):
            tb.compositions(n, 0)

    @pytest.mark.parametrize("r_min", [2.5, True, "2", float("nan")])
    def test_r_min_must_be_an_integer(self, r_min):
        # 2.5 acted as r_min=3 and "2" raised a bare TypeError
        with pytest.raises(DimensionMismatch, match="^r_min must be an integer, got "):
            tb.compositions(3, r_min)
        with pytest.raises(DimensionMismatch, match="^r_min must be an integer, got "):
            tb.blocked_partitions(tb.unit_tensor(3, 3), BlockKind.UTB1, r_min)

    def test_zero_and_numpy_integers(self):
        assert list(tb.compositions(0)) == [] and list(tb.compositions(0, 0)) == [()]
        assert list(tb.compositions(np.int64(3), 2)) == [(1, 1, 1), (1, 2), (2, 1)]
