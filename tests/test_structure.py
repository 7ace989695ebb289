"""Reducing sets, triangular normal forms, and hypergraph adjacency."""
import itertools
import random
from operator import itemgetter

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition, Permutation, structure
from triblock.errors import (
    BadArity,
    DimensionTooLarge,
    EmptyIndexSet,
    IndexOutOfRange,
    InvalidHypergraph,
    NormalFormUnavailable,
    NotReducingSet,
    OrderTooSmall,
)

from _gen import (
    brute_first_type,
    brute_normal_form_2nd,
    brute_normal_form_3rd,
    brute_sink,
    brute_strong_sets,
    brute_weak_sets,
    rand_blocked,
    rand_hypergraph,
    rand_permutation,
    rand_tensor,
)


def all_ones(n: int, m: int = 3) -> tb.Tensor:
    positions = itertools.product(range(1, n + 1), repeat=m)
    return tb.new_tensor(m, n, [(idx, 1.0) for idx in positions])


def load_hypergraph(path) -> tb.Hypergraph:
    return tb.tensorio.hypergraph_from_obj(tb.tensorio.loads(path.read_text()))


def sink_ensemble(seed: int, count: int):
    """Orders 2-4, dims 1-8, from near-empty to dense, plus split hypergraphs."""
    rng = random.Random(seed)
    for trial in range(count):
        if trial % 5 == 4:
            yield tb.adjacency_tensor(rand_hypergraph(rng, 3, [rng.randint(3, 5) for _ in range(2)]))
            continue
        m = (2, 3, 4)[trial % 3]
        n = rng.randint(1, 8 if m < 4 else 5)
        yield rand_tensor(rng, n, m, density=rng.choice([0.02, 0.06, 0.12, 0.3]))


def first_type_ensemble(seed: int, count: int):
    """Orders 2-4, dims 1-6: random tensors, permuted first-type blocked ones
    and split hypergraphs."""
    rng = random.Random(seed)
    for trial in range(count):
        m = (2, 3, 4)[trial % 3]
        n = rng.randint(1, (6, 5, 4)[trial % 3])
        if trial % 7 == 6:
            yield tb.adjacency_tensor(rand_hypergraph(rng, 3, [3, rng.randint(1, 3)]))
        elif trial % 2 and n > 1:
            cut = rng.randint(1, n - 1)
            a = rand_blocked(rng, (cut, n - cut), BlockKind.UTB1, m,
                             density=rng.choice([0.1, 0.3, 0.6]))
            yield tb.permute_similar(a, rand_permutation(rng, n))
        else:
            yield rand_tensor(rng, n, m, density=rng.choice([0.02, 0.06, 0.12, 0.3]))


def third_form_ensemble(seed: int, small: int, sparse: int):
    """Orders 2-4 at dims 1-8 (order 4 up to 5), from near-empty to dense, then
    sparse order-3 tensors of dims 9-12 with about one to three entries per index."""
    rng = random.Random(seed)
    for trial in range(small):
        m = (2, 3, 4)[trial % 3]
        n = rng.randint(1, 8 if m < 4 else 5)
        yield rand_tensor(rng, n, m, density=rng.choice([0.02, 0.06, 0.12, 0.2, 0.3, 0.5]))
    for _ in range(sparse):
        n = rng.randint(9, 12)
        yield rand_tensor(rng, n, 3, density=rng.uniform(1.0, 3.0) / n ** 2)


def sub_hypergraph(graph: tb.Hypergraph, component: frozenset[int]) -> tb.Hypergraph:
    """Restrict to one component, relabelling its vertices onto 1..|C|."""
    relabel = {v: i for i, v in enumerate(sorted(component), start=1)}
    edges = [[relabel[v] for v in edge] for edge in graph.edges if edge <= component]
    return tb.Hypergraph.from_edge_lists(graph.k, len(component), edges)


class TestReducesPredicates:
    def test_vanishing_row_sector(self, ex31):
        # the only entry row 2 would need outside {2} is a_{211}, which is absent
        assert tb.strongly_reduces(ex31, {2})

    def test_present_entry_blocks_reduction(self, ex31):
        assert not tb.strongly_reduces(ex31, {1})  # a_{122} escapes {1}

    def test_weak_needs_every_foot_inside(self, ex31):
        # a_{212} keeps one foot outside {2}, so {2} only reduces strongly
        assert not tb.weakly_reduces(ex31, {2})

    def test_zero_row_reduces_both_ways(self, ex61):
        assert tb.strongly_reduces(ex61, {4})
        assert tb.weakly_reduces(ex61, {4})

    def test_weak_is_stricter_than_strong(self, ex61):
        # rows 2,3 vanish on feet inside {1} but reach foot 1 from inside
        assert tb.strongly_reduces(ex61, {2, 3, 4})
        assert not tb.weakly_reduces(ex61, {2, 3, 4})

    def test_full_set_is_never_reducing(self, ex31):
        assert not tb.strongly_reduces(ex31, {1, 2})
        assert not tb.weakly_reduces(ex31, {1, 2})

    def test_empty_set_rejected(self, ex31):
        with pytest.raises(EmptyIndexSet):
            tb.strongly_reduces(ex31, set())
        with pytest.raises(EmptyIndexSet):
            tb.weakly_reduces(ex31, set())

    def test_out_of_range_rejected(self, ex61):
        with pytest.raises(IndexOutOfRange):
            tb.strongly_reduces(ex61, {5})
        with pytest.raises(IndexOutOfRange):
            tb.weakly_reduces(ex61, {0, 1})
        with pytest.raises(IndexOutOfRange):
            tb.reducing_to_utb(ex61, {4, 5})

    @pytest.mark.parametrize("members", [{1.7, 2.2}, {True}, {4.0}])
    def test_non_integer_members_rejected(self, ex61, members):
        # int() would read {4.0} as the reducing set {4}, and {True} as {1}
        with pytest.raises(BadArity):
            tb.strongly_reduces(ex61, members)
        with pytest.raises(BadArity):
            tb.weakly_reduces(ex61, members)
        with pytest.raises(BadArity):
            tb.reducing_to_utb(ex61, members)

    def test_numpy_integer_members_accepted(self, ex61):
        assert tb.strongly_reduces(ex61, {np.int64(4)})
        sigma, _ = tb.reducing_to_utb(ex61, [np.int64(4)])
        assert sigma == Permutation.identity(4)

    def test_order_one_rejected(self):
        vec = tb.new_tensor(1, 2, [((1,), 2.0)])
        with pytest.raises(OrderTooSmall):
            tb.strongly_reduces(vec, {1})

    def test_weak_implies_strong_on_randoms(self):
        rng = random.Random(71)
        for _ in range(60):
            a = rand_tensor(rng, 3, 3, density=0.25)
            for size in (1, 2):
                for subset in itertools.combinations(range(1, 4), size):
                    if tb.weakly_reduces(a, subset):
                        assert tb.strongly_reduces(a, subset)


class TestFindReducingSet:
    def test_missing_entry_found(self, ex31):
        assert tb.find_reducing_set(ex31) == frozenset({2})

    def test_zero_sector_found(self, ex61):
        found = tb.find_reducing_set(ex61)
        assert found == frozenset({2, 3, 4})
        assert tb.strongly_reduces(ex61, found)

    def test_all_ones_is_irreducible(self):
        assert tb.find_reducing_set(all_ones(3)) is None
        assert tb.is_irreducible(all_ones(3))

    def test_zero_tensor_is_reducible(self):
        zero = tb.new_tensor(3, 3, [])
        found = tb.find_reducing_set(zero)
        assert found is not None
        assert not tb.is_irreducible(zero)

    def test_dimension_one_is_irreducible(self):
        assert tb.is_irreducible(tb.new_tensor(3, 1, [((1, 1, 1), 5.0)]))
        assert tb.is_irreducible(tb.new_tensor(3, 1, []))

    def test_agrees_with_enumeration(self):
        rng = random.Random(72)
        for trial in range(150):
            n = 2 + trial % 3
            a = rand_tensor(rng, n, 3, density=rng.choice([0.15, 0.3, 0.5]))
            every = brute_strong_sets(a)
            found = tb.find_reducing_set(a)
            if found is None:
                assert every == []
            else:
                assert found in every


class TestFindWeaklyReducingSet:
    def test_zero_row_found(self, ex61):
        assert tb.find_weakly_reducing_set(ex61) == frozenset({4})

    def test_strongly_connected_digraph(self, ex31):
        assert tb.find_weakly_reducing_set(ex31) is None
        assert tb.is_weakly_irreducible(ex31)

    def test_unit_tensor_has_no_cross_edges(self):
        unit = tb.unit_tensor(3, 2)
        assert tb.find_weakly_reducing_set(unit) == frozenset({1})
        assert not tb.is_weakly_irreducible(unit)

    def test_dimension_one_passes(self):
        assert tb.is_weakly_irreducible(tb.new_tensor(3, 1, []))

    def test_agrees_with_enumeration(self):
        rng = random.Random(73)
        for trial in range(150):
            n = 2 + trial % 3
            a = rand_tensor(rng, n, 3, density=rng.choice([0.15, 0.3, 0.5]))
            every = brute_weak_sets(a)
            found = tb.find_weakly_reducing_set(a)
            if found is None:
                assert every == []
            else:
                assert found in every

    def test_matches_reachability_reference(self):
        for a in sink_ensemble(91, 200):
            sink = brute_sink(a)
            want = None if len(sink) == a.dim else sink
            assert tb.find_weakly_reducing_set(a) == want

    def test_long_path_digraph(self):
        # a 3000-step chain i -> i+1 would overflow a recursive search
        n = 3000
        chain = tb.new_tensor(2, n, [((i, i + 1), 1.0) for i in range(1, n)])
        assert tb.find_weakly_reducing_set(chain) == frozenset({n})

    def test_irreducible_implies_weakly_irreducible(self):
        rng = random.Random(74)
        seen = 0
        for _ in range(120):
            a = rand_tensor(rng, 3, 3, density=0.4)
            if tb.is_irreducible(a):
                seen += 1
                assert tb.is_weakly_irreducible(a)
        assert seen > 10


class TestReducingToUtb:
    def test_strong_set_yields_third_kind(self, ex31):
        sigma, moved = tb.reducing_to_utb(ex31, {2})
        assert sigma == Permutation.identity(2)
        assert moved == ex31
        assert tb.is_blocked(moved, Partition((1, 1)), BlockKind.UTB3)

    def test_weak_set_yields_first_kind(self, ex61):
        sigma, moved = tb.reducing_to_utb(ex61, {4}, weak=True)
        assert sigma == Permutation.identity(4)
        assert moved == ex61
        assert tb.is_blocked(moved, Partition((3, 1)), BlockKind.UTB1)

    def test_interleaved_set_is_sorted_to_the_bottom(self):
        a = tb.new_tensor(3, 4, [((2, 1, 3), 1.0), ((2, 2, 2), -1.0), ((4, 4, 2), 2.0)])
        sigma, moved = tb.reducing_to_utb(a, {1, 3})
        assert sigma == Permutation((3, 1, 4, 2))
        assert tb.is_blocked(moved, Partition((2, 2)), BlockKind.UTB3)
        assert tb.permute_similar(moved, sigma.inverse()) == a

    def test_rejects_non_reducing_sets(self, ex31):
        with pytest.raises(NotReducingSet):
            tb.reducing_to_utb(ex31, {1})
        with pytest.raises(NotReducingSet):
            tb.reducing_to_utb(ex31, {2}, weak=True)


def verify_normal_form(a: tb.Tensor, nf: tb.NormalForm, weak: bool) -> None:
    moved = tb.permute_similar(a, nf.sigma)
    assert sorted(nf.sigma.image) == list(range(1, a.dim + 1))
    assert sum(nf.partition.parts) == a.dim
    if nf.partition.r >= 2:
        assert tb.is_blocked(moved, nf.partition, nf.kind)
    assert list(nf.blocks) == tb.diagonal_blocks(moved, nf.partition)
    check = tb.is_weakly_irreducible if weak else tb.is_irreducible
    assert all(check(b) for b in nf.blocks)


def third_form_exists_by_enumeration(a: tb.Tensor) -> bool:
    """Try every permutation and partition for the third-kind normal shape."""
    for image in itertools.permutations(range(1, a.dim + 1)):
        moved = tb.permute_similar(a, Permutation(image))
        for parts in tb.compositions(a.dim):
            p = Partition(parts)
            if p.r >= 2 and not tb.is_blocked(moved, p, BlockKind.UTB3):
                continue
            if all(tb.is_irreducible(b) for b in tb.diagonal_blocks(moved, p)):
                return True
    return False


class TestNormalForm3rd:
    def test_missing_entry_splits(self, ex31):
        nf = tb.normal_form_3rd(ex31)
        assert nf.sigma == Permutation.identity(2)
        assert nf.partition == Partition((1, 1))
        assert nf.kind == BlockKind.UTB3
        assert nf.blocks[0] == tb.new_tensor(3, 1, [((1, 1, 1), 1.0)])
        assert nf.blocks[1] == tb.new_tensor(3, 1, [])

    def test_irreducible_input_is_one_block(self):
        a = all_ones(3)
        nf = tb.normal_form_3rd(a)
        assert nf.partition == Partition((3,))
        assert nf.sigma == Permutation.identity(3)
        assert nf.blocks == (a,)

    def test_zero_sector_splits_to_singletons(self, ex61):
        nf = tb.normal_form_3rd(ex61)
        assert nf.sigma == Permutation.identity(4)
        assert nf.partition == Partition((1, 1, 1, 1))
        assert all(b.nnz == 0 for b in nf.blocks)
        verify_normal_form(ex61, nf, weak=False)

    def test_some_reducible_tensors_have_no_form(self):
        # {1} is the only closed proper prefix and the forced remainder
        # {2,3} is itself reducible, so no chain reaches the full set
        a = tb.new_tensor(3, 3, [((1, 2, 2), 1.0), ((2, 3, 3), 1.0), ((3, 1, 2), 1.0)])
        assert tb.find_reducing_set(a) is not None
        with pytest.raises(NormalFormUnavailable):
            tb.normal_form_3rd(a)

    def test_matches_exhaustive_existence(self):
        rng = random.Random(75)
        unavailable = 0
        for trial in range(100):
            n = 3 + trial % 2
            a = rand_tensor(rng, n, 3, density=rng.choice([0.05, 0.1, 0.2]))
            try:
                nf = tb.normal_form_3rd(a)
            except NormalFormUnavailable:
                unavailable += 1
                assert not third_form_exists_by_enumeration(a)
            else:
                verify_normal_form(a, nf, weak=False)
                assert third_form_exists_by_enumeration(a)
        assert unavailable > 0  # the gap is hit by ordinary sparse draws

    def test_verified_on_larger_randoms(self):
        rng = random.Random(76)
        for _ in range(100):
            n = rng.randint(2, 6)
            a = rand_tensor(rng, n, 3, density=0.2)
            try:
                nf = tb.normal_form_3rd(a)
            except NormalFormUnavailable:
                continue
            verify_normal_form(a, nf, weak=False)

    def test_deterministic(self, ex61):
        assert tb.normal_form_3rd(ex61) == tb.normal_form_3rd(ex61)

    def test_matches_subset_search(self):
        outcomes = set()
        for a in third_form_ensemble(77, 300, 20):
            try:
                expected = brute_normal_form_3rd(a)
            except NormalFormUnavailable:
                with pytest.raises(NormalFormUnavailable):
                    tb.normal_form_3rd(a)
                outcomes.add((a.dim > 8, None))
            else:
                assert tb.normal_form_3rd(a) == expected
                outcomes.add((a.dim > 8, True))
        assert len(outcomes) == 4  # both outcomes, at dims up to 8 and past 8

    def test_empty_dim_13_is_singletons(self):
        nf = tb.normal_form_3rd(tb.new_tensor(3, 13, []))
        assert nf.sigma == Permutation.identity(13)
        assert nf.partition == Partition((1,) * 13)

    def test_permuted_chain_past_dim_twelve(self):
        # a cycle a[i, i+1, i+1] inside each block makes it irreducible, and
        # every other entry has a foot in its row's block or a later one
        rng = random.Random(78)
        sizes = [3, 1, 4, 2, 5, 3, 4, 2, 6, 3]
        starts = [sum(sizes[:l]) for l in range(len(sizes) + 1)]
        n = starts[-1]
        block_of = [l for l, size in enumerate(sizes) for _ in range(size)]  # at index i - 1
        entries = {}
        for l, size in enumerate(sizes):
            for pos in range(size):
                nxt = starts[l] + (pos + 1) % size + 1
                entries[(starts[l] + pos + 1, nxt, nxt)] = 1.0
        for _ in range(3 * n):
            i = rng.randint(1, n)
            later = rng.randint(starts[block_of[i - 1]] + 1, n)
            entries[(i, later, rng.randint(1, n))] = 1.0
        a = tb.permute_similar(tb.new_tensor(3, n, list(entries.items())), rand_permutation(rng, n))
        nf = tb.normal_form_3rd(a)
        verify_normal_form(a, nf, weak=False)
        assert sorted(nf.partition.parts) == sorted(sizes)

    def test_dead_prefix_limit(self, monkeypatch):
        # {1} is closed and irreducible but no chain completes it, so the
        # search backtracks through {1} joined with every subset of the
        # empty indices 4..13 before it starts from {3}
        a = tb.new_tensor(3, 13, [((2, 1, 3), 1.0), ((3, 2, 2), 1.0)])
        nf = tb.normal_form_3rd(a)
        assert nf.sigma.image == (3, 2, 1) + tuple(range(4, 14))
        monkeypatch.setattr(structure, "_PREFIX_BUDGET", 8)
        with pytest.raises(DimensionTooLarge):
            tb.normal_form_3rd(a)

    def test_order_guard(self):
        with pytest.raises(OrderTooSmall):
            tb.normal_form_3rd(tb.new_tensor(1, 3, []))


class TestNormalForm2nd:
    def test_peels_zero_row_first(self, ex61):
        nf = tb.normal_form_2nd(ex61)
        assert nf.sigma == Permutation((3, 2, 1, 4))
        assert nf.partition == Partition((1, 1, 1, 1))
        assert nf.kind == BlockKind.UTB2
        assert all(b.nnz == 0 for b in nf.blocks)
        verify_normal_form(ex61, nf, weak=True)

    def test_weakly_irreducible_input_is_one_block(self, ex31):
        nf = tb.normal_form_2nd(ex31)
        assert nf.partition == Partition((2,))
        assert nf.blocks == (ex31,)

    def test_component_blocks_of_disjoint_hypergraph(self, fixtures_dir):
        graph = load_hypergraph(fixtures_dir / "hyper_two_triangles.json")
        a = tb.adjacency_tensor(graph)
        nf = tb.normal_form_2nd(a)
        assert nf.sigma == Permutation((4, 5, 6, 1, 2, 3))
        assert nf.partition == Partition((3, 3))
        triangle = tb.adjacency_tensor(tb.Hypergraph.from_edge_lists(3, 3, [[1, 2, 3]]))
        assert nf.blocks == (triangle, triangle)

    def test_verified_on_randoms(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(2, 6)
            a = rand_tensor(rng, n, 3, density=0.2)
            nf = tb.normal_form_2nd(a)
            verify_normal_form(a, nf, weak=True)

    def test_matches_reachability_reference(self):
        for a in sink_ensemble(92, 150):
            nf = tb.normal_form_2nd(a)
            assert (nf.sigma.image, nf.partition.parts) == brute_normal_form_2nd(a)

    def test_single_block_iff_weakly_irreducible(self):
        rng = random.Random(78)
        for _ in range(60):
            a = rand_tensor(rng, 4, 3, density=0.3)
            nf = tb.normal_form_2nd(a)
            assert (nf.partition.r == 1) == tb.is_weakly_irreducible(a)

    def test_deterministic(self, ex61):
        assert tb.normal_form_2nd(ex61) == tb.normal_form_2nd(ex61)

    def test_radius_is_max_over_blocks(self):
        rng = random.Random(79)
        for _ in range(25):
            n = rng.randint(2, 5)
            a = rand_tensor(rng, n, 3, density=0.3, values=(0.5, 1.0, 2.0))
            nf = tb.normal_form_2nd(a)
            best = max(tb.spectral_radius(b).rho for b in nf.blocks)
            assert tb.spectral_radius(a).rho == pytest.approx(best, abs=1e-8)

    def test_order_guard(self):
        with pytest.raises(OrderTooSmall):
            tb.normal_form_2nd(tb.new_tensor(1, 3, []))


class TestFirstTypeWitness:
    def test_none_for_zero_sector(self, ex61):
        assert tb.exists_first_type_normal_form(ex61) is None

    def test_none_for_missing_entry_pair(self, ex31):
        assert tb.exists_first_type_normal_form(ex31) is None

    def test_unit_tensor_witness(self):
        witness = tb.exists_first_type_normal_form(tb.unit_tensor(3, 2))
        assert witness == (Permutation.identity(2), Partition((1, 1)))

    def test_component_split_witness(self, fixtures_dir):
        graph = load_hypergraph(fixtures_dir / "hyper_two_triangles.json")
        witness = tb.exists_first_type_normal_form(tb.adjacency_tensor(graph))
        assert witness == (Permutation.identity(6), Partition((3, 3)))

    def test_witnesses_verify_on_randoms(self):
        rng = random.Random(80)
        found = 0
        for _ in range(60):
            a = rand_tensor(rng, 3, 3, density=0.1)
            witness = tb.exists_first_type_normal_form(a)
            if witness is None:
                continue
            found += 1
            sigma, p = witness
            moved = tb.permute_similar(a, sigma)
            assert tb.is_blocked(moved, p, BlockKind.UTB1)
            assert all(tb.is_weakly_irreducible(b)
                       for b in tb.diagonal_blocks(moved, p))
        assert found > 5

    def test_matches_exhaustive_search(self):
        for a in first_type_ensemble(81, 300):
            assert tb.exists_first_type_normal_form(a) == brute_first_type(a)

    def test_lexicographically_first_sigma(self):
        # neither the identity nor the order the components come out in
        a = tb.new_tensor(2, 3, [((3, 1), 1.0)])
        assert tb.exists_first_type_normal_form(a) == (Permutation((2, 3, 1)),
                                                       Partition((1, 1, 1)))

    def test_component_block_can_lose_its_edges(self):
        # {1, 2} is strongly connected only through entries that leave it,
        # so its principal subtensor is zero and weakly reducible
        a = tb.new_tensor(3, 3, [((1, 2, 3), 1.0), ((2, 1, 3), 1.0), ((3, 3, 3), 1.0)])
        assert tb.exists_first_type_normal_form(a) is None

    def test_answers_past_dim_six(self):
        witness = tb.exists_first_type_normal_form(tb.unit_tensor(3, 12))
        assert witness == (Permutation.identity(12), Partition((1,) * 12))
        # two interleaved paths of triples: odd vertices and even vertices
        paths = [[v, v + 2, v + 4] for v in range(1, 197)]
        a = tb.adjacency_tensor(tb.Hypergraph.from_edge_lists(3, 200, paths))
        sigma, p = tb.exists_first_type_normal_form(a)
        assert sigma.image == tuple((v + 1) // 2 + 100 * (v % 2 == 0) for v in range(1, 201))
        assert p == Partition((100, 100))
        moved = tb.permute_similar(a, sigma)
        assert tb.is_blocked(moved, p, BlockKind.UTB1)
        assert all(tb.is_weakly_irreducible(b) for b in tb.diagonal_blocks(moved, p))


    def test_builds_no_block_tensor(self, monkeypatch):
        # the witness is a layout: sigma and the partition, with no diagonal block built
        tensors = list(first_type_ensemble(89, 150))
        want = [tb.exists_first_type_normal_form(a) for a in tensors]
        assert sum(w is not None for w in want) > 30

        def refuse(*args):
            raise AssertionError("the first-type witness built a block tensor")

        monkeypatch.setattr(structure, "diagonal_blocks", refuse)
        assert [tb.exists_first_type_normal_form(a) for a in tensors] == want


class TestFormsTakeTheSearchesProofs:
    """Each search proves the blocks it numbers: the closure search that every third-type
    block is irreducible, the peel's last component search and the first-type search over
    the entries inside components that every block is weakly irreducible. So the forms run
    no block test of their own; the blocks are checked here once the tests are back."""

    def test_no_block_is_tested_again(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a normal form tested a block again")

        tensors = [*third_form_ensemble(86, 150, 30), *first_type_ensemble(87, 150),
                   *sink_ensemble(88, 150)]
        with monkeypatch.context() as patched:
            for name in ("is_irreducible", "is_weakly_irreducible", "find_reducing_set",
                         "find_weakly_reducing_set"):
                patched.setattr(structure, name, refuse)
            forms = []
            for a in tensors:
                try:
                    third = tb.normal_form_3rd(a)
                except (NormalFormUnavailable, DimensionTooLarge):
                    third = None
                forms.append((a, third, tb.normal_form_2nd(a), tb.exists_first_type_normal_form(a)))
        assert structure.is_irreducible is tb.is_irreducible
        counts = [0, 0]
        for a, third, second, first in forms:
            if third is not None:
                verify_normal_form(a, third, weak=False)
                counts[0] += third.partition.r > 1
            verify_normal_form(a, second, weak=True)
            if first is not None:
                sigma, p = first
                counts[1] += 1
                verify_normal_form(a, tb.NormalForm(sigma, p, BlockKind.UTB1, tuple(
                    tb.diagonal_blocks(tb.permute_similar(a, sigma), p))), weak=True)
        assert min(counts) > 100, counts


class TestHypergraphValidation:
    def test_pair_uniformity_is_the_floor(self):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph.from_edge_lists(1, 3, [[1]])

    def test_needs_vertices(self):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph.from_edge_lists(2, 0, [])

    def test_edge_size_must_match(self):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph.from_edge_lists(3, 4, [[1, 2]])

    def test_repeated_vertex_shrinks_the_edge(self):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph.from_edge_lists(3, 4, [[1, 1, 2]])

    def test_vertex_range(self):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph.from_edge_lists(2, 3, [[1, 4]])

    def test_duplicate_edges_rejected_up_to_order(self):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph.from_edge_lists(3, 3, [[1, 2, 3], [3, 2, 1]])

    @pytest.mark.parametrize("edges", [
        ((1, 1, 2),),  # a repeated vertex: two distinct vertices, not three
        ((1, 2, 3), (3, 2, 1)),  # one edge twice, as 12 adjacency entries where 6 belong
        ([1, 2, 3],),  # unhashable
    ], ids=["repeated_vertex", "same_edge_reordered", "list_edge"])
    def test_edges_that_are_not_sets(self, edges):
        with pytest.raises(InvalidHypergraph):
            tb.Hypergraph(3, 5, edges)

    @pytest.mark.parametrize("k, n, name", [
        (3.0, 4, "k"), (3, 4.0, "n"), (True, 4, "k"), (3, "4", "n"), (None, 4, "k"),
    ], ids=["float_k", "float_n", "bool_k", "str_n", "none_k"])
    def test_k_and_n_must_be_integers(self, k, n, name):
        with pytest.raises(InvalidHypergraph, match=f"^{name} must be an integer, got "):
            tb.Hypergraph(k, n, (frozenset({1, 2, 3}),))

    def test_numpy_integer_k_and_n(self):
        graph = tb.Hypergraph(np.int64(3), np.int64(4), (frozenset({1, 2, 3}),))
        assert tb.connected_components(graph) == [frozenset({1, 2, 3}), frozenset({4})]

    def test_edges_are_stored_as_sets(self):
        graph = tb.Hypergraph.from_edge_lists(3, 5, [[3, 1, 2]])
        assert graph.edges == (frozenset({1, 2, 3}),)

    @pytest.mark.parametrize("build, shown", [
        (lambda: tb.Hypergraph.from_edge_lists(3, 5, [[1.7, 2, 3]]), "1.7"),  # not truncated
        (lambda: tb.Hypergraph(3, 5, (frozenset({1.5, 2, 3}),)), "1.5"),
        (lambda: tb.Hypergraph.from_edge_lists(3, 5, [["a", 2, 3]]), "'a'"),
        (lambda: tb.Hypergraph.from_edge_lists(3, 5, [[True, 2, 3]]), "True"),  # not vertex 1
    ], ids=["float_in_a_list", "float_in_a_set", "str", "bool"])
    def test_non_integer_vertex(self, build, shown):
        with pytest.raises(InvalidHypergraph) as err:
            build()
        assert str(err.value) == f"vertex {shown} is not an integer"

    def test_numpy_integer_vertices(self):
        graph = tb.Hypergraph.from_edge_lists(3, 5, np.array([[3, 1, 2], [2, 4, 5]]))
        assert graph.edges == (frozenset({1, 2, 3}), frozenset({2, 4, 5}))

    def test_first_fault_is_named(self):
        # the bulk check finds a fault; the message names the first edge at fault, as the
        # edge-by-edge loop always did
        cases = [([[1, 2, 3], [1, 2], [1, 2, 9]], "edge [1, 2] has 2 distinct vertices, "
                                                  "expected 3"),
                 ([[1, 2, 3], [2, 3, 7], [3, 2, 1], [0, 1, 2]], "vertex 7 outside [1, 5]"),
                 ([[1, 2, 3], [4, 5, 1], [3, 1, 2], [1, 2.0, 3]], "duplicate edge [1, 2, 3]")]
        for edges, message in cases:
            with pytest.raises(InvalidHypergraph) as err:
                tb.Hypergraph.from_edge_lists(3, 5, edges)
            assert str(err.value) == message


class TestAdjacencyTensor:
    def test_single_triple_edge(self):
        graph = tb.Hypergraph.from_edge_lists(3, 3, [[1, 2, 3]])
        a = tb.adjacency_tensor(graph)
        want = {perm: 0.5 for perm in itertools.permutations((1, 2, 3))}
        assert a.order == 3 and a.dim == 3
        assert dict(a.entries) == want

    def test_graph_case_is_the_adjacency_matrix(self):
        graph = tb.Hypergraph.from_edge_lists(2, 3, [[1, 2], [2, 3]])
        want = tb.new_tensor(2, 3, [((1, 2), 1.0), ((2, 1), 1.0),
                                    ((2, 3), 1.0), ((3, 2), 1.0)])
        assert tb.adjacency_tensor(graph) == want

    def test_disjoint_edges_give_diagonal_blocks(self):
        graph = tb.Hypergraph.from_edge_lists(3, 6, [[1, 2, 3], [4, 5, 6]])
        a = tb.adjacency_tensor(graph)
        assert tb.is_blocked(a, Partition((3, 3)), BlockKind.DIAG)
        triangle = tb.adjacency_tensor(tb.Hypergraph.from_edge_lists(3, 3, [[1, 2, 3]]))
        assert tb.diagonal_blocks(a, Partition((3, 3))) == [triangle, triangle]

    def test_entries_in_edge_then_permutation_order(self):
        # view order: rows ascending, and within a row the order the per-edge loop over
        # itertools.permutations(sorted(edge)) gave
        rng = random.Random(571)
        for k in (2, 3, 4):
            graph = rand_hypergraph(rng, k, [rng.randint(1, 7) for _ in range(3)], 5)
            a = tb.adjacency_tensor(graph)
            want = sorted((perm for edge in graph.edges
                           for perm in itertools.permutations(sorted(edge))), key=itemgetter(0))
            assert list(a.entries) == want and all(type(i) is int for idx in want for i in idx)
            assert "coo" in a.__dict__  # handed on, not screened from the keys

    def test_connected_graph_is_weakly_irreducible(self, fixtures_dir):
        graph = load_hypergraph(fixtures_dir / "hyper_chain.json")
        assert tb.connected_components(graph) == [frozenset(range(1, 8))]
        assert tb.is_weakly_irreducible(tb.adjacency_tensor(graph))


class TestConnectedComponents:
    def test_two_triangles(self, fixtures_dir):
        graph = load_hypergraph(fixtures_dir / "hyper_two_triangles.json")
        assert tb.connected_components(graph) == [frozenset({1, 2, 3}),
                                                  frozenset({4, 5, 6})]

    def test_isolated_vertices_are_singletons(self):
        graph = tb.Hypergraph.from_edge_lists(3, 5, [[1, 2, 3]])
        assert tb.connected_components(graph) == [frozenset({1, 2, 3}),
                                                  frozenset({4}), frozenset({5})]

    def test_no_edges(self):
        graph = tb.Hypergraph.from_edge_lists(2, 3, [])
        assert tb.connected_components(graph) == [frozenset({1}), frozenset({2}),
                                                  frozenset({3})]

    def test_radius_is_max_over_components(self):
        rng = random.Random(81)
        for trial in range(10):
            groups = [3, 4] if trial % 2 else [3, 3, 4]
            graph = rand_hypergraph(rng, 3, groups, edges_per_group=2)
            a = tb.adjacency_tensor(graph)
            best = max(
                tb.spectral_radius(tb.adjacency_tensor(sub_hypergraph(graph, comp))).rho
                for comp in tb.connected_components(graph))
            assert tb.spectral_radius(a).rho == pytest.approx(best, abs=1e-8)
