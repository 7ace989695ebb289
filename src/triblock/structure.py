"""Reducibility, block-triangular normal forms, and uniform hypergraphs.

Two nested notions of reducibility drive everything here. An index set I
strongly reduces a tensor when rows of I vanish whenever *all* trailing
indices leave I; it weakly reduces when rows of I vanish whenever *any*
trailing index leaves I. Weak reducibility is exactly failure of strong
connectivity of the digraph drawn from the representation matrix, which
is what the normal-form peeling exploits.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .blocked import BlockKind, Partition, diagonal_blocks, is_blocked
from .core import (Permutation, Tensor, _check_integer, _equal_from, _from_arrays, _index_set,
                   _integer_type, permute_similar)
from .errors import (
    DimensionTooLarge,
    InvalidHypergraph,
    NormalFormUnavailable,
    NotReducingSet,
    OrderTooSmall,
)

_PREFIX_BUDGET = 1 << 12  # dead prefixes normal_form_3rd may hold before it gives up
_FIRST_BATCH = 64  # small enough to stop early on reducible input, one call for blocks to dim 64


def _check_order(tensor: Tensor) -> None:
    if tensor.order < 2:
        raise OrderTooSmall("reducibility needs order >= 2")


def _reduces(tensor: Tensor, index_set: Iterable[int], weak: bool) -> bool:
    """Do rows of I vanish whenever every trailing index (or, if weak, any) leaves I?"""
    _check_order(tensor)
    members = _index_set(index_set, tensor.dim)
    if len(members) == tensor.dim:
        return False  # must be proper
    columns = np.isin(tensor.coo.idx.T, np.asarray(members) - 1)
    leaves = ~columns[1:].all(axis=0) if weak else ~columns[1:].any(axis=0)
    return not (columns[0] & leaves).any()


def strongly_reduces(tensor: Tensor, index_set: Iterable[int]) -> bool:
    """Do rows of I vanish whenever every trailing index stays outside I?"""
    return _reduces(tensor, index_set, weak=False)


def weakly_reduces(tensor: Tensor, index_set: Iterable[int]) -> bool:
    """Do rows of I vanish whenever at least one trailing index leaves I?"""
    return _reduces(tensor, index_set, weak=True)


def _closures(columns: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Close each row of the boolean seeds × n matrix ``inside`` in place under the 0-based index
    columns ``columns`` (``idx.T``), ANDing a foot at a time (seeds × nnz) until none fires."""
    rows, feet = columns[0], columns[1:]
    while True:
        fire = ~inside[:, rows]
        for foot in feet:
            fire &= inside[:, foot]
        seeds, at = fire.nonzero()
        if not len(seeds):
            return inside
        inside[seeds, rows[at]] = True


def _reducing_set(columns: np.ndarray, members: np.ndarray) -> Optional[frozenset[int]]:
    """A strongly reducing set of the index columns ``columns`` on the mask ``members``, or None.

    Closes each member in turn as a seed; the complement of the first closure that fails
    to swallow ``members`` strongly reduces. The search is complete: any reducing set's
    complement is closed, so seeding inside it must succeed. Seeds go to ``_closures`` in
    batches doubling from ``_FIRST_BATCH``: a logarithmic number of calls in all.
    """
    inner = columns.compress(members[columns].all(axis=0), axis=1)
    seeds, start = np.flatnonzero(members), 0
    while start < len(seeds) > 1:  # a single member closes onto itself
        batch = seeds[start:2 * start + _FIRST_BATCH]
        inside = _closures(inner, batch[:, None] == np.arange(len(members)))
        short = np.flatnonzero(inside.sum(axis=1) < len(seeds))
        if len(short):
            return frozenset((np.flatnonzero(members & ~inside[short[0]]) + 1).tolist())
        start += len(batch)
    return None


def find_reducing_set(tensor: Tensor) -> Optional[frozenset[int]]:
    """A strongly reducing index set, or None when the tensor is irreducible."""
    _check_order(tensor)
    found = _reducing_set(tensor.coo.idx.T, np.ones(tensor.dim, dtype=bool))
    assert found is None or strongly_reduces(tensor, found)
    return found


def is_irreducible(tensor: Tensor) -> bool:
    """No strongly reducing set exists. Dimension-1 tensors count as irreducible."""
    return find_reducing_set(tensor) is None


def _edges(idx: np.ndarray, n: int) -> np.ndarray:
    """Sorted codes (i-1)*n + (t-1) of the entry digraph's edges i -> t, one per row-i entry
    and trailing index t, from 0-based index rows (``Tensor.coo.idx``); repeats dropped."""
    codes = idx.T[1:] + idx[:, 0] * n
    if n * n <= codes.size:  # dense: a table of the n^2 edges, no larger than the codes
        return np.flatnonzero(np.bincount(codes.ravel(), minlength=n * n))
    codes = np.sort(codes, axis=None)
    return np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))


def _scc_labels(edges: np.ndarray, n: int) -> np.ndarray:
    """Per vertex of [0, n), the least vertex of its strongly connected component under the
    sorted edge codes ``edges`` of ``_edges``.

    Pearce's one-array Tarjan (Inf. Process. Lett. 116(1), 2016), with a stack of
    (vertex, next edge, root) frames in place of recursion: ``rindex`` holds a vertex's
    visit index, then the least index it reaches, then its component's number, counted
    down from n - 1 so that no finished vertex lowers a live one. A frame resumes at the
    edge it left by, to read the index that edge's head came back with.
    """
    starts = np.searchsorted(edges, np.arange(n + 1) * n).tolist()
    heads, rindex, stack, index, c = (edges % n).tolist(), [0] * n, [], 1, n - 1
    for s in range(n):
        if rindex[s]:
            continue
        rindex[s], index, frames = index, index + 1, [(s, starts[s], True)]
        while frames:
            v, e, root = frames.pop()
            for e in range(e, starts[v + 1]):
                w = heads[e]
                if not rindex[w]:
                    frames += (v, e, root), (w, starts[w], True)
                    rindex[w], index = index, index + 1
                    break
                if rindex[w] < rindex[v]:
                    rindex[v], root = rindex[w], False
            else:
                if not root:
                    stack.append(v)
                    continue
                while stack and rindex[stack[-1]] >= rindex[v]:
                    rindex[stack.pop()], index = c, index - 1
                rindex[v], index, c = c, index - 1, c - 1
    comp, least = np.array(rindex), np.full(n, n)
    np.minimum.at(least, comp, np.arange(n))
    return least[comp]


def _labels(pairs: np.ndarray, n: int) -> np.ndarray:
    """Per vertex of [0, n), the least vertex of its class under undirected 0-based edges.

    Hooking and pointer jumping (Shiloach and Vishkin, J. Algorithms 3(1), 1982): a round
    hooks each root to the least root across an edge out of its tree, if smaller, then jumps
    pointers to roots. A tree left alone borders a smaller new root and hooks the next round.
    """
    ends, label = np.ascontiguousarray(pairs.T), np.arange(n)
    while True:
        roots = label[ends]
        cross = roots[0] != roots[1]  # an edge inside a tree stays inside it
        if not cross.any():
            return label
        ends, roots = ends.compress(cross, axis=1), roots.compress(cross, axis=1)
        np.minimum.at(label, roots.ravel(), roots[::-1].ravel())  # each way along the edge
        while (label[label] != label).any():
            label = label[label]


def _numbered(label: np.ndarray) -> np.ndarray:
    """Per vertex, its class's number under a labelling by least member, in that member's order."""
    return np.cumsum(label == np.arange(len(label)))[label] - 1


def _sccs(idx: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Per vertex of [0, n), the least vertex of its strongly connected component in the entry
    digraph of the 0-based index rows ``idx``, and whether no edge leaves a component: from
    ``_labels`` where every edge goes both ways, from ``_scc_labels`` elsewhere."""
    edges = _edges(idx, n)
    tails, heads = np.divmod(edges, n)
    if np.array_equal(np.sort(heads * n + tails), edges):
        return _labels(np.stack((tails, heads), 1)[tails < heads], n), True
    label = _scc_labels(edges, n)
    return label, bool((label[tails] == label[heads]).all())


def _replay(rows: np.ndarray, count: int) -> np.ndarray:
    """Per block 0, ..., count - 1, its place from the back of Kahn's order (CACM 5(11), 1962),
    the least ready one taken first: a block is ready once each of the ``rows`` it heads (its
    number, then its feet's blocks) has lost a foot to a block taken before. Every row needs
    a foot in another block."""
    at, slot = np.nonzero(rows[:, 1:] != rows[:, :1])  # each row's feet elsewhere
    feet = rows[:, 1:][at, slot]
    starts = [0, *np.bincount(feet, minlength=count).cumsum().tolist()]
    lost, heads = at[np.argsort(feet)].tolist(), rows[:, 0].tolist()  # by the foot's block
    waiting = np.bincount(rows[:, 0], minlength=count).tolist()
    ready, gone = [b for b, left in enumerate(waiting) if not left], [False] * len(heads)
    place = [0] * count
    while ready:
        b = heapq.heappop(ready)
        count -= 1
        place[b] = count
        for e in lost[starts[b]:starts[b + 1]]:
            if not gone[e]:
                gone[e] = True
                waiting[heads[e]] -= 1
                if not waiting[heads[e]]:
                    heapq.heappush(ready, heads[e])
    return np.array(place)


def _peel(tensor: Tensor) -> np.ndarray:
    """Per 0-based index, its second-type block, numbered from the last sink peeled: each sink
    (a component no edge leaves) holds the smallest index once the earlier ones are gone.

    A peel drops only entries that mention a peeled index, never one inside a block that
    stays: the blocks are the components left once a search drops no entry with an index
    outside its row's component. ``_replay`` gives the order: a block is a sink once each
    of its dropped entries has lost a foot to an earlier block. A tensor with an entry at
    every off-diagonal position is one block without a search: its digraph is complete.
    """
    idx, n = tensor.coo.idx, tensor.dim
    off = n ** tensor.order - n  # the off-diagonal positions
    if len(idx) >= off and len(idx) - np.count_nonzero(_equal_from(tensor, 0)) == off:
        return np.zeros(n, dtype=int)
    label, closed = _sccs(idx, n)
    dropped = []
    while not closed:
        inside = (label[idx.T] == label[idx[:, 0]]).all(axis=0)
        idx, dropped = idx.T.compress(inside, axis=1).T, [*dropped, idx[~inside]]
        label, closed = _sccs(idx, n)
    block = _numbered(label)
    count = int(block.max()) + 1
    if not dropped:  # no entry leaves its block, so each block is a sink from the start
        return count - 1 - block
    return _replay(block[np.concatenate(dropped)], count)[block]


def find_weakly_reducing_set(tensor: Tensor) -> Optional[frozenset[int]]:
    """A weakly reducing index set, or None when none exists.

    The digraph on [1, n] with an edge i -> j whenever row i mentions
    index j is strongly connected exactly when the tensor is weakly
    irreducible. Otherwise any sink strongly connected component is
    closed under outgoing edges, hence weakly reduces the tensor; the
    one containing the smallest index is returned for determinism.
    """
    _check_order(tensor)
    idx, n = tensor.coo.idx, tensor.dim
    label = _sccs(idx, n)[0]
    sink = label == np.arange(n)
    sink[label[idx[(label[idx.T] != label[idx[:, 0]]).any(axis=0), 0]]] = False  # edges out
    found = frozenset((np.flatnonzero(label == sink.argmax()) + 1).tolist())
    if len(found) == n:
        return None
    assert weakly_reduces(tensor, found)
    return found


def is_weakly_irreducible(tensor: Tensor) -> bool:
    """Strong connectivity of the representation digraph; dimension 1 passes."""
    return find_weakly_reducing_set(tensor) is None


def reducing_to_utb(tensor: Tensor, index_set: Iterable[int],
                    weak: bool = False) -> tuple[Permutation, Tensor]:
    """Push a (strongly or weakly) reducing set to the bottom rows.

    Relabels so the complement keeps positions 1..k and the reducing set
    takes k+1..n, each in increasing order. The result is third-type
    upper triangular over (k, n-k) for a strong set, first-type for a
    weak one. The set is re-verified first.
    """
    members = _index_set(index_set, tensor.dim)
    ok = weakly_reduces(tensor, members) if weak else strongly_reduces(tensor, members)
    if not ok:
        kind = "weakly" if weak else "strongly"
        raise NotReducingSet(f"{members} does not {kind} reduce the tensor")
    block = np.isin(np.arange(1, tensor.dim + 1), members)  # the set is block 1, the rest 0
    sigma, _, moved = _layout(tensor, block, BlockKind.UTB1 if weak else BlockKind.UTB3)
    return sigma, moved


@dataclass(frozen=True)
class NormalForm:
    """A permutation similarity exhibiting block upper triangular structure.

    ``permute_similar(original, sigma)`` carries the stated kind over
    ``partition``, and ``blocks`` are its diagonal blocks in order.
    """

    sigma: Permutation
    partition: Partition
    kind: BlockKind
    blocks: tuple[Tensor, ...]


def _layout(tensor: Tensor, block: np.ndarray,
            kind: BlockKind) -> tuple[Permutation, Partition, Tensor]:
    """The relabelling and the partition that lay out the blocks numbered in ``block`` (per
    0-based index) in order, each sorted, and the relabelled tensor, verified ``kind``
    blocked over them."""
    sigma = Permutation(tuple((np.argsort(block, kind="stable").argsort() + 1).tolist()))
    partition = Partition(tuple(np.bincount(block).tolist()))
    moved = permute_similar(tensor, sigma)
    if partition.r >= 2 and not is_blocked(moved, partition, kind):
        raise AssertionError("the layout failed block verification")
    return sigma, partition, moved


def _assemble(tensor: Tensor, block: np.ndarray, kind: BlockKind) -> NormalForm:
    """The NormalForm of the blocks numbered in ``block``, its layout verified. The search
    that numbered them proved each block (weakly) irreducible."""
    sigma, partition, moved = _layout(tensor, block, kind)
    return NormalForm(sigma, partition, kind, tuple(diagonal_blocks(moved, partition)))


def normal_form_3rd(tensor: Tensor) -> NormalForm:
    """Third-type upper triangular normal form with irreducible diagonal blocks.

    The triangular condition says every block prefix is closed: whenever
    all trailing indices of a nonzero entry lie in it, so does its row
    index. Splitting off one reducing set at a time does not work, since
    an entry whose trailing indices straddle a cut escapes both halves.
    So this backtracks over chains of closed prefixes whose differences
    induce irreducible blocks, smaller blocks first and lexicographically
    within a size, which makes the output deterministic.

    If P is a closed prefix and B a valid next block, cl(P | {s}) = P | B
    for every s in B: P | B is closed, and B's own entries carry s to all
    of B. So the candidates after P are the sets cl(P | {s}) - P, closed
    by construction and all from one ``_closures`` call; only irreducibility is left to test.

    Some reducible tensors have no such form (a_{122}=a_{233}=a_{312}=1:
    the only closed candidate prefix is {1} and the remainder {2,3} is
    reducible); for those the search is exhaustive and raises
    NormalFormUnavailable. The number of prefixes visited is not
    polynomial, so DimensionTooLarge is raised once more than
    _PREFIX_BUDGET dead prefixes (those no chain completes) are held.
    They are distinct proper subsets of [n], so no tensor of dimension
    12 or less reaches the limit.
    """
    _check_order(tensor)
    columns = tensor.coo.idx.T

    def candidates(prefix: np.ndarray) -> Iterator[np.ndarray]:
        inside = prefix | (np.flatnonzero(~prefix)[:, None] == np.arange(len(prefix)))
        grown = {row.tobytes(): row for row in _closures(columns, inside)}
        # rows sharing P compare as their blocks do: the first to hold a member ranks high
        return map(grown.get, sorted(grown, key=lambda key: (-key.count(1), key), reverse=True))

    # an explicit stack: a chain can hold more blocks than Python's recursion limit
    dead: set[bytes] = set()
    empty = np.zeros(tensor.dim, dtype=bool)
    prefixes, todo = [empty], [candidates(empty)]
    while not prefixes[-1].all():
        grown = next((grown for grown in todo[-1] if grown.tobytes() not in dead
                      and _reducing_set(columns, grown & ~prefixes[-1]) is None), None)
        if grown is not None:
            prefixes.append(grown)
            todo.append(candidates(grown))
            continue
        dead.add(prefixes.pop().tobytes())
        todo.pop()
        if not prefixes:
            raise NormalFormUnavailable(
                "no permutation gives block upper triangular structure with "
                "irreducible diagonal blocks")
        if len(dead) > _PREFIX_BUDGET:
            raise DimensionTooLarge(
                f"decomposition search gave up at dim {tensor.dim} after "
                f"{len(dead)} dead prefixes (limit {_PREFIX_BUDGET})")
    # an index's block is the number of prefixes after the empty one that miss it
    return _assemble(tensor, np.count_nonzero(~np.array(prefixes[1:]), axis=0), BlockKind.UTB3)


def normal_form_2nd(tensor: Tensor) -> NormalForm:
    """Second-type upper triangular normal form with weakly irreducible blocks.

    Peels sink strongly connected components of the representation
    digraph from the bottom up: the first component peeled becomes the
    last diagonal block. Among simultaneous sinks the one containing the
    smallest index goes first, making the output deterministic.
    """
    _check_order(tensor)
    return _assemble(tensor, _peel(tensor), BlockKind.UTB2)


def exists_first_type_normal_form(tensor: Tensor) -> Optional[tuple[Permutation, Partition]]:
    """A first-type upper triangular similarity with weakly irreducible blocks, or None.

    Under a first-type partition every edge i -> t of the entry digraph
    stays in its block or goes to a later one, and a weakly irreducible
    block is strongly connected, so the blocks are exactly the strongly
    connected components, in an order with every edge forward. A witness
    therefore exists when there are at least two components and each
    component's principal subtensor is weakly irreducible (it can lose
    edges the component relies on: a_{123} = a_{213} = a_{333} = 1 has
    the component {1, 2} but an empty block there). So one more search
    runs over the entries inside components: their subtensors are all
    weakly irreducible when it labels every index as the first one did.

    The witness returned is the one with the lexicographically first
    sigma. Components are placed from the back, each time the one with
    the largest smallest index among those with no edge into an unplaced
    component: moving it last only moves earlier every component whose
    smallest index is smaller. So ``_replay`` places them, numbered from
    the largest smallest index down, with one row per edge between two.
    """
    _check_order(tensor)
    idx, n = tensor.coo.idx, tensor.dim
    label = _sccs(idx, n)[0]
    inside = (label[idx.T] == label[idx[:, 0]]).all(axis=0)
    if not label.any() or not np.array_equal(_sccs(idx.T.compress(inside, axis=1).T, n)[0], label):
        return None  # one component, or one whose subtensor is weakly reducible
    count = np.count_nonzero(label == np.arange(n))
    block = count - 1 - _numbered(label)  # from the largest least index down
    out = block[idx[~inside]]
    pairs = np.stack(np.broadcast_arrays(out[:, :1], out[:, 1:]), -1).reshape(-1, 2)
    place = _replay(pairs[pairs[:, 0] != pairs[:, 1]], count)
    return _layout(tensor, place[block], BlockKind.UTB1)[:2]


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices [1, n]; edges are k-sets, each a frozenset
    (``from_edge_lists`` takes sequences)."""

    k: int
    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        for name, value in (("k", self.k), ("n", self.n)):
            _check_integer(name, value, InvalidHypergraph)
        if self.k < 2:
            raise InvalidHypergraph(f"edges need at least two vertices, got k={self.k}")
        if self.n < 1:
            raise InvalidHypergraph(f"vertex count must be positive, got {self.n}")
        # as frozensets, sizes count distinct vertices and edges compare whatever their order
        sets = all(isinstance(edge, frozenset) for edge in self.edges)
        flat = [*itertools.chain(*self.edges)] if sets else []
        if (sets and set(map(len, self.edges)) <= {self.k}
                and all(map(_integer_type, set(map(type, flat))))
                and (not flat or 1 <= min(flat) and max(flat) <= self.n)
                and len(set(self.edges)) == len(self.edges)):
            return  # all edges checked at once; the loop below names the first at fault
        seen = set()
        for edge in self.edges:
            if not isinstance(edge, frozenset):
                raise InvalidHypergraph(f"edge {edge!r} is not a frozenset")
            if len(edge) != self.k:
                raise InvalidHypergraph(
                    f"edge {sorted(edge)} has {len(edge)} distinct vertices, expected {self.k}")
            for v in edge:
                if not _integer_type(type(v)):
                    raise InvalidHypergraph(f"vertex {v!r} is not an integer")
                if not 1 <= v <= self.n:
                    raise InvalidHypergraph(f"vertex {v} outside [1, {self.n}]")
            if edge in seen:
                raise InvalidHypergraph(f"duplicate edge {sorted(edge)}")
            seen.add(edge)

    @classmethod
    def from_edge_lists(cls, k: int, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(k, n, tuple(map(frozenset, edges)))


def _edge_rows(graph: Hypergraph) -> np.ndarray:
    """The edges as rows of 0-based vertices, each row ascending, in edge order."""
    return np.sort(np.fromiter(itertools.chain(*graph.edges), np.int64).reshape(-1, graph.k), 1) - 1


def adjacency_tensor(graph: Hypergraph) -> Tensor:
    """Order-k adjacency tensor, 1/(k-1)! at every arrangement of every edge.

    The normalization makes applying the tensor to a vector reproduce,
    in each edge coordinate, the plain product over the other vertices.
    """
    k, rows = graph.k, _edge_rows(graph)  # the entries come edge by edge, then by arrangement
    columns = np.stack([rows[:, at].ravel() for at in zip(*itertools.permutations(range(k)))])
    return _from_arrays(k, graph.n, columns.T, np.full(columns.shape[1], 1 / math.factorial(k - 1)))


def _component_blocks(graph: Hypergraph) -> np.ndarray:
    """Per 0-based vertex, the number of its class under shared edges, in order of least
    member. Each edge joins its least vertex to the others, and ``_labels`` labels the classes."""
    pairs = _edge_rows(graph)[:, [(0, j) for j in range(1, graph.k)]].reshape(-1, 2)
    return _numbered(_labels(pairs, graph.n))


def connected_components(graph: Hypergraph) -> list[frozenset[int]]:
    """Vertex classes reachable through shared edges, sorted by smallest member; isolated
    vertices come back as singletons."""
    block = _component_blocks(graph)
    flat, cuts = (np.argsort(block, kind="stable") + 1).tolist(), np.bincount(block).cumsum()
    return [frozenset(flat[lo:hi]) for lo, hi in zip([0, *cuts.tolist()], cuts.tolist())]
