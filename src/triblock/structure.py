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
from .core import Permutation, Tensor, _from_arrays, _index_set, permute_similar
from .errors import (
    DimensionTooLarge,
    InvalidHypergraph,
    NormalFormUnavailable,
    NotReducingSet,
    OrderTooSmall,
)

_PREFIX_BUDGET = 1 << 12  # dead prefixes normal_form_3rd may hold before it gives up


def _check_order(tensor: Tensor) -> None:
    if tensor.order < 2:
        raise OrderTooSmall("reducibility needs order >= 2")


def _reduces(tensor: Tensor, index_set: Iterable[int], weak: bool) -> bool:
    """Do rows of I vanish whenever every trailing index (or, if weak, any) leaves I?"""
    _check_order(tensor)
    members = _index_set(index_set, tensor.dim)
    if len(members) == tensor.dim:
        return False  # must be proper
    columns = np.isin(np.ascontiguousarray(tensor.coo.idx.T), np.asarray(members) - 1)
    leaves = ~columns[1:].all(axis=0) if weak else ~columns[1:].any(axis=0)
    return not (columns[0] & leaves).any()


def strongly_reduces(tensor: Tensor, index_set: Iterable[int]) -> bool:
    """Do rows of I vanish whenever every trailing index stays outside I?"""
    return _reduces(tensor, index_set, weak=False)


def weakly_reduces(tensor: Tensor, index_set: Iterable[int]) -> bool:
    """Do rows of I vanish whenever at least one trailing index leaves I?"""
    return _reduces(tensor, index_set, weak=True)


def _pattern(tensor: Tensor) -> set[tuple[int, frozenset[int]]]:
    """Each entry's row with the set of its trailing indices, 1-based, repeats dropped."""
    return {(row[0], frozenset(row[1:])) for row in (tensor.coo.idx + 1).tolist()}


def _closure(pattern: Iterable[tuple[int, frozenset[int]]],
             inside: Iterable[int]) -> frozenset[int]:
    """Least superset of ``inside`` holding ``row`` for each ``(row, feet)`` whose feet it holds.

    Forward chaining: each pass drops the pairs whose row is already
    inside and fires those whose feet all are, until none fires.
    """
    inside = set(inside)
    while True:
        pattern = [(row, feet) for row, feet in pattern if row not in inside]
        fired = {row for row, feet in pattern if feet <= inside}
        if not fired:
            return frozenset(inside)
        inside |= fired


def _reducing_set(pattern: Iterable[tuple[int, frozenset[int]]],
                  members: frozenset[int]) -> Optional[frozenset[int]]:
    """A strongly reducing set of the pattern's principal part on ``members``, or None.

    Seeds a closure from each member in turn; the complement of the first
    closure that fails to swallow ``members`` strongly reduces. The search
    is complete: any reducing set's complement is closed, so seeding
    inside it must succeed.
    """
    inner = [(row, feet) for row, feet in pattern if row in members and feet <= members]
    for seed in sorted(members):
        inside = _closure(inner, {seed})
        if inside != members:
            return members - inside
    return None


def find_reducing_set(tensor: Tensor) -> Optional[frozenset[int]]:
    """A strongly reducing index set, or None when the tensor is irreducible."""
    _check_order(tensor)
    found = _reducing_set(_pattern(tensor), frozenset(range(1, tensor.dim + 1)))
    assert found is None or strongly_reduces(tensor, found)
    return found


def is_irreducible(tensor: Tensor) -> bool:
    """No strongly reducing set exists. Dimension-1 tensors count as irreducible."""
    return find_reducing_set(tensor) is None


def _edges(idx: np.ndarray, n: int) -> np.ndarray:
    """Sorted codes (i-1)*n + (t-1) of the entry digraph's edges i -> t, one per row-i entry
    and trailing index t, from 0-based index rows (``Tensor.coo.idx``); repeats dropped."""
    codes = np.sort(idx[:, :1] * n + idx[:, 1:], axis=None)
    return np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))


def _heads(edges: np.ndarray, n: int, rows: np.ndarray) -> list[list[int]]:
    """The heads of sorted edge codes out of each of ``rows`` (ascending, 1-based)."""
    starts, ends = np.searchsorted(edges, np.stack((rows - 1, rows)) * n).tolist()
    heads = (edges % n + 1).tolist()
    return [heads[lo:hi] for lo, hi in zip(starts, ends)]


def _successors(edges: np.ndarray, n: int) -> list[list[int]]:
    """Successor lists on [1, n] (slot 0 unused) of sorted edge codes."""
    return [[]] + _heads(edges, n, np.arange(1, n + 1))


def _components(succ, roots: Iterable[int]) -> list[frozenset[int]]:
    """Strongly connected components reachable from ``roots`` in the digraph v -> succ[v].

    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972) with a stack of
    edge iterators in place of recursion: a vertex scans its edges up to
    a new vertex and resumes there once that one is done. A virtual
    vertex 0 with an edge to every root starts the search and comes out
    last, on its own. Work items keep their vertex's place on the stack.
    """
    order, low, done = {0: 0}, {0: 0}, set()
    stack, found = [0], []
    work = [(0, iter(roots), 0)]
    while work:
        v, edges, base = work[-1]
        for w in edges:
            if w not in order:
                break
            if w not in done and order[w] < low[v]:
                low[v] = order[w]
        else:
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == order[v]:
                found.append(frozenset(stack[base:]))
                del stack[base:]
                done.update(found[-1])
            continue
        order[w] = low[w] = len(order)
        work.append((w, iter(succ[w]), len(stack)))
        stack.append(w)
    return found[:-1]


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


def _classes(label: np.ndarray) -> list[frozenset[int]]:
    """The 1-based classes of a labelling by least member, in order of their least member."""
    order = np.argsort(label, kind="stable")
    flat, cuts = (order + 1).tolist(), np.flatnonzero(np.diff(label[order])) + 1
    return [frozenset(flat[lo:hi]) for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), None])]


def _peel(tensor: Tensor) -> Iterator[frozenset[int]]:
    """Sink components (no edge leaves them), each the one holding the smallest index once
    the earlier ones and every entry that mentions them are gone.

    Where every edge goes both ways, they are the classes by least index: none has an edge
    out, and no entry of one mentions another. Otherwise one search finds them. A peel
    rebuilds only the rows with an edge into the sink, from their slices of the view, and
    searches again only inside their components, which removing edges can only split.
    Any other component keeps every edge, so it stays a sink or not.
    """
    coo, n = tensor.coo, tensor.dim
    edges = _edges(coo.idx, n)
    back = np.sort(edges % n * n + edges // n)  # the reversed edges
    if np.array_equal(back, edges):
        yield from _classes(_labels(np.stack(divmod(edges[edges // n < edges % n], n), 1), n))
        return
    succ, pred = _successors(edges, n), None
    home: list[frozenset[int]] = [frozenset()] * (n + 1)
    sinks: list[tuple[int, frozenset[int]]] = []
    alive = np.ones(n, dtype=bool)

    def place(parts: list[frozenset[int]]) -> None:
        for part in parts:
            for v in part:
                home[v] = part
            if all(part.issuperset(succ[v]) for v in part):
                heapq.heappush(sinks, (min(part), part))

    place(_components(succ, range(1, n + 1)))
    while sinks:
        sink = heapq.heappop(sinks)[1]
        yield sink
        alive[[v - 1 for v in sink]] = False
        if not alive.any():
            return
        pred = pred or _successors(back, n)
        rows = sorted({u for v in sink for u in pred[v] if alive[u - 1] and v in succ[u]})
        if not rows:
            continue
        at = np.array(rows)
        lo, hi = coo.idx[:, 0].searchsorted(np.stack((at - 1, at)))  # their slices of the view
        sizes = hi - lo
        entries = coo.idx[np.arange(sizes.sum()) + np.repeat(hi - sizes.cumsum(), sizes)]
        kept = np.compress(np.logical_and.reduce([alive[i] for i in entries.T]), entries, axis=0)
        for r, heads in zip(rows, _heads(_edges(kept, n), n, at)):
            succ[r] = heads
        for comp in {home[u] for u in rows}:
            place(_components({v: [w for w in succ[v] if w in comp] for v in comp}, comp))


def find_weakly_reducing_set(tensor: Tensor) -> Optional[frozenset[int]]:
    """A weakly reducing index set, or None when none exists.

    The digraph on [1, n] with an edge i -> j whenever row i mentions
    index j is strongly connected exactly when the tensor is weakly
    irreducible. Otherwise any sink strongly connected component is
    closed under outgoing edges, hence weakly reduces the tensor; the
    one containing the smallest index is returned for determinism.
    """
    _check_order(tensor)
    found = next(_peel(tensor))
    if len(found) == tensor.dim:
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
    complement = set(range(1, tensor.dim + 1)) - set(members)
    sigma = _stacked([complement, members])
    moved = permute_similar(tensor, sigma)
    k = len(complement)
    expected = BlockKind.UTB1 if weak else BlockKind.UTB3
    if not is_blocked(moved, Partition((k, tensor.dim - k)), expected):
        raise AssertionError("verified reducing set failed to produce the block structure")
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


def _stacked(chain: Iterable[Iterable[int]]) -> Permutation:
    """The relabelling that lays the index blocks of ``chain`` out in order, each one sorted."""
    return Permutation(tuple(old for comp in chain for old in sorted(comp))).inverse()


def _assemble(tensor: Tensor, chain: list[frozenset[int]], kind: BlockKind,
              weak: bool) -> NormalForm:
    """Turn an ordered list of index blocks into a NormalForm, verified on its own blocks."""
    sigma = _stacked(chain)
    partition = Partition(tuple(len(comp) for comp in chain))
    moved = permute_similar(tensor, sigma)
    if partition.r >= 2 and not is_blocked(moved, partition, kind):
        raise AssertionError("normal form failed block verification")
    blocks = tuple(diagonal_blocks(moved, partition))
    check = is_weakly_irreducible if weak else is_irreducible
    if not all(check(b) for b in blocks):
        raise AssertionError("normal form produced a reducible diagonal block")
    return NormalForm(sigma, partition, kind, blocks)


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
    by construction; only irreducibility is left to test.

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
    pattern = _pattern(tensor)
    full = frozenset(range(1, tensor.dim + 1))

    def candidates(prefix: frozenset[int]) -> Iterator[frozenset[int]]:
        blocks = {_closure(pattern, prefix | {s}) - prefix for s in full - prefix}
        return iter(sorted(blocks, key=lambda block: (len(block), sorted(block))))

    # an explicit stack: a chain can hold more blocks than Python's recursion limit
    dead: set[frozenset[int]] = set()
    prefixes, todo = [frozenset()], [candidates(frozenset())]
    while prefixes[-1] != full:
        grown = next((prefixes[-1] | block for block in todo[-1]
                      if prefixes[-1] | block not in dead
                      and _reducing_set(pattern, block) is None), None)
        if grown is not None:
            prefixes.append(grown)
            todo.append(candidates(grown))
            continue
        dead.add(prefixes.pop())
        todo.pop()
        if not prefixes:
            raise NormalFormUnavailable(
                "no permutation gives block upper triangular structure with "
                "irreducible diagonal blocks")
        if len(dead) > _PREFIX_BUDGET:
            raise DimensionTooLarge(
                f"decomposition search gave up at dim {tensor.dim} after "
                f"{len(dead)} dead prefixes (limit {_PREFIX_BUDGET})")
    chain = [outer - inner for inner, outer in zip(prefixes, prefixes[1:])]
    return _assemble(tensor, chain, BlockKind.UTB3, weak=False)


def normal_form_2nd(tensor: Tensor) -> NormalForm:
    """Second-type upper triangular normal form with weakly irreducible blocks.

    Peels sink strongly connected components of the representation
    digraph from the bottom up: the first component peeled becomes the
    last diagonal block. Among simultaneous sinks the one containing the
    smallest index goes first, making the output deterministic.
    """
    _check_order(tensor)
    return _assemble(tensor, list(_peel(tensor))[::-1], BlockKind.UTB2, weak=True)


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
    runs over the entries whose indices share a component: each such
    subtensor is weakly irreducible when it finds no more components.

    The witness returned is the one with the lexicographically first
    sigma. Components are placed from the back, each time the one with
    the largest smallest index among those with no edge into an unplaced
    component: moving it last only moves earlier every component whose
    smallest index is smaller.
    """
    _check_order(tensor)
    idx, n = tensor.coo.idx, tensor.dim
    succ = _successors(_edges(idx, n), n)
    comps = _components(succ, range(1, n + 1))
    if len(comps) < 2:
        return None
    labels = np.array(sorted((v, k) for k, comp in enumerate(comps) for v in comp))[idx, 1]
    inner = _successors(_edges(idx[(labels == labels[:, :1]).all(axis=1)], n), n)
    if len(_components(inner, range(1, n + 1))) > len(comps):
        return None
    leaves = {comp: set().union(*(succ[v] for v in comp)) - comp for comp in comps}
    unplaced = sorted(comps, key=min)
    placed: set[int] = set()
    chain: list[frozenset[int]] = []
    while unplaced:
        last = next(i for i in reversed(range(len(unplaced))) if leaves[unplaced[i]] <= placed)
        placed |= unplaced[last]
        chain.append(unplaced.pop(last))
    nf = _assemble(tensor, list(reversed(chain)), BlockKind.UTB1, weak=True)
    return nf.sigma, nf.partition


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices [1, n]; edges are k-sets."""

    k: int
    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.k < 2:
            raise InvalidHypergraph(f"edges need at least two vertices, got k={self.k}")
        if self.n < 1:
            raise InvalidHypergraph(f"vertex count must be positive, got {self.n}")
        seen = set()
        for edge in self.edges:
            if len(edge) != self.k:
                raise InvalidHypergraph(
                    f"edge {sorted(edge)} has {len(edge)} distinct vertices, expected {self.k}")
            for v in edge:
                if not 1 <= v <= self.n:
                    raise InvalidHypergraph(f"vertex {v} outside [1, {self.n}]")
            if edge in seen:
                raise InvalidHypergraph(f"duplicate edge {sorted(edge)}")
            seen.add(edge)

    @classmethod
    def from_edge_lists(cls, k: int, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        fixed = tuple(frozenset(int(v) for v in edge) for edge in edges)
        return cls(k, n, fixed)


def _edge_rows(graph: Hypergraph) -> np.ndarray:
    """The edges as rows of 0-based vertices, each row ascending, in edge order."""
    return np.sort(np.fromiter(itertools.chain(*graph.edges), np.int64).reshape(-1, graph.k), 1) - 1


def adjacency_tensor(graph: Hypergraph) -> Tensor:
    """Order-k adjacency tensor, 1/(k-1)! at every arrangement of every edge.

    The normalization makes applying the tensor to a vector reproduce,
    in each edge coordinate, the plain product over the other vertices.
    """
    k = graph.k  # the entries come edge by edge
    idx = _edge_rows(graph)[:, list(itertools.permutations(range(k)))].reshape(-1, k)
    return _from_arrays(k, graph.n, idx, np.full(len(idx), 1.0 / math.factorial(k - 1)))


def connected_components(graph: Hypergraph) -> list[frozenset[int]]:
    """Vertex classes reachable through shared edges, sorted by smallest member.

    Each edge joins its least vertex to the others, and ``_labels`` labels
    the classes; isolated vertices come back as singletons.
    """
    pairs = _edge_rows(graph)[:, [(0, j) for j in range(1, graph.k)]].reshape(-1, 2)
    return _classes(_labels(pairs, graph.n))
