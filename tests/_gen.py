"""Test-side oracles and random instance generators.

The oracles here are deliberately naive re-derivations (dense loops over
every index tuple, brute-force subset scans) used to pin down expected
values independently of the library's sparse implementations. The
``loop_*`` references are the per-entry dict loops the vectorised kernels
replaced; the kernels must match them bit for bit.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

import triblock as tb
from triblock import (BlockKind, Partition, RightFormRecovery, SpectralResult, Tensor, apply,
                      tensorio)
from triblock.blocked import _forbidden
from triblock.core import _complex_terms
from triblock.errors import (
    BadArity,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateIndex,
    FormatError,
    IndexOutOfRange,
    NoConvergence,
    NormalFormUnavailable,
    NotRightForm,
    NotRightInvertible,
    OrderTooSmall,
    SingularMatrix,
)
from triblock.inverse import VERIFY_TOL, _invert, _root_with_snap
from triblock.linalg import PIVOT_RTOL, as_matrix
from triblock.spectra import _SHIFT, _is_dense, _largest_row_sum
from triblock.structure import _PREFIX_BUDGET


# ---------------------------------------------------------------- oracles

def _stacked(chain: Iterable[Iterable[int]]) -> tb.Permutation:
    """The relabelling that lays the index blocks of ``chain`` out in order, each one sorted."""
    return tb.Permutation(tuple(old for comp in chain for old in sorted(comp))).inverse()


def dense_apply(tensor: Tensor, x):
    """Brute-force polynomial application over every index tuple."""
    n, m = tensor.dim, tensor.order
    out = [0.0 + 0.0j if any(isinstance(v, complex) for v in x) else 0.0] * n
    for idx in itertools.product(range(1, n + 1), repeat=m):
        a = tensor.get(idx)
        if a == 0.0:
            continue
        term = a
        for t in idx[1:]:
            term = term * x[t - 1]
        out[idx[0] - 1] = out[idx[0] - 1] + term
    return np.asarray(out)


def dense_product(a: Tensor, b: Tensor) -> Tensor:
    """Straight transcription of the product definition, dense in the output."""
    m, k, n = a.order, b.order, a.dim
    out_order = (m - 1) * (k - 1) + 1
    entries = []
    for i in range(1, n + 1):
        for alphas in itertools.product(
                itertools.product(range(1, n + 1), repeat=k - 1), repeat=m - 1):
            total = 0.0
            for feet in itertools.product(range(1, n + 1), repeat=m - 1):
                term = a.get((i,) + feet)
                if term == 0.0:
                    continue
                for foot, alpha in zip(feet, alphas):
                    term *= b.get((foot,) + alpha)
                    if term == 0.0:
                        break
                total += term
            if total != 0.0:
                flat = (i,) + tuple(v for alpha in alphas for v in alpha)
                entries.append((flat, total))
    return tb.new_tensor(out_order, n, entries)


def loop_apply(tensor: Tensor, x) -> np.ndarray:
    """The per-entry dict loop ``apply`` once ran: each term multiplied left
    to right in Python arithmetic, each row summed with math.fsum."""
    xs = list(x)
    is_complex = any(isinstance(v, complex) for v in xs)
    terms = [[] for _ in range(tensor.dim)]
    for idx, a in tensor.entries.items():
        prod = a
        for t in idx[1:]:
            prod *= xs[t - 1]
        terms[idx[0] - 1].append(prod)
    if is_complex:
        out = [complex(math.fsum(t.real for t in row), math.fsum(t.imag for t in row))
               for row in terms]
        return np.asarray(out, dtype=complex)
    return np.asarray([math.fsum(row) for row in terms], dtype=float)


def loop_product(a: Tensor, b: Tensor) -> dict:
    """Entries of the general product from the dict loop ``general_product``
    once ran: itertools.product over b's rows, math.fsum per coordinate."""
    rows = {}
    for idx, v in b.entries.items():
        rows.setdefault(idx[0], []).append((idx[1:], v))
    terms = {}
    for idx, av in a.entries.items():
        slices = [rows.get(t) for t in idx[1:]]
        if any(row is None for row in slices):
            continue
        for combo in itertools.product(*slices):
            out_idx, val = (idx[0],), av
            for alpha, bv in combo:
                out_idx += alpha
                val *= bv
            terms.setdefault(out_idx, []).append(val)
    totals = {k: math.fsum(vals) for k, vals in terms.items()}
    return {k: v for k, v in totals.items() if v != 0.0}


def loop_jacobian(tensor: Tensor, z: np.ndarray) -> np.ndarray:
    """The singularity probe's Jacobian as the per-entry triple loop built it."""
    n = tensor.dim
    jac = np.zeros((n, n), dtype=complex)
    for idx, a in tensor.entries.items():
        feet = [t - 1 for t in idx[1:]]
        vals = [z[f] for f in feet]
        for pos, f in enumerate(feet):
            partial = a
            for s, v in enumerate(vals):
                if s != pos:
                    partial *= v
            jac[idx[0] - 1, f] += partial
    return jac


def loop_forms(tensor: Tensor) -> dict:
    """The merged forms as a dict loop: {(sorted 0-based feet, 0-based row): coefficient},
    each coefficient its entries' values added from 0.0 in view order, the keys in order of
    feet, then row."""
    forms: dict = {}
    for idx, a in tensor.entries.items():  # view order
        key = (tuple(sorted(t - 1 for t in idx[1:])), idx[0] - 1)
        forms[key] = forms.get(key, 0.0) + a
    return dict(sorted(forms.items()))


def _loop_contraction(tables: dict, z: np.ndarray, cells: int) -> np.ndarray:
    """sum over the keys gamma of ``tables`` in sorted order of z^gamma * tables[gamma][c],
    per cell c from 0j: z^gamma multiplied left to right from z[gamma[0]] in CPython's
    complex arithmetic (1 for no feet), each product with the real number as a complex one,
    zero cells included."""
    out = [0j] * cells
    for gamma in sorted(tables):
        mono = complex(z[gamma[0]]) if gamma else 1 + 0j
        for f in gamma[1:]:
            mono *= complex(z[f])
        out = [acc + mono * complex(v) for acc, v in zip(out, tables[gamma])]
    return np.array(out, dtype=complex)


def loop_forms_objective(tensor: Tensor, z: np.ndarray) -> np.ndarray:
    """The probe's image y = A z^(m-1) as it is read off the merged forms: per distinct
    multiset of feet in order, its monomial times its coefficients C[beta, i] in each row."""
    tables: dict = {}
    for (beta, i), c in loop_forms(tensor).items():
        tables.setdefault(beta, [0.0] * tensor.dim)[i] = c
    return _loop_contraction(tables, z, tensor.dim)


def loop_forms_jacobian(tensor: Tensor, z: np.ndarray) -> np.ndarray:
    """The probe's Jacobian as it is read off the merged forms: D[gamma][i, j] adds, foot
    position by foot position, C[beta, i] for each position p of beta whose removal leaves
    gamma and that holds j, from 0.0; the distinct gamma of m - 2 feet are contracted in
    order."""
    n, m = tensor.dim, tensor.order
    forms = loop_forms(tensor)
    tables: dict = {}
    for beta in dict.fromkeys(beta for beta, _ in forms):
        for p in range(m - 1):
            tables.setdefault(beta[:p] + beta[p + 1:], [0.0] * (n * n))
    for p in range(m - 1):
        for (beta, i), c in forms.items():
            tables[beta[:p] + beta[p + 1:]][i * n + beta[p]] += c
    return _loop_contraction(tables, z, n * n).reshape(n, n)


def loop_block_ends(tensor: Tensor, kind: BlockKind) -> list[list[int]]:
    """Allowed block ends by re-testing every row's trailing spans per block."""
    spans = [set() for _ in range(tensor.dim + 1)]
    for idx in tensor.entries:
        spans[idx[0]].add((min(idx[1:]), max(idx[1:])))
    return [[d for d in range(c + 1, tensor.dim + 1)
             if not any(_forbidden(kind, c, d, lo, hi)
                        for row in range(c + 1, d + 1) for lo, hi in spans[row])]
            for c in range(tensor.dim)]


def loop_from_dense(values: np.ndarray) -> Tensor:
    """``Tensor.from_dense`` as it once built its keys, per axis of ``np.nonzero``."""
    arr = np.asarray(values, dtype=float)
    nonzero = np.nonzero(arr)
    keys = zip(*[(axis + 1).tolist() for axis in nonzero])
    return Tensor(arr.ndim, arr.shape[0], zip(keys, arr[nonzero].tolist()))


def loop_row_diagonal_from_matrix(values: np.ndarray, order: int) -> Tensor:
    """a[i, j, ..., j] = P[i, j] from a double loop over the matrix."""
    arr = np.asarray(values, dtype=float)
    n = arr.shape[0]
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = float(arr[i - 1, j - 1])
            if v != 0.0:
                entries[(i,) + (j,) * (order - 1)] = v
    return Tensor(order, n, entries)


def loop_new_tensor(order: int, dim: int, entries) -> Tensor:
    """``new_tensor`` as it once checked each entry in turn, first offender first.

    Per entry: arity, then each component's type (an integer, not a bool)
    and range, then a repeat of an earlier index (a zero-valued earlier
    entry included), then a finite value. The result comes from the raw
    constructor, so its view is built on first use.
    """
    if order < 1:
        raise OrderTooSmall(f"order must be >= 1, got {order}")
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    data = {}
    for index, value in entries:
        idx = tuple(index)
        if len(idx) != order:
            raise BadArity(f"index {idx} has {len(idx)} components, expected {order}")
        for i in idx:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise BadArity(f"index component {i!r} is not an integer")
            if not 1 <= i <= dim:
                raise IndexOutOfRange(f"index component {i} outside [1, {dim}]")
        idx = tuple(int(i) for i in idx)
        if idx in data:
            raise DuplicateIndex(f"index {idx} supplied twice")
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError(f"entry {idx} is not finite: {value!r}")
        data[idx] = v  # a zero stays until the end, so a later repeat still collides
    return Tensor(order, dim, {idx: v for idx, v in data.items() if v != 0.0})


def loop_tensor_from_obj(obj) -> Tensor:
    """``tensorio.tensor_from_obj`` as it once read a document: every record's shape, in
    order, then ``loop_new_tensor`` on the pairs."""
    if not isinstance(obj, dict):
        raise FormatError("tensor document must be a JSON object")
    missing = {"order", "dim", "entries"} - obj.keys()
    if missing:
        raise FormatError(f"tensor document lacks keys: {sorted(missing)}")
    order, dim, raw = obj["order"], obj["dim"], obj["entries"]
    if not isinstance(order, int) or not isinstance(dim, int):
        raise FormatError("order and dim must be integers")
    if not isinstance(raw, list):
        raise FormatError("entries must be a list")
    pairs = []
    for item in raw:
        if not isinstance(item, dict) or "i" not in item or "v" not in item:
            raise FormatError(f"bad entry record: {item!r}")
        idx, value = item["i"], item["v"]
        if not isinstance(idx, list) or not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            raise FormatError(f"bad entry record: {item!r}")
        pairs.append((idx, value))
    try:
        return loop_new_tensor(order, dim, pairs)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"entry value is not a finite double: {exc}") from exc


def loop_principal_subtensor(tensor: Tensor, index_set) -> Tensor:
    """The principal subtensor from one pass over the entries dict."""
    members = sorted(set(index_set))
    relabel = {old: new for new, old in enumerate(members, start=1)}
    entries = ((tuple(relabel[i] for i in idx), v) for idx, v in tensor.entries.items()
               if all(i in relabel for i in idx))
    return Tensor(tensor.order, len(members), entries)


def loop_permute_similar(tensor: Tensor, sigma: tb.Permutation) -> Tensor:
    """Permutation similarity from one pass over the entries dict."""
    entries = ((tuple(sigma(i) for i in idx), v) for idx, v in tensor.entries.items())
    return Tensor(tensor.order, tensor.dim, entries)


def loop_diagonal_blocks(tensor: Tensor, partition: Partition) -> list[Tensor]:
    """Diagonal blocks as one principal-subtensor scan each."""
    return [loop_principal_subtensor(tensor, partition.block(j))
            for j in range(1, partition.r + 1)]


def loop_is_blocked(tensor: Tensor, partition: Partition, kind: BlockKind) -> bool:
    """The per-entry structure test: each entry's row block against its trailing span."""
    for idx in tensor.entries:
        j = partition.block_of(idx[0])
        if _forbidden(kind, partition.S(j - 1), partition.S(j), min(idx[1:]), max(idx[1:])):
            return False
    return True


def loop_reduces(tensor: Tensor, members: frozenset[int], weak: bool) -> bool:
    """Strong (weak) reduction as the twin per-entry loops tested it."""
    if len(members) == tensor.dim:
        return False
    leaves = any if weak else all
    return not any(idx[0] in members and leaves(t not in members for t in idx[1:])
                   for idx in tensor.entries)


# ``structure._sccs`` searched with this Tarjan before Pearce's one-array variant took its
# place; ``_components`` keeps it as the reference.

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


def _loop_successors(idx: np.ndarray, alive: np.ndarray) -> list[set[int]]:
    """Successor sets on [1, n] of the entry digraph of the principal subtensor on the
    alive vertices (a boolean mask over [0, n)), rebuilt from every entry."""
    n = len(alive)
    kept = idx[alive[idx].all(axis=1)]
    succ = [set() for _ in range(n + 1)]
    for row in (kept + 1).tolist():
        succ[row[0]].update(row[1:])
    return succ


def loop_sccs(idx: np.ndarray, n: int) -> tuple[list[int], bool]:
    """``structure._sccs`` from the reference search: each vertex's least component member
    (0-based), and whether every edge stays inside its component."""
    succ, label, closed = _loop_successors(idx, np.ones(n, dtype=bool)), list(range(n)), True
    for comp in _components(succ, range(1, n + 1)):
        for v in comp:
            label[v - 1] = min(comp) - 1
        closed &= all(succ[v] <= comp for v in comp)
    return label, closed


def loop_sink(tensor: Tensor, alive: np.ndarray) -> frozenset[int]:
    """The sink component holding the smallest alive index, from a fresh digraph and SCC
    search over the alive vertices: one step of the peel the library once ran."""
    succ = _loop_successors(tensor.coo.idx, alive)
    roots = (np.flatnonzero(alive) + 1).tolist()
    sinks = [c for c in _components(succ, roots) if all(succ[v] <= c for v in c)]
    return frozenset(min(sinks, key=min))


def loop_find_weakly_reducing_set(tensor: Tensor):
    found = loop_sink(tensor, np.ones(tensor.dim, dtype=bool))
    return None if len(found) == tensor.dim else found


def loop_normal_form_2nd(tensor: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sigma image, parts) of the second-type peel, rebuilding the digraph per sink."""
    alive, peeled = np.ones(tensor.dim, dtype=bool), []
    while alive.any():
        peeled.append(loop_sink(tensor, alive))
        alive[[v - 1 for v in peeled[-1]]] = False
    return _stacked(peeled[::-1]).image, tuple(len(comp) for comp in peeled[::-1])


def loop_index_set(index_set, dim: int) -> list[int]:
    """``core._index_set`` as it checked its members one by one, raising for the first."""
    members = tuple(index_set)
    for i in members:
        if not (isinstance(i, (int, np.integer)) and not isinstance(i, bool)):
            raise BadArity(f"index component {i!r} is not an integer")
        if not 1 <= i <= min(dim, np.iinfo(np.int64).max):
            raise IndexOutOfRange(f"index component {i} outside [1, {dim}]")
    if not members:
        raise tb.errors.EmptyIndexSet("index set must be nonempty")
    return sorted(set(int(i) for i in members))


# ``connected_components`` was this union-find before one array labelling took its place;
# ``loop_connected_components`` keeps it as the reference.

def loop_connected_components(graph: tb.Hypergraph) -> list[frozenset[int]]:
    """Vertex classes reachable through shared edges, sorted by smallest member.

    Plain union-find over the edge list; isolated vertices come back as
    singletons.
    """
    parent = list(range(graph.n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for edge in graph.edges:
        verts = sorted(edge)
        root = find(verts[0])
        for v in verts[1:]:
            parent[find(v)] = root

    groups: dict[int, set[int]] = {}
    for v in range(1, graph.n + 1):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


# Strong reducibility and the third-type search ran on this pattern of (row, feet) pairs,
# chained forward in Python, before one array closure kernel took them;
# ``loop_find_reducing_set`` and ``loop_normal_form_3rd`` keep it as the reference.

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


def loop_find_reducing_set(tensor: Tensor) -> Optional[frozenset[int]]:
    """A strongly reducing index set, or None, by one pattern closure per seed."""
    return _reducing_set(_pattern(tensor), frozenset(range(1, tensor.dim + 1)))


def loop_normal_form_3rd(tensor: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sigma image, parts) of the third-type search on the pattern, raising as it did."""
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
    return _stacked(chain).image, tuple(len(comp) for comp in chain)


# The power iteration ``spectral_radius`` ran on weakly irreducible input before one batched
# kernel took every block; ``loop_spectral_radius`` keeps it as the reference.

def _power_step(tensor: Tensor, scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """The iteration's map x -> (A/scale) x^(m-1) + _SHIFT * x^[m-1], for positive x.

    A tensor that ``_is_dense`` takes is stepped as ``_block_radii`` steps
    such a block: its n x n^(m-1) unfolding divided by the scale times
    x (x) ... (x) x (``np.kron``, left to right), in one matrix-vector
    product. Any other has each term multiplied left to right and each
    row's run of terms summed by ``np.add.reduceat``. Both sum in plain
    float64: every term is nonnegative, so the sum is accurate to a few
    ulps, and the bracket does not need ``apply``'s exact ``fsum``. Rows
    without entries stay 0. The arrays are built once here.
    """
    view, n, m = tensor.coo, tensor.dim, tensor.order
    if _is_dense(n, m, tensor.nnz):
        unfolding = np.zeros((n,) * m)
        unfolding[tuple(view.idx.T)] = view.vals / scale
        unfolding = unfolding.reshape(n, -1)
        return lambda x: (unfolding @ functools.reduce(np.kron, [x] * (m - 1))
                          + _SHIFT * x ** (m - 1))
    rows, feet = view.idx[:, 0].copy(), np.ascontiguousarray(view.idx.T[1:])
    runs = np.flatnonzero(np.diff(rows, prepend=-1))  # each nonempty row's first entry
    vals = view.vals / scale

    def step(x: np.ndarray) -> np.ndarray:
        terms = vals
        for foot in feet:
            terms = terms * x[foot]
        sums = np.zeros(n)
        sums[rows[runs]] = np.add.reduceat(terms, runs)
        return sums + _SHIFT * x ** (m - 1)

    return step


def _power_iteration(tensor: Tensor, tol: float, max_iter: int) -> SpectralResult:
    """Ng-Qi-Zhou bracketing of the radius of the tensor divided by its largest row sum s.

    The shift keeps every iterate strictly positive and makes the bounds
    close for weakly irreducible input. The stop is relative to s; the
    radius, its bounds and the residual are reported in the input's scale,
    and the residual comes from the exact ``apply``.
    """
    m = tensor.order
    scale = _largest_row_sum(tensor)
    step = _power_step(tensor, scale)
    x = np.ones(tensor.dim)
    for it in range(1, max_iter + 1):
        y = step(x)
        ratios = y / x ** (m - 1)
        lower, upper = float(ratios.min()), float(ratios.max())
        if upper - lower <= tol:
            rho = (upper - _SHIFT) * scale
            residual = float(np.max(np.abs(apply(tensor, x) - rho * x ** (m - 1))))
            return SpectralResult(rho, x, it, residual)
        x = y ** (1.0 / (m - 1))
        x = x / x.max()
    raise NoConvergence(
        f"bounds still {(upper - lower) * scale:.3e} apart after {max_iter} iterations",
        lower=(lower - _SHIFT) * scale, upper=(upper - _SHIFT) * scale, iterations=max_iter)


def loop_spectral_radius(tensor: Tensor, tol: float = 1e-10,
                         max_iter: int = 10000) -> tb.SpectralResult:
    """``spectral_radius`` on nonnegative input as the library once took it: an SCC search
    for weak irreducibility, then the ``normal_form_2nd`` blocks' radii one at a time."""
    n = tensor.dim
    if tensor.is_zero():
        return tb.SpectralResult(0.0, np.ones(n), 0, 0.0)
    if n == 1:
        return tb.SpectralResult(tb.det_dim1(tensor), np.ones(1), 0, 0.0)
    if tb.is_weakly_irreducible(tensor):
        return _power_iteration(tensor, tol, max_iter)
    results = [tb.SpectralResult(tb.det_dim1(b), None, 0, 0.0) if b.dim == 1
               else _power_iteration(b, tol, max_iter) for b in tb.normal_form_2nd(tensor).blocks]
    best = max(results, key=lambda r: r.rho)  # the first maximum
    return tb.SpectralResult(best.rho, None, sum(r.iterations for r in results), best.residual)



def loop_singularity_oracle(tensor: Tensor, restarts: int = 64, iters: int = 200,
                            seed: int = 7) -> tb.OracleReport:
    """``singularity_oracle`` one restart at a time, on the tensor scaled by the power of two
    that puts its absolute row sums' 2-norm in [1/2, 1): one ``lstsq`` of the Newton system
    restricted to the tangent space (J Q c = -y and d = Q c, Q an orthonormal basis of the
    vectors orthogonal to z), objective (summed with ``math.fsum``) and line-search step
    along the gradient on the sphere at a time, the first least f winning; the least norm
    is scaled back."""
    (idx, vals), n = tensor.coo, tensor.dim
    sums = [math.fsum(np.abs(vals[idx[:, 0] == i])) for i in range(n)]
    k = math.frexp(math.hypot(*sums))[1]
    scaled = Tensor(tensor.order, n, {i: math.ldexp(v, -k) for i, v in tensor.entries.items()})
    (idx, vals) = scaled.coo

    rows = [np.flatnonzero(idx[:, 0] == i) for i in range(n)]

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:  # y = apply(scaled, z)
        re, im = _complex_terms(vals, idx.T[1:], z)
        y = np.array([complex(math.fsum(re[r].tolist()), math.fsum(im[r].tolist())) for r in rows])
        return float(np.real(np.vdot(y, y))), y

    best_f = np.inf
    best_z: Optional[np.ndarray] = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        z = rng.standard_normal(tensor.dim) + 1j * rng.standard_normal(tensor.dim)
        z = z / np.linalg.norm(z)
        f, y = objective(z)  # y is always the image of the current z
        for _ in range(iters):
            jac = loop_jacobian(scaled, z)
            # an orthonormal basis of the vectors orthogonal to z: the tangent space
            basis = np.linalg.svd(np.conj(z)[None])[2][1:].conj().T
            delta = basis @ np.linalg.lstsq(jac @ basis, -y, rcond=None)[0]
            norm = np.linalg.norm(z + delta)
            if norm > 0:
                trial = (z + delta) / norm
                f_trial, y_trial = objective(trial)
                if f_trial < f:
                    z, f, y = trial, f_trial, y_trial
                    continue
            # real-coordinate gradient of ||y||^2, packed back into a complex vector, less its
            # part along z
            grad = 2.0 * np.conj(jac.T @ np.conj(y))
            grad = grad - z * np.vdot(z, grad)
            if np.linalg.norm(grad) < 1e-14 * math.sqrt(f):
                break
            for h in range(-3, 29):  # steps 2^3 down to 2^-28
                trial = z - 2.0 ** -h * grad
                norm = np.linalg.norm(trial)
                if norm > 0:
                    trial = trial / norm
                    f_trial, y_trial = objective(trial)
                    if f_trial < f:
                        z, f, y = trial, f_trial, y_trial
                        break
            else:
                break
        if f < best_f:
            best_f, best_z = f, z

    assert best_z is not None
    return tb.OracleReport(math.ldexp(float(np.sqrt(max(best_f, 0.0))), k), best_z, restarts)

def loop_first_type(tensor: Tensor):
    """The first-type witness with one fresh sink search per component."""
    n = tensor.dim
    succ = _loop_successors(tensor.coo.idx, np.ones(n, dtype=bool))
    comps = _components(succ, range(1, n + 1))
    if len(comps) < 2:
        return None
    for comp in comps:
        inside = np.zeros(n, dtype=bool)
        inside[[v - 1 for v in comp]] = True
        if len(comp) > 1 and loop_sink(tensor, inside) != comp:
            return None
    leaves = {comp: set().union(*(succ[v] for v in comp)) - comp for comp in comps}
    unplaced, placed, chain = sorted(comps, key=min), set(), []
    while unplaced:
        last = next(i for i in reversed(range(len(unplaced))) if leaves[unplaced[i]] <= placed)
        placed |= unplaced[last]
        chain.append(unplaced.pop(last))
    return _stacked(chain[::-1]), Partition(tuple(len(comp) for comp in chain[::-1]))


def loop_is_diagonal(tensor: Tensor) -> bool:
    return all(len(set(idx)) == 1 for idx in tensor.entries)


def loop_is_row_diagonal(tensor: Tensor) -> bool:
    return all(len(set(idx[1:])) == 1 for idx in tensor.entries)


def loop_is_z_tensor(tensor: Tensor) -> bool:
    return all(v <= 0.0 for idx, v in tensor.entries.items() if len(set(idx)) > 1)


def loop_z_split(tensor: Tensor) -> tuple[float, Tensor]:
    """(s, b) of the canonical Z-split, b built entry by entry: the diagonal first."""
    m, n = tensor.order, tensor.dim
    s = max(tensor.entries.get((i,) * m, 0.0) for i in range(1, n + 1))
    entries = {}
    for i in range(1, n + 1):
        v = s - tensor.entries.get((i,) * m, 0.0)
        if v != 0.0:
            entries[(i,) * m] = v
    for idx, v in tensor.entries.items():
        if len(set(idx)) > 1:
            entries[idx] = -v
    return s, Tensor(m, n, entries)


def loop_allclose(a: Tensor, b: Tensor, tol: float) -> bool:
    if (a.order, a.dim) != (b.order, b.dim):
        return False
    return all(abs(a.entries.get(key, 0.0) - b.entries.get(key, 0.0)) <= tol
               for key in a.entries.keys() | b.entries.keys())


def loop_recover_right_form(tensor: Tensor) -> RightFormRecovery:
    """``recover_right_form`` with the mixed entries and the check read from the dicts."""
    m, n = tensor.order, tensor.dim
    degree, q, profile = m - 1, np.zeros((n, n)), []
    for i, diag in enumerate(loop_majorization_matrix(tensor).tolist(), start=1):
        signs = [0] * n
        if degree % 2 == 1:
            for t, d in enumerate(diag):
                signs[t] = 1 if d >= 0 else -1
                q[i - 1, t] = signs[t] * _root_with_snap(abs(d), degree)
        else:
            for t, d in enumerate(diag):
                if d < 0:
                    raise NotRightForm(f"entry ({i}, {t + 1}, ...) = {d} cannot be an even power")
            mags = [_root_with_snap(d, degree) for d in diag]
            support = [t for t, v in enumerate(mags) if v > 0.0]
            for t in support:
                mixed = tensor.entries.get((i, support[0] + 1) + (t + 1,) * (degree - 1), 0.0)
                signs[t] = 1 if t == support[0] or mixed >= 0 else -1
                q[i - 1, t] = signs[t] * mags[t]
        profile.append(tuple(signs))
    product = tb.general_product(tb.unit_tensor(m, n), tb.tensor_from_matrix(q))
    for key in sorted(tensor.entries.keys() | product.entries.keys()):
        expected, got = tensor.entries.get(key, 0.0), product.entries.get(key, 0.0)
        if abs(got - expected) > VERIFY_TOL * max(1.0, abs(expected)):
            got = math.prod(q[key[0] - 1, [t - 1 for t in key[1:]]].tolist())
            raise NotRightForm(f"entry ({', '.join(map(str, key))}) = {expected} "
                               f"but the factorization gives {got}")
    return RightFormRecovery(q, tuple(profile))


def loop_right_k_inverse(tensor: Tensor, k: int) -> Tensor:
    """``right_k_inverse`` through the product it replaced: Q^-1 times the order-k unit tensor,
    with Q from ``loop_recover_right_form``."""
    if k < 2:
        raise OrderTooSmall(f"right inverses need k >= 2, got {k}")
    try:
        recovery = loop_recover_right_form(tensor)
    except NotRightForm as exc:
        raise NotRightInvertible(str(exc)) from exc
    inv = _invert(recovery.q, "recovered factor matrix", NotRightInvertible)
    return tb.general_product(tb.tensor_from_matrix(inv), tb.unit_tensor(k, tensor.dim))


def loop_majorization_matrix(tensor: Tensor) -> np.ndarray:
    """M[i, j] = a[i, j, ..., j] by n^2 dict lookups."""
    n, m = tensor.dim, tensor.order
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[i - 1, j - 1] = tensor.entries.get((i,) + (j,) * (m - 1), 0.0)
    return out


def loop_representation_matrix(tensor: Tensor) -> np.ndarray:
    """G[i, j] += |a| once per distinct trailing index j, entry by entry in dict order."""
    n = tensor.dim
    out = np.zeros((n, n))
    for idx, v in tensor.entries.items():
        for j in set(idx[1:]):
            out[idx[0] - 1, j - 1] += abs(v)
    return out


def brute_strong_sets(tensor: Tensor) -> list[frozenset[int]]:
    """All strongly reducing proper nonempty subsets, by definition."""
    n = tensor.dim
    found = []
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), size):
            members = set(subset)
            ok = all(not (idx[0] in members and all(t not in members for t in idx[1:]))
                     for idx in tensor.entries)
            if ok:
                found.append(frozenset(members))
    return found


def brute_weak_sets(tensor: Tensor) -> list[frozenset[int]]:
    """All weakly reducing proper nonempty subsets, by definition."""
    n = tensor.dim
    found = []
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), size):
            members = set(subset)
            ok = all(not (idx[0] in members and any(t not in members for t in idx[1:]))
                     for idx in tensor.entries)
            if ok:
                found.append(frozenset(members))
    return found


def brute_partitions(tensor: Tensor, kind: BlockKind, r_min: int = 1) -> list[Partition]:
    """Every composition with at least ``r_min`` parts that passes the
    per-entry structure test, built from cut sets and sorted."""
    n = tensor.dim
    least = max(r_min, 2 if kind.is_triangular else 1)
    found = []
    for k in range(least - 1, n):
        for cuts in itertools.combinations(range(1, n), k):
            ends = (0,) + cuts + (n,)
            parts = tuple(b - a for a, b in zip(ends, ends[1:]))
            if tb.is_blocked(tensor, Partition(parts), kind):
                found.append(Partition(parts))
    return sorted(found, key=lambda p: p.parts)


def brute_finest_refinement(tensor: Tensor):
    """The exhaustive search the determinant recursion once ran: the
    supported partition with the most parts, ties broken by kind order,
    then by the lexicographically smaller parts."""
    best, best_key = None, None
    kinds = (BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2)
    for rank, kind in enumerate(kinds):
        for p in brute_partitions(tensor, kind, 2):
            key = (-p.r, rank, p.parts)
            if best_key is None or key < best_key:
                best_key, best = key, (p, kind)
    return best


def loop_finest_refinement(tensor: Tensor):
    """The finest refinement as a right-to-left DP over ``loop_block_ends``: from each start
    c, the chain to n with the most parts, over every allowed block (c, d]. No dimension cap,
    but O(n^3) per kind; ties between kinds go to the earlier one."""
    n, found = tensor.dim, []
    kinds = (BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2)
    for rank, kind in enumerate(kinds):
        ends = loop_block_ends(tensor, kind)
        tail = {n: ()}  # from c: the chain with the most parts
        for c in range(n - 1, -1, -1):
            chains = [(d - c,) + tail[d] for d in ends[c] if d in tail]
            if chains:
                tail[c] = max(chains, key=len)
        if len(tail[0]) >= 2:  # (0, n] is always allowed, so tail[0] exists
            found.append((-len(tail[0]), rank, Partition(tail[0]), kind))
    return min(found)[2:] if found else None


def loop_block_walk(tensor: Tensor, partition: Partition):
    """The block recursion of ``det_blocked`` and ``spectrum_blocked`` as a plain recursion over
    ``loop_diagonal_blocks`` and ``loop_finest_refinement``: the values of its dim-1 leaves,
    left to right, or the dim of the first block, depth first, that has an off-diagonal entry
    of its own and no supported refinement."""
    leaves = []
    for block in loop_diagonal_blocks(tensor, partition):
        if all(len(set(idx)) == 1 for idx in block.entries):
            leaves += [block.get((i,) * block.order) for i in range(1, block.dim + 1)]
            continue
        refinement = loop_finest_refinement(block)
        found = block.dim if refinement is None else loop_block_walk(block, refinement[0])
        if isinstance(found, int):
            return found
        leaves += found
    return leaves


def brute_sink(tensor: Tensor) -> frozenset[int]:
    """The sink component holding the smallest index, from reachability sets:
    v lies in a sink component exactly when all it reaches reaches it back."""
    n = tensor.dim
    edges = {i: set() for i in range(1, n + 1)}
    for idx in tensor.entries:
        edges[idx[0]].update(idx[1:])
    reach = {}
    for v in range(1, n + 1):
        seen, todo = {v}, [v]
        while todo:
            for w in edges[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        reach[v] = seen
    v = next(v for v in range(1, n + 1) if all(v in reach[u] for u in reach[v]))
    return frozenset(reach[v])


def brute_normal_form_2nd(tensor: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sigma image, parts) of the second-type peel, one brute_sink per step."""
    remaining = list(range(1, tensor.dim + 1))
    peeled = []
    while remaining:
        local = brute_sink(tb.principal_subtensor(tensor, remaining))
        comp = frozenset(remaining[i - 1] for i in local)
        peeled.append(comp)
        remaining = [i for i in remaining if i not in comp]
    image = [0] * tensor.dim
    order = [old for comp in reversed(peeled) for old in sorted(comp)]
    for pos, old in enumerate(order, start=1):
        image[old - 1] = pos
    return tuple(image), tuple(len(comp) for comp in reversed(peeled))


def brute_first_type(tensor: Tensor):
    """The exhaustive first-type witness search the library once ran: every
    permutation in lexicographic order, and for each the first-type
    partitions with at least two parts in lexicographic order; the first
    one whose diagonal blocks are all weakly irreducible wins."""
    for image in itertools.permutations(range(1, tensor.dim + 1)):
        sigma = tb.Permutation(image)
        moved = tb.permute_similar(tensor, sigma)
        for p in tb.blocked_partitions(moved, BlockKind.UTB1, 2):
            if all(tb.is_weakly_irreducible(b) for b in tb.diagonal_blocks(moved, p)):
                return sigma, p
    return None


def brute_normal_form_3rd(tensor: Tensor) -> tb.NormalForm:
    """The subset search the third-type normal form once ran: backtrack over
    chains of closed prefixes, trying every subset of the unplaced indices
    as the next block, by size and then lexicographically, and keeping the
    first whose principal subtensor is irreducible. Raises
    NormalFormUnavailable when no chain reaches [1, n]."""
    n = tensor.dim
    pattern = [(idx[0], frozenset(idx[1:])) for idx in tensor.entries]
    full = frozenset(range(1, n + 1))
    dead = set()

    def closed(members):
        return not any(row not in members and feet <= members for row, feet in pattern)

    def extend(prefix):
        if prefix == full:
            return []
        if prefix in dead:
            return None
        rest = sorted(full - prefix)
        for size in range(1, len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                grown = prefix | frozenset(combo)
                if not (closed(grown) and tb.is_irreducible(tb.principal_subtensor(tensor, combo))):
                    continue
                tail = extend(grown)
                if tail is not None:
                    return [combo] + tail
        dead.add(prefix)
        return None

    chain = extend(frozenset())
    if chain is None:
        raise NormalFormUnavailable("no chain of closed prefixes with irreducible blocks")
    order = [old for combo in chain for old in combo]
    image = [0] * n
    for pos, old in enumerate(order, start=1):
        image[old - 1] = pos
    blocks = tuple(tb.principal_subtensor(tensor, combo) for combo in chain)
    return tb.NormalForm(tb.Permutation(tuple(image)),
                         Partition(tuple(len(combo) for combo in chain)), BlockKind.UTB3, blocks)


@functools.cache
def forbidden_positions(n: int, m: int, partition: Partition, kind: BlockKind) -> frozenset:
    """Probe the public classifier with single-entry tensors.

    A position is forbidden under (partition, kind) exactly when the
    tensor holding a lone 1.0 there fails the structure test. The probe
    is a pure function of its arguments, so each one runs once per session.
    """
    return frozenset(idx for idx in itertools.product(range(1, n + 1), repeat=m)
                     if not tb.is_blocked(tb.new_tensor(m, n, [(idx, 1.0)]), partition, kind))


def blocked_or_trivial(tensor: Tensor, parts: tuple[int, ...], kind: BlockKind) -> bool:
    """Single-part triangular conditions are vacuously true in the recursions."""
    if len(parts) == 1:
        return True
    return tb.is_blocked(tensor, Partition(parts), kind)


def exact_int_det(matrix: np.ndarray) -> int:
    """Exact determinant of an integer matrix via rational elimination."""
    n = matrix.shape[0]
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    sign = 1
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    result = sign * det
    assert result.denominator == 1
    return int(result)


def _rows(arr: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(float(x)) for x in row] for row in arr]


def loop_gauss_jordan(arr: np.ndarray) -> np.ndarray:
    """Gauss-Jordan over ``Fraction`` with partial pivoting, the elimination the integer
    one in ``linalg`` replaced. Like ``linalg``, it raises SingularMatrix where a pivot
    size or an inverse entry is past the double range."""
    n = arr.shape[0]
    rows = _rows(arr)
    aug = [rows[i] + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]

    pivot_seen: list[Fraction] = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise SingularMatrix(f"zero pivot in column {col + 1}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        pivot_seen.append(piv)
        aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    try:
        sizes = [abs(float(p)) for p in pivot_seen]
    except OverflowError:
        raise SingularMatrix("a pivot is beyond the double range") from None
    if min(sizes) <= PIVOT_RTOL * max(sizes):
        raise SingularMatrix("pivot below the relative floor; treating as singular")
    try:
        return np.array([[float(aug[i][n + j]) for j in range(n)] for i in range(n)])
    except OverflowError:
        raise SingularMatrix("an inverse entry is beyond the double range") from None


# ------------------------------------------------------- matrix predicates
# Dense matrix counterparts of the tensor predicates, used only as
# references by the tests.


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[Fraction], int]:
    """Forward elimination with partial pivoting; returns (pivots, swap parity)."""
    n = len(rows)
    sign = 1
    pivots: list[Fraction] = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            pivots.append(Fraction(0))
            continue
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        piv = rows[col][col]
        pivots.append(piv)
        for r in range(col + 1, n):
            factor = rows[r][col] / piv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return pivots, sign


def determinant(values) -> float:
    """Exact determinant via rational elimination."""
    arr = as_matrix(values)
    pivots, sign = _eliminate(_rows(arr))
    det = Fraction(sign)
    for p in pivots:
        det *= p
    return float(det)


def leading_principal_minors(values) -> list[float]:
    """Determinants of the leading k-by-k corners, k = 1..n."""
    arr = as_matrix(values)
    return [determinant(arr[:k, :k]) for k in range(1, arr.shape[0] + 1)]


def is_z_matrix(values) -> bool:
    """All off-diagonal entries nonpositive."""
    arr = as_matrix(values)
    off = arr - np.diag(np.diag(arr))
    return bool(np.all(off <= 0.0))


def is_irreducible_matrix(values) -> bool:
    """Strong connectivity of the digraph with an edge i -> j when P[i, j] != 0.

    Dimension-1 matrices count as irreducible. Each squaring of the
    reflexive reachability matrix doubles the path length it covers.
    """
    arr = as_matrix(values)
    reach = (arr != 0.0) | np.eye(arr.shape[0], dtype=bool)
    for _ in range(arr.shape[0].bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def is_nonsingular_m_matrix(values) -> bool:
    """Z-matrix with every leading principal minor strictly positive."""
    arr = as_matrix(values)
    if not is_z_matrix(arr):
        return False
    return all(minor > 0.0 for minor in leading_principal_minors(arr))


def is_blocked_matrix(values, partition: Partition) -> bool:
    """Upper-triangular block structure: rows of I_l vanish left of column S_{l-1} + 1."""
    arr = as_matrix(values)
    if partition.n != arr.shape[0]:
        raise DimensionMismatch(
            f"partition covers [1, {partition.n}] but matrix dim is {arr.shape[0]}")
    for l in range(2, partition.r + 1):
        lead = partition.S(l - 1)
        for i in partition.block(l):
            if np.any(arr[i - 1, :lead] != 0.0):
                return False
    return True


# -------------------------------------------------------------- generators

NONZERO = [-3, -2, -1, 1, 2, 3]


def rand_tensor(rng: random.Random, n: int, m: int, density: float = 0.3,
                values=NONZERO) -> Tensor:
    entries = []
    for idx in itertools.product(range(1, n + 1), repeat=m):
        if rng.random() < density:
            entries.append((idx, float(rng.choice(values))))
    return tb.new_tensor(m, n, entries)


def rand_sparse(rng: random.Random, m: int, n: int, upper: float = 0.0) -> Tensor:
    """Up to 3n random index tuples, without enumerating [n]^m. With probability
    ``upper`` a tuple's trailing indices are at least its row, which leaves the entry
    digraph many components with edges between them."""
    entries = {}
    for _ in range(rng.randint(0, 3 * n)):
        row = rng.randint(1, n)
        lo = row if rng.random() < upper else 1
        entries[(row,) + tuple(rng.randint(lo, n) for _ in range(m - 1))] = 1.0
    return tb.Tensor(m, n, entries)


def rand_blocked(rng: random.Random, parts: tuple[int, ...], kind: BlockKind,
                 m: int, density: float = 0.3, values=NONZERO) -> Tensor:
    """Random tensor supported only on positions the kind allows."""
    p = Partition(parts)
    n = p.n
    banned = forbidden_positions(n, m, p, kind)
    entries = []
    for idx in itertools.product(range(1, n + 1), repeat=m):
        if idx not in banned and rng.random() < density:
            entries.append((idx, float(rng.choice(values))))
    return tb.new_tensor(m, n, entries)


def _nested_entries(rng: random.Random, m: int, n: int, depth: int) -> dict:
    """The entries of one block of ``rand_nested``, 1-based within it."""
    pick = rng.random() if n > 1 else 0.0
    if pick < 0.2:  # diagonal only, now and then with a zero
        return {(i,) * m: rng.choice([1.0, -1.0, 2.0, -0.5, 0.0 if rng.random() < 0.3 else 1.5])
                for i in range(1, n + 1)}
    if depth == 0 or pick < 0.45:  # a cycle i -> i + 1 -> ... -> i: no supported refinement
        entries = {(i,) * m: rng.choice([1.0, -2.0, 0.5]) for i in range(1, n + 1)}
        entries.update({(i,) + (i % n + 1,) * (m - 1): 1.0 for i in range(1, n + 1)})
        return entries
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    p = Partition(tuple(b - a for a, b in zip([0] + cuts, cuts + [n])))
    kind = rng.choice([BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2])
    entries = {}
    for j in range(1, p.r + 1):
        c = p.S(j - 1)
        entries.update({tuple(i + c for i in idx): v for idx, v in
                        _nested_entries(rng, m, p.parts[j - 1], depth - 1).items()})
    for idx in itertools.product(range(1, n + 1), repeat=m):
        j = p.block_of(idx[0])
        if (not all(i in p.block(j) for i in idx) and rng.random() < 0.3
                and not _forbidden(kind, p.S(j - 1), p.S(j), min(idx[1:]), max(idx[1:]))):
            entries[idx] = float(rng.choice(NONZERO))
    return entries


def rand_nested(rng: random.Random, m: int, n: int) -> Tensor:
    """A tensor whose blocks nest up to three deep: each block is diagonal, a cycle (no
    supported refinement), or split again under a random supported kind with random entries
    between its blocks that the kind allows. Entries with a zero value are dropped."""
    return tb.new_tensor(m, n, [(idx, v) for idx, v in _nested_entries(rng, m, n, 3).items() if v])


def zigzag(n: int) -> Tensor:
    """The order-2 dim-n unit-diagonal matrix whose blocks nest n - 1 deep under
    ``Partition((1, n - 1))`` and ``UTB1``: each level peels one index, alternately by UTB1
    as (1, k - 1) and by LTB1 as (k - 1, 1)."""
    entries = {(i, i): 1.0 for i in range(1, n + 1)}
    lo, hi, upper = 1, n, True
    while hi > lo:
        if upper:
            entries[(lo, hi)] = 1.0
            if hi - lo >= 2:
                entries[(hi, lo + 1)] = 1.0
            lo += 1
        else:
            entries[(hi, lo)] = 1.0
            if hi - lo >= 2:
                entries[(lo, hi - 1)] = 1.0
            hi -= 1
        upper = not upper
    return Tensor(2, n, entries)


WIRE_VALUES = [0, 0.0, -0.0, 1, -2, 3, 0.5, -1.25, 1e-300, 1e300]
WIRE_FAULTS = {
    "record": lambda rng, order, dim, idx: rng.choice([
        list(idx), 7, "x", None, {"i": list(idx)}, {"v": 1.0}, {"i": tuple(idx), "v": 1.0},
        {"i": "1" * order, "v": 1.0}, {"i": list(idx), "v": "1"}, {"i": list(idx), "v": True},
        {"i": list(idx), "v": None}, {"i": list(idx), "v": [1.0]}]),
    "arity": lambda rng, order, dim, idx: {"i": rng.choice([[], idx[:-1], idx + [1]]), "v": 1.0},
    "type": lambda rng, order, dim, idx: {"i": _swap(rng, idx, [1.0, 1.5, True, False, "1", None]),
                                          "v": 1.0},
    "range": lambda rng, order, dim, idx: {"i": _swap(rng, idx, [0, -1, dim + 1, 2 ** 63, 2 ** 70,
                                                                 -2 ** 70]), "v": 1.0},
    "value": lambda rng, order, dim, idx: {"i": idx, "v": rng.choice(
        [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400])},
}


def _swap(rng: random.Random, idx: list, choices: list) -> list:
    out = list(idx)
    out[rng.randrange(len(out))] = rng.choice(choices)
    return out


def rand_wire_doc(rng: random.Random, faults=()) -> dict:
    """A tensor document of order 2-4 with one fault of each category named.

    The records come in random order, not row order, with integer values
    and explicit zeros among the floats. A ``"header"`` fault spoils the
    order, the dim or the entries list; any other puts a faulty record in
    at a random position, where a ``"repeat"`` repeats the index of a
    well-formed record before it, whose value may be zero.
    """
    order, dim = rng.randint(2, 4), rng.randint(1, 4)
    cells = [list(idx) for idx in itertools.product(range(1, dim + 1), repeat=order)]
    records = [{"i": idx, "v": rng.choice(WIRE_VALUES)}
               for idx in rng.sample(cells, rng.randint(0, min(len(cells), 10)))]
    doc = {"order": order, "dim": dim, "entries": records}
    for fault in sorted(faults, key=lambda f: f != "repeat"):
        k = rng.randint(0, len(records))
        if fault == "header":
            doc.update([rng.choice([("order", 0), ("order", -1), ("dim", 0), ("dim", -2),
                                    ("order", "3"), ("dim", 2.5), ("entries", {})])])
            continue
        if fault == "repeat":
            k = max(k, 1)
            if len(records) < k:
                records.append({"i": rng.choice(cells), "v": rng.choice(WIRE_VALUES)})
            record = {"i": list(records[rng.randrange(k)]["i"]), "v": rng.choice(WIRE_VALUES)}
        else:
            record = WIRE_FAULTS[fault](rng, order, dim, rng.choice(cells))
        records.insert(k, record)
    return doc


def rand_permutation(rng: random.Random, n: int) -> tb.Permutation:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return tb.Permutation(tuple(image))


def rand_unimodular(rng: random.Random, n: int, ops: int | None = None) -> np.ndarray:
    """Random integer matrix with determinant +-1 (shears plus sign flips)."""
    mat = np.eye(n, dtype=int)
    for _ in range(ops if ops is not None else 3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        mat[i] += rng.choice([-2, -1, 1, 2]) * mat[j]
    for i in range(n):
        if rng.random() < 0.3:
            mat[i] = -mat[i]
    return mat


def rand_blocked_unimodular(rng: random.Random, parts: tuple[int, ...]) -> np.ndarray:
    """Block upper triangular integer matrix, unimodular diagonal blocks."""
    p = Partition(parts)
    n = p.n
    mat = np.zeros((n, n), dtype=int)
    for l in range(1, p.r + 1):
        block = rand_unimodular(rng, p.parts[l - 1])
        lo = p.S(l - 1)
        mat[lo:p.S(l), lo:p.S(l)] = block
    for l in range(1, p.r):
        for i in p.block(l):
            for j in range(p.S(l) + 1, n + 1):
                if rng.random() < 0.4:
                    mat[i - 1, j - 1] = rng.choice(NONZERO)
    return mat


INVERSE_KINDS = ("integer", "gaussian", "magnitude", "edge", "singular", "floor",
                 "triangular", "blocked", "tied")


def rand_inverse_case(rng: random.Random, n: int, kind: str) -> np.ndarray:
    """A float ``n x n`` matrix of one of ``INVERSE_KINDS``: small integers, Gaussians,
    magnitudes up to 1e±300, small integers scaled to the edges of the double range
    (pivots or inverse entries past it), singular by a repeated or scaled row, near
    singular at the pivot floor, triangular with 1e±13 diagonals, block triangular
    integers with a sign flip (zero inverse entries over a negative determinant), and
    unit triangular ones whose first pivot candidates tie in magnitude near the floor."""
    def ints(lo, hi):
        return np.array([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)], float)
    if kind == "integer":
        return ints(-4, 4)
    if kind == "gaussian":
        return np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
    if kind == "magnitude":
        return np.array([[rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300)
                          for _ in range(n)] for _ in range(n)])
    if kind == "edge":
        return ints(-3, 3) * 10.0 ** rng.choice([-315, -310, -300, 300, 307, 307.5])
    if kind == "singular":
        mat = ints(-3, 3)
        mat[rng.randrange(n)] = rng.choice([1.0, 2.0, -0.5]) * mat[rng.randrange(n)]
        return mat
    if kind == "floor":  # the last row an integer combination of the others, then nudged
        mat = ints(-2, 2)
        mat[-1] = sum((rng.randint(-2, 2) * mat[i] for i in range(n - 1)), np.zeros(n))
        mat[-1, rng.randrange(n)] += rng.choice([-1, 1]) * 10.0 ** rng.uniform(-13.5, -10.5)
        return mat
    if kind == "triangular":
        mat = np.triu(ints(-3, 3))
        mat[np.diag_indices(n)] = [rng.choice([-2, -1, 1, 3]) * 10.0 ** rng.choice([-13, 0, 13])
                                   for _ in range(n)]
        return mat
    if kind == "blocked":
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        mat = rand_blocked_unimodular(rng, parts).astype(float)
        mat[rng.randrange(n)] *= rng.choice([-1, 2, -3])
        return mat
    # tied: the first three rows tie in column 1, and which of them pivots decides whether
    # the last of their pivots, near 1e-12 times the largest, falls below the floor
    mat = np.triu(ints(-2, 2))
    mat[np.diag_indices(n)] = [rng.choice([-1, 1]) for _ in range(n)]
    if n >= 3:
        tie = np.array([[1, 0, 0], [1, 2, 0], [1, 1, 10.0 ** rng.uniform(-12.5, -11.5)]])
        mat[:3, :3] = tie[rng.sample(range(3), 3)] * [[rng.choice([-1, 1])] for _ in range(3)]
    return mat


def rand_irreducible_nonneg(rng: random.Random, n: int, density: float = 0.3) -> np.ndarray:
    """Nonnegative matrix whose digraph contains the full cycle, hence irreducible."""
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, (i + 1) % n] = rng.uniform(0.5, 2.0)
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                mat[i, j] += rng.uniform(0.1, 1.5)
    return mat


def rand_m_matrix(rng: random.Random, n: int) -> np.ndarray:
    """Irreducible nonsingular M-matrix: s I - B with s beyond rho(B)."""
    b = rand_irreducible_nonneg(rng, n)
    rho = float(np.max(np.abs(np.linalg.eigvals(b))))
    s = rho + rng.uniform(0.3, 1.2)
    return s * np.eye(n) - b


def rand_blocked_m_matrix(rng: random.Random, parts: tuple[int, ...]) -> np.ndarray:
    """Block upper triangular Z-matrix with irreducible nonsingular M diagonal blocks."""
    p = Partition(parts)
    n = p.n
    mat = np.zeros((n, n))
    for l in range(1, p.r + 1):
        lo = p.S(l - 1)
        mat[lo:p.S(l), lo:p.S(l)] = rand_m_matrix(rng, p.parts[l - 1])
    for l in range(1, p.r):
        for i in p.block(l):
            for j in range(p.S(l) + 1, n + 1):
                if rng.random() < 0.5:
                    mat[i - 1, j - 1] = -rng.uniform(0.1, 1.0)
    return mat


def rand_hypergraph(rng: random.Random, k: int, groups: list[int],
                    edges_per_group: int = 3) -> tb.Hypergraph:
    """Edges drawn inside disjoint vertex groups, so at least len(groups) components."""
    n = sum(groups)
    edges: set[frozenset[int]] = set()
    start = 1
    for size in groups:
        verts = list(range(start, start + size))
        start += size
        if size < k:
            continue
        for _ in range(edges_per_group):
            edges.add(frozenset(rng.sample(verts, k)))
    return tb.Hypergraph(k, n, tuple(sorted(edges, key=sorted)))


# A weakly irreducible order-3 dim-3 tensor whose entries span about 500 decades: its
# power iterate underflows long before the radius's bounds could close.
UNDERFLOWING = {(1, 1, 2): 3.43e219, (1, 3, 2): 7.99e175, (2, 1, 2): 3.79e-266,
                (2, 2, 1): 3.27e88, (2, 2, 2): 1.83e234, (2, 3, 1): 6.89e-219,
                (3, 3, 1): 5.05e68, (3, 3, 2): 3.73e-24}


def byte_documents() -> list[tuple[str, bytes, str]]:
    """Tensor files, as bytes, that a reader of their bytes and a reader of their text could
    take differently, with what the text reader gives: a tensor, a refusal, or bytes that are
    not UTF-8. Each is an order-3 document of dim 20, small (below the length the canonical
    scan starts at) or large and in the canonical layout."""
    rng = np.random.default_rng(1115)
    large = tensorio.dumps_tensor(Tensor.from_dense(rng.uniform(0.01, 1.0, (20,) * 3))).encode()
    small = tensorio.dumps_tensor(tb.new_tensor(3, 20, [((1, 2, 3), 1.5), ((20, 1, 7), -2.0)]))
    deep = large.index(b".", len(large) // 2) + 1  # a digit of a value halfway through
    pretty = json.dumps(json.loads(small), indent=1).replace("\n", "\r\n").encode()
    lone_cr = small.encode().replace(b", ", b",\r", 1)
    return [
        ("not-utf8-first-byte", b"\xff" + large, "UnicodeDecodeError"),
        ("not-utf8-deep-inside", large[:deep] + b"\xc3" + large[deep + 1:], "UnicodeDecodeError"),
        ("bom-small", b"\xef\xbb\xbf" + small.encode(), "FormatError"),
        ("bom-large", b"\xef\xbb\xbf" + large, "FormatError"),
        ("crlf-after-small", small.encode() + b"\r\n", "Tensor"),
        ("crlf-after-large", large + b"\r\n", "Tensor"),
        ("crlf-pretty", pretty, "Tensor"),
        ("crlf-pretty-json-error", pretty.replace(b'"v": -2.0', b'"v": -2.0,'), "FormatError"),
        ("lone-cr", lone_cr, "Tensor"),
        ("lone-cr-json-error", lone_cr.replace(b"}]}", b"]}"), "FormatError"),
        ("lone-cr-after-large", large + b"\r", "Tensor"),
    ]
