"""The general tensor product used throughout: an order-m tensor times an
order-k tensor over the same dimension gives order (m-1)(k-1) + 1.

Writing each trailing slot of A against a full row of B,

    c[i, a_1, ..., a_{m-1}] = sum over i2..im of
        a[i, i2, ..., im] * b[i2, a_1] * ... * b[im, a_{m-1}]

where every a_t is itself a (k-1)-tuple of indices. Matrices (k = 2)
recover ordinary matrix action, and order-1 tensors recover polynomial
application.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .core import Tensor, _from_arrays, _segment_fsums
from .errors import DimensionMismatch, OrderTooSmall, ProductOutOfRange

# Terms expanded at once (a single row of ``a`` may hold more). A chunk
# keeps about ten int64/float64 arrays of this length alive; at 1 << 18
# they lifted the peak memory of inverse checks by a few MB.
_CHUNK = 1 << 14
_CODE_LIMIT = 1 << 63  # output codes stay below this, int64's bound
_EXACT_LIMIT = 1 << 53  # integer sums below this are exact in float64
# An exact product goes densely when its largest stage has at most twice as many cells as its
# full expansion has terms (the dense route won every seeded product there, and lost some below
# a fifth) and at most _DENSE_CELLS cells of 8 bytes: at 1 << 15 no seeded product's peak memory
# reached twice the sparse route's, at 1 << 16 one reached 2.7 times.
_DENSE_CELLS = 1 << 15


def _chunks(rows: np.ndarray, ends: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Entry ranges of whole rows of ``a`` holding at most _CHUNK terms each.

    ``rows`` holds the sorted rows of ``a``'s entries, ``ends[e]`` the
    terms of entries before e. A row whose own terms exceed _CHUNK gets a
    range to itself.
    """
    starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist() + [len(rows)]  # stored rows
    first = 0
    for row in range(1, len(starts)):
        if ends[starts[row]] - ends[starts[first]] > _CHUNK and row - 1 > first:
            yield starts[first], starts[row - 1]
            first = row - 1
    yield starts[first], starts[-1]


def _fold(code: np.ndarray, top: int, digits: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """Append a digit: ``code * base + digits`` for codes below ``top``, digits below ``base``.

    When the result could reach int64's bound, the codes are first
    replaced by their ranks, which keeps their order. Returns the new
    codes and their bound.
    """
    if top * base >= _CODE_LIMIT:
        distinct, code = np.unique(code, return_inverse=True)
        top = len(distinct)
    return code * base + digits, top * base


def _dense_product(a: np.ndarray, unfolding: np.ndarray, out_order: int):
    """0-based index rows and values of the nonzero cells of a dense product, in
    lexicographic order: each trailing slot of ``a`` (n^m cells) in turn meets the rows
    of ``unfolding`` (b's values, row first, as an n x n^(k-1) matrix), whose tuple
    axis the contraction appends last, so the axes end in output order."""
    for _ in range(a.ndim - 1):
        a = np.tensordot(a, unfolding, axes=(1, 0))
    cells, n = a.reshape(-1), len(unfolding)
    held = cells != 0
    flat = np.flatnonzero(held)
    idx = np.empty((out_order, len(flat)), dtype=np.int64)
    for column in range(out_order - 1, -1, -1):  # the cell's digits in base n, last first
        rest = flat // n
        idx[column], flat = flat - rest * n, rest
    return idx.T, cells[held]


def general_product(a: Tensor, b: Tensor) -> Tensor:
    """Product of ``a`` (order >= 2) with ``b`` (order >= 1) over a shared dimension.

    Every output coordinate is its terms' correctly rounded sum and exact
    zeros are dropped, so integer inputs give exact integer outputs and
    structural zeros stay structural.

    An exact product goes densely: both factors integral, the whole sum
    of |term| (the sum over a's entries of |a| times the row sums of |b|
    at their feet) below 2^53, and its largest stage, n^max(m, out order)
    cells, at most twice the full expansion's terms and at most
    ``_DENSE_CELLS``. ``a`` is laid out as an n^m array and ``b`` as its
    n x n^(k-1) unfolding, each trailing slot is contracted by one
    ``np.tensordot`` and the nonzero cells are read back in lexicographic
    order. Below 2^53 every partial sum is an exact integer in any order,
    so BLAS's order, FMA use and thread count change no bit, and the
    entries, their order and their values are those of the sparse route.

    Otherwise terms are expanded per chunk of whole rows of ``a``, so no
    output coordinate spans two chunks, one slot of ``a`` at a time: slot
    s multiplies each partial term by the row of ``b`` at its s-th foot,
    left to right as a * b_1 * ... * b_s. A partial term is keyed by its
    row, the tuples taken so far and the feet still to come. Where both
    factors are integral and the chunk's sum of |term| is below 2^53, the
    partial terms sharing a key are summed after every slot and zero sums
    dropped: a dense order-3 product expands n^3·r + n^2·r^2 terms, not
    n^3·r^2, for rows of r entries. An early slot is not merged where a's
    entries are distinct on (row, feet still to come), as for a unit
    tensor times a matrix: no two partial terms can share a key there.
    Otherwise nothing merges before the last slot, and each output
    coordinate is the ``_segment_fsums`` of its terms in generation
    order: their sum rounded as math.fsum rounds it. Terms or sums past
    the double range raise ProductOutOfRange.
    """
    if a.order < 2:
        raise OrderTooSmall("left factor must have order >= 2")
    if b.order < 1:
        raise OrderTooSmall("right factor must have order >= 1")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    m, k, n = a.order, b.order, a.dim
    out_order = (m - 1) * (k - 1) + 1
    av, bv = a.coo, b.coo

    alpha, width = np.zeros(len(bv.vals), dtype=np.int64), 1  # code of b's trailing tuple
    for column in bv.idx.T[1:]:
        alpha, width = _fold(alpha, width, column, n)
    b_rows, tails = bv.idx[:, 0], bv.idx.T[1:]
    a_rows, feet = av.idx[:, 0], av.idx.T[1:]
    firsts = b_rows.searchsorted(feet)  # per slot and a entry: the first b entry met
    counts = b_rows.searchsorted(feet, side="right") - firsts  # and how many
    per_entry = counts.prod(axis=0)
    ends = [0] + per_entry.cumsum().tolist()
    values = np.concatenate((av.vals, bv.vals))
    integral = bool((values == np.trunc(values)).all())

    # a term or a sum of |term| past the double range takes the fsum route
    with np.errstate(over="ignore", invalid="ignore"):
        if integral:  # per entry, the sum of |term| it expands to: |a| times the row sums of |b|
            live = per_entry > 0  # an entry meeting an empty row of b expands to no term
            stored = (np.diff(b_rows, prepend=-1) != 0).cumsum() - 1  # b's rows, ranked
            row_abs = np.bincount(stored, np.abs(bv.vals))[stored]  # per b entry, over its row
            weight = np.zeros(len(av.vals))
            weight[live] = np.abs(av.vals[live]) * row_abs[firsts[:, live]].prod(axis=0)
        if integral and n ** max(m, out_order) <= min(2 * ends[-1], _DENSE_CELLS) \
                and weight.sum() < _EXACT_LIMIT:  # every partial sum is exact in any order
            dense = np.zeros((n,) * m)  # but for entries outside the bound, which meet no term
            dense[tuple(av.idx.T.compress(live, axis=1))] = av.vals[live]
            unfolding = np.zeros((n, n ** (k - 1)))
            unfolding[b_rows, alpha] = bv.vals
            return _from_arrays(out_order, n, *_dense_product(dense, unfolding, out_order))
        # the early slots whose merge would find no key twice: a's entries are distinct on
        # (row, feet still to come) there, and one entry's terms differ in the tuples taken
        unmerged = 0
        for slot in range(m - 3, -1, -1) if integral else ():  # distinct at slot, then before
            key, top = a_rows, n
            for foot in feet[slot + 1:]:
                key, top = _fold(key, top, foot, n)
            if len(key) <= top and (np.diff(np.sort(key)) != 0).all():
                unmerged = slot + 1
                break
        columns, sums = [np.empty((out_order, 0), dtype=np.int64)], [np.empty(0)]
        for lo, hi in _chunks(a_rows, ends):
            ent = lo + per_entry[lo:hi].nonzero()[0]  # entries meeting an empty row drop out
            # the chunk's sum of |term|, below which any order is exact
            exact = integral and weight[lo:hi].sum() < _EXACT_LIMIT
            terms, code, top, picks = av.vals[ent], a_rows[ent], n, []
            for slot in range(m - 1):
                if not len(ent):  # no terms, or every merged sum cancelled
                    break
                size = counts[slot][ent]
                src = np.arange(len(ent)).repeat(size)
                place = np.arange(len(src)) - (size.cumsum() - size).repeat(size)  # in the row
                pick = firsts[slot][ent][src] + place  # the b entry taken in this slot
                ent, picks = ent[src], [p[src] for p in picks] + [pick]
                terms = terms[src] * bv.vals[pick]
                code, top = _fold(code[src], top, alpha[pick], width)
                del src, place, pick  # ten or so arrays of the chunk's length stay alive
                if slot < m - 2 and (not exact or slot < unmerged):
                    continue
                key, key_top = code, top
                for foot in feet[slot + 1:]:
                    key, key_top = _fold(key, key_top, foot[ent], n)
                order = key.argsort(kind="stable")
                key = key[order]
                starts = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
                del key
                terms = terms[order]
                if exact:
                    terms = np.add.reduceat(terms, starts)
                else:
                    terms = _segment_fsums(terms, np.append(starts, len(terms)))
                nonzero = terms != 0.0
                first = order[starts[nonzero]]  # one term per nonzero sum
                del order
                terms, ent, code = terms[nonzero], ent[first], code[first]
                picks = [p[first] for p in picks]
            if len(ent):
                columns.append(np.vstack([a_rows[ent]] + [tails.take(p, axis=1) for p in picks]))
                sums.append(terms)

    idx, vals = np.hstack(columns).T, np.concatenate(sums)
    if not np.isfinite(vals).all():
        key = tuple((idx[np.flatnonzero(~np.isfinite(vals))[0]] + 1).tolist())
        raise ProductOutOfRange(f"entry {key} of the product is beyond the double range")
    return _from_arrays(out_order, n, idx, vals)
