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

import math
from typing import Iterator, Sequence

import numpy as np

from .core import Tensor
from .errors import DimensionMismatch, OrderTooSmall, ProductOutOfRange

# Terms expanded at once (a single row of ``a`` may hold more). A chunk
# keeps about ten int64/float64 arrays of this length alive; at 1 << 18
# they lifted the peak memory of inverse checks by a few MB.
_CHUNK = 1 << 14
_CODE_LIMIT = 1 << 63  # output codes stay below this, int64's bound
_EXACT_LIMIT = 1 << 53  # integer sums below this are exact in float64


def _chunks(bounds: Sequence[int], ends: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Entry ranges of whole rows of ``a`` holding at most _CHUNK terms each.

    ``ends[e]`` counts the terms of entries before e. A row whose own
    terms exceed _CHUNK gets a range to itself.
    """
    first = 0
    for row in range(1, len(bounds)):
        if ends[bounds[row]] - ends[bounds[first]] > _CHUNK and row - 1 > first:
            yield bounds[first], bounds[row - 1]
            first = row - 1
    yield bounds[first], bounds[-1]


def _fsum(terms: np.ndarray) -> float:
    """math.fsum of the terms, or inf where a term or a partial sum is past the double range."""
    try:
        return math.fsum(terms.tolist())
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return math.inf


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


def general_product(a: Tensor, b: Tensor) -> Tensor:
    """Product of ``a`` (order >= 2) with ``b`` (order >= 1) over a shared dimension.

    Sparse throughout: only stored entries of ``a`` meet only stored rows
    of ``b``. Every output coordinate is accumulated with compensated
    summation and exact zeros are dropped, so integer inputs give exact
    integer outputs and structural zeros stay structural.

    Terms are expanded per chunk of whole rows of ``a``, so no output
    coordinate spans two chunks, and each is multiplied left to right
    as a * b_1 * ... * b_{m-1}. A term's output coordinate becomes one
    int64 code, and terms sharing a code are summed: by plain float64
    addition when both factors are integral and the chunk's sum of
    |term| is below 2^53 (every partial sum is then exact, so it equals
    fsum), and by math.fsum over the terms in generation order otherwise.
    A term or a sum past the double range raises ProductOutOfRange.
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
    b_bounds = np.asarray(bv.bounds)
    feet = av.idx.T[1:]
    counts = (b_bounds[1:] - b_bounds[:-1])[feet]  # per slot and a entry: b entries met
    firsts = b_bounds[feet]
    per_entry = counts.prod(axis=0)
    ends = [0] + np.cumsum(per_entry).tolist()
    values = np.concatenate((av.vals, bv.vals))
    integral = bool((values == np.trunc(values)).all())

    entries = {}
    for lo, hi in _chunks(av.bounds, ends):
        total = ends[hi] - ends[lo]
        if total == 0:
            continue
        sizes = per_entry[lo:hi]
        ent = np.repeat(np.arange(lo, hi), sizes)
        pos = np.arange(total) - np.repeat(np.asarray(ends[lo:hi]) - ends[lo], sizes)
        picks = np.empty((m - 1, total), dtype=np.int64)  # the b entry taken in each slot
        for slot in range(m - 2, -1, -1):  # the last slot varies fastest
            pos, digit = np.divmod(pos, counts[slot][ent])
            picks[slot] = firsts[slot][ent] + digit
        del pos, digit

        terms, code, top = av.vals[ent], av.idx[ent, 0], n
        with np.errstate(over="ignore"):  # an infinite term or sum takes the fsum route
            for pick in picks:
                terms = terms * bv.vals[pick]
                code, top = _fold(code, top, alpha[pick], width)
            exact = integral and np.abs(terms).sum() < _EXACT_LIMIT  # any order is exact below it

        # one at a time, so that each unsorted array is freed before the next sort
        order = np.argsort(code, kind="stable")
        code = code[order]
        starts = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
        del code
        first = order[starts]  # one term per output coordinate
        rows, tails = av.idx[ent[first], :1].T, bv.idx[picks[:, first], 1:]
        del ent, picks
        terms = terms[order]
        del order
        if exact:
            sums = np.add.reduceat(terms, starts).tolist()
        else:
            cuts = starts.tolist() + [total]
            sums = [_fsum(terms[s:e]) for s, e in zip(cuts, cuts[1:])]
        del terms

        # tails is (m-1, groups, k-1); keys come from per-column lists
        columns = np.concatenate((rows, tails.transpose(0, 2, 1).reshape(-1, len(first))))
        keys = zip(*(columns + 1).tolist())
        if not exact and not all(map(math.isfinite, sums)):  # exact sums are below 2^53
            key = next(key for key, s in zip(keys, sums) if not math.isfinite(s))
            raise ProductOutOfRange(f"entry {key} of the product is beyond the double range")
        entries.update((key, s) for key, s in zip(keys, sums) if s != 0.0)
    return Tensor(out_order, n, entries)
