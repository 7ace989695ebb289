"""Recognition of triangular blocked structure.

A partition (n_1, ..., n_r) of the dimension splits [1, n] into
consecutive index blocks I_1, ..., I_r. Each block kind is a vanishing
pattern over the nonzero entries, read off the ends (c, d) =
(S_{j-1}, S_j) of the row's block, S_j = n_1 + ... + n_j, and the
minimum ``lo`` and maximum ``hi`` of the entry's trailing indices: one
box of block ends, two for ``DIAG``, in which a row must vanish. The
table ``_BOXES`` is the one place the kinds are defined; the per-entry
test ``is_blocked`` and the block-end search ``_block_ends`` both read it.

Trailing indices lie in [1, n], so no test needs the block's position.
Each reads only its row's block: a partition carries a kind exactly
when each of its blocks (c, d] is allowed on its own.

All checks are exact: an entry either is stored (nonzero) or is a
structural zero.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .core import Tensor, _from_arrays, _integer_type
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    OrderTooSmall,
    PartitionTooCoarse,
)

_ENUM_GUARD = 12  # the output can hold all 2^(n-1) compositions


@dataclass(frozen=True)
class Partition:
    """An ordered partition of [1, n] into consecutive blocks."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise PartitionTooCoarse("partition needs at least one part")
        if any(not _integer_type(type(p)) or p < 1 for p in self.parts):
            raise DimensionMismatch(f"parts must be positive integers, got {self.parts}")
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_sums", (0, *accumulate(parts)))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise DimensionMismatch(f"cannot parse partition {text!r}") from exc
        return cls(parts)

    @property
    def n(self) -> int:
        return self._sums[-1]

    @property
    def r(self) -> int:
        return len(self.parts)

    def S(self, j: int) -> int:
        """Prefix sum S_j = n_1 + ... + n_j, with S_0 = 0."""
        if not 0 <= j <= self.r:
            raise IndexOutOfRange(f"prefix {j} outside [0, {self.r}]")
        return self._sums[j]

    def block(self, j: int) -> range:
        """The 1-based index block I_j."""
        if not 1 <= j <= self.r:
            raise IndexOutOfRange(f"block {j} outside [1, {self.r}]")
        return range(self.S(j - 1) + 1, self.S(j) + 1)

    def block_of(self, i: int) -> int:
        """Which block a row index belongs to."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside [1, {self.n}]")
        return bisect_left(self._sums, i, lo=1)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


class BlockKind(enum.Enum):
    UTB1 = "utb1"
    UTB2 = "utb2"
    UTB3 = "utb3"
    LTB1 = "ltb1"
    LTB2 = "ltb2"
    LTB3 = "ltb3"
    DIAG = "diag"

    @classmethod
    def from_token(cls, token: str) -> "BlockKind":
        try:
            return cls(token.lower())
        except ValueError as exc:
            raise DimensionMismatch(f"unknown block kind {token!r}") from exc

    @property
    def token(self) -> str:
        return self.value

    @property
    def is_triangular(self) -> bool:
        return self is not BlockKind.DIAG


_LO, _HI = 0, 1  # a box bound: the row's trailing minimum or maximum

# Per kind, the boxes (c0, c1, d0, d1) of block ends (c, d) where a row must vanish:
# c0 <= c < c1 and d0 <= d < d1, None for an absent bound. A kind has at most one
# upper box (one with c0) and one lower box (one with d1).
_BOXES = {
    BlockKind.UTB1: ((_LO, None, None, None),),  # lo <= c
    BlockKind.UTB2: ((_LO, None, _HI, None),),  # lo <= c and hi <= d
    BlockKind.UTB3: ((_HI, None, None, None),),  # hi <= c
    BlockKind.LTB1: ((None, None, None, _HI),),  # d < hi
    BlockKind.LTB2: ((None, _LO, None, _HI),),  # c < lo and d < hi
    BlockKind.LTB3: ((None, None, None, _LO),),  # d < lo
    BlockKind.DIAG: ((_LO, None, None, None), (None, None, None, _HI)),  # UTB1 or LTB1
}


def _forbidden(kind: BlockKind, c, d, lo, hi):
    """Does the vanishing pattern cover a row of block (c, d] with trailing min/max (lo, hi)?

    Elementwise over arrays as well as on numbers.
    """
    span, hit = (lo, hi), False
    for c0, c1, d0, d1 in _BOXES[kind]:
        box = True  # the present bounds' tests, and-ed; an absent bound adds none
        for bound, lower, end in ((c0, True, c), (c1, False, c), (d0, True, d), (d1, False, d)):
            if bound is not None:
                box = box & (span[bound] <= end if lower else end < span[bound])
        hit = hit | box
    return hit


def _spans(tensor: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, trailing minimum and trailing maximum of every entry of the view, 1-based."""
    if tensor.order < 2:
        raise OrderTooSmall("blocked structure needs order >= 2")
    columns = np.add(tensor.coo.idx.T, 1, order="C")  # a short-axis min or max is slow
    return columns[0], columns[1:].min(axis=0), columns[1:].max(axis=0)


def _check_fits(tensor: Tensor, partition: Partition) -> None:
    if partition.n != tensor.dim:
        raise DimensionMismatch(
            f"partition covers [1, {partition.n}] but tensor dim is {tensor.dim}")


def is_blocked(tensor: Tensor, partition: Partition, kind: BlockKind) -> bool:
    """Exact structural test: does every stored entry avoid the kind's vanishing region?"""
    rows, lo, hi = _spans(tensor)  # OrderTooSmall below order 2
    _check_fits(tensor, partition)
    if kind.is_triangular and partition.r < 2:
        raise PartitionTooCoarse(f"{kind.token} structure needs at least two blocks")
    sums = np.asarray(partition._sums)
    block = np.searchsorted(sums, rows)  # the row lies in (sums[block - 1], sums[block]]
    return not _forbidden(kind, sums[block - 1], sums[block], lo, hi).any()


def diagonal_blocks(tensor: Tensor, partition: Partition) -> list[Tensor]:
    """The principal subtensors on the partition's index blocks, each owning its arrays: one
    slice each of the view's entries wholly inside their row's block, in row order."""
    _check_fits(tensor, partition)
    view, sums = tensor.coo, partition._sums
    block = np.searchsorted(sums, np.ascontiguousarray(view.idx.T), side="right")
    inside = (block == block[0]).all(axis=0)
    idx, vals = view.idx[inside], view.vals[inside]
    first = idx[:, 0].searchsorted(sums).tolist()  # r + 1, the last their count
    return [_from_arrays(tensor.order, d - c, idx[lo:hi] - c, vals[lo:hi].copy())
            for c, d, lo, hi in zip(sums, sums[1:], first, first[1:])]


def _block_ends(tensor: Tensor, kinds: Sequence[BlockKind]) -> Iterator[list[list[int]]]:
    """Per kind in turn: for each start c in [0, n), the ends d whose block (c, d] it allows.

    Each box of a distinct span (r, lo, hi) is a rectangle of forbidden block ends: an upper
    box the starts span[c0] <= c < r with the ends from e = max(r, span[d0]), or r without
    d0; a lower box the ends r <= d < span[d1] with the starts below f = min(r, span[c1]),
    or r without c1. So (c, d] is allowed exactly when d <= D(c), the least e - 1 over the
    upper boxes covering c (n if none does), and S(d) <= c, the largest f over the lower
    boxes covering d (0 if none does).
    """
    n = tensor.dim
    seen = np.zeros((n + 1,) * 3, dtype=bool)  # a table of spans: 13^3 = 2,197 at the cap
    seen[_spans(tensor)] = True
    (rows, *span), at = np.nonzero(seen), np.arange(n + 1)[:, None]
    for kind in kinds:
        last, first = [n] * (n + 1), [0] * (n + 1)
        for c0, c1, d0, d1 in _BOXES[kind]:
            if c0 is not None:  # an upper box: D over the starts it covers
                e = rows if d0 is None else np.maximum(rows, span[d0])
                covers = (span[c0] <= at) & (at < rows)
                last = np.where(covers, e - 1, n).min(axis=1, initial=n).tolist()
            else:  # a lower box: S over the ends it covers
                f = rows if c1 is None else np.minimum(rows, span[c1])
                covers = (rows <= at) & (at < span[d1])
                first = np.where(covers, f, 0).max(axis=1, initial=0).tolist()
        yield [[d for d in range(c + 1, last[c] + 1) if first[d] <= c] for c in range(n)]


def _chains(ends: list) -> Iterator[tuple[int, ...]]:
    """Parts of every chain of allowed blocks (c, d] from 0 to n, lexicographically, on an
    explicit stack: a chain can hold more blocks than Python's recursion limit."""
    n, parts, todo = len(ends), [], [(0, iter(ends[0]))] if ends else []
    if not ends:
        yield ()
    while todo:
        start, later = todo[-1]
        for end in later:
            if end == n:
                yield (*parts, end - start)
            else:
                parts.append(end - start)
                todo.append((end, iter(ends[end])))
                break
        else:
            todo.pop()
            parts[-1:] = []  # the start 0 has no part before it


def compositions(n: int, r_min: int = 1) -> Iterator[tuple[int, ...]]:
    """All ordered partitions of n with at least ``r_min`` parts, lexicographically; n must be
    an integer (not a bool) >= 0."""
    if not _integer_type(type(n)) or n < 0:
        raise DimensionMismatch(f"n must be an integer >= 0, got {n!r}")
    every = [range(c + 1, n + 1) for c in range(n)]
    return (parts for parts in _chains(every) if len(parts) >= r_min)


def blocked_partitions(tensor: Tensor, kind: BlockKind, r_min: int = 1) -> list[Partition]:
    """Every partition (with at least ``r_min`` parts) under which the tensor has the kind.

    They are the chains of allowed blocks from ``_block_ends``. The cap
    bounds the output, not a search: the zero tensor carries every kind
    under all 2^(n-1) compositions. Triangular kinds silently skip the
    single-block composition, which they cannot carry by definition.
    """
    if tensor.dim > _ENUM_GUARD:
        raise DimensionTooLarge(
            f"partition enumeration is capped at dim {_ENUM_GUARD}, got {tensor.dim}")
    least = max(r_min, 2 if kind.is_triangular else 1)
    return [Partition(parts) for parts in _chains(next(_block_ends(tensor, (kind,))))
            if len(parts) >= least]
