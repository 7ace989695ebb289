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
from typing import Iterator, Sequence

import numpy as np

from .core import Tensor, _from_arrays
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
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
        if any(not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1
               for p in self.parts):
            raise DimensionMismatch(f"parts must be positive integers, got {self.parts}")
        parts = tuple(int(p) for p in self.parts)
        sums = [0]
        for p in parts:
            sums.append(sums[-1] + p)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_sums", tuple(sums))

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
        return self._sums[j]

    def block(self, j: int) -> range:
        """The 1-based index block I_j."""
        return range(self.S(j - 1) + 1, self.S(j) + 1)

    def block_of(self, i: int) -> int:
        """Which block a row index belongs to."""
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

# Per kind, the boxes (c0, c1, d0, d1) of block ends (c, d) where a row
# must vanish: c0 <= c < c1 and d0 <= d < d1, None for an absent bound.
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
    span = (lo, hi)
    hit = None
    for c0, c1, d0, d1 in _BOXES[kind]:
        box = None  # the present bounds' tests, and-ed; an absent bound adds none
        for bound, lower, end in ((c0, True, c), (c1, False, c), (d0, True, d), (d1, False, d)):
            if bound is not None:
                test = span[bound] <= end if lower else end < span[bound]
                box = test if box is None else box & test
        hit = box if hit is None else hit | box
    return hit


def _spans(tensor: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, trailing minimum and trailing maximum of every entry of the view, 1-based."""
    columns = np.ascontiguousarray(tensor.coo.idx.T) + 1  # a short-axis min or max is slow
    return columns[0], columns[1:].min(axis=0), columns[1:].max(axis=0)


def _check_fits(tensor: Tensor, partition: Partition) -> None:
    if partition.n != tensor.dim:
        raise DimensionMismatch(
            f"partition covers [1, {partition.n}] but tensor dim is {tensor.dim}")


def is_blocked(tensor: Tensor, partition: Partition, kind: BlockKind) -> bool:
    """Exact structural test: does every stored entry avoid the kind's vanishing region?"""
    if tensor.order < 2:
        raise OrderTooSmall("blocked structure needs order >= 2")
    _check_fits(tensor, partition)
    if kind.is_triangular and partition.r < 2:
        raise PartitionTooCoarse(f"{kind.token} structure needs at least two blocks")
    rows, lo, hi = _spans(tensor)
    sums = np.asarray(partition._sums)
    block = np.searchsorted(sums, rows)  # the row lies in (sums[block - 1], sums[block]]
    return not _forbidden(kind, sums[block - 1], sums[block], lo, hi).any()


def diagonal_blocks(tensor: Tensor, partition: Partition) -> list[Tensor]:
    """The principal subtensors on the partition's index blocks, all from one pass."""
    _check_fits(tensor, partition)
    view = tensor.coo
    sums = np.asarray(partition._sums)
    # 0-based index i lies in block[i]; one row per index position
    block = np.searchsorted(sums, np.ascontiguousarray(view.idx.T), side="right")
    inside = (block == block[0]).all(axis=0)
    out = []
    for c, d in zip(partition._sums, partition._sums[1:]):
        lo, hi = view.bounds[c], view.bounds[d]
        keep = inside[lo:hi]
        out.append(_from_arrays(tensor.order, d - c, view.idx[lo:hi][keep] - c,
                                view.vals[lo:hi][keep]))
    return out


def _block_ends(tensor: Tensor, kinds: Sequence[BlockKind]) -> Iterator[list[list[int]]]:
    """Per kind in turn: for each start c in [0, n), the ends d whose block (c, d] it allows.

    Each entry's boxes, cut to the blocks (c, d] that hold its row r
    (c < r <= d), are the blocks it forbids. A signed count of the box
    corners and a 2-D prefix sum give how many boxes cover every block,
    for all the kinds asked for at once, in O(n^2 + nnz) per kind.
    """
    if tensor.order < 2:
        raise OrderTooSmall("blocked structure needs order >= 2")
    n = tensor.dim
    rows, lo, hi = _spans(tensor)
    span = (lo, hi)
    width = n + 1  # c and d run over [0, n]
    plus, minus = [], []
    for slot, kind in enumerate(kinds):
        for c0, c1, d0, d1 in _BOXES[kind]:  # cut to c < r <= d; an empty cut has no area
            c_from = 0 if c0 is None else span[c0]
            c_to = np.maximum(rows if c1 is None else np.minimum(span[c1], rows), c_from)
            d_from = rows if d0 is None else np.maximum(span[d0], rows)
            c_from, c_to = (slot * width + c_from) * width, (slot * width + c_to) * width
            plus.append(c_from + d_from)
            minus.append(c_to + d_from)
            if d1 is not None:  # else the far corners lie past every block end
                d_to = np.maximum(span[d1], d_from)
                plus.append(c_to + d_to)
                minus.append(c_from + d_to)
    size = len(kinds) * width * width
    cover = (np.bincount(np.concatenate(plus), minlength=size)
             - np.bincount(np.concatenate(minus), minlength=size))
    cover = cover.reshape(len(kinds), width, width).cumsum(axis=1).cumsum(axis=2)
    ok = (cover[:, :n] == 0) & (np.arange(n + 1) > np.arange(n)[:, None])
    ends = np.nonzero(ok)[2].tolist()
    cuts = [0] + np.count_nonzero(ok, axis=2).ravel().cumsum().tolist()
    for slot in range(len(kinds)):
        yield [ends[a:b] for a, b in zip(cuts[slot * n:(slot + 1) * n], cuts[slot * n + 1:])]


def _chains(ends: list, start: int = 0) -> Iterator[tuple[int, ...]]:
    """Parts of every chain of allowed blocks (c, d] from ``start`` to n, lexicographically."""
    if start == len(ends):
        yield ()
        return
    for end in ends[start]:
        for rest in _chains(ends, end):
            yield (end - start,) + rest


def compositions(n: int, r_min: int = 1) -> Iterator[tuple[int, ...]]:
    """All ordered partitions of n with at least ``r_min`` parts, lexicographically."""
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
