"""Sparse real tensors with 1-based indices, plus the structural helpers
every other module builds on: principal subtensors, permutation similarity,
polynomial application, and the majorization / representation matrices.

Storage is coordinate format: ``Tensor.coo``, read-only arrays of the
0-based index rows and the nonzero doubles, sorted by row and sized by the
nonzeros alone (a row's slice is found by binary search on the rows). An
absent index reads as an exact structural zero, and every constructor
checks its input at once and drops exact zeros, so "is this entry zero"
questions are answered without tolerances. The view is all a tensor
is built from; ``Tensor.entries``, a read-only mapping from index tuples
to values, and ``Tensor.spans``, the entries' (row, trailing minimum,
trailing maximum) that every block-kind test reads, are built from it on
first read and kept.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import (
    BadArity,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateIndex,
    EmptyIndexSet,
    IndexOutOfRange,
    OrderTooSmall,
)

Index = tuple[int, ...]

_DENSE_GUARD = 20_000_000  # refuse to densify anything bigger than this
_INT64_MAX = np.iinfo(np.int64).max  # an index component past it is out of range
_VECTORISED = 1_000  # terms from which _segment_fsums sums by extraction
_ROW_LIMIT = 1 << 26  # terms from which it does not: _extracted needs len (len + 2) 2^-53 <= 2
_EXTRACT_LIMIT = 2.0 ** 900  # |terms| below it leave (len + 2) max|t| far inside the doubles


class Coo(NamedTuple):
    """The entries as read-only arrays, stably sorted by row (given order within a row).

    ``idx`` holds 0-based index rows (nnz x order, int64) and ``vals`` the
    values (float64); row i's entries are where ``idx[:, 0]`` equals i.
    ``idx`` is stored column-major (Fortran order): each position's column,
    ``idx[:, p]`` or ``idx.T[p]``, is contiguous, so kernels read and filter
    the columns of ``idx.T`` in place.
    """

    idx: np.ndarray
    vals: np.ndarray


class Spans(NamedTuple):
    """The 1-based (row, trailing minimum, trailing maximum) of the entries, as read-only int64
    arrays: each distinct span once, in (row, lo, hi) order, where a table of n^3 cells is no
    larger than the entries (``_span_view``); every entry's span, in view order, otherwise."""

    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class Tensor:
    """An order-``order`` tensor on ``[1, dim]^order``, stored sparsely.

    ``Tensor(order, dim, entries)`` takes a mapping from index tuples to
    values (or ``(index, value)`` pairs), checks it at once as
    ``new_tensor`` does, naming the whole index where a component is at
    fault, and drops exact zeros. Every tensor is built with only its view
    ``coo``; ``entries`` and ``spans`` are built from it on first read and
    kept. Instances are immutable: operations return new tensors and never
    touch their inputs, and values can be shared freely between threads.
    """

    order: int
    dim: int
    coo: Coo

    def __init__(self, order: int, dim: int, entries: Mapping[Index, float]):
        order, dim = _shape(order, dim)
        entries = dict(entries)
        keys, values = entries.keys(), entries.values()
        idx, vals = _screened(order, dim, keys, values) or _refuse(order, dim, keys, values, True)
        keep = vals != 0.0
        idx, vals = idx.T.compress(keep, axis=1).T, vals[keep]
        self.__dict__.update(order=order, dim=dim, coo=_row_sorted(idx, vals))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.coo, other.coo  # equal views, as of a copy, need no alignment
        if ((self.order, self.dim) == (other.order, other.dim)
                and np.array_equal(mine.idx, theirs.idx) and np.array_equal(mine.vals, theirs.vals)):
            return True
        return self.allclose(other, 0.0)

    def __reduce__(self):
        return _from_arrays, (self.order, self.dim, self.coo.idx, self.coo.vals)

    @cached_property
    def entries(self) -> Mapping[Index, float]:
        """The entries in view order (rows ascending, given order within a row), as a
        read-only mapping built from the view on first read and kept."""
        idx, vals = self.coo.idx + 1, self.coo.vals
        return MappingProxyType(dict(zip(zip(*idx.T.tolist()), vals.tolist())))

    @cached_property
    def spans(self) -> Spans:
        """The entries' spans (``Spans``), built from the view on first read and kept; an
        order below 2 has none and raises OrderTooSmall."""
        return _span_view(self)

    def get(self, index: Sequence[int]) -> float:
        """Entry at a 1-based index tuple, zero when absent, read off the view. A component
        equal to an integer counts as that integer, as ``1.0`` and ``True`` match ``1`` in a
        dict; any other key reads zero."""
        given = tuple(index)
        try:  # int() refuses a component that is no number, nan or inf
            key = _validated_index([int(i.real) for i in given], self.order, self.dim)
        except (AttributeError, TypeError, ValueError, OverflowError, BadArity, IndexOutOfRange):
            return 0.0
        lo, hi = self.coo.idx[:, 0].searchsorted([key[0] - 1, key[0]])
        hit = np.flatnonzero((self.coo.idx[lo:hi, 1:] == np.subtract(key[1:], 1)).all(axis=1))
        return self.coo.vals[lo + hit[0]].item() if key == given and len(hit) else 0.0

    @property
    def nnz(self) -> int:
        return len(self.coo.vals)

    def is_zero(self) -> bool:
        return self.nnz == 0

    def to_dense(self) -> np.ndarray:
        """Dense ``(dim,) * order`` array with 0-based axes."""
        if self.dim ** self.order > _DENSE_GUARD:
            raise DimensionTooLarge(f"densifying is capped at {_DENSE_GUARD} cells, "
                                    f"got dim ** order = {self.dim ** self.order}")
        out = np.zeros((self.dim,) * self.order)
        out[tuple(self.coo.idx.T)] = self.coo.vals
        return out

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "Tensor":
        arr = np.asarray(values, dtype=float)
        order = arr.ndim
        dim = arr.shape[0] if order else 0
        if arr.shape != (dim,) * order or order < 1 or dim < 1:
            raise DimensionMismatch(f"expected a hypercubic array, got shape {arr.shape}")
        nonzero = np.nonzero(arr)  # C order: index tuples come out sorted
        idx, vals = np.stack(nonzero).T, arr[nonzero]
        _check_finite(idx, vals)
        return _from_arrays(order, dim, idx, vals)

    def allclose(self, other: "Tensor", tol: float = 0.0) -> bool:
        """Entrywise agreement within an absolute tolerance, which must be a number >= 0."""
        _check_real("tol", tol, strict=False)
        if (self.order, self.dim) != (other.order, other.dim):
            return False
        _, mine, theirs = _aligned(self, other)
        return bool((np.abs(mine - theirs) <= tol).all())

    def __repr__(self) -> str:  # keep test output readable
        return f"Tensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"


def _row_sorted(idx: np.ndarray, vals: np.ndarray) -> Coo:
    """The view of entries given as 0-based index rows and values: their stable sort by row.
    Callers build ``idx`` column-major, as ``Coo`` keeps it; a sort gathers whole columns,
    and sorted rows in another layout (an old pickle's) are copied column-major."""
    rows = idx[:, 0]
    if not (rows[1:] >= rows[:-1]).all():
        by_row = rows.argsort(kind="stable")
        idx, vals = idx.T.take(by_row, axis=1).T, vals[by_row]
    elif not idx.flags.f_contiguous:
        idx = np.asfortranarray(idx)
    idx.flags.writeable = vals.flags.writeable = False
    return Coo(idx, vals)


def _span_view(tensor: Tensor) -> Spans:
    """``Tensor.spans``: each entry's 1-based row and trailing minimum and maximum.

    Where a flag table of n^3 cells is no larger than the entries (in Python ints, so a dim
    of 10^9 forms none), each distinct (row, lo, hi) is kept once through it. As at most
    n^2 (n + 1) / 2 spans are distinct, that keeps at most (n + 1) / 2n of them from order 3
    on. Below that size the table can cost more than it saves (about 27 us to drop 13 % of
    1,122 spans at dim 20, on 2 shared cores), and at order 2 every span is distinct.
    """
    if tensor.order < 2:
        raise OrderTooSmall("blocked structure needs order >= 2")
    n, columns = tensor.dim, tensor.coo.idx.T
    rows, lo, hi = columns[0], columns[1:].min(axis=0), columns[1:].max(axis=0)
    if n ** 3 <= len(rows):
        seen = np.zeros(n ** 3, dtype=bool)
        seen[(rows * n + lo) * n + hi] = True
        rows, rest = np.divmod(np.flatnonzero(seen), n * n)
        lo, hi = np.divmod(rest, n)
    spans = Spans(rows + 1, lo + 1, hi + 1)
    for column in spans:
        column.flags.writeable = False
    return spans


def _codes(idx: np.ndarray, dim: int) -> np.ndarray:
    """Per 0-based index row, an int64 that is equal for equal rows and ordered as the rows
    are: the row read in base ``dim`` where dim^order fits, its rank among the rows otherwise."""
    if dim ** idx.shape[1] > _INT64_MAX:
        return np.unique(idx, axis=0, return_inverse=True)[1].reshape(-1)
    codes = idx[:, 0]
    for column in idx.T[1:]:
        codes = codes * dim + column
    return codes


def _aligned(a: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 0-based index rows that hold an entry of ``a`` or of ``b`` (of one order and dim)
    in sorted order, and each tensor's values at them, zero where it has none."""
    idx, n = np.concatenate((a.coo.idx, b.coo.idx)), len(a.coo.vals)
    _, first, where = np.unique(_codes(idx, a.dim), return_index=True, return_inverse=True)
    values = np.zeros((2, len(first)))
    values[0, where[:n]], values[1, where[n:]] = a.coo.vals, b.coo.vals
    return idx[first], values[0], values[1]


def _check_finite(idx: np.ndarray, vals: np.ndarray) -> None:
    """Refuse NaN and infinite values from outside as ``new_tensor`` does, naming the first."""
    if not np.isfinite(vals).all():
        k = np.flatnonzero(~np.isfinite(vals))[0]
        raise ValueError(f"entry {tuple((idx[k] + 1).tolist())} is not finite: {vals[k].item()!r}")


def _from_arrays(order: int, dim: int, idx: np.ndarray, vals: np.ndarray) -> Tensor:
    """A tensor whose view is the stable sort by row of 0-based index rows (int64, no index
    twice) and nonzero values (float64), which become read-only."""
    tensor = Tensor.__new__(Tensor)
    tensor.__dict__.update(order=order, dim=dim, coo=_row_sorted(idx, vals))
    return tensor


def _screened(order: int, dim: int, keys, values):
    """The entries' 0-based index rows (int64) and values (float64), if every entry passes in
    bulk: ``order`` components, integers (not bools) in ``[1, dim]`` and int64, and a finite
    double value.
    """
    flat = list(itertools.chain.from_iterable(keys))
    if set(map(len, keys)) - {order} or not all(map(_integer_type, set(map(type, flat)))):
        return None
    return _in_range(order, dim, flat, values)


def _in_range(order: int, dim: int, flat, values):
    """The 0-based index rows (int64, column-major) and the values (float64) of integer
    components ``flat``, ``order`` to an entry, if every component is in ``[1, dim]`` and int64
    and every value is a finite double; None otherwise."""
    n = len(values)
    try:
        flat = np.fromiter(flat, np.int64, n * order)
        vals = np.fromiter(values, float, n)  # only None converts where float() refuses: to nan
    except (TypeError, ValueError, OverflowError):
        return None
    if not np.isfinite(vals).all() or n and (flat.min() < 1 or flat.max() > dim):
        return None
    return np.subtract(flat.reshape(n, order), 1, order="F"), vals


def _refuse(order: int, dim: int, keys, values, name_index: bool) -> NoReturn:
    """Raise for the first entry that fails ``_screened`` or repeats an earlier index, checking
    each in order by ``_validated_index``, for a repeat, then by ``float`` and for finiteness."""
    seen = set()
    for key, value in zip(keys, values):
        idx = _validated_index(key, order, dim, name_index)
        if idx in seen:
            raise DuplicateIndex(f"index {idx} supplied twice")
        seen.add(idx)
        if not math.isfinite(float(value)):
            raise ValueError(f"entry {idx} is not finite: {value!r}")
    raise AssertionError("no entry fails the checks that refused them in bulk")


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``[1, n]``, stored as the image tuple ``(sigma(1), ..., sigma(n))``."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        image = _validated_index(self.image, n, n)
        if len(set(image)) != n:
            raise IndexOutOfRange(f"image {image} is not a bijection of [1, {n}]")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def dim(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        return Permutation(tuple((np.argsort(self.image) + 1).tolist()))

    def compose(self, other: "Permutation") -> "Permutation":
        """``self`` after ``other``: the result maps i to self(other(i))."""
        if self.dim != other.dim:
            raise DimensionMismatch("cannot compose permutations of different sizes")
        return Permutation(tuple(self(other(i)) for i in range(1, self.dim + 1)))


def _integer_type(kind: type) -> bool:
    """Whether values of this type are index components: Python or NumPy integers, not bools."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _check_integer(name: str, value, error: type[Exception]) -> None:
    if not _integer_type(type(value)):
        raise error(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value, strict: bool = True) -> None:
    """Refuse a control that is not above 0 (``strict``) or at least 0 with a ValueError that
    names it: nan, and a value that cannot be compared with 0 at all, such as None or a
    string, are refused alike."""
    try:
        fine = bool(value > 0 if strict else value >= 0)
    except (TypeError, ValueError):  # no order with 0, or no single truth value
        fine = False
    if not fine:
        raise ValueError(f"{name} must be {'positive' if strict else 'nonnegative'}")


def _shape(order, dim) -> tuple[int, int]:
    """``order`` and ``dim`` as Python ints, each refused unless an integer (not a bool) >= 1."""
    for name, value, error in (("order", order, OrderTooSmall), ("dim", dim, DimensionMismatch)):
        _check_integer(name, value, error)
        if value < 1:
            raise error(f"{name} must be >= 1, got {value}")
    return int(order), int(dim)


def _validated_index(index: Sequence[int], order: int, dim: int,
                     name_index: bool = False) -> Index:
    """The index as a tuple of Python ints, checked for its arity, then in bulk (or where that
    fails component by component) for an integer type and the range ``[1, dim]`` (int64 at
    most). The first component at fault is named, or with ``name_index`` the whole index."""
    idx, limit = tuple(index), min(dim, _INT64_MAX)
    if len(idx) != order:
        raise BadArity(f"index {idx} has {len(idx)} components, expected {order}")
    if all(map(_integer_type, set(map(type, idx)))) \
            and (not idx or 1 <= min(idx) <= max(idx) <= limit):
        return tuple(map(int, idx))
    for i in idx:
        if not _integer_type(type(i)):
            raise BadArity(f"index {idx} has a component that is not an integer: {i!r}"
                           if name_index else f"index component {i!r} is not an integer")
        if not 1 <= i <= limit:
            raise IndexOutOfRange(f"index {idx} has a component outside [1, {dim}]"
                                  if name_index else f"index component {i} outside [1, {dim}]")
    return tuple(int(i) for i in idx)


def _index_set(index_set: Iterable[int], dim: int) -> list[int]:
    """The sorted distinct members of a nonempty index set, each checked as an index component."""
    members = tuple(index_set)
    members = sorted(set(_validated_index(members, len(members), dim)))
    if not members:
        raise EmptyIndexSet("index set must be nonempty")
    return members


def new_tensor(order: int, dim: int,
               entries: Iterable[tuple[Sequence[int], float]] = ()) -> Tensor:
    """Build a tensor from ``(index, value)`` pairs.

    Indices are 1-based tuples of length ``order``. Exact zeros are
    dropped; duplicate tuples are rejected rather than summed.
    """
    pairs = list(entries)
    keys, values = list(map(tuple, map(itemgetter(0), pairs))), list(map(itemgetter(1), pairs))
    del pairs  # the pair tuples go before the checks build their arrays
    return _tensor_from_entries(order, dim, keys, values)


def _tensor_from_entries(order: int, dim: int, keys: list, values: list) -> Tensor:
    """``new_tensor`` on the pairs of index sequences and values, each entry checked once."""
    order, dim = _shape(order, dim)
    checked = _screened(order, dim, keys, values) or _refuse(order, dim, keys, values, False)
    return _nonzero_tensor(order, dim, *checked) or _refuse(order, dim, keys, values, False)


def _nonzero_tensor(order: int, dim: int, idx: np.ndarray, vals: np.ndarray) -> Tensor | None:
    """``_from_arrays`` on checked entries, exact zeros dropped; None where an index repeats,
    maybe one first given the value 0."""
    codes = np.sort(_codes(idx, dim))
    if (codes[1:] == codes[:-1]).any():
        return None
    nonzero = vals != 0.0
    if not nonzero.all():
        idx, vals = idx.T.compress(nonzero, axis=1).T, vals[nonzero]
    return _from_arrays(order, dim, idx, vals)


def unit_tensor(order: int, dim: int) -> Tensor:
    """The identity for the tensor product: 1 on the all-equal diagonal."""
    order, dim = _shape(order, dim)
    return _from_arrays(order, dim, np.arange(dim)[None].repeat(order, 0).T, np.ones(dim))


def diagonal_tensor(order: int, diag: Sequence[float]) -> Tensor:
    """Tensor whose only (potential) nonzeros sit at positions (i, i, ..., i)."""
    values = [float(v) for v in diag]
    order, dim = _shape(order, len(values))
    return Tensor(order, dim, {(i,) * order: v for i, v in enumerate(values, start=1)})


def principal_subtensor(tensor: Tensor, index_set: Iterable[int]) -> Tensor:
    """Restrict to rows and columns in ``index_set``, relabelled 1..k in sorted order."""
    members, view = np.asarray(_index_set(index_set, tensor.dim)) - 1, tensor.coo
    columns, top = view.idx.T, int(members[-1]) + 1
    if top < 8 * (columns.size + len(members)) + 4096:  # a table small beside the input
        relabel = np.full(top + 1, -1, dtype=np.int64)  # up to the largest member, then -1
        relabel[members] = np.arange(len(members))
        columns = relabel[np.minimum(columns, top)]
        keep = columns.min(axis=0) >= 0
    else:  # no table as long as the largest member: each index's place among the members
        at = members.searchsorted(columns)
        keep = (members.take(at, mode="clip") == columns).all(axis=0)
        columns = at
    return _from_arrays(tensor.order, len(members), columns.compress(keep, axis=1).T,
                        view.vals[keep])


def permute_similar(tensor: Tensor, sigma: Permutation) -> Tensor:
    """Relabel indices by ``sigma``: the result has b[sigma(i1), ..., sigma(im)] = a[i1, ..., im]."""
    if sigma.dim != tensor.dim:
        raise DimensionMismatch(
            f"permutation acts on [1, {sigma.dim}] but tensor dim is {tensor.dim}")
    view = tensor.coo
    lookup = np.asarray(sigma.image, dtype=np.int64) - 1
    return _from_arrays(tensor.order, tensor.dim, lookup[view.idx.T].T, view.vals)


def _complex_terms(vals: np.ndarray, feet: Iterable[np.ndarray],
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of vals * z[f1] * z[f2] * ..., multiplied left to right,
    for a vector z or each vector along the last axis of a stack; ``vals`` may be real or
    complex.

    Each step is CPython's complex product (ar*br - ai*bi, ar*bi + ai*br);
    NumPy's complex multiply can differ from it in the last bit. Real
    values join as complex(v, 0.0): where Python would keep multiplying
    floats, that only flips the sign of zero imaginary parts, which no
    sum here keeps (or gives nan beside an infinite component).
    """
    zr, zi = z.real, z.imag
    re, im = vals.real, vals.imag
    for foot in feet:
        br, bi = zr.take(foot, axis=-1), zi.take(foot, axis=-1)  # C order, as zr[..., foot] is not
        re, im = re * br - im * bi, re * bi + im * br
    return re, im


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array in lexicographic order, and the place of each
    row of ``keys`` among them: ``np.unique(keys, axis=0, return_inverse=True)`` without the
    ``numpy.ma`` import that it costs."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    place = np.empty(len(keys), dtype=np.int64)
    place[order] = np.cumsum(first) - 1
    return ordered[first], place


def _forms(tensor: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The polynomial view of A x^(m-1): component i is the form sum_beta c[i, beta] x^beta,
    one coefficient per row and multiset beta of feet (Qi, J. Symbolic Comput. 40, 2005).

    Returns the distinct multisets as sorted feet (K x (m - 1), 0-based, in lexicographic
    order), then per form the place of its multiset among them, its row and its
    coefficient: the sum of its entries' values, added in view order. Forms are in order of
    multiset, then row; a coefficient whose entries cancel is kept as 0.0.
    """
    idx, vals = tensor.coo
    monomials, which = _distinct_rows(np.sort(idx[:, 1:], axis=1))
    forms, home = _distinct_rows(np.stack((which, idx[:, 0]), axis=1))
    coefs = np.bincount(home, vals, minlength=len(forms)).astype(float, copy=False)
    return monomials, forms[:, 0], forms[:, 1], coefs


def _terms(vals: np.ndarray, feet: Iterable[np.ndarray], x: np.ndarray) -> np.ndarray:
    """vals * x[f1] * x[f2] * ..., multiplied left to right, for a real vector x."""
    for foot in feet:
        vals = vals * x[foot]
    return vals


def _fsum(values: list[float]) -> float:
    """The values' sum, correctly rounded: +-inf past the double range, nan where an inf meets
    a -inf or a nan.

    math.fsum refuses a sum whose partial sums overflow in its order even
    where the exact sum is in range. That sum is then taken exactly, as
    integers over the values' common power-of-two denominator, and rounded
    once by an int/int true division.
    """
    try:
        return math.fsum(values)
    except ValueError:  # inf - inf
        return math.nan
    except OverflowError:  # a partial sum, in the values' order
        pass
    special = [v for v in values if not math.isfinite(v)]
    if special:  # no finite value changes their sum
        return _fsum(special)
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(q for _, q in ratios)
    total = sum(p * (scale // q) for p, q in ratios)
    try:
        return total / scale
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _extracted(terms: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Per segment of ``lengths`` terms from ``starts`` (contiguous, none empty), a sum by
    error-free extraction and whether it is certified as the correctly rounded one; none is
    where a term is not finite or reaches 2^900.

    Rump, Ogita and Oishi, "Accurate floating-point summation, Part I"
    (SIAM J. Sci. Comput. 31(1), 2008). With sigma = 2^e above (len + 2)
    max|t| (and 2^-1022), each term splits exactly as t = q + r, where
    q = (sigma + t) - sigma is a multiple of 2^-53 sigma and |r| <= 2^-53
    sigma. So the q sum, at most sigma in size, is exact in any order, and
    the r sum is off by at most len^2 2^-106 sigma; it is exact where
    len 2^-53 sigma <= min|t|, as every partial sum is then a double on
    the grid of the least term. c = q-sum + r-sum is certified where the r
    sum is exact, or where that bound plus the exact rounding error of c
    (TwoSum) leaves the exact sum nearer c than either neighbour of c, a
    tie not included.
    """
    size = np.abs(terms)
    top, least = np.maximum.reduceat(size, starts), np.minimum.reduceat(size, starts)
    if not top.max() < _EXTRACT_LIMIT:  # a nan or an inf too
        return top, np.zeros(len(top), dtype=bool)
    exponent = np.frexp(np.maximum(top * (lengths + 2), 2.0 ** -1022))[1]
    sigma = np.ldexp(1.0, exponent).repeat(lengths)
    high = terms + sigma
    high -= sigma
    low = np.add.reduceat(np.subtract(terms, high, out=size), starts)
    high = np.add.reduceat(high, starts)
    c = high + low
    back = c - high
    err = (high - (c - back)) + (low - back)  # high + low = c + err exactly
    bound = np.ldexp(np.square(lengths, dtype=float), exponent - 106)
    certified = np.ldexp(lengths, exponent - 53) <= least
    certified |= (2 * (err + bound) < np.nextafter(c, np.inf) - c) \
        & (2 * (err - bound) > np.nextafter(c, -np.inf) - c)
    return c, certified


def _segment_fsums(terms: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``_fsum`` of each segment ``terms[bounds[i]:bounds[i + 1]]``, where ``bounds`` rises
    from 0 to ``len(terms)``; an empty segment sums to 0.0.

    A call of at least _VECTORISED terms is summed by ``_extracted``, and
    only the segments it leaves uncertified go through ``_fsum``. Below that
    size one math.fsum per segment is faster: 40 against 44 us for 60 rows
    of 12 uniform terms, 60 against 43 us for 100 rows of 10 (best of 9,
    2 shared cores).
    """
    if not _VECTORISED <= len(terms) < _ROW_LIMIT:
        flat, ends = terms.tolist(), bounds.tolist()
        try:
            return np.array([math.fsum(flat[lo:hi]) for lo, hi in zip(ends, ends[1:])])
        except (OverflowError, ValueError):
            return np.array([_fsum(flat[lo:hi]) for lo, hi in zip(ends, ends[1:])])
    lengths = np.diff(bounds)
    out, todo = np.zeros(len(lengths)), np.flatnonzero(lengths)
    out[todo], certified = _extracted(terms, bounds[todo], lengths[todo])
    for i in todo[~certified].tolist():
        out[i] = _fsum(terms[bounds[i]:bounds[i + 1]].tolist())
    return out


def _row_fsums(rows: np.ndarray, n: int, *terms: np.ndarray) -> list[np.ndarray]:
    """Per term array, ``_segment_fsums`` of the terms of each row 0 to n - 1, all sorted by
    ``rows``."""
    bounds = rows.searchsorted(np.arange(n + 1))
    return [_segment_fsums(t, bounds) for t in terms]


def apply(tensor: Tensor, x: Sequence[complex]) -> np.ndarray:
    """Evaluate the degree-(order-1) polynomial map: y_i = sum a[i, i2..im] * x_i2 ... x_im.

    Accepts real or complex vectors. Each term is multiplied left to
    right, and each output component (each real and imaginary part) is
    its row's sum correctly rounded, bit for bit as math.fsum rounds it:
    by a certified vectorised sum, with fsum where that cannot certify a
    row. Integer inputs stay exact.
    """
    if tensor.order < 2:
        raise OrderTooSmall("polynomial application needs order >= 2")
    xs = list(x)
    if len(xs) != tensor.dim:
        raise DimensionMismatch(f"vector has length {len(xs)}, tensor dim is {tensor.dim}")
    (idx, vals), n = tensor.coo, tensor.dim
    if any(isinstance(v, complex) for v in xs):
        re, im = _complex_terms(vals, idx.T[1:], np.asarray(xs, dtype=complex))
        re, im = _row_fsums(idx[:, 0], n, re, im)
        out = re.astype(complex)
        out.imag = im
        return out
    return _row_fsums(idx[:, 0], n, _terms(vals, idx.T[1:], np.asarray(xs, dtype=float)))[0]


def _equal_from(tensor: Tensor, first: int) -> np.ndarray:
    """Per entry of the view: are its indices from position ``first`` on all equal?"""
    columns = tensor.coo.idx.T[first:]
    return (columns == columns[-1]).all(axis=0)


def _diagonal(tensor: Tensor, plain: np.ndarray | None = None) -> np.ndarray:
    """The diagonal a_{i...i}, i = 1..n, zero where no entry is stored; ``plain`` may give
    ``_equal_from(tensor, 0)`` where the caller has it."""
    plain = _equal_from(tensor, 0) if plain is None else plain
    out = np.zeros(tensor.dim)
    out[tensor.coo.idx[plain, 0]] = tensor.coo.vals[plain]
    return out


def is_row_diagonal(tensor: Tensor) -> bool:
    """True when every nonzero entry has all trailing indices equal."""
    if tensor.order < 2:
        raise OrderTooSmall("row-diagonal structure needs order >= 2")
    return bool(_equal_from(tensor, 1).all())


def majorization_matrix(tensor: Tensor) -> np.ndarray:
    """The n-by-n matrix reading off M[i, j] = a[i, j, j, ..., j]."""
    if tensor.order < 2:
        raise OrderTooSmall("majorization matrix needs order >= 2")
    view, n = tensor.coo, tensor.dim
    row_diagonal = _equal_from(tensor, 1)
    out = np.zeros((n, n))
    out[view.idx[row_diagonal, 0], view.idx[row_diagonal, -1]] = view.vals[row_diagonal]
    return out


def representation_matrix(tensor: Tensor) -> np.ndarray:
    """Row i, column j sums |a[i, i2..im]| over entries whose trailing indices include j.

    Each entry contributes once per distinct index it mentions, so the
    zero pattern encodes exactly which indices row i touches. A cell's
    contributions are added in the view's order, which within a row is
    the entries' order.
    """
    if tensor.order < 2:
        raise OrderTooSmall("representation matrix needs order >= 2")
    view, n = tensor.coo, tensor.dim
    feet = view.idx[:, 1:]
    first = np.ones(feet.shape, dtype=bool)  # a foot counts unless an earlier foot repeats it
    for p in range(1, feet.shape[1]):
        first[:, p] = (feet[:, :p] != feet[:, p:p + 1]).all(axis=1)
    cells = (view.idx[:, :1] * n + feet)[first]  # entry-major, so each cell sums in view order
    weights = np.broadcast_to(np.abs(view.vals)[:, None], feet.shape)[first]
    # bincount gives integer zeros when there are no entries
    return np.bincount(cells, weights, minlength=n * n).astype(float, copy=False).reshape(n, n)


def row_diagonal_from_matrix(values: np.ndarray, order: int) -> Tensor:
    """Build the row-diagonal tensor with a[i, j, ..., j] = P[i, j]."""
    if _integer_type(type(order)) and order < 2:
        raise OrderTooSmall("row-diagonal tensors need order >= 2")
    order = _shape(order, 1)[0]  # refuses an order that is no integer, as unit_tensor does
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    rows, columns = np.nonzero(arr)  # row-major: the entries come row by row
    idx, vals = np.stack((rows,) + (columns,) * (order - 1)).T, arr[rows, columns]
    _check_finite(idx, vals)
    return _from_arrays(order, arr.shape[0], idx, vals)


def tensor_from_matrix(values: np.ndarray) -> Tensor:
    """View a square matrix as an order-2 tensor."""
    return row_diagonal_from_matrix(values, 2)
