"""Determinants, factored spectra, spectral radii and a numerical
singularity probe for blocked tensors.

The closed forms all flow from one fact: over a supported block
structure with parts (n_1, ..., n_r) in dimension n, the determinant
factors as

    det A = prod_i  det(A_i) ** (m-1) ** (n - n_i)

and the characteristic polynomial factors the same way, so spectra come
back as (block eigenvalue, exponent) pairs rather than flat multisets.
Both first check, by one fixpoint over cut positions, that the structure
refines down to leaves on the diagonal (``_check_refinable``).
Third-type structure is excluded: it genuinely does not satisfy the
formula, and asking for it is an error rather than a wrong number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocked import BlockKind, Partition, is_blocked
from .core import (Tensor, _check_real, _complex_terms, _diagonal, _distinct_rows, _equal_from,
                   _forms, _from_arrays, _check_integer, _row_fsums, _terms, apply)
from .errors import (
    BlockDetUnavailable,
    BlockSpectrumUnavailable,
    DeterminantOutOfRange,
    DimensionMismatch,
    DimensionTooLarge,
    NegativeEntry,
    NoConvergence,
    NotBlocked,
    NotDiagonal,
    OracleOutOfRange,
    OrderTooSmall,
    RadiusOutOfRange,
    ThirdTypeUnsupported,
)
from .structure import Hypergraph, _component_blocks, _peel, adjacency_tensor

_ORACLE_GUARD = 6
_ORACLE_BLOCK = 64  # restarts run in lockstep at once, so memory does not grow with restarts
_ORACLE_TERMS = 1 << 15  # cells per chunk of the objective's and the Jacobian's contractions
# the gradient steps 2^3 .. 2^-28: the first four are tried beside each Newton move, the
# rest only where none of those lowers f
_FIRST_HALVINGS, _LATER_HALVINGS = np.split(np.ldexp(1.0, 3 - np.arange(32)), [4])

# kinds whose diagonal blocks determine determinant and spectrum
_SUPPORTED = (BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2, BlockKind.DIAG)
_UNAVAILABLE = {BlockDetUnavailable: "admits no supported refinement",
                BlockSpectrumUnavailable: "cannot be reduced to dimension 1"}
_PRECISION = 192  # mantissa bits kept while the determinant is raised to its power


def _is_diagonal(tensor: Tensor) -> bool:
    return bool(_equal_from(tensor, 0).all())


def det_dim1(tensor: Tensor) -> float:
    """Determinant of a dimension-1 tensor, its single entry, as ``det_blocked`` computes it."""
    if tensor.dim != 1:
        raise DimensionMismatch(f"expected dim 1, got {tensor.dim}")
    return det_blocked(tensor, Partition((1,)), BlockKind.DIAG)


def det_diagonal(tensor: Tensor) -> float:
    """prod d_i ** (m-1)^(n-1) for a diagonal tensor, as ``det_blocked`` computes it."""
    if not _is_diagonal(tensor):  # true below order 2, which det_blocked refuses
        raise NotDiagonal("tensor has an off-diagonal entry")
    return det_blocked(tensor, Partition((tensor.dim,)), BlockKind.DIAG)


def _checked(tensor: Tensor, partition: Partition, kind: BlockKind) -> None:
    if tensor.order < 2:
        raise OrderTooSmall("determinants need order >= 2")
    if kind in (BlockKind.UTB3, BlockKind.LTB3):
        raise ThirdTypeUnsupported(
            "third-type triangular structure does not determine the determinant or spectrum")
    if kind not in _SUPPORTED:
        raise NotBlocked(f"unsupported block kind {kind!r}")
    if not is_blocked(tensor, partition, kind):
        raise NotBlocked(f"tensor is not {partition}-{kind.token} blocked")


def _check_refinable(tensor: Tensor, partition: Partition, unavailable: type) -> None:
    """Raise ``unavailable`` unless supported refinements split every block down to blocks
    with no off-diagonal entry of their own, so that the leaves are the diagonal.

    One loop over a mask of cuts on [0, n] does it, by two facts about ``_BOXES``. A block has
    a supported refinement exactly when it has a two-part UTB1 or LTB1 one (an upper kind's
    last cut keeps its last part and starts the first where ``lo <= c`` cannot hold, and with
    two parts utb2's box is utb1's; a lower kind's first cut, mirrored): a UTB1 cut at c when
    no entry inside the block has lo <= c < row, an LTB1 one when none has row <= c < hi. And
    a cut valid on a block stays valid on each sub-block holding it inside, which holds fewer
    entries: so every order of refinement reaches one finest partition, and the first refusal
    of a depth-first, left-to-right walk is its leftmost block of dim 2 or more. Each round
    cuts at every position that one kind's entries leave uncovered.
    """
    n, (rows, lo, hi) = tensor.dim, tensor.spans
    least, most = np.minimum(rows, lo), np.maximum(rows, hi)
    block = np.searchsorted(partition._sums, (least, most))  # an index's block, 1-based
    inside = (least < most) & (block[0] == block[1])  # the off-diagonal entries inside a block
    if not inside.any():  # the leaves are the diagonal already: build no array of length n
        return
    cut = np.zeros(n + 1, dtype=bool)
    cut[list(partition._sums)] = True
    while inside.any():
        rows, lo, hi, least, most = (a[inside] for a in (rows, lo, hi, least, most))
        free = np.zeros(n + 1, dtype=bool)
        for start, stop in ((lo, rows), (rows, hi)):  # UTB1 forbids [lo, row), LTB1 [row, hi)
            free |= np.cumsum(np.bincount(start, minlength=n + 1)
                              - np.bincount(np.maximum(start, stop), minlength=n + 1)) == 0
        if (free <= cut).all():
            dims = np.diff(np.flatnonzero(cut))
            raise unavailable(
                f"a dim-{dims[dims > 1][0]} diagonal block {_UNAVAILABLE[unavailable]}")
        cut |= free
        label = np.cumsum(cut)  # index i lies in block label[i - 1]
        inside = label[least - 1] == label[most - 1]


def _truncated(mantissa: int, exponent: int, sticky: bool) -> tuple[int, int, bool]:
    """mantissa * 2^exponent cut to its top _PRECISION bits; sticky is set if a dropped bit was."""
    drop = max(mantissa.bit_length() - _PRECISION, 0)
    return mantissa >> drop, exponent + drop, sticky or (mantissa & ((1 << drop) - 1)) != 0


def _det(leaves: list[float], exponent: int) -> float:
    """The product of the leaves' powers, none of them zero: a nonzero double.

    The leaves are the diagonal entries, each of exponent e = (m-1)^(n-1), so the determinant
    is P^e for the exact product P of the entries; as every denominator is a power of two,
    |P| = M * 2^K. (M, K) is raised to e by squaring, each product cut to its top _PRECISION
    bits with a sticky bit set if a dropped bit was, so the one rounding at the end (an int/int
    division, subnormals included) is correct. A determinant no double holds raises
    DeterminantOutOfRange, with log|det| from the same pair.
    """
    sign = -1 if exponent % 2 and sum(value < 0 for value in leaves) % 2 else 1
    ratios = [abs(value).as_integer_ratio() for value in leaves]  # d a power of two
    base, scale, sticky = _truncated(
        math.prod(n for n, _ in ratios), len(ratios) - sum(d.bit_length() for _, d in ratios), False)
    power, shift = 1, 0
    for bit in bin(exponent)[2:]:  # from the top bit down
        power, shift, sticky = _truncated(power * power, 2 * shift, sticky)
        if bit == "1":
            power, shift, sticky = _truncated(power * base, shift + scale, sticky)
    top = shift + power.bit_length()  # 2^(top-1) <= |det| < 2^top
    mantissa, k = power << 1 | sticky, shift - 1  # the sticky bit below the last kept one
    try:  # 0.0 where |det| rounds to 0 or past a double, found from top before any shift
        det = (mantissa << max(k, 0)) / (1 << max(-k, 0)) if -1075 < top <= 1024 else 0.0
    except OverflowError:  # rounded up to 2^1024
        det = 0.0
    if not det:
        try:
            log_abs = math.log(power) + shift * math.log(2)
        except OverflowError:  # the exponent K is beyond a double
            log_abs = math.inf if shift > 0 else -math.inf
        raise DeterminantOutOfRange(
            f"the determinant, {'-' if sign < 0 else ''}exp({log_abs!r}), "
            "is out of the double range", sign=sign, log_abs=log_abs)
    return sign * det


def det_blocked(tensor: Tensor, partition: Partition, kind: BlockKind) -> float:
    """Determinant through the block formula, from the leaves of its recursion: the stored
    diagonal entries, 0.0 unless all n are stored, with no array of length n built.

    A block with no supported refinement raises BlockDetUnavailable, third-type
    input ThirdTypeUnsupported, and a determinant no double holds DeterminantOutOfRange.
    """
    _checked(tensor, partition, kind)
    _check_refinable(tensor, partition, BlockDetUnavailable)
    plain = _equal_from(tensor, 0)
    if np.count_nonzero(plain) < tensor.dim:
        return 0.0
    return _det(tensor.coo.vals[plain].tolist(), (tensor.order - 1) ** (tensor.dim - 1))


@dataclass(frozen=True)
class SpectrumItem:
    """Eigenvalues of one terminal block together with their lifted exponent."""

    eigenvalues: tuple[float, ...]
    exponent: int


@dataclass(frozen=True)
class SpectrumFactored:
    """A spectrum kept in factored form: items multiply to the characteristic polynomial."""

    items: tuple[SpectrumItem, ...]
    total_degree: int

    def as_multiset(self) -> dict[float, int]:
        out: dict[float, int] = {}
        for item in self.items:
            for ev in item.eigenvalues:
                out[ev] = out.get(ev, 0) + item.exponent
        return out


def spectrum_blocked(tensor: Tensor, partition: Partition, kind: BlockKind) -> SpectrumFactored:
    """Factored spectrum over a supported block structure: one item per leaf, the diagonal."""
    _checked(tensor, partition, kind)
    _check_refinable(tensor, partition, BlockSpectrumUnavailable)
    exponent = (tensor.order - 1) ** (tensor.dim - 1)  # every leaf's, as in ``_det``
    return SpectrumFactored(tuple(SpectrumItem((value,), exponent) for value in
                                  _diagonal(tensor).tolist()), tensor.dim * exponent)


@dataclass(frozen=True)
class SpectralResult:
    """Output of the power iteration. ``eigvec`` is the positive eigenvector of weakly
    irreducible input, and None where the normal form has several blocks."""

    rho: float
    eigvec: Optional[np.ndarray]
    iterations: int
    residual: float


# The iteration runs on A/s + _SHIFT * unit, s the largest row sum, so the
# shift is s/8 in the input's scale. Any positive shift converges on weakly
# irreducible input; its size trades two costs. A large one pulls the other
# eigenvalues' moduli toward the radius (a shift of s took about three times
# the steps on dense and hypergraph tensors). A small one leaves cyclic
# tensors slow, whose other eigenvalues sit on the radius's circle (a
# weighted 6-cycle takes 216 steps at s/8 and 615 at s/32).
_SHIFT = 0.125
# The ratios y_i / x_i^(m-1) bracket a block's radius while they are finite and at least
# _SHIFT, as y_i >= _SHIFT * x_i^(m-1); both hold while every power is at least _LEAST, so
# that _SHIFT times it is a normal double. As y <= 1 + _SHIFT, no power falls more than
# 9-fold in a step, so the ratios are checked only once _FALL-fold falls could reach _LEAST.
_LEAST, _FALL = np.finfo(float).tiny / _SHIFT, 16


def _largest_row_sum(tensor: Tensor) -> float:
    """The scale the radius is computed in: the largest row sum, which bounds it from above."""
    view = tensor.coo
    return float(np.bincount(view.idx[:, 0], view.vals, minlength=tensor.dim).max())


# A block of dim d >= 2 and e entries steps as one product of its d x d^(m-1) unfolding with
# x (x) ... (x) x when e >= _DENSE and d^m <= 2e. The unfolding then holds at most twice the
# entries, about the memory of the view's own arrays. Below about _DENSE entries, building
# it and the per-block loop of a step cost more than the terms they spare: a full order-3
# block of dim 12 (1,728 entries) takes as long either way, one of dim 14 (2,744) 0.39
# against 0.44 ms, and order 2 and 4 cross near 2,000 entries too.
_DENSE = 2_000


def _is_dense(dim: int, order: int, entries: int) -> bool:
    """Whether a block of ``dim`` with ``entries`` entries steps by its unfolding."""
    return dim >= 2 and entries >= _DENSE and dim ** order <= 2 * entries


def _kron(x: np.ndarray, m: int) -> np.ndarray:
    """x (x) ... (x) x, m - 1 factors, the last index running fastest, each product formed
    left to right: the vector a block's unfolding multiplies."""
    out = x
    for _ in range(m - 2):
        out = np.multiply.outer(out, x).ravel()
    return out


def _unconverged(bounds, j: int, scale: float, unit: float, steps: int) -> NoConvergence:
    """The error of a block that stopped open, from its bounds at position j."""
    lower, upper, scale = float(bounds[0][j]), float(bounds[1][j]), float(scale)
    return NoConvergence(
        f"bounds still {(upper - lower) * scale * unit:.3e} apart after {steps} iterations",
        lower=(lower - _SHIFT) * scale * unit, upper=(upper - _SHIFT) * scale * unit,
        iterations=steps)


def _block_radii(tensor: Tensor, block: np.ndarray, tol: float, max_iter: int, k: int = 0):
    """Ng-Qi-Zhou bracketing of the radius of each principal subtensor on a block numbered in
    ``block`` (weakly irreducible, or of dim 1), batched in one iteration.

    The view is relabelled so a block's rows are contiguous, its entries in that
    subtensor's order (one block holding every index already is). A block iterates on its
    subtensor over its largest row sum from the all-ones vector, and leaves the active
    arrays in the step its bounds close within ``tol``. A block whose bracket stops forming
    raises at once with its last bounds; past ``max_iter`` the first block still open
    raises. Runs on A / 2^k; returns, in the input's scale, arrays of the radii, step counts
    and exact residuals (as ``apply`` sums rows) per block, and the eigenvectors in order.

    A step takes each block by a rule that reads only the block (``_is_dense``), so a
    block's numbers are those of its own iteration whatever runs beside it. A dense block
    multiplies its scaled d x d^(m-1) unfolding, built once per call, by x (x) ... (x) x
    (``_kron``). Every other block sums each row's run of terms by ``np.add.reduceat``:
    every row that steps holds an entry of its block, as a peel block of dim >= 2 is
    strongly connected on its kept entries and a hypergraph component of dim >= 2 has an
    edge at every vertex (dim 1 never steps).
    """
    m, n, unit = tensor.order, tensor.dim, 2.0 ** k
    dims = np.bincount(block)
    starts, home = np.cumsum(dims) - dims, np.repeat(np.arange(len(dims)), dims)
    columns, vals = tensor.coo.idx.T, tensor.coo.vals
    if len(dims) > 1:
        label = np.argsort(block, kind="stable").argsort()  # old - 1 to new
        columns = label[columns]
        kept = np.flatnonzero((home[columns] == home[columns[0]]).all(axis=0))
        kept = kept[columns[0, kept].argsort(kind="stable")]
        columns, vals = columns.take(kept, axis=1), vals[kept]
    vals = np.ldexp(vals, -k) if k else vals
    sums = np.bincount(columns[0], vals, minlength=n)  # as _largest_row_sum, bit for bit
    scale = np.maximum.reduceat(sums, starts)
    rhos, steps, eig = sums[starts], np.zeros(len(dims), dtype=int), np.ones(n)  # dim 1: its entry
    rows, feet = columns[0], columns[1:]
    weights = vals / (scale.repeat(dims)[rows] if len(dims) > 1 else scale)  # each row's scale
    unfolded = {}  # block -> its scaled unfolding, for the dense ones
    if len(rows) >= _DENSE:  # else no block holds enough entries
        first = rows.searchsorted(np.append(starts, n))  # each block's first entry, then the end
        for b in np.flatnonzero(np.diff(first) >= _DENSE).tolist():
            d, lo, hi = int(dims[b]), int(first[b]), int(first[b + 1])  # its entries: [lo, hi)
            if _is_dense(d, m, hi - lo):
                start = int(starts[b])
                codes = columns[0, lo:hi] - start  # each entry's place in the unfolding
                for column in columns[1:, lo:hi]:
                    codes *= d
                    codes += column
                    codes -= start
                unfold = np.zeros(d ** m)
                unfold[codes] = weights[lo:hi]
                unfolded[b] = unfold.reshape(d, -1)
    if unfolded:  # the dense blocks' entries, a run each, leave the terms
        cuts = [0, *(i for b in unfolded for i in (first[b], first[b + 1])), len(rows)]
        kept = np.concatenate([np.arange(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2])])
        rows, feet, weights = rows[kept], feet.take(kept, axis=1), weights[kept]
    x, labels, live, act = np.ones(n), np.arange(n), dims > 1, np.arange(len(dims))
    offsets, here, gone = starts, home, not live.all()  # here: each active row's block

    def lay_out():
        """Each active dense block's rows and unfolding, the rows that sum terms, and each
        such row's first entry."""
        slots, spots = [], np.ones(len(here), dtype=bool)
        for b, unfold in unfolded.items():
            if live[b]:
                lo = int(offsets[act.searchsorted(b)])
                slots.append((lo, lo + len(unfold), unfold))
                spots[lo:lo + len(unfold)] = False
        spots = np.flatnonzero(spots) if slots else slice(None)
        return slots, spots, rows.searchsorted(np.arange(len(here))[spots])

    slots, spots, runs = lay_out()
    check = int(math.log(1 / _LEAST, _FALL))  # from powers of 1, no earlier step reaches _LEAST
    # ratios past a broken bracket may divide by 0, and a radius past the double range is inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if gone:  # the blocks that are done leave the active arrays
                keep = live[act]
                if not keep.any():
                    break
                kept_rows = np.repeat(keep, dims[act])
                relabel, kept = np.cumsum(kept_rows) - 1, kept_rows[rows]
                rows, weights = relabel[rows[kept]], weights[kept]
                feet = relabel[feet.compress(kept, axis=1)]
                x, labels, act = x[kept_rows], labels[kept_rows], act[keep]
                sizes = dims[act]
                offsets, here = np.cumsum(sizes) - sizes, np.repeat(np.arange(act.size), sizes)
                slots, spots, runs = lay_out()
            power = x ** (m - 1)
            if slots:  # the dense blocks step by their unfoldings, the others by terms
                y = np.empty(len(x))
                for lo, hi, unfold in slots:
                    y[lo:hi] = unfold @ _kron(x[lo:hi], m)
                if len(rows):
                    y[spots] = np.add.reduceat(_terms(weights, feet, x), runs)
                y += _SHIFT * power
            else:
                y = np.add.reduceat(_terms(weights, feet, x), runs) + _SHIFT * power
            ratios = y / power
            bounds = np.minimum.reduceat(ratios, offsets), np.maximum.reduceat(ratios, offsets)
            if it == check:
                check = it + max(int(math.log(max(power.min() / _LEAST, 1.0), _FALL)), 1)
                broken = ~((bounds[0] >= _SHIFT) & (bounds[1] < math.inf))
                if broken.any():
                    b = act[broken.argmax()]
                    raise _unconverged(last[1], last[0].searchsorted(b), scale[b], unit, it - 1)
            done = bounds[1] - bounds[0] <= tol
            gone = np.count_nonzero(done)
            if gone:
                on, b = done[here], act[done]
                eig[labels[on]], steps[b], live[b] = x[on], it, False
                rhos[b] = (bounds[1][done] - _SHIFT) * scale[b]
            last = act, bounds  # for a bracket that breaks in the next step
            x = y ** (1.0 / (m - 1))
            x = x / np.maximum.reduceat(x, offsets)[here]
        if live.any():
            j = int(np.argmax(live[act]))
            raise _unconverged(bounds, j, scale[act[j]], unit, max_iter)
        # the residuals, each block's eigenvector taken as ``apply`` takes it
        images = _row_fsums(columns[0], n, _terms(vals, columns[1:], eig))[0]
        gaps = np.abs(images - rhos[home] * eig ** (m - 1))
        return rhos * unit, steps, np.maximum.reduceat(gaps, starts) * unit, eig


def _check_controls(tol: float, max_iter: int) -> None:
    _check_real("tol", tol)
    _check_integer("max_iter", max_iter, ValueError)
    if max_iter < 1:
        raise ValueError("max_iter must be positive")


def spectral_radius(tensor: Tensor, tol: float = 1e-10, max_iter: int = 10000) -> SpectralResult:
    """Largest H-eigenvalue of a nonnegative tensor.

    The tensor is peeled into the second-type normal form's diagonal blocks
    (one, if it is weakly irreducible), which run in one batched power
    iteration from the all-ones vector. The radius is their first maximum,
    the residual the winning block's, and the iterations their sum.

    ``tol`` is relative: a block stops once its bounds on the radius lie
    within ``tol`` times its largest row sum, so ``rho(c * A)`` is
    ``c * rho(A)`` to that accuracy for every ``c > 0``. A row sum past the
    double range runs on A / 2^k; a radius past it raises RadiusOutOfRange.
    An iterate that underflows until no bracket forms raises NoConvergence.
    """
    if tensor.order < 2:
        raise OrderTooSmall("spectral radius needs order >= 2")
    _check_controls(tol, max_iter)
    negative = tensor.coo.vals < 0
    if negative.any():
        k = negative.argmax()  # the first in view order
        idx, v = tuple((tensor.coo.idx[k] + 1).tolist()), tensor.coo.vals[k].item()
        raise NegativeEntry(f"entry {idx} is negative: {v}")

    if tensor.is_zero():
        return SpectralResult(0.0, np.ones(tensor.dim), 0, 0.0)
    # a row sum past the double range iterates on A / 2^k; the bound spares the exact test
    fits = float(tensor.coo.vals.max()) * tensor.nnz * 2 < math.inf
    k = 0 if fits or math.isfinite(_largest_row_sum(tensor)) else tensor.nnz.bit_length() + 1
    rhos, steps, residuals, eig = _block_radii(tensor, _peel(tensor), tol, max_iter, k)
    j = int(np.argmax(rhos))  # the first maximum
    if rhos[j] == math.inf:
        raise RadiusOutOfRange("the spectral radius is past the double range")
    return SpectralResult(float(rhos[j]), eig if len(rhos) == 1 else None, int(steps.sum()),
                          float(residuals[j]))


def hypergraph_radii(graph: Hypergraph, tol: float = 1e-10, max_iter: int = 10000) -> list[float]:
    """The spectral radius of each connected component's adjacency tensor, in order of least
    vertex, from one batched iteration: a component's principal subtensor is weakly
    irreducible, so each is one block. ``tol`` and ``max_iter`` act as in
    ``spectral_radius``, which gives the same radius on each component's subtensor."""
    _check_controls(tol, max_iter)
    rhos = _block_radii(adjacency_tensor(graph), _component_blocks(graph), tol, max_iter)[0]
    return rhos.tolist()


@dataclass(frozen=True)
class OracleReport:
    """Numerical evidence about min ||A x||_2 over the complex unit sphere."""

    min_norm: float
    witness: np.ndarray
    restarts_used: int


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _norms(w: np.ndarray) -> np.ndarray:
    """The 2-norm of each vector along the last axis."""
    return np.sqrt((w.real ** 2 + w.imag ** 2).sum(axis=-1))


def _adjoint_times(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^H v for each (n, n) matrix of a stack and the n-vector beside it."""
    mr, mi, vr, vi = m.real, m.imag, v.real[:, :, None], v.imag[:, :, None]
    return _complex((mr * vr + mi * vi).sum(axis=1), (mr * vi - mi * vr).sum(axis=1))


def _min_norm_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The least-norm least-squares solution of each system of a stack of matrices of rank
    below n, through its SVD: the least singular value counts as zero (it is rounding, and
    can pass the bound), as do those at or below eps * n * s_max, as in lstsq(rcond=None)."""
    u, s, vh = np.linalg.svd(jac)
    keep = s > np.finfo(float).eps * jac.shape[-1] * s[:, :1]
    keep[:, -1] = False
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return _adjoint_times(vh, _adjoint_times(u, rhs) * inv)


def _monomials(feet: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z^(feet_k) = z[f1] * z[f2] * ... for each row k of ``feet`` and each row of z, as a
    complex (rows, K) stack, multiplied left to right from z[f1] by ``_complex_terms``;
    with no feet, the K ones of a constant."""
    if not feet.shape[1]:
        return np.ones(len(feet), dtype=complex)
    first = z.take(feet[:, 0], axis=-1)
    return first if feet.shape[1] == 1 else _complex(*_complex_terms(first, feet.T[1:], z))


def _contracted(feet: np.ndarray, table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k z^(feet_k) table[k] for each row of z, as a (rows, cells) stack, for K x f
    ``feet`` and a complex K x cells ``table`` of real numbers.

    The monomials are ``_monomials``. A product with a real number held as
    a complex one is that of its real and imaginary parts, and the sum
    over k is NumPy's reduction over the middle axis of (rows, K, cells),
    which adds slice k to the sum of the slices before it, so a row's
    value does not depend on the rows beside it. BLAS would round by its
    own blocking and alignment, and breaks that. Rows go at most
    ``_ORACLE_TERMS`` cells of the stack at a time.
    """
    out = np.empty((len(z), table.shape[1]), dtype=complex)
    step = max(1, _ORACLE_TERMS // max(table.size, 1))
    for lo in range(0, len(z), step):
        mono = _monomials(feet, z[lo:lo + step])
        out[lo:lo + step] = (mono[..., None] * table).sum(axis=-2)  # no feet: one row
    return out


def _oracle_maps(tensor: Tensor):
    """The objective z -> (||y||^2, y), y = A z^(m-1), and the complex Jacobians of y, on the
    rows of an (R, n) stack, both read off the tensor's merged forms (``core._forms``).

    y contracts the monomials x^beta with the K x n coefficients C of the
    forms. The partial of x^beta in x_j is mult_j(beta) x^(beta - j), so
    the Jacobian contracts the distinct monomials of m - 2 feet with a
    table D of K' x n^2 cells, D[beta - j, (i, j)] = mult_j(beta) C[beta, i],
    built one foot position at a time (order 2's has one monomial, 1).
    """
    n, m = tensor.dim, tensor.order
    monomials, which, rows, coefs = _forms(tensor)
    table = np.zeros((len(monomials), n))
    table[which, rows] = coefs
    lower, place = _distinct_rows(np.concatenate(
        [np.delete(monomials, p, axis=1) for p in range(m - 1)]))
    place = place.reshape(m - 1, len(monomials))
    partials = np.zeros((len(lower), n, n))
    for p in range(m - 1):  # beta minus its foot p and that foot determine beta
        partials[place[p], :, monomials[:, p]] += table
    table, partials = table.astype(complex), partials.reshape(len(lower), n * n).astype(complex)

    def objective(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = _contracted(monomials, table, z)
        return (y.real ** 2 + y.imag ** 2).sum(axis=1), y

    def jacobian(z: np.ndarray) -> np.ndarray:
        return _contracted(lower, partials, z).reshape(-1, n, n)

    return objective, jacobian


def _descend(objective, trials: np.ndarray, allowed, z: np.ndarray, f: np.ndarray,
             y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Move each of ``rows`` of z to the first of its trials (a (rows, k, n) stack), scaled
    to unit length, that lowers f and that ``allowed`` (a (rows, k) mask, or True) lets it
    take; f and y follow. Return which rows moved."""
    norm = _norms(trials)  # at least 1, as every move is tangent to the sphere at z
    unit = trials * (1.0 / norm)[..., None]
    f_t, y_t = objective(unit.reshape(-1, z.shape[1]))
    f_t = f_t.reshape(norm.shape)
    lower = (f_t < f[rows, None]) & allowed
    hit = lower.any(axis=1)
    pick = np.flatnonzero(hit), lower[hit].argmax(axis=1)  # the first trial that lowers f
    moved = rows[hit]
    z[moved], f[moved], y[moved] = unit[pick], f_t[pick], y_t.reshape(unit.shape)[pick]
    return hit


def _oracle_block(jacobian, objective, z: np.ndarray, iters: int, degree: int) -> np.ndarray:
    """The last point of the restart from each row of z, every restart run in lockstep.

    Each step tries, for every live restart at once, the projective Newton
    move (Shub and Smale, J. Amer. Math. Soc. 6(2), 1993), the least-norm d
    with (J P) d = -y, P = I - z z^H, beside the steps ``_FIRST_HALVINGS``
    along the gradient on the sphere, grad - z (z^H grad); the map is
    homogeneous of ``degree`` m - 1, so J z = (m - 1) y and
    z^H grad = 2 (m - 1) ||y||^2. It keeps the Newton move if it lowers f,
    else the first of those steps that does; where none does, the first of
    ``_LATER_HALVINGS`` that does. A restart stops when no move lowers f,
    or when the Newton move does not and its gradient is below
    1e-14 ||y||, and then leaves the live rows. A restart's path does not
    depend on the rows beside it: a sum over a vector's components adds at
    most ``_ORACLE_GUARD`` < 8 numbers, which NumPy adds in order; a
    product of two complex arrays is formed from real ones; the
    objective and the Jacobian sum each row's monomials on their own
    (``_contracted``); and the SVD works matrix by matrix.
    """
    last, live = z.copy(), np.arange(len(z))
    f, y = objective(z)  # y is always the image of the current z
    for _ in range(iters):
        jac = jacobian(z)
        # real-coordinate gradient of ||y||^2 on the sphere, packed into a complex vector
        grad = _adjoint_times(jac, y + y) - (2 * degree) * f[:, None] * z
        flat = _norms(grad) < 1e-14 * np.sqrt(f)
        yr, yi, zr, zi = y.real[:, :, None], y.imag[:, :, None], z.real[:, None], z.imag[:, None]
        tangent = jac - degree * _complex(yr * zr + yi * zi, yi * zr - yr * zi)  # J - (J z) z^H
        trials = np.concatenate(((z + _min_norm_solve(tangent, -y))[:, None],
                                 z[:, None] - _FIRST_HALVINGS[:, None] * grad[:, None]), axis=1)
        allowed = np.ones(trials.shape[:2], dtype=bool)
        allowed[flat, 1:] = False  # a flat gradient leaves only the Newton move
        moved = _descend(objective, trials, allowed, z, f, y, np.arange(len(z)))
        rest = np.flatnonzero(~moved & ~flat)
        if len(rest):
            trials = z[rest, None] - _LATER_HALVINGS[:, None] * grad[rest, None]
            moved[rest] = _descend(objective, trials, True, z, f, y, rest)
        if not moved.all():
            last[live[~moved]] = z[~moved]
            z, f, y, live = z[moved], f[moved], y[moved], live[moved]
            if not len(live):
                break
    last[live] = z
    return last


def _image_norm(tensor: Tensor, z: np.ndarray) -> float:
    """||apply(tensor, z)||, from its real and imaginary parts scaled by 2^-e, e the exponent
    of the largest, so that no square overflows or underflows; inf past the double range."""
    parts = apply(tensor, z).view(float)
    top = np.abs(parts).max()
    if not top < math.inf:  # a component past the range, or one where an inf met a -inf
        return math.inf
    e = math.frexp(top)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(parts, -e))), e)


def singularity_oracle(tensor: Tensor, restarts: int = 64, iters: int = 200,
                       seed: int = 7) -> OracleReport:
    """Newton-on-the-sphere estimate of min ||A x||_2, ||x||_2 = 1, x complex.

    A reported minimum near zero is strong evidence of a nontrivial
    projective zero (vanishing determinant); a minimum bounded away from
    zero certifies, numerically, that none exists. Each restart draws
    its own start from seed + restart index, so runs are reproducible
    and independent of scheduling: the report is the first least of the
    one-restart runs with seeds seed, ..., seed + restarts - 1, and
    ``min_norm`` is ||apply(tensor, witness)|| (``_image_norm``).

    The search runs on 2^-k A, k putting the 2-norm of the absolute row
    sums in [1/2, 1): ||2^-k A x|| <= 1 for a unit x, and
    min ||2^-k A x|| = 2^-k min ||A x|| exactly, so steps and stops are
    relative to the tensor's scale. Its objective ||2^-k A x||^2 bottoms
    out near 2^-1022, so a least norm below about 2^-511 of the scale
    reads as zero; values more than about 2^1000 below the largest go
    subnormal or zero once scaled and are lost to the search alone.
    OracleOutOfRange refuses a run in which every restart's image has a
    norm past the double range. Each iteration tries the projective
    Newton move first (see ``_oracle_block``): plain descent on ||A x||^2
    flattens out quartically near a zero, while Newton's step keeps
    converging geometrically. Restarts run in lockstep, ``_ORACLE_BLOCK``
    at a time.
    """
    if tensor.order < 2:
        raise OrderTooSmall("the singularity probe needs order >= 2")
    if tensor.dim > _ORACLE_GUARD:
        raise DimensionTooLarge(
            f"the probe is capped at dim {_ORACLE_GUARD}, got {tensor.dim}")
    for name, value in (("restarts", restarts), ("iters", iters), ("seed", seed)):
        _check_integer(name, value, ValueError)
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    (idx, vals), n = tensor.coo, tensor.dim
    top = math.frexp(np.abs(vals).max(initial=0.0))[1]  # the row sums of 2^-top |A| are finite
    sums = np.bincount(idx[:, 0], np.ldexp(np.abs(vals), -top), minlength=n)
    k = top + math.frexp(math.hypot(*sums.tolist()))[1]
    small = np.ldexp(vals, -k)
    scaled = _from_arrays(tensor.order, n, idx.T.compress(small != 0, axis=1).T, small[small != 0])
    objective, jacobian = _oracle_maps(scaled)

    def start(r: int) -> np.ndarray:
        rng = np.random.default_rng(seed + r)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z / np.linalg.norm(z)

    best, witness = math.inf, None
    for lo in range(0, restarts, _ORACLE_BLOCK):
        starts = np.array([start(r) for r in range(lo, min(lo + _ORACLE_BLOCK, restarts))])
        for z in _oracle_block(jacobian, objective, starts, iters, tensor.order - 1):
            score = _image_norm(tensor, z)
            if witness is None or score < best:  # the first least
                best, witness = score, z
    if best == math.inf:
        raise OracleOutOfRange("the witness's image has a norm past the double range")
    return OracleReport(best, witness, restarts)
