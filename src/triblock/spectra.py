"""Determinants, factored spectra, spectral radii and a numerical
singularity probe for blocked tensors.

The closed forms all flow from one fact: over a supported block
structure with parts (n_1, ..., n_r) in dimension n, the determinant
factors as

    det A = prod_i  det(A_i) ** (m-1) ** (n - n_i)

and the characteristic polynomial factors the same way, so spectra come
back as (block eigenvalue, exponent) pairs rather than flat multisets.
Both read one walk of the recursion, whose leaves are those pairs.
Third-type structure is excluded: it genuinely does not satisfy the
formula, and asking for it is an error rather than a wrong number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blocked import BlockKind, Partition, _finest_refinement, _inside, _principal_block, is_blocked
# not called here, but kept a name of this module: bench/trace_layers.py wraps spectra.apply
from .core import Tensor, _complex_terms, _equal_from, _row_fsums, apply  # noqa: F401
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
    OrderTooSmall,
    RadiusOutOfRange,
    ThirdTypeUnsupported,
)
from .structure import _peel

_ORACLE_GUARD = 6

# kinds whose diagonal blocks determine determinant and spectrum
_SUPPORTED = (BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2, BlockKind.DIAG)
_UNAVAILABLE = {BlockDetUnavailable: "admits no supported refinement",
                BlockSpectrumUnavailable: "cannot be reduced to dimension 1"}
_PRECISION = 192  # mantissa bits kept while the determinant is raised to its power


def _is_diagonal(tensor: Tensor) -> bool:
    return bool(_equal_from(tensor, 0).all())


def det_dim1(tensor: Tensor) -> float:
    """Determinant of a dimension-1 tensor: its single entry."""
    if tensor.dim != 1:
        raise DimensionMismatch(f"expected dim 1, got {tensor.dim}")
    vals = tensor.coo.vals  # one entry at most: every index is (1, ..., 1)
    return vals[0].item() if len(vals) else 0.0


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


def _leaves(tensor: Tensor, partition: Partition, unavailable: type):
    """The dimension-1 leaves of the block recursion, left to right, each of exponent (m-1)^(n-1).

    A block with no off-diagonal entry of its own yields its diagonal from the view; any
    other is built to recurse into its finest refinement, or raises ``unavailable``.
    """
    view, (rows, inside) = tensor.coo, _inside(tensor, partition)
    plain = _equal_from(tensor, 0)
    busy = np.bincount(rows[inside & ~plain], minlength=partition.r + 1)
    diagonal = np.zeros(tensor.dim)
    diagonal[view.idx[plain, 0]] = view.vals[plain]
    for j, (c, d) in enumerate(zip(partition._sums, partition._sums[1:]), start=1):
        if not busy[j]:
            yield from diagonal[c:d].tolist()
            continue
        block = _principal_block(tensor, inside, c, d)
        refinement = _finest_refinement(block)
        if refinement is None:
            raise unavailable(f"a dim-{d - c} diagonal block {_UNAVAILABLE[unavailable]}")
        yield from _leaves(block, refinement[0], unavailable)


def _truncated(mantissa: int, exponent: int, sticky: bool) -> tuple[int, int, bool]:
    """mantissa * 2^exponent cut to its top _PRECISION bits; sticky is set if a dropped bit was."""
    drop = max(mantissa.bit_length() - _PRECISION, 0)
    return mantissa >> drop, exponent + drop, sticky or (mantissa & ((1 << drop) - 1)) != 0


def _det(leaves, exponent: int) -> float:
    """The product of the leaves' powers: 0.0 if a leaf is zero, else a nonzero double.

    Every leaf of a walk has the exponent e = (m-1)^(n-1), so the
    determinant is P^e for the exact product P of the entries, and as every
    denominator is a power of two, |P| = M * 2^K. (M, K) is raised to e by
    squaring, each product cut to its top _PRECISION bits with a sticky bit
    set if a dropped bit was, so the one rounding at the end (an int/int
    division, subnormals included) is correct. A determinant no double
    holds raises DeterminantOutOfRange, with log|det| from the same pair.
    """
    leaves = list(leaves)
    if 0 in leaves:
        return 0.0
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
    """Determinant through the block formula, from the leaves of its recursion.

    A block with no supported refinement raises BlockDetUnavailable, third-type
    input ThirdTypeUnsupported, and a determinant no double holds DeterminantOutOfRange.
    """
    _checked(tensor, partition, kind)
    return _det(_leaves(tensor, partition, BlockDetUnavailable),
                (tensor.order - 1) ** (tensor.dim - 1))


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
    """Factored spectrum over a supported block structure: one item per leaf of the recursion."""
    _checked(tensor, partition, kind)
    exponent = (tensor.order - 1) ** (tensor.dim - 1)  # every leaf's, as in ``_det``
    items = [SpectrumItem((value,), exponent)
             for value in _leaves(tensor, partition, BlockSpectrumUnavailable)]
    if len(items) != tensor.dim:  # one leaf per index, each with the same exponent
        raise AssertionError("spectrum bookkeeping lost degrees")
    return SpectrumFactored(tuple(items), tensor.dim * exponent)


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


def _unconverged(bounds, j: int, scale: float, unit: float, steps: int) -> NoConvergence:
    """The error of a block that stopped open, from its bounds at position j."""
    lower, upper, scale = float(bounds[0][j]), float(bounds[1][j]), float(scale)
    return NoConvergence(
        f"bounds still {(upper - lower) * scale * unit:.3e} apart after {steps} iterations",
        lower=(lower - _SHIFT) * scale * unit, upper=(upper - _SHIFT) * scale * unit,
        iterations=steps)


def _block_radii(tensor: Tensor, blocks: list, tol: float, max_iter: int, k: int = 0):
    """Ng-Qi-Zhou bracketing of the radius of each of ``blocks``' principal subtensors
    (weakly irreducible, or of dim 1 for the diagonal entry), batched in one iteration.

    The view is relabelled so a block's rows are contiguous, its entries in that
    subtensor's order (one block holding every index already is). A block iterates on its
    subtensor over its largest row sum from the all-ones vector, and leaves the active
    arrays in the step its bounds close within ``tol``. A block whose bracket stops forming
    raises at once with its last bounds; past ``max_iter`` the first block still open
    raises. Runs on A / 2^k; returns, in the input's scale, arrays of the radii, step counts
    and exact residuals (as ``apply`` sums rows) per block, and the eigenvectors in order.
    """
    m, n, unit = tensor.order, tensor.dim, 2.0 ** k
    dims = np.array([len(block) for block in blocks])
    starts, home = np.cumsum(dims) - dims, np.repeat(np.arange(len(dims)), dims)
    columns, vals = np.ascontiguousarray(tensor.coo.idx.T), tensor.coo.vals
    if len(dims) > 1:
        label = np.argsort(np.concatenate([sorted(block) for block in blocks]))  # old - 1 to new
        columns = label[columns]
        kept = np.flatnonzero((home[columns] == home[columns[0]]).all(axis=0))
        kept = kept[columns[0, kept].argsort(kind="stable")]
        columns, vals = columns.take(kept, axis=1), vals[kept]
    vals = np.ldexp(vals, -k) if k else vals
    sums = np.bincount(columns[0], vals, minlength=n)
    scale = np.maximum.reduceat(sums, starts)
    rhos, steps, eig = sums[starts], np.zeros(len(dims), dtype=int), np.ones(n)  # dim 1: its entry
    rows, feet = columns[0], columns[1:]
    weights = vals / (scale.repeat(dims)[rows] if len(dims) > 1 else scale)  # each row's scale
    x, labels, live, act = np.ones(n), np.arange(n), dims > 1, np.arange(len(dims))
    offsets, here, gone = starts, home, not live.all()  # here: each active row's block
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
                rows, feet, weights = relabel[rows[kept]], relabel[feet[:, kept]], weights[kept]
                x, labels, act = x[kept_rows], labels[kept_rows], act[keep]
                sizes = dims[act]
                offsets, here = np.cumsum(sizes) - sizes, np.repeat(np.arange(act.size), sizes)
            terms = weights
            for foot in feet:
                terms = terms * x[foot]
            power = x ** (m - 1)
            y = np.bincount(rows, terms, minlength=len(x)) + _SHIFT * power
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
        terms = vals  # the residuals, each block's eigenvector taken as ``apply`` takes it
        for foot in columns[1:]:
            terms = terms * eig[foot]
        gaps = np.abs(np.asarray(_row_fsums(columns[0], n, terms)[0]) - rhos[home] * eig ** (m - 1))
        return rhos * unit, steps, np.maximum.reduceat(gaps, starts) * unit, eig


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
    if not tol > 0:  # nan too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
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
    # the sinks peeled last are the normal form's first blocks
    rhos, steps, residuals, eig = _block_radii(tensor, [*_peel(tensor)][::-1], tol, max_iter, k)
    j = int(np.argmax(rhos))  # the first maximum
    if rhos[j] == math.inf:
        raise RadiusOutOfRange("the spectral radius is past the double range")
    return SpectralResult(float(rhos[j]), eig if len(rhos) == 1 else None, int(steps.sum()),
                          float(residuals[j]))


@dataclass(frozen=True)
class OracleReport:
    """Numerical evidence about min ||A x||_2 over the complex unit sphere."""

    min_norm: float
    witness: np.ndarray
    restarts_used: int


def _oracle_jacobian(tensor: Tensor) -> Callable[[np.ndarray], np.ndarray]:
    """The complex Jacobian of x -> apply(tensor, x), as a function of x.

    The partial of entry a[i, f_1..f_{m-1}] at position p is a times the
    other x[f_s], multiplied left to right; the partials are added into
    jac[i, f_p] entry by entry, then position by position. The index
    arrays depend only on the tensor, so they are built once here.
    """
    n, m = tensor.dim, tensor.order
    view = tensor.coo
    feet = view.idx[:, 1:]
    others = [[s for s in range(m - 1) if s != p] for p in range(m - 1)]
    vals = np.repeat(view.vals, m - 1)  # one per (entry, position)
    other_feet = feet[:, others].reshape(len(vals), m - 2).T
    cells = (np.repeat(view.idx[:, 0], m - 1), feet.ravel())

    def jacobian(z: np.ndarray) -> np.ndarray:
        partials = np.empty(len(vals), dtype=complex)
        partials.real, partials.imag = _complex_terms(vals, other_feet, z)
        jac = np.zeros((n, n), dtype=complex)
        np.add.at(jac, cells, partials)
        return jac

    return jacobian


def singularity_oracle(tensor: Tensor, restarts: int = 64, iters: int = 200,
                       seed: int = 7) -> OracleReport:
    """Projected gradient descent estimate of min ||A x||_2, ||x||_2 = 1, x complex.

    A reported minimum near zero is strong evidence of a nontrivial
    projective zero (vanishing determinant); a minimum bounded away from
    zero certifies, numerically, that none exists. Each restart draws
    its own start from seed + restart index, so runs are reproducible
    and independent of scheduling.

    Each iteration first tries a Gauss-Newton move (solve J d = -y in
    least squares); plain descent on ||A x||^2 flattens out quartically
    near a zero, while the Newton step keeps converging geometrically.
    Moves are only ever accepted when they lower the objective, so the
    gradient line search below remains the fallback everywhere else.
    """
    if tensor.order < 2:
        raise OrderTooSmall("the singularity probe needs order >= 2")
    if tensor.dim > _ORACLE_GUARD:
        raise DimensionTooLarge(
            f"the probe is capped at dim {_ORACLE_GUARD}, got {tensor.dim}")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")

    jacobian = _oracle_jacobian(tensor)
    (idx, vals), n = tensor.coo, tensor.dim

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:  # y = apply(tensor, z)
        re, im = _complex_terms(vals, idx.T[1:], z)
        y = np.array(list(map(complex, *_row_fsums(idx[:, 0], n, re, im))), dtype=complex)
        return float(np.real(np.vdot(y, y))), y

    best_f = np.inf
    best_z: Optional[np.ndarray] = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        z = rng.standard_normal(tensor.dim) + 1j * rng.standard_normal(tensor.dim)
        z = z / np.linalg.norm(z)
        f, y = objective(z)  # y is always the image of the current z
        for _ in range(iters):
            jac = jacobian(z)
            delta = np.linalg.lstsq(jac, -y, rcond=None)[0]
            norm = np.linalg.norm(z + delta)
            if norm > 0:
                trial = (z + delta) / norm
                f_trial, y_trial = objective(trial)
                if f_trial < f:
                    z, f, y = trial, f_trial, y_trial
                    continue
            # real-coordinate gradient of ||y||^2, packed back into a complex vector
            grad = 2.0 * np.conj(jac.T @ np.conj(y))
            if np.linalg.norm(grad) < 1e-14:
                break
            for k in range(1, 57):  # steps 2^-1 down to 2^-56, the last above 1e-17
                trial = z - 2.0 ** -k * grad
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
    return OracleReport(float(np.sqrt(max(best_f, 0.0))), best_z, restarts)
