"""Z-tensor and M-tensor classification.

A Z-tensor has nonpositive off-diagonal entries and therefore splits as
s * unit - b with b nonnegative; the canonical split here takes s to be
the largest diagonal entry, making the diagonal of b nonnegative and as
small as possible. M-tensor status then reduces to comparing s with the
spectral radius of b, which is well defined because the margin
s - rho(b) does not depend on the chosen split.

The radius is accurate relative to b's largest row sum r, the scale it
is computed in, so ``tol`` is relative to r as well: a tensor is an
M-tensor when s - rho(b) >= -tol * r, and a nonsingular one when
s - rho(b) > tol * r. Scaling the tensor by c > 0 scales the margin and
r alike, so the classification does not depend on c.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Tensor, _check_real, _diagonal, _equal_from, _from_arrays
from .errors import NotZTensor, OrderTooSmall
from .spectra import _largest_row_sum, spectral_radius

DEFAULT_TOL = 1e-9


def is_z_tensor(tensor: Tensor) -> bool:
    """Every off-diagonal entry is nonpositive."""
    return _z_mask(tensor)[1]


def _z_mask(tensor: Tensor) -> tuple[np.ndarray, bool]:
    """Which entries of the view lie on the diagonal, and whether every other one is
    nonpositive: the one diagonal mask that the Z test, the split and the report share."""
    if tensor.order < 2:
        raise OrderTooSmall("Z-tensor classification needs order >= 2")
    diagonal = _equal_from(tensor, 0)
    return diagonal, bool((tensor.coo.vals[~diagonal] <= 0.0).all())


@dataclass(frozen=True)
class ZSplit:
    """A decomposition tensor = s * unit - b with b nonnegative."""

    s: float
    b: Tensor


def z_split(tensor: Tensor) -> ZSplit:
    """Split a Z-tensor with s equal to its largest diagonal entry."""
    diagonal, is_z = _z_mask(tensor)
    if not is_z:
        view = tensor.coo
        bad = view.idx[((view.vals > 0.0) & ~diagonal).argmax()] + 1  # the first in view order
        raise NotZTensor(f"positive off-diagonal entry at {tuple(bad.tolist())}")
    return _z_split(tensor, diagonal)


def _z_split(tensor: Tensor, diagonal: np.ndarray) -> ZSplit:
    """``z_split`` of a Z-tensor, given its view's diagonal mask (``_z_mask``)."""
    m, view = tensor.order, tensor.coo
    d = _diagonal(tensor, diagonal)
    s = float(d.max())
    shifted, off = np.flatnonzero(d != s), ~diagonal  # the rows of b's diagonal, s - d_i
    kept = [column[off] for column in view.idx.T]  # the off-diagonal entries, rows sorted
    # each diagonal entry heads its row, where a stable sort by row would put it
    at = kept[0].searchsorted(shifted) + np.arange(len(shifted))
    rest = np.ones(len(at) + len(kept[0]), bool)
    rest[at] = False
    columns, vals = np.empty((m, len(rest)), np.int64), np.empty(len(rest))
    for column, given in zip(columns, kept):
        column[rest], column[at] = given, shifted
    vals[rest], vals[at] = -view.vals[off], s - d[shifted]
    return ZSplit(s, _from_arrays(m, tensor.dim, columns.T, vals))


def _split_margin(split: ZSplit, tol: float) -> tuple[float, float]:
    """The split's margin s - rho(b), and the band tol * r the margin is read in."""
    _check_real("tol", tol)  # before min(), which would compare tol with 1e-10
    rho = spectral_radius(split.b, tol=min(tol, 1e-10)).rho
    return split.s - rho, tol * _largest_row_sum(split.b)


def is_m_tensor(tensor: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """s >= rho(b) up to tol relative to b's scale; raises NotZTensor otherwise."""
    margin, band = _split_margin(z_split(tensor), tol)
    return margin >= -band


def is_nonsingular_m_tensor(tensor: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """Strict margin: s > rho(b) by more than tol relative to b's scale."""
    margin, band = _split_margin(z_split(tensor), tol)
    return margin > band


def is_positive_tensor(tensor: Tensor) -> bool:
    """Every one of the n^order positions holds a strictly positive value."""
    want = tensor.dim ** tensor.order
    return tensor.nnz == want and bool((tensor.coo.vals > 0.0).all())


def m_tensor_report(tensor: Tensor, tol: float = DEFAULT_TOL) -> dict:
    """One-pass classification used by the command line tool."""
    diagonal, is_z = _z_mask(tensor)
    if not is_z:
        return {"z": False, "m": False, "nonsingular_m": False, "s": None, "rho": None}
    split = _z_split(tensor, diagonal)
    margin, band = _split_margin(split, tol)
    return {
        "z": True,
        "m": bool(margin >= -band),
        "nonsingular_m": bool(margin > band),
        "s": split.s,
        "rho": split.s - margin,
    }
