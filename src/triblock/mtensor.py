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

from .core import Tensor, _diagonal, _equal_from, _from_arrays
from .errors import NotZTensor, OrderTooSmall
from .spectra import _largest_row_sum, spectral_radius

DEFAULT_TOL = 1e-9


def is_z_tensor(tensor: Tensor) -> bool:
    """Every off-diagonal entry is nonpositive."""
    if tensor.order < 2:
        raise OrderTooSmall("Z-tensor classification needs order >= 2")
    return bool((tensor.coo.vals[~_equal_from(tensor, 0)] <= 0.0).all())


@dataclass(frozen=True)
class ZSplit:
    """A decomposition tensor = s * unit - b with b nonnegative."""

    s: float
    b: Tensor


def z_split(tensor: Tensor) -> ZSplit:
    """Split a Z-tensor with s equal to its largest diagonal entry."""
    m, view, diagonal = tensor.order, tensor.coo, _equal_from(tensor, 0)
    if not is_z_tensor(tensor):
        bad = view.idx[((view.vals > 0.0) & ~diagonal).argmax()] + 1  # the first in view order
        raise NotZTensor(f"positive off-diagonal entry at {tuple(bad.tolist())}")
    d = _diagonal(tensor)
    s = float(d.max())
    shifted = np.flatnonzero(d != s)  # the rows of b's nonzero diagonal, s - d_i
    idx = np.concatenate((np.repeat(shifted[:, None], m, axis=1), view.idx[~diagonal]))
    vals = np.concatenate((s - d[shifted], -view.vals[~diagonal]))
    return ZSplit(s, _from_arrays(m, tensor.dim, idx, vals))


def _split_margin(tensor: Tensor, tol: float) -> tuple[ZSplit, float, float]:
    """The canonical split, its margin s - rho(b), and the band tol * r the margin is read in."""
    split = z_split(tensor)
    rho = spectral_radius(split.b, tol=min(tol, 1e-10)).rho
    return split, split.s - rho, tol * _largest_row_sum(split.b)


def is_m_tensor(tensor: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """s >= rho(b) up to tol relative to b's scale; raises NotZTensor otherwise."""
    _, margin, band = _split_margin(tensor, tol)
    return margin >= -band


def is_nonsingular_m_tensor(tensor: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """Strict margin: s > rho(b) by more than tol relative to b's scale."""
    _, margin, band = _split_margin(tensor, tol)
    return margin > band


def is_positive_tensor(tensor: Tensor) -> bool:
    """Every one of the n^order positions holds a strictly positive value."""
    want = tensor.dim ** tensor.order
    return tensor.nnz == want and bool((tensor.coo.vals > 0.0).all())


def m_tensor_report(tensor: Tensor, tol: float = DEFAULT_TOL) -> dict:
    """One-pass classification used by the command line tool."""
    if not is_z_tensor(tensor):
        return {"z": False, "m": False, "nonsingular_m": False, "s": None, "rho": None}
    split, margin, band = _split_margin(tensor, tol)
    return {
        "z": True,
        "m": bool(margin >= -band),
        "nonsingular_m": bool(margin > band),
        "s": split.s,
        "rho": split.s - margin,
    }
