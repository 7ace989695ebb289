"""Left and right k-inverses.

A tensor has a left inverse exactly when it is row diagonal, i.e. equal
to P applied to the unit tensor for the (then invertible) matrix P read
off its rows; the unique left k-inverse is the unit tensor of order k
times P^-1. Right inverses mirror this through tensors of the shape
"unit tensor times Q": such a tensor factors entrywise into products of
Q's row entries, which is what the recovery routine reconstructs. The
right k-inverse of such a tensor is Q^-1 times the unit tensor of order
k, the row-diagonal tensor with a[i, j, ..., j] = Q^-1[i, j], built directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import (
    Tensor,
    _aligned,
    _check_integer,
    _check_real,
    _equal_from,
    is_row_diagonal,
    majorization_matrix,
    row_diagonal_from_matrix,
    tensor_from_matrix,
    unit_tensor,
)
from .errors import (
    DimensionMismatch,
    NoLeftInverse,
    NotRightForm,
    NotRightInvertible,
    OrderTooSmall,
    SingularMatrix,
    TriblockError,
)
from .product import general_product

VERIFY_TOL = 1e-10


def has_left_inverse(tensor: Tensor) -> bool:
    """Row diagonal with an invertible row matrix."""
    if tensor.order < 2:
        raise OrderTooSmall("inverses need order >= 2")
    if not is_row_diagonal(tensor):
        return False
    return linalg.is_nonsingular(majorization_matrix(tensor))


def _check_inverse_order(k, side: str) -> None:
    _check_integer("order", k, OrderTooSmall)  # a bool included, before any work
    if k < 2:
        raise OrderTooSmall(f"{side} inverses need k >= 2, got {k}")


def left_k_inverse(tensor: Tensor, k: int) -> Tensor:
    """The unique left inverse of order k: unit tensor times the inverse row matrix."""
    _check_inverse_order(k, "left")
    if tensor.order < 2:
        raise OrderTooSmall("inverses need order >= 2")
    if not is_row_diagonal(tensor):
        raise NoLeftInverse("tensor is not row diagonal")
    inv = _invert(majorization_matrix(tensor), "row matrix", NoLeftInverse)
    return general_product(unit_tensor(k, tensor.dim), tensor_from_matrix(inv))


def _invert(matrix: np.ndarray, name: str, error: type[TriblockError]) -> np.ndarray:
    """``linalg.invert``, raising ``error`` that names the matrix singular, or gives the
    elimination's reason when a pivot or an inverse entry is beyond the double range."""
    try:
        return linalg.invert(matrix)
    except SingularMatrix as exc:
        reason = f": {exc}" if "double range" in str(exc) else " is singular"
        raise error(name + reason) from exc


@dataclass(frozen=True)
class RightFormRecovery:
    """The matrix Q with tensor = unit_tensor(order) * Q, plus the sign bookkeeping.

    ``sign_profile`` records, per row and per column, the sign attached
    to the extracted root magnitude. For even order the root is odd and
    the sign is forced; for odd order signs are fixed relative to the
    row's first nonzero, which is made positive (the canonical choice).
    """

    q: np.ndarray
    sign_profile: tuple[tuple[int, ...], ...]


def _root_with_snap(value: float, degree: int) -> float:
    """Real degree-th root of a nonnegative value, snapped when exactly integral."""
    root = value ** (1.0 / degree)
    nearest = round(root)
    try:
        return float(nearest) if float(nearest ** degree) == value else root
    except OverflowError:  # a power past the double range equals no finite value
        return root


def recover_right_form(tensor: Tensor) -> RightFormRecovery:
    """Factor the tensor as unit_tensor(m) applied to a matrix Q, or fail.

    Row i of Q comes from the all-equal-feet entries a[i, t, ..., t] =
    q[i, t]^(m-1); mixed entries then pin relative signs when m is odd.
    Every entry of the tensor is re-verified against the product of Q's
    row values before the factorization is returned.
    """
    if tensor.order < 2:
        raise OrderTooSmall("right-form recovery needs order >= 2")
    m, n = tensor.order, tensor.dim
    degree = m - 1
    major = majorization_matrix(tensor)
    if degree % 2 == 0 and (major < 0).any():
        i, t = np.argwhere(major < 0)[0]  # the first in row-major order
        raise NotRightForm(
            f"entry ({i + 1}, {t + 1}, ...) = {major[i, t].item()} cannot be an even power")
    # one cell at a time: NumPy's float64 power may differ from libm's pow in the last bit
    mags = np.array([[_root_with_snap(abs(d), degree) for d in row] for row in major.tolist()])
    if degree % 2 == 1:  # odd root: unique real solution, sign carried by the entry
        signs = np.where(major < 0, -1, 1)
    else:  # a[i, anchor, t, ..., t] = q[i, anchor] * q[i, t]^(m-2), anchor i's first positive
        idx, mixed = tensor.coo.idx, np.zeros((n, n))
        hit = _equal_from(tensor, 2) & (idx[:, 1] == (major > 0).argmax(axis=1)[idx[:, 0]])
        mixed[idx[hit, 0], idx[hit, -1]] = tensor.coo.vals[hit]
        signs = np.where(major > 0, np.where(mixed < 0, -1, 1), 0)
    q = signs * mags
    product = general_product(unit_tensor(m, n), tensor_from_matrix(q))
    idx, expected, got = _aligned(tensor, product)
    bad = np.flatnonzero(np.abs(got - expected) > VERIFY_TOL * np.maximum(1.0, np.abs(expected)))
    if len(bad):  # the first in sorted order
        key = idx[bad[0]]
        # recomputed: the product drops a -0.0 that the message should show
        got = math.prod(q[key[0], key[1:]].tolist())
        raise NotRightForm(f"entry ({', '.join(map(str, (key + 1).tolist()))}) = "
                           f"{expected[bad[0]].item()} but the factorization gives {got}")

    return RightFormRecovery(q, tuple(map(tuple, signs.tolist())))


def right_k_inverse(tensor: Tensor, k: int) -> Tensor:
    """A right inverse of order k of unit_tensor(m) * Q: the row-diagonal tensor of Q^-1."""
    _check_inverse_order(k, "right")
    try:
        recovery = recover_right_form(tensor)
    except NotRightForm as exc:
        raise NotRightInvertible(str(exc)) from exc
    inv = _invert(recovery.q, "recovered factor matrix", NotRightInvertible)
    return row_diagonal_from_matrix(inv, k)


def verify_inverse(candidate: Tensor, tensor: Tensor, side: str,
                   tol: float = VERIFY_TOL) -> bool:
    """Multiply in the stated order and compare against the unit tensor entrywise.

    ``side='left'`` checks candidate * tensor, ``side='right'`` checks
    tensor * candidate. Comparison covers missing entries on both sides.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if candidate.dim != tensor.dim:
        raise DimensionMismatch(f"dimensions differ: {candidate.dim} vs {tensor.dim}")
    _check_real("tol", tol, strict=False)  # before the product, which may raise itself
    if side == "left":
        prod = general_product(candidate, tensor)
    else:
        prod = general_product(tensor, candidate)
    return prod.allclose(unit_tensor(prod.order, prod.dim), tol)
