"""Small dense matrix helpers shared by the inverse and M-tensor code.

Elimination runs over exact rationals (every double is a rational), with
partial pivoting for determinism and a relative pivot floor of 1e-12 to
classify numerically singular inputs. Exactness matters here: inverses
of integer block-triangular matrices must come back with their zero
blocks exactly zero, or structural classification downstream would lie.
"""
from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from .blocked import Partition
from .errors import DimensionMismatch, SingularMatrix

PIVOT_RTOL = 1e-12
COND_WARN = 1e12


def as_matrix(values) -> np.ndarray:
    """Validate and return a square 2-D float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def _rows(arr: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(float(x)) for x in row] for row in arr]


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[Fraction], int]:
    """Forward elimination with partial pivoting; returns (pivots, swap parity)."""
    n = len(rows)
    sign = 1
    pivots: list[Fraction] = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            pivots.append(Fraction(0))
            continue
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        piv = rows[col][col]
        pivots.append(piv)
        for r in range(col + 1, n):
            factor = rows[r][col] / piv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return pivots, sign


def _pivots_ok(pivots: list[Fraction]) -> bool:
    vals = [abs(float(p)) for p in pivots]
    top = max(vals, default=0.0)
    if top == 0.0:
        return False
    return all(v > PIVOT_RTOL * top for v in vals)


def is_nonsingular(values) -> bool:
    """Invertibility under exact elimination with the relative pivot floor."""
    arr = as_matrix(values)
    pivots, _ = _eliminate(_rows(arr))
    return _pivots_ok(pivots)


def invert(values) -> np.ndarray:
    """Exact inverse of a square matrix, returned as floats.

    Gauss-Jordan over rationals: zero entries of the true inverse come
    back exactly zero and integer inverses exactly integer. Raises
    SingularMatrix on (numerically) singular input, warns when the
    condition number makes float results untrustworthy anyway.
    """
    arr = as_matrix(values)
    n = arr.shape[0]
    rows = _rows(arr)
    aug = [rows[i] + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]

    pivot_seen: list[Fraction] = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise SingularMatrix(f"zero pivot in column {col + 1}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        pivot_seen.append(piv)
        aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    if not _pivots_ok(pivot_seen):
        raise SingularMatrix("pivot below the relative floor; treating as singular")

    inv = np.array([[float(aug[i][n + j]) for j in range(n)] for i in range(n)])
    cond = float(np.linalg.norm(arr, 1) * np.linalg.norm(inv, 1))
    if cond > COND_WARN:
        warnings.warn(f"matrix condition estimate {cond:.2e} exceeds {COND_WARN:.0e}; "
                      "inverse entries may be inaccurate", RuntimeWarning, stacklevel=2)
    return inv


def determinant(values) -> float:
    """Exact determinant via rational elimination."""
    arr = as_matrix(values)
    pivots, sign = _eliminate(_rows(arr))
    det = Fraction(sign)
    for p in pivots:
        det *= p
    return float(det)


def leading_principal_minors(values) -> list[float]:
    """Determinants of the leading k-by-k corners, k = 1..n."""
    arr = as_matrix(values)
    return [determinant(arr[:k, :k]) for k in range(1, arr.shape[0] + 1)]


def is_z_matrix(values) -> bool:
    """All off-diagonal entries nonpositive."""
    arr = as_matrix(values)
    off = arr - np.diag(np.diag(arr))
    return bool(np.all(off <= 0.0))


def is_irreducible_matrix(values) -> bool:
    """Strong connectivity of the digraph with an edge i -> j when P[i, j] != 0.

    Dimension-1 matrices count as irreducible. Each squaring of the
    reflexive reachability matrix doubles the path length it covers.
    """
    arr = as_matrix(values)
    reach = (arr != 0.0) | np.eye(arr.shape[0], dtype=bool)
    for _ in range(arr.shape[0].bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def is_nonsingular_m_matrix(values) -> bool:
    """Z-matrix with every leading principal minor strictly positive."""
    arr = as_matrix(values)
    if not is_z_matrix(arr):
        return False
    return all(minor > 0.0 for minor in leading_principal_minors(arr))


def is_blocked_matrix(values, partition: Partition) -> bool:
    """Upper-triangular block structure: rows of I_l vanish left of column S_{l-1} + 1."""
    arr = as_matrix(values)
    if partition.n != arr.shape[0]:
        raise DimensionMismatch(
            f"partition covers [1, {partition.n}] but matrix dim is {arr.shape[0]}")
    for l in range(2, partition.r + 1):
        lead = partition.S(l - 1)
        for i in partition.block(l):
            if np.any(arr[i - 1, :lead] != 0.0):
                return False
    return True
