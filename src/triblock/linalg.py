"""Exact dense matrix inversion for the inverse code.

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


def _gauss_jordan(arr: np.ndarray) -> np.ndarray:
    """Gauss-Jordan over rationals with partial pivoting; raises SingularMatrix."""
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
    sizes = [abs(float(p)) for p in pivot_seen]
    if min(sizes) <= PIVOT_RTOL * max(sizes):
        raise SingularMatrix("pivot below the relative floor; treating as singular")
    return np.array([[float(aug[i][n + j]) for j in range(n)] for i in range(n)])


def is_nonsingular(values) -> bool:
    """Invertibility under exact elimination with the relative pivot floor."""
    try:
        _gauss_jordan(as_matrix(values))
    except SingularMatrix:
        return False
    return True


def invert(values) -> np.ndarray:
    """Exact inverse of a square matrix, returned as floats.

    Gauss-Jordan over rationals: zero entries of the true inverse come
    back exactly zero and integer inverses exactly integer. Raises
    SingularMatrix on (numerically) singular input, warns when the
    condition number makes float results untrustworthy anyway.
    """
    arr = as_matrix(values)
    inv = _gauss_jordan(arr)
    cond = float(np.linalg.norm(arr, 1) * np.linalg.norm(inv, 1))
    if cond > COND_WARN:
        warnings.warn(f"matrix condition estimate {cond:.2e} exceeds {COND_WARN:.0e}; "
                      "inverse entries may be inaccurate", RuntimeWarning, stacklevel=2)
    return inv
