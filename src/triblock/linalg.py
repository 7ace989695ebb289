"""Exact dense matrix inversion for the inverse code.

Elimination runs fraction-free in integers on the matrix times 2^K, with
partial pivoting for determinism and a relative pivot floor of 1e-12 to
classify numerically singular inputs. Exactness matters here: inverses
of integer block-triangular matrices must come back with their zero
blocks exactly zero, or structural classification downstream would lie.
"""
from __future__ import annotations

import warnings

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


def _gauss_jordan(arr: np.ndarray) -> np.ndarray:
    """Bareiss's Gauss-Jordan (Math. Comp. 22, 1968) on ``[2^K A | I]``, row ``r`` holding
    columns ``col..`` of the left half, then the right half; raises SingularMatrix. Each
    division is exact; an integer column is the rational one times ``|d_col|``, so the same
    row pivots. Rational pivot ``k`` is ``d_k / (d_{k-1}·2^K)``, the inverse ``2^K·R / d_n``."""
    n = arr.shape[0]
    ratios = [x.as_integer_ratio() for x in arr.ravel().tolist()]
    shift = max(den.bit_length() for _, den in ratios) - 1
    ints = [num << (shift + 1 - den.bit_length()) for num, den in ratios]
    rows = [ints[i * n:(i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
    dets = [1]  # d_0, then the leading minors of the row-permuted integer matrix
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(rows[r][0]))
        p, prev = rows[pivot_row][0], dets[-1]
        if p == 0:
            raise SingularMatrix(f"zero pivot in column {col + 1}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][1:]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], pivot)] if r != col
                else pivot for r, row in enumerate(rows)]
        dets.append(p)
    try:
        sizes = [abs(d) / (abs(prev) << shift) for prev, d in zip(dets, dets[1:])]
    except OverflowError:
        raise SingularMatrix("a pivot is beyond the double range") from None
    if min(sizes) <= PIVOT_RTOL * max(sizes):
        raise SingularMatrix("pivot below the relative floor; treating as singular")
    try:  # an exact zero divided by a negative d_n would give -0.0
        return np.array([[(x << shift) / dets[-1] if x else 0.0 for x in row] for row in rows])
    except OverflowError:
        raise SingularMatrix("an inverse entry is beyond the double range") from None


def is_nonsingular(values) -> bool:
    """Invertibility under exact elimination, the relative pivot floor and the double range."""
    try:
        _gauss_jordan(as_matrix(values))
    except SingularMatrix:
        return False
    return True


def invert(values) -> np.ndarray:
    """Exact inverse of a square matrix, correctly rounded to floats.

    Zero entries of the true inverse come back as ``0.0`` and integer
    inverses exactly integer. Raises SingularMatrix on (numerically)
    singular input or a pivot or entry past the double range; warns when
    the condition number makes float results untrustworthy anyway.
    """
    arr = as_matrix(values)
    inv = _gauss_jordan(arr)
    cond = float(np.linalg.norm(arr, 1) * np.linalg.norm(inv, 1))
    if cond > COND_WARN:
        warnings.warn(f"matrix condition estimate {cond:.2e} exceeds {COND_WARN:.0e}; "
                      "inverse entries may be inaccurate", RuntimeWarning, stacklevel=2)
    return inv
