"""Vector-wise Gram-Schmidt orthogonalization (§3.1.1 of the paper).

These are the textbook column-by-column processes used as the base case of
the blocked/recursive in-core factorizations and as numerical references in
tests:

* :func:`cgs_qr`   — classic Gram-Schmidt: each column is projected against
  the *original* previously-orthogonalized basis in one shot (row-by-row
  evaluation of the paper's Equation (1)). Maximally parallel / blockable,
  loses orthogonality like O(kappa^2 u).
* :func:`mgs_qr`   — modified Gram-Schmidt: projections are subtracted
  factor-by-factor from the running residual (interleaved evaluation).
  More stable (O(kappa u)), less parallel — the paper's reason for building
  on CGS.
* :func:`cgs2_qr`  — CGS with one full reorthogonalization pass ("twice is
  enough"), restoring O(u) orthogonality; offered as the stability
  extension mentioned in DESIGN.md.

All operate on tall matrices (m >= n) of linearly independent columns and
return (Q, R) with Q m-by-n orthonormal and R n-by-n upper triangular.
They work on column-major copies, so every column and every ``q[:, :j]`` a
gemv reads is contiguous; Q is returned column-major.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BreakdownError, NonFiniteError, ShapeError

#: A column whose residual norm shrinks below this multiple of its original
#: norm is treated as numerically dependent on its predecessors.
RANK_TOL = 1e-7


def _check_input(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {a.ndim}-D")
    m, n = a.shape
    if m < n:
        raise ShapeError(
            f"{name} must be tall (m >= n), got {m}x{n}; factor the "
            "transpose or use an LQ factorization for wide matrices"
        )
    if n == 0:
        raise ShapeError(f"{name} must have at least one column")
    return a


def _guard_norm(norm: float, ref: float, j: int) -> None:
    if not np.isfinite(norm):
        # A NaN/Inf column must fail here, at the source, instead of
        # propagating NaNs through the rest of the factorization.
        raise NonFiniteError(
            f"column {j} has non-finite residual norm {norm!r}; the input "
            "contains NaN/Inf or overflowed during orthogonalization"
        )
    if norm <= RANK_TOL * ref:
        # BreakdownError is also a ValidationError, so existing callers
        # treating dependent columns as invalid input still catch it.
        raise BreakdownError(
            f"column {j} is numerically dependent on its predecessors "
            f"(residual norm {norm:.3e}); Gram-Schmidt requires linearly "
            "independent columns"
        )


def cgs_qr(a: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Classic Gram-Schmidt QR of a tall matrix.

    Column j is orthogonalized against all previous q's using the
    *original* column (single projection pass) — the variant the whole
    paper builds on because it turns directly into GEMMs.
    """
    a = _check_input(a, "a").astype(dtype, order="F", copy=True)
    m, n = a.shape
    q = np.empty((m, n), dtype=dtype, order="F")
    r = np.zeros((n, n), dtype=dtype)
    col_norms = np.linalg.norm(a, axis=0)
    for j in range(n):
        v = a[:, j]
        if j > 0:
            # one-shot projection coefficients against the existing basis
            coeffs = q[:, :j].T @ v
            r[:j, j] = coeffs
            v = v - q[:, :j] @ coeffs
        norm = float(np.linalg.norm(v))
        _guard_norm(norm, float(col_norms[j]), j)
        r[j, j] = norm
        q[:, j] = v / norm
    return q, r


def mgs_qr(a: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt QR (stability reference)."""
    v = _check_input(a, "a").astype(dtype, order="F", copy=True)
    m, n = v.shape
    q = np.empty((m, n), dtype=dtype, order="F")
    r = np.zeros((n, n), dtype=dtype)
    col_norms = np.linalg.norm(v, axis=0)
    for j in range(n):
        norm = float(np.linalg.norm(v[:, j]))
        _guard_norm(norm, float(col_norms[j]), j)
        r[j, j] = norm
        q[:, j] = v[:, j] / norm
        if j + 1 < n:
            # subtract this direction from the *running residuals* at once
            proj = q[:, j] @ v[:, j + 1 :]
            r[j, j + 1 :] = proj
            v[:, j + 1 :] -= np.outer(q[:, j], proj)
    return q, r


def cgs2_qr(a: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Classic Gram-Schmidt with full reorthogonalization (CGS2).

    Each column is CGS-projected twice; the correction coefficients fold
    into R, restoring near-machine orthogonality at ~2x the flops.
    """
    a = _check_input(a, "a").astype(dtype, order="F", copy=True)
    m, n = a.shape
    q = np.empty((m, n), dtype=dtype, order="F")
    r = np.zeros((n, n), dtype=dtype)
    col_norms = np.linalg.norm(a, axis=0)
    for j in range(n):
        v = a[:, j]
        if j > 0:
            c1 = q[:, :j].T @ v
            v = v - q[:, :j] @ c1
            c2 = q[:, :j].T @ v
            v = v - q[:, :j] @ c2
            r[:j, j] = c1 + c2
        norm = float(np.linalg.norm(v))
        _guard_norm(norm, float(col_norms[j]), j)
        r[j, j] = norm
        q[:, j] = v / norm
    return q, r


def orthogonality_error(q: np.ndarray) -> float:
    """``‖QᵀQ − I‖_F`` — the loss-of-orthogonality measure used in tests."""
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[1]
    return float(np.linalg.norm(q.T @ q - np.eye(n), ord="fro"))


def factorization_error(a: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Relative residual ``‖A − QR‖_F / ‖A‖_F``."""
    a = np.asarray(a, dtype=np.float64)
    res = a - np.asarray(q, dtype=np.float64) @ np.asarray(r, dtype=np.float64)
    denom = max(float(np.linalg.norm(a, ord="fro")), np.finfo(np.float64).tiny)
    return float(np.linalg.norm(res, ord="fro")) / denom
