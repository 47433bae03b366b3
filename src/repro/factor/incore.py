"""In-core LU (unpivoted) and Cholesky factorizations, [24]-style.

These mirror :mod:`repro.qr.incore`: recursive formulations whose update
GEMMs run through the TensorCore emulation, used (a) as the panel
factorizations of the OOC drivers and (b) as numeric references in tests.

The paper's §6 observes that OOC LU and Cholesky interleave panel
factorizations with *outer-product-form* trailing updates exactly like QR,
so the recursive treatment transfers — and that no TensorCore in-core
partial-pivoted LU exists. Accordingly the LU here is **unpivoted**:
callers must supply matrices that are stable without pivoting
(diagonally dominant, SPD-shifted, ...). The workload generators in
:mod:`repro.bench.workloads` provide such matrices.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg

from repro.errors import ShapeError, ValidationError
from repro.tc.gemm import tc_gemm
from repro.util.validation import positive_int

#: Column width below which recursion bottoms out in scalar loops.
DEFAULT_LEAF = 32

#: Diagonal entries smaller than this (relative to the matrix scale) make
#: the unpivoted factorization numerically meaningless.
PIVOT_TOL = 1e-10

#: Largest ``κ₁(U11) = ‖U11‖₁‖U11⁻¹‖₁`` at which an LU leaf solves its rows
#: below the k×k diagonal block as one GEMM with the inverted triangle
#: instead of the rank-1 loop. The GEMM's backward error grows like
#: κ·u32, the loop's does not: on 1024×32 leaves with Kahan-type U11 the
#: GEMM's ``‖A − LU‖/‖A‖`` stays within 2x the loop's up to this bound
#: (the sweep is ``python -m tests.test_lu_leaf``). Every benchmark leaf
#: reads κ₁ ≤ 1.34.
LU_LEAF_MAX_COND = 1e2

#: ``on_fallback(shape, kappa)``: told when a leaf rejects the GEMM.
LeafFallback = Callable[[tuple[int, int], float], None]


def _check_tall(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {a.ndim}-D")
    if a.shape[0] < a.shape[1]:
        raise ShapeError(f"{name} must be tall (m >= n), got {a.shape}")
    if a.shape[1] == 0:
        raise ShapeError(f"{name} must have at least one column")
    return a


def _lu_leaf(
    a: np.ndarray, scale: float, on_fallback: LeafFallback | None
) -> None:
    """Unpivoted LU of a tall leaf block, in place (fp32).

    The rank-1 loop factors only the top k×k block (k = min(m, n)). The
    rows below are ``A21·U11⁻¹``, one fp32 GEMM with the fp64-inverted
    U11, when ``κ₁(U11) ≤`` :data:`LU_LEAF_MAX_COND`; otherwise the loop
    eliminates them against the finished U, bitwise the full loop, and
    *on_fallback* hears ``(shape, κ₁)``.
    """
    m, n = a.shape
    k = min(m, n)
    _rank1_lu(a, 0, k, scale)
    if m == k:
        return
    u11 = np.triu(a[:k]).astype(np.float64)
    with np.errstate(all="ignore"):
        inv = np.linalg.inv(u11)
        kappa = float(np.linalg.norm(u11, 1) * np.linalg.norm(inv, 1))
    # a non-finite inverse makes kappa inf or nan, which fails the test
    if kappa <= LU_LEAF_MAX_COND:
        a[k:] = a[k:] @ inv.astype(np.float32)
        return
    if on_fallback is not None:
        on_fallback((m, n), kappa)
    _rank1_lu(a, k, m, None)


def _rank1_lu(a: np.ndarray, row0: int, row1: int, scale: float | None) -> None:
    """The unblocked right-looking rank-1 loop of a leaf *a*, restricted to
    its rows [row0, row1). Step j divides column j of those rows below row
    j by the pivot ``a[j, j]`` and subtracts their multiple of pivot row j;
    a row reads only its own entries and the pivot rows, so the restriction
    computes exactly the full loop's values there. With a *scale*, each
    pivot is checked first."""
    n = a.shape[1]
    outer = np.empty((row1 - row0, n), dtype=np.float32)
    for j in range(min(a.shape)):
        piv = a[j, j]
        if scale is not None and (
            not math.isfinite(piv) or abs(piv) <= PIVOT_TOL * scale
        ):
            raise ValidationError(
                f"zero pivot at column {j}: unpivoted LU requires a matrix "
                "that is stable without pivoting (e.g. diagonally dominant)"
            )
        lo = max(row0, j + 1)
        if lo >= row1:
            continue
        col = a[lo:row1, j]
        col /= piv
        if j + 1 < n:
            upd = outer[: row1 - lo, : n - j - 1]
            np.multiply.outer(col, a[j, j + 1 :], out=upd)
            a[lo:row1, j + 1 :] -= upd


def incore_lu_nopivot(
    a: np.ndarray,
    *,
    leaf: int = DEFAULT_LEAF,
    input_format: str = "fp16",
) -> np.ndarray:
    """Recursive unpivoted LU of a tall matrix, returned packed.

    The result holds U on and above the diagonal and the L multipliers
    strictly below it (L's unit diagonal implicit) — LAPACK ``getrf``
    layout. Update GEMMs run through the TensorCore emulation with
    *input_format* rounding.
    """
    a = _check_tall(a, "a")
    leaf = positive_int(leaf, "leaf")
    packed = np.array(a, dtype=np.float32, copy=True, order="C")
    _lu_in_place(packed, leaf=leaf, input_format=input_format)
    return packed


def _lu_in_place(
    a: np.ndarray,
    *,
    leaf: int = DEFAULT_LEAF,
    input_format: str = "fp16",
    on_fallback: LeafFallback | None = None,
) -> None:
    """:func:`incore_lu_nopivot` on a tall fp32 array (or view), which is
    overwritten with the packed factors; *on_fallback* as in
    :func:`_lu_leaf`."""
    scale = float(np.abs(a).max()) or 1.0
    _lu_recurse(a, 0, a.shape[1], leaf, input_format, scale, on_fallback)


def _lu_recurse(
    a: np.ndarray,
    col0: int,
    col1: int,
    leaf: int,
    input_format: str,
    scale: float,
    on_fallback: LeafFallback | None,
) -> None:
    """Factor columns [col0, col1) of the trailing block rows [col0:]."""
    width = col1 - col0
    if width <= leaf:
        _lu_leaf(a[col0:, col0:col1], scale, on_fallback)
        return
    mid = col0 + width // 2
    # left half (full height below col0)
    _lu_recurse(a, col0, mid, leaf, input_format, scale, on_fallback)
    l11 = a[col0:mid, col0:mid]           # unit lower (packed)
    a12 = a[col0:mid, mid:col1]
    # U12 = L11^{-1} A12 (small triangular solve, exact fp32)
    a12[:] = scipy.linalg.solve_triangular(
        l11, a12, lower=True, unit_diagonal=True, check_finite=False
    ).astype(np.float32)
    # trailing update: A22 -= L21 U12 (the outer-product-form GEMM of §6)
    l21 = a[mid:, col0:mid]
    a22 = a[mid:, mid:col1]
    tc_gemm(
        l21, a12, alpha=-1.0, beta=1.0, c=a22, input_format=input_format, out=a22
    )
    # right half
    _lu_recurse(a, mid, col1, leaf, input_format, scale, on_fallback)


def lu_unpack(packed: np.ndarray, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Split a packed LU result into (L, U): L m-by-n unit-lower-trapezoid,
    U n-by-n upper."""
    packed = np.asarray(packed)
    m = packed.shape[0]
    n = packed.shape[1] if n is None else n
    lower = np.tril(packed[:, :n], k=-1)
    lower[np.arange(n), np.arange(n)] = 1.0
    upper = np.triu(packed[:n, :n])
    return lower.astype(np.float32), upper.astype(np.float32)


def incore_cholesky(
    a: np.ndarray,
    *,
    leaf: int = DEFAULT_LEAF,
    input_format: str = "fp16",
) -> np.ndarray:
    """Recursive Cholesky of an SPD matrix; returns the lower factor L.

    Trailing (SYRK-form) updates run through the TensorCore emulation.
    Raises :class:`ValidationError` if a diagonal block is not positive
    definite.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"Cholesky needs a square matrix, got {a.shape}")
    leaf = positive_int(leaf, "leaf")
    work = np.array(a, dtype=np.float32, copy=True, order="C")
    _chol_recurse(work, 0, work.shape[0], leaf, input_format)
    return np.tril(work)


def _chol_recurse(
    a: np.ndarray, col0: int, col1: int, leaf: int, input_format: str
) -> None:
    """Factor the trailing principal block's columns [col0, col1)."""
    width = col1 - col0
    n = a.shape[0]
    if width <= leaf:
        block = a[col0:col1, col0:col1]
        try:
            block[:] = np.linalg.cholesky(block.astype(np.float64)).astype(np.float32)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                f"diagonal block at column {col0} is not positive definite"
            ) from exc
        if col1 < n:
            a[col1:, col0:col1] = scipy.linalg.solve_triangular(
                block, a[col1:, col0:col1].T, lower=True, check_finite=False
            ).T.astype(np.float32)
        return
    mid = col0 + width // 2
    _chol_recurse(a, col0, mid, leaf, input_format)
    # SYRK-form trailing update restricted to this node's columns:
    # A[mid:, mid:col1] -= L21 (rows mid:) @ L21 (rows mid:col1)ᵀ.
    # Columns beyond col1 are an ancestor's responsibility (same column
    # ownership discipline as the recursive QR driver). The rectangle
    # includes entries above the diagonal of the trailing block; they are
    # written with symmetric values and never referenced.
    l21 = a[mid:, col0:mid]
    l21_top = a[mid:col1, col0:mid]
    a22 = a[mid:, mid:col1]
    tc_gemm(
        l21, l21_top, alpha=-1.0, beta=1.0, c=a22,
        trans_b=True, input_format=input_format, out=a22,
    )
    _chol_recurse(a, mid, col1, leaf, input_format)


def spd_matrix(n: int, *, shift: float | None = None, seed: int | None = None) -> np.ndarray:
    """A well-conditioned SPD test matrix: G Gᵀ / n + shift I (fp32)."""
    from repro.util.rng import default_rng

    n = positive_int(n, "n")
    rng = default_rng(seed)
    g = rng.standard_normal((n, n)).astype(np.float32)
    a = (g @ g.T) / n
    a += (1.0 if shift is None else shift) * np.eye(n, dtype=np.float32)
    return (a + a.T) / 2


def diagonally_dominant(
    m: int, n: int | None = None, *, seed: int | None = None
) -> np.ndarray:
    """A random tall matrix made row/column diagonally dominant (stable for
    unpivoted LU)."""
    from repro.util.rng import default_rng

    m = positive_int(m, "m")
    n = m if n is None else positive_int(n, "n")
    if m < n:
        raise ShapeError(f"need m >= n, got {m}x{n}")
    rng = default_rng(seed)
    a = rng.standard_normal((m, n)).astype(np.float32)
    k = min(m, n)
    a[np.arange(k), np.arange(k)] += np.sign(a[np.arange(k), np.arange(k)]) * (
        np.abs(a).sum(axis=0)[:k]
    )
    return a
