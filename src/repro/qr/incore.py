"""In-core blocked and recursive CGS QR factorizations ([24]-style).

These run entirely "on device" (no tiling, no transfers): they are the
panel factorization the OOC drivers call through ``Executor.panel_qr`` and
the in-core references the OOC results are checked against. Projections run
through :func:`repro.tc.gemm.tc_gemm`, so the TensorCore input-rounding is
part of the numerics when ``input_format="fp16"``.

The recursive variant is the paper's equation (2):

    [A1 | A2] = [Q1 | Q2] [[R11, R12], [0, R22]]

with the two GEMMs (inner product ``R12 = Q1ᵀ A2`` and outer product
``A2 ← A2 − Q1 R12``) growing geometrically with recursion level — the
source of the TensorCore speedup that the OOC layer inherits. Both variants
factor a column-major copy, so each leaf's column block is contiguous.

:func:`cholqr2` is the BLAS-3 alternative for a single panel: four
matmul-sized calls instead of a per-column loop, accepted only where its
acceptance rule proves it as accurate as the CGS2 panel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PanelRejected, ShapeError, ValidationError
from repro.qr.cgs import RANK_TOL, _check_input, cgs2_qr, cgs_qr
from repro.tc.gemm import CacheSlot, RoundedCopies, tc_gemm
from repro.util.validation import positive_int

#: Column width below which recursion bottoms out in vector-wise CGS.
DEFAULT_LEAF = 32

#: CholQR2 acceptance bound on its second pass: ``‖R2 − I‖_F``. Pass 1
#: leaves ``Q1ᵀQ1 = R2ᵀR2 = I + E`` with ``‖E‖ ~ κ² u32``; at or below
#: this bound the singular values of ``R2`` (and ``Q1``) lie in [½, 3/2],
#: so ``κ(Q1) ≤ 3`` and pass 2 restores O(u32) orthogonality. On
#: 16384×64 panels the κ sweep reads ``‖R2 − I‖_F`` 1.6e-4 at κ=1e2,
#: 1.3e-2 at 1e3, 0.16-0.22 at 5e3 and 0.6-2.2 at 1e4, and the pass-1
#: Cholesky fails from κ≈1.5e4: the bound accepts up to κ≈5e3 (every
#: accepted panel reaches ``‖QᵀQ − I‖ ≤ 1.1e-6``) and falls back a factor
#: ~3 in κ before the Gram stops being positive definite.
CHOLQR2_MAX_CORRECTION = 0.5


def incore_recursive_qr(
    a: np.ndarray,
    *,
    leaf: int = DEFAULT_LEAF,
    input_format: str = "fp16",
    reorthogonalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Recursive CGS QR of a tall matrix (fp32 in/out).

    Parameters
    ----------
    a
        Tall (m >= n) matrix; not modified.
    leaf
        Recursion base-case width (vector-wise CGS below this).
    input_format
        GEMM input rounding: ``"fp16"`` emulates TensorCore, ``"fp32"`` is
        exact single precision.
    reorthogonalize
        Use CGS2 in the base case (the practical choice — plain CGS leaves
        the fp16 pipeline noticeably non-orthogonal; set ``False`` to study
        the textbook behaviour).
    """
    a = _check_input(a, "a")
    leaf = positive_int(leaf, "leaf")
    q = np.array(a, dtype=np.float32, copy=True, order="F")
    n = q.shape[1]
    r = np.zeros((n, n), dtype=np.float32)
    _recurse(q, r, 0, n, leaf, input_format, reorthogonalize)
    return q, r


def _recurse(
    q: np.ndarray,
    r: np.ndarray,
    col0: int,
    col1: int,
    leaf: int,
    input_format: str,
    reorthogonalize: bool,
) -> None:
    """Factorize columns [col0, col1) of *q* in place; fill *r*."""
    width = col1 - col0
    if width <= leaf:
        base = cgs2_qr if reorthogonalize else cgs_qr
        qb, rb = base(q[:, col0:col1], dtype=np.float32)
        q[:, col0:col1] = qb
        r[col0:col1, col0:col1] = rb
        return
    mid = col0 + width // 2
    # left half
    _recurse(q, r, col0, mid, leaf, input_format, reorthogonalize)
    q1 = q[:, col0:mid]
    a2 = q[:, mid:col1]
    q1_slot = _q1_slot(q1)
    # inner product: R12 = Q1ᵀ A2
    r12 = tc_gemm(q1, a2, trans_a=True, input_format=input_format, a_slot=q1_slot)
    r[col0:mid, mid:col1] = r12
    # outer product: A2 ← A2 − Q1 R12
    tc_gemm(
        q1,
        r12,
        alpha=-1.0,
        beta=1.0,
        c=a2,
        input_format=input_format,
        out=a2,
        a_slot=q1_slot,
    )
    # right half
    _recurse(q, r, mid, col1, leaf, input_format, reorthogonalize)


def _q1_slot(q1: np.ndarray) -> CacheSlot:
    """A rounding-cache slot for *q1*: its inner- and outer-product GEMMs
    round it once between them (Q1 does not change in between)."""
    return RoundedCopies(), (0, q1.shape[0], 0, q1.shape[1])


def incore_blocked_qr(
    a: np.ndarray,
    *,
    block: int = 128,
    leaf: int = DEFAULT_LEAF,
    input_format: str = "fp16",
    reorthogonalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked CGS QR (§3.1.2): fixed-width panels, trailing update GEMMs.

    The in-core baseline the recursive variant is compared against. Panel
    factorization itself uses the recursive algorithm (as the paper's
    blocking OOC QR does), so the *only* difference from
    :func:`incore_recursive_qr` is the fixed blocking of the update GEMMs.
    """
    a = _check_input(a, "a")
    block = positive_int(block, "block")
    q = np.array(a, dtype=np.float32, copy=True, order="F")
    m, n = q.shape
    r = np.zeros((n, n), dtype=np.float32)
    for col0 in range(0, n, block):
        col1 = min(col0 + block, n)
        _recurse(q, r, col0, col1, leaf, input_format, reorthogonalize)
        if col1 < n:
            q1 = q[:, col0:col1]
            rest = q[:, col1:]
            q1_slot = _q1_slot(q1)
            r12 = tc_gemm(
                q1, rest, trans_a=True, input_format=input_format, a_slot=q1_slot
            )
            r[col0:col1, col1:] = r12
            tc_gemm(
                q1,
                r12,
                alpha=-1.0,
                beta=1.0,
                c=rest,
                input_format=input_format,
                out=rest,
                a_slot=q1_slot,
            )
    return q, r


def cholqr2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CholQR2 of a tall panel (fp32 in/out): twice ``G = XᵀX``,
    ``R = chol(G)``, ``X ← X·R⁻¹``, with ``R = R2·R1``.

    The Gram is an fp32 matmul of the fp32 data, promoted to fp64 for the
    Cholesky: formed from fp16-rounded inputs, both passes would factor
    the rounded copy and ``‖QᵀQ − I‖`` would stall at ~1.5e-4 (the fp16
    floor) instead of ~1e-6. ``R⁻¹`` is applied as one fp32 matmul with
    the explicitly inverted b×b triangle — a triangular solve on the tall
    operand is 3-4x slower.

    Raises :class:`~repro.errors.PanelRejected` (the input is untouched)
    unless both Choleskys succeed with finite factors, every
    ``r1_jj > RANK_TOL·‖a_j‖`` (the dependence test of the CGS panels) and
    ``‖R2 − I‖_F ≤`` :data:`CHOLQR2_MAX_CORRECTION`. The caller then
    factors the panel with :func:`incore_recursive_qr`, which raises the
    typed breakdown/non-finite errors.
    """
    x = np.asarray(_check_input(a, "a"), dtype=np.float32)
    r1, gram_diag = _gram_cholesky(x)
    dependent = np.flatnonzero(np.diag(r1) <= RANK_TOL * np.sqrt(gram_diag))
    if dependent.size:
        raise PanelRejected("dependent-column", f"column {dependent[0]}")
    q1 = x @ _inverse32(r1)
    r2, _ = _gram_cholesky(q1)
    correction = float(np.linalg.norm(r2 - np.eye(r2.shape[0])))
    if correction > CHOLQR2_MAX_CORRECTION:
        raise PanelRejected("ill-conditioned", f"|R2 - I|_F = {correction:.3g}")
    return q1 @ _inverse32(r2), np.triu(r2 @ r1).astype(np.float32)


def _gram_cholesky(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper Cholesky factor (fp64) of the fp32 Gram ``XᵀX``, and the
    Gram's diagonal (the squared column norms)."""
    gram = (x.T @ x).astype(np.float64)
    try:
        r = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        raise PanelRejected("cholesky-failed") from None
    if not np.isfinite(r).all():
        raise PanelRejected("non-finite")
    return r, np.diag(gram)


def _inverse32(r: np.ndarray) -> np.ndarray:
    """``R⁻¹`` of an upper triangle, in fp32 for the tall matmul.

    ``np.linalg.inv`` pivots nothing on a triangle, so this is the two
    triangular solves against ``I``. It stays in numpy's LAPACK: with
    multithreaded OpenBLAS, alternating with scipy's separately threaded
    copy made a 1024×128 panel 4x slower (14.4 vs 3.7 ms)."""
    return np.linalg.inv(r).astype(np.float32)
