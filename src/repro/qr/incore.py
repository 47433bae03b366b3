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
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.qr.cgs import _check_input, cgs2_qr, cgs_qr
from repro.tc.gemm import CacheSlot, RoundedCopies, tc_gemm
from repro.util.validation import positive_int

#: Column width below which recursion bottoms out in vector-wise CGS.
DEFAULT_LEAF = 32


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
