"""Numerical emulation of TensorCore GEMM (reduced-precision in, fp32 out).

``tc_gemm`` computes ``alpha * op(A) @ op(B) + beta * C`` with the inputs
rounded through the accelerator's input format and the product accumulated
in fp32 — the same contract as cublasGemmEx with CUDA_R_16F inputs and
CUDA_R_32F accumulation that the paper's implementation uses.

Input rounding happens once per operand *residence*, not once per use: a
caller that keeps an operand stored (a device buffer) hands ``tc_gemm`` a
:class:`RoundedCopies` slot, and a later GEMM reading the same rect, or a
rect inside it, slices the rounded copy instead of rounding again. Whoever
writes the stored array must call :meth:`RoundedCopies.invalidate`.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.errors import ShapeError
from repro.tc.precision import QuantStats, round_to
from repro.util.regions import rects_overlap

#: ``(row0, row1, col0, col1)``, half-open, in the stored array's indices.
Rect = tuple[int, int, int, int]


def _contains(outer: Rect, inner: Rect) -> bool:
    return (
        outer[0] <= inner[0] and inner[1] <= outer[1]
        and outer[2] <= inner[2] and inner[3] <= outer[3]
    )


class RoundedCopies:
    """Rounded copies of one stored fp32 array, keyed by format and rect.

    :meth:`rounded` finds or makes a copy in one step under the lock, so
    two GEMMs reading the same operand on different threads round (and
    count) it once. Freshness rests on the callers' ordering: no op
    reads a rect while another op writes an overlapping one, and a writer
    invalidates inside its own body, so every copy a reader finds was
    rounded from the current data.
    """

    __slots__ = ("_entries", "_lock")

    def __init__(self):
        self._entries: list[tuple[str, Rect, np.ndarray]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, fmt: str, rect: Rect) -> np.ndarray | None:
        """The *fmt* rounding of *rect*, sliced from a stored copy of a
        rect containing it, or None."""
        for efmt, erect, rounded in self._entries:
            if efmt == fmt and _contains(erect, rect):
                return rounded[
                    rect[0] - erect[0] : rect[1] - erect[0],
                    rect[2] - erect[2] : rect[3] - erect[2],
                ]
        return None

    def rounded(
        self, fmt: str, rect: Rect, make: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The *fmt* rounding of *rect*: sliced from a stored copy when
        one contains it, else ``make()``, stored in place of the copies
        of rects it contains."""
        found = self.lookup(fmt, rect)
        if found is not None:
            return found
        with self._lock:
            found = self.lookup(fmt, rect)  # another reader may have made it
            if found is None:
                found = make()
                # replace, never mutate: lock-free lookups see a snapshot
                self._entries = [
                    entry for entry in self._entries
                    if not (entry[0] == fmt and _contains(rect, entry[1]))
                ] + [(fmt, rect, found)]
            return found

    def invalidate(self, rect: Rect) -> None:
        """Drop every copy overlapping *rect*, whose data is being written."""
        rows, cols = (rect[0], rect[1]), (rect[2], rect[3])
        with self._lock:
            if self._entries:
                self._entries = [
                    entry for entry in self._entries
                    if not rects_overlap(
                        (entry[1][0], entry[1][1]), (entry[1][2], entry[1][3]),
                        rows, cols,
                    )
                ]


#: A stored operand's copies and the rect the GEMM reads from them.
CacheSlot = tuple[RoundedCopies, Rect]


def _round_operand(
    x: np.ndarray,
    trans: bool,
    fmt: str,
    stats: QuantStats | None,
    slot: CacheSlot | None,
) -> np.ndarray:
    """Round ``op(x)``; a stored operand with a slot is rounded as stored,
    at most once, then transposed. The fp16 rounding keeps its input's
    memory layout, so both give the same array, in the same layout."""
    if slot is None or fmt == "fp32":
        return round_to(x.T if trans else x, fmt, stats)
    copies, rect = slot
    rounded = copies.rounded(fmt, rect, lambda: round_to(x, fmt, stats))
    return rounded.T if trans else rounded


def tc_gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    c: np.ndarray | None = None,
    trans_a: bool = False,
    trans_b: bool = False,
    input_format: str = "fp16",
    out: np.ndarray | None = None,
    quant_stats: QuantStats | None = None,
    a_slot: CacheSlot | None = None,
    b_slot: CacheSlot | None = None,
) -> np.ndarray:
    """Emulated TensorCore GEMM.

    Parameters
    ----------
    a, b
        Input operands (any float dtype; rounded through *input_format*).
    alpha, beta
        ``result = alpha * op(a) @ op(b) + beta * c``.
    c
        Accumulator operand; required when ``beta != 0``.
    trans_a, trans_b
        Apply transposition to ``a`` / ``b`` before multiplying.
    input_format
        One of ``fp16`` (default, V100 TensorCore), ``bf16``, ``tf32``,
        ``fp32``, or ``fp16x3`` / ``fp16x4`` (precision-splitting variants
        that recover near-fp32 accuracy from fp16 hardware — see
        :mod:`repro.tc.split`).
    out
        Optional fp32 output buffer, written in place and returned.
    quant_stats
        Optional :class:`~repro.tc.precision.QuantStats` accumulating the
        input-rounding overflow/underflow counts (health sentinel probes).
        A cached rounding is counted once, when it is made.
    a_slot, b_slot
        Optional :data:`CacheSlot` for ``a`` / ``b`` as stored (before
        ``trans_*``): the operand is rounded at most once per format while
        its copies stay valid. The split formats and ``fp32`` ignore it.

    Returns
    -------
    numpy.ndarray
        fp32 result of shape (m, n).
    """
    if input_format in ("fp16x3", "fp16x4"):
        from repro.tc.split import split_gemm

        return split_gemm(
            a,
            b,
            terms=3 if input_format == "fp16x3" else 4,
            alpha=alpha,
            beta=beta,
            c=c,
            trans_a=trans_a,
            trans_b=trans_b,
            out=out,
            quant_stats=quant_stats,
        )
    a, b = np.asarray(a), np.asarray(b)
    a_op = a.T if trans_a else a
    b_op = b.T if trans_b else b
    if a_op.ndim != 2 or b_op.ndim != 2:
        raise ShapeError(
            f"tc_gemm operands must be 2-D, got {a_op.ndim}-D and {b_op.ndim}-D"
        )
    if a_op.shape[1] != b_op.shape[0]:
        raise ShapeError(
            f"tc_gemm inner dimensions differ: op(A) is {a_op.shape}, "
            f"op(B) is {b_op.shape}"
        )
    m, n = a_op.shape[0], b_op.shape[1]

    a_r = _round_operand(a, trans_a, input_format, quant_stats, a_slot)
    b_r = _round_operand(b, trans_b, input_format, quant_stats, b_slot)
    # fp32 matmul of the rounded inputs = fp16-in / fp32-accumulate MMA.
    prod = a_r @ b_r
    if alpha != 1.0:
        prod *= np.float32(alpha)

    if beta != 0.0:
        if c is None:
            raise ShapeError("tc_gemm: beta != 0 requires operand c")
        c_arr = np.asarray(c, dtype=np.float32)
        if c_arr.shape != (m, n):
            raise ShapeError(
                f"tc_gemm: c has shape {c_arr.shape}, expected {(m, n)}"
            )
        prod += np.float32(beta) * c_arr

    if out is not None:
        if out.shape != (m, n):
            raise ShapeError(
                f"tc_gemm: out has shape {out.shape}, expected {(m, n)}"
            )
        np.copyto(out, prod.astype(np.float32, copy=False))
        return out
    return prod.astype(np.float32, copy=False)
