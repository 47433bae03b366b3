"""Floating-point rounding emulation for matrix-accelerator input formats.

TensorCore MMA instructions consume reduced-precision inputs and accumulate
in fp32. To study the *numerical* behaviour of CGS QR built on TC-GEMMs, we
round GEMM inputs through the target format in numpy:

* ``fp16``  — IEEE half (what the paper's V100 TensorCore consumes),
* ``bf16``  — bfloat16 (emulated by truncating the fp32 mantissa to 7 bits),
* ``tf32``  — Ampere's TensorFloat-32 (10-bit mantissa, fp32 exponent),
* ``fp32``  — identity (CUDA-core SGEMM).

All functions return fp32 arrays: the rounding models the *input* quantizer
of the accelerator; accumulation stays in fp32 as on real hardware.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ValidationError

#: Unit roundoffs of the supported input formats (for error-bound tests
#: and the static precision verifier, :mod:`repro.analysis.precision`).
#: The split formats are *effective* input roundoffs of the Markidis-style
#: multi-term TC GEMM (:mod:`repro.tc.split`): three fp16 terms recover
#: ~22 bits of the input mantissa, four recover full fp32 (~2^-24).
UNIT_ROUNDOFF = {
    "fp16": 2.0**-11,
    "bf16": 2.0**-8,
    "tf32": 2.0**-11,
    "fp16x3": 2.0**-22,
    "fp16x4": 2.0**-24,
    "fp32": 2.0**-24,
    "fp64": 2.0**-53,
}


class QuantStats:
    """Counts quantization casualties of the input rounding.

    An *overflow* is a finite fp32 value that rounds to +/-inf in the
    target format; an *underflow* is a nonzero value that rounds to zero.
    The health sentinel hangs one of these off every run so the
    :class:`~repro.health.report.HealthReport` can attribute lost accuracy
    to range, not just precision.
    """

    __slots__ = ("overflow", "underflow", "_lock")

    def __init__(self, overflow: int = 0, underflow: int = 0):
        self.overflow = int(overflow)
        self.underflow = int(underflow)
        # GEMMs on different worker threads count into one instance
        self._lock = threading.Lock()

    def count(self, before: np.ndarray, after: np.ndarray) -> None:
        """Count the casualties of rounding *before* to *after*."""
        self.add(
            int(np.count_nonzero(np.isinf(after) & np.isfinite(before))),
            int(np.count_nonzero((after == 0.0) & (before != 0.0))),
        )

    def add(self, overflow: int, underflow: int) -> None:
        """Add casualties counted elsewhere (:func:`round_fp16` counts
        them in its rounding pass)."""
        with self._lock:
            self.overflow += int(overflow)
            self.underflow += int(underflow)


#: Largest finite fp16 value. From it up, values can round to inf, so
#: :func:`round_fp16` casts any block that reaches it.
FP16_MAX = 65504.0

#: Elements per block of :func:`round_fp16`'s pass: the block, its
#: result and the shifter scratch (128 KiB each) stay in L2 cache.
ROUND_BLOCK = 1 << 15

_EXPONENT = np.uint32(0x7F800000)
_SIGN = np.uint32(0x80000000)
_QUIET_NAN = np.uint32(0x00400000)
_FP16_MIN_NORMAL = np.float32(2.0**-14)
_SHIFTER_SCALE = np.float32(1.5 * 2.0**13)


def round_fp16(a: np.ndarray, stats: QuantStats | None = None) -> np.ndarray:
    """Round *a* through IEEE fp16 and return it as fp32.

    Values beyond the fp16 range overflow to +/-inf exactly as the hardware
    conversion would — callers that need safety must pre-scale (the paper's
    in-core QR [24] scales columns for the same reason). Pass *stats* to
    count the overflow/underflow casualties.

    The result is bitwise what ``a.astype(float16).astype(float32)``
    returns, in the same memory layout. The array is rounded in one pass
    of :data:`ROUND_BLOCK`-element blocks along its outer memory axis, so
    each block is read once from memory and worked on in cache. A block
    whose values all lie strictly inside the fp16 range takes
    :func:`_fp16_shifter`, which uses only fp32 and integer arithmetic and
    is faster than numpy's half-precision cast; a block holding NaN,
    +/-inf or a magnitude of at least :data:`FP16_MAX` takes the cast.
    The casualties are counted on each block while it is in cache.
    """
    a32 = np.asarray(a, dtype=np.float32)
    out = np.empty_like(a32)
    if a32.size == 0:
        return out
    overflow = underflow = 0
    blocks = _blocks(a32, out)
    # shifter scratch shared by the blocks; the first block is the largest
    work = np.empty_like(blocks[0][1], np.uint32) if len(blocks) > 1 else None
    for src, dst in blocks:
        if -FP16_MAX < src.min() and src.max() < FP16_MAX:
            _fp16_shifter(src, dst, None if work is None else work[: len(dst)])
            if stats is not None:
                # no overflow inside the range; a zero result is a zero
                # input or an underflow
                zeros = np.count_nonzero(dst == 0.0)
                if zeros:
                    underflow += zeros - np.count_nonzero(src == 0.0)
        else:
            with np.errstate(over="ignore"):
                np.copyto(dst, src.astype(np.float16))
            if stats is not None:
                overflow += np.count_nonzero(np.isinf(dst) & np.isfinite(src))
                underflow += np.count_nonzero((dst == 0.0) & (src != 0.0))
    if stats is not None:
        stats.add(overflow, underflow)
    return out


def _blocks(
    src: np.ndarray, dst: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matching blocks of *src* and of *dst* (contiguous, laid out like
    *src*), at most about :data:`ROUND_BLOCK` elements each, cut along
    *dst*'s outer memory axis. An array of at most one block, or of more
    than two dimensions, is one block."""
    if dst.size <= ROUND_BLOCK or dst.ndim not in (1, 2):
        return [(src, dst)]
    if dst.ndim == 2 and dst.strides[0] < dst.strides[1]:
        src, dst = src.T, dst.T
    step = max(1, ROUND_BLOCK // (dst.size // len(dst)))
    return [
        (src[i : i + step], dst[i : i + step]) for i in range(0, len(dst), step)
    ]


def _fp16_shifter(
    a32: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """fp16 round-to-nearest-even in fp32 arithmetic, for finite
    ``|a| < 65504``, into *out* (a new array when None); *work* is uint32
    scratch of *a32*'s shape.

    For ``|a|`` in ``[2^k, 2^(k+1))`` with ``k >= -14`` the shifter
    ``c = 1.5 * 2^(k+13)`` puts ``a + c`` in the binade ``[2^(k+13),
    2^(k+14))`` for either sign of *a*, where the fp32 ulp is ``2^(k-10)``:
    the fp16 ulp of *a*. The fp32 addition therefore rounds *a* to fp16
    precision, ties to even because ``c`` is an even multiple of that ulp,
    and subtracting ``c`` again is exact. Below the fp16 normal range the
    shifter stays at ``1.5 * 2^-1``, whose ulp ``2^-24`` is the fp16
    subnormal spacing. A result of zero comes out as ``+0``; or-ing in the
    input's sign bit gives ``-0`` for negative inputs, as the cast does.
    """
    bits = a32.view(np.uint32)
    if work is None:
        work = np.empty_like(bits)
    if out is None:
        out = np.empty_like(a32)
    np.bitwise_and(bits, _EXPONENT, out=work)
    shifter = work.view(np.float32)  # 2^k, or 0 below the fp32 normals
    np.maximum(shifter, _FP16_MIN_NORMAL, out=shifter)
    shifter *= _SHIFTER_SCALE
    np.add(a32, shifter, out=out)
    out -= shifter
    np.bitwise_and(bits, _SIGN, out=work)
    out_bits = out.view(np.uint32)
    out_bits |= work
    return out


def _truncate_mantissa(a: np.ndarray, keep_bits: int) -> np.ndarray:
    """Round an fp32 array to *keep_bits* explicit mantissa bits
    (round-to-nearest-even via the integer representation).

    NaNs stay NaN: their payload is truncated with the quiet bit set, so a
    payload held only in the dropped low bits cannot turn into +/-inf."""
    a32 = np.ascontiguousarray(a, dtype=np.float32)
    bits = a32.view(np.uint32)
    drop = 23 - keep_bits
    # round-half-to-even on the dropped bits
    lsb = np.uint32(1) << np.uint32(drop)
    bias = (lsb >> np.uint32(1)) - np.uint32(1)
    odd = (bits >> np.uint32(drop)) & np.uint32(1)
    keep = ~np.uint32(lsb - np.uint32(1))
    rounded = (bits + bias + odd) & keep
    nan = np.isnan(a32)
    if nan.any():
        rounded[nan] = (bits[nan] | _QUIET_NAN) & keep
    return rounded.view(np.float32)  # rounded is a fresh array


def round_bf16(a: np.ndarray, stats: QuantStats | None = None) -> np.ndarray:
    """Round *a* to bfloat16 precision (7 mantissa bits), returned as fp32."""
    a32 = np.asarray(a, dtype=np.float32)
    out = _truncate_mantissa(a32, keep_bits=7)
    if stats is not None:
        stats.count(a32, out)
    return out


def round_tf32(a: np.ndarray, stats: QuantStats | None = None) -> np.ndarray:
    """Round *a* to TF32 precision (10 mantissa bits), returned as fp32."""
    a32 = np.asarray(a, dtype=np.float32)
    out = _truncate_mantissa(a32, keep_bits=10)
    if stats is not None:
        stats.count(a32, out)
    return out


def round_to(a: np.ndarray, fmt: str, stats: QuantStats | None = None) -> np.ndarray:
    """Round *a* through input format *fmt* and return fp32."""
    if fmt == "fp16":
        return round_fp16(a, stats)
    if fmt == "bf16":
        return round_bf16(a, stats)
    if fmt == "tf32":
        return round_tf32(a, stats)
    if fmt == "fp32":
        return np.asarray(a, dtype=np.float32)
    raise ValidationError(f"unknown input format {fmt!r}")
