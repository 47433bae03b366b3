"""Unit helpers: bytes, FLOP rates, and human-readable formatting.

All internal quantities are SI: bytes, flops, seconds, bytes/second,
flops/second. These helpers exist so that configuration and reports can speak
GiB / TFLOPS / ms without ad-hoc powers of ten scattered around.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024**2
GIB = 1024**3

KILO = 10**3
MEGA = 10**6
GIGA = 10**9
TERA = 10**12


def gib(n: float) -> int:
    """*n* GiB in bytes."""
    return int(n * GIB)


def gb(n: float) -> float:
    """*n* decimal GB in bytes (used for PCIe bandwidths: GB/s)."""
    return n * GIGA


def tflops(n: float) -> float:
    """*n* TFLOP/s in flops/second."""
    return n * TERA


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flop count of ``C(m,n) += A(m,k) B(k,n)`` (multiply-add counted as 2)."""
    return 2 * int(m) * int(n) * int(k)


def qr_flops(m: int, n: int) -> int:
    """Classic flop count of a QR factorization of an m-by-n matrix (m >= n),
    ``2mn^2 - (2/3)n^3``, rounded to an int."""
    m, n = int(m), int(n)
    return int(2 * m * n * n - (2 * n**3) / 3)


def fmt_bytes(nbytes: float) -> str:
    """Format a byte count, e.g. ``17.18 GB``."""
    nbytes = float(nbytes)
    for unit, scale in (("TB", TERA), ("GB", GIGA), ("MB", MEGA), ("kB", KILO)):
        if abs(nbytes) >= scale:
            return f"{nbytes / scale:.2f} {unit}"
    return f"{nbytes:.0f} B"


def fmt_time(seconds: float) -> str:
    """Format a duration, e.g. ``1408 ms`` / ``18.2 s`` / ``3.4 us``."""
    seconds = float(seconds)
    if abs(seconds) >= 10.0:
        return f"{seconds:.1f} s"
    if abs(seconds) >= 1.0:
        return f"{seconds:.2f} s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.0f} ms"
    if abs(seconds) >= 1e-6:
        return f"{seconds * 1e6:.1f} us"
    return f"{seconds * 1e9:.1f} ns"


def fmt_rate(flops_per_s: float) -> str:
    """Format a compute rate, e.g. ``99.9 TFLOPS`` / ``1.4 GFLOPS``."""
    flops_per_s = float(flops_per_s)
    for unit, scale in (("TFLOPS", TERA), ("GFLOPS", GIGA)):
        if abs(flops_per_s) >= scale:
            return f"{flops_per_s / scale:.1f} {unit}"
    return f"{flops_per_s / MEGA:.1f} MFLOPS"


def fmt_bandwidth(bytes_per_s: float) -> str:
    """Format a bandwidth, e.g. ``12.4 GB/s``."""
    return f"{bytes_per_s / GIGA:.1f} GB/s"
