"""Wall-clock benchmark: serial vs. threaded numeric execution.

Measures the real speedup the concurrent executor's engine overlap buys on
an out-of-core GEMM (the paper's Fig 3 inner-product pipeline) — the
numeric analogue of the simulator's overlap predictions. numpy GEMMs and
copies release the GIL, so on a multi-core host the three engine workers
genuinely overlap; on a single core the schedule is still valid but the
speedup converges to ~1x.

Used by ``tests/test_execution_concurrent.py`` (smoke + the REPRO_PERF
gated ≥1.2x assertion) and runnable directly::

    PYTHONPATH=src python -m repro.bench.concurrency
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.hw.specs import GpuSpec
from repro.obs.clock import monotonic as _monotonic
from repro.obs.derive import run_summary
from repro.obs.span import SpanRecorder
from repro.ooc.api import ooc_gemm
from repro.util.rng import default_rng


def bench_spec(mem_bytes: int = 64 << 20) -> GpuSpec:
    """A capped GPU spec that forces out-of-core streaming at bench sizes."""
    return GpuSpec(
        name="bench",
        mem_bytes=mem_bytes,
        tc_peak_flops=1.0e12,
        cuda_peak_flops=1.0e11,
        h2d_bytes_per_s=1.0e9,
        d2h_bytes_per_s=1.1e9,
        d2d_bytes_per_s=50.0e9,
    )


@dataclass
class ConcurrencyBenchResult:
    """Timings of one serial-vs-threads comparison."""

    shape: tuple[int, int, int]     # (M, N, K)
    blocksize: int
    serial_s: float                 # best-of-repeats serial wall time
    threads_s: float                # best-of-repeats threaded wall time
    overlap_ratio: float            # from the threaded run's recorded spans
    identical: bool                 # outputs bitwise equal across modes

    @property
    def speedup(self) -> float:
        """Serial time over threaded time (>1 means threads won)."""
        return self.serial_s / self.threads_s if self.threads_s > 0 else 0.0

    def render(self) -> str:
        """One-line human-readable summary."""
        m, n, k = self.shape
        return (
            f"ooc_gemm {m}x{n}x{k} b={self.blocksize}: "
            f"serial {self.serial_s * 1e3:7.1f} ms, "
            f"threads {self.threads_s * 1e3:7.1f} ms, "
            f"speedup {self.speedup:4.2f}x, "
            f"overlap {self.overlap_ratio:4.2f}, "
            f"bitwise {'==' if self.identical else '!='}"
        )


def bench_gemm_concurrency(
    m: int = 1024,
    n: int = 1024,
    k: int = 4096,
    *,
    blocksize: int = 512,
    repeats: int = 3,
    config: SystemConfig | None = None,
) -> ConcurrencyBenchResult:
    """Time the OOC inner-product GEMM serially and with engine threads.

    Both modes run ``repeats`` times on identical inputs; the best time of
    each is compared (standard practice for wall-clock microbenchmarks —
    the minimum is the least noise-contaminated estimate). Every run
    records its spans, so both modes pay the same recording cost; the
    overlap ratio is the best threaded run's, from
    :func:`~repro.obs.derive.run_summary`.
    """
    config = config or SystemConfig(gpu=bench_spec(), precision=Precision.FP32)
    rng = default_rng(0)
    a = rng.standard_normal((k, m)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)

    def run(concurrency: str) -> tuple[float, np.ndarray, float]:
        best, out, overlap = float("inf"), None, 0.0
        for _ in range(repeats):
            rec = SpanRecorder()
            t0 = _monotonic()
            res = ooc_gemm(
                a, b, trans_a=True, config=config, blocksize=blocksize,
                concurrency=concurrency, obs=rec,
            )
            elapsed = _monotonic() - t0
            if elapsed < best:
                best, out = elapsed, res.c
                overlap = run_summary(rec.spans()).overlap_ratio
        return best, out, overlap

    serial_s, serial_c, _ = run("serial")
    threads_s, threads_c, overlap = run("threads")
    return ConcurrencyBenchResult(
        shape=(m, n, k),
        blocksize=blocksize,
        serial_s=serial_s,
        threads_s=threads_s,
        overlap_ratio=overlap,
        identical=bool(np.array_equal(serial_c, threads_c)),
    )


if __name__ == "__main__":  # pragma: no cover - manual benchmark entry
    print(bench_gemm_concurrency().render())
