"""Shared run helpers for the experiment suite: standalone OOC GEMM runs
and full QR runs on the simulated executor, with per-block metrics
extracted from traces."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.execution.sim import SimExecutor
from repro.host.tiled import HostMatrix
from repro.obs.derive import run_summary
from repro.ooc.inner import run_ksplit_inner, run_panel_inner
from repro.ooc.outer import run_rowstream_outer, run_tile_outer
from repro.ooc.plan import (
    plan_ksplit_inner,
    plan_panel_inner,
    plan_rowstream_outer,
    plan_tile_outer,
)
from repro.sim.ops import OpKind
from repro.sim.trace import Trace


@dataclass
class GemmRunMetrics:
    """Timing/volume metrics of one standalone OOC GEMM run."""

    makespan: float           # seconds spent inside the GEMM (excl. setup)
    total_flops: int
    h2d_bytes: int
    d2h_bytes: int
    gemm_busy: float          # compute seconds in GEMM kernels
    median_h2d: float         # steady-state per-copy H2D seconds
    median_gemm: float        # steady-state per-kernel seconds
    median_d2h: float
    overlap_ratio: float
    trace: Trace
    t0: float                 # run start within the trace

    @property
    def overall_rate(self) -> float:
        """End-to-end flops/s over the run's makespan."""
        return self.total_flops / self.makespan if self.makespan else 0.0

    @property
    def incore_rate(self) -> float:
        """flops/s of the GEMM kernels alone (the "In-core flops" row)."""
        return self.total_flops / self.gemm_busy if self.gemm_busy else 0.0


def _median(durations: list[float]) -> float:
    return statistics.median(durations) if durations else 0.0


def _metrics(ex: SimExecutor, t0: float, flops: int, h2d0: int, d2h0: int) -> GemmRunMetrics:
    trace = ex.finish()
    window = [op for op in trace.ops if op.end > t0 + 1e-12]
    gemms = [op for op in window if op.kind == OpKind.GEMM]
    h2ds = [op for op in window if op.kind == OpKind.COPY_H2D]
    d2hs = [op for op in window if op.kind == OpKind.COPY_D2H]
    in_window = [s for s in trace.spans() if s.end_s > t0 + 1e-12]
    return GemmRunMetrics(
        makespan=trace.makespan - t0,
        total_flops=flops,
        h2d_bytes=ex.stats.h2d_bytes - h2d0,
        d2h_bytes=ex.stats.d2h_bytes - d2h0,
        gemm_busy=sum(op.duration for op in gemms),
        median_h2d=_median([op.duration for op in h2ds]),
        median_gemm=_median([op.duration for op in gemms]),
        median_d2h=_median([op.duration for op in d2hs]),
        overlap_ratio=run_summary(in_window).overlap_ratio,
        trace=trace,
        t0=t0,
    )


def sim_inner_recursive(
    config: SystemConfig,
    *,
    K: int,
    M: int,
    N: int,
    blocksize: int,
    pipelined: bool = True,
    gradual: bool = False,
) -> GemmRunMetrics:
    """Standalone Fig-3 inner product on the simulated executor."""
    ex = SimExecutor(config)
    a = HostMatrix.shape_only(K, M, config.element_bytes, name="A")
    b = HostMatrix.shape_only(K, N, config.element_bytes, name="B")
    c = HostMatrix.shape_only(M, N, config.element_bytes, name="C")
    plan = plan_ksplit_inner(
        K, M, N, blocksize,
        ex.allocator.free_bytes // config.element_bytes,
        gradual=gradual,
    )
    run_ksplit_inner(ex, a.full(), b.full(), c.full(), plan, pipelined=pipelined)
    return _metrics(ex, 0.0, 2 * M * N * K, 0, 0)


def sim_inner_blocking(
    config: SystemConfig,
    *,
    K: int,
    M: int,
    N: int,
    blocksize: int,
    pipelined: bool = True,
) -> GemmRunMetrics:
    """Standalone Fig-4 inner product; the resident panel load is excluded
    from the metrics (as in the paper's Table 1)."""
    ex = SimExecutor(config)
    b = HostMatrix.shape_only(K, N, config.element_bytes, name="B")
    c = HostMatrix.shape_only(M, N, config.element_bytes, name="C")
    panel = ex.alloc(K, M, "panel")
    panel_src = HostMatrix.shape_only(K, M, config.element_bytes, name="Q")
    s = ex.stream("setup")
    ex.h2d(panel, panel_src.full(), s)
    ex.synchronize()
    t0 = ex.sim.now
    h2d0, d2h0 = ex.stats.h2d_bytes, ex.stats.d2h_bytes
    plan = plan_panel_inner(
        K, M, N, blocksize,
        ex.allocator.free_bytes // config.element_bytes,
        prefer_keep_c=False,
    )
    run_panel_inner(ex, panel, b.full(), c.full(), plan, pipelined=pipelined)
    metrics = _metrics(ex, t0, 2 * M * N * K, h2d0, d2h0)
    ex.free(panel)
    return metrics


def sim_outer_recursive(
    config: SystemConfig,
    *,
    M: int,
    K: int,
    N: int,
    blocksize: int,
    pipelined: bool = True,
    staging: bool = True,
) -> GemmRunMetrics:
    """Standalone Fig-5 outer product with B already device-resident."""
    ex = SimExecutor(config)
    a = HostMatrix.shape_only(M, K, config.element_bytes, name="A")
    c = HostMatrix.shape_only(M, N, config.element_bytes, name="C")
    b_dev = ex.alloc(K, N, "B")
    budget = ex.allocator.free_bytes // config.element_bytes
    plan = plan_rowstream_outer(
        M, K, N, blocksize, budget, staging=staging, b_resident=True
    )
    if plan.b_resident:
        run_rowstream_outer(
            ex, c.full(), a.full(), b_dev, plan, pipelined=pipelined
        )
    else:
        # B too large to keep: stream it from host instead
        ex.free(b_dev)
        b_dev = None
        b_host = HostMatrix.shape_only(K, N, config.element_bytes, name="B")
        run_rowstream_outer(
            ex, c.full(), a.full(), b_host.full(), plan, pipelined=pipelined
        )
    metrics = _metrics(ex, 0.0, 2 * M * N * K, 0, 0)
    if b_dev is not None:
        ex.free(b_dev)
    return metrics


def sim_outer_blocking(
    config: SystemConfig,
    *,
    M: int,
    K: int,
    N: int,
    blocksize: int,
    pipelined: bool = True,
    staging: bool = True,
) -> GemmRunMetrics:
    """Standalone Fig-6 outer product with A and B device-resident."""
    ex = SimExecutor(config)
    c = HostMatrix.shape_only(M, N, config.element_bytes, name="C")
    a_dev = ex.alloc(M, K, "A")
    b_dev = ex.alloc(K, N, "B")
    plan = plan_tile_outer(
        M, K, N, blocksize,
        ex.allocator.free_bytes // config.element_bytes,
        staging=staging,
    )
    run_tile_outer(ex, c.full(), a_dev, b_dev, plan, pipelined=pipelined)
    metrics = _metrics(ex, 0.0, 2 * M * N * K, 0, 0)
    ex.free(a_dev)
    ex.free(b_dev)
    return metrics
