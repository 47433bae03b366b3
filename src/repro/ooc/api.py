"""Public out-of-core GEMM — the cuBLASXt-equivalent entry point.

The paper's §2.2 baseline libraries (cuBLASXt, BLASX) exist to provide
exactly this: ``C = alpha op(A) op(B) + beta C`` for host-resident
operands larger than device memory. :func:`ooc_gemm` exposes this
library's streaming engines behind one call, picking the strategy from
the operand shapes:

* ``trans_a=True`` (inner-product form, ``C = Aᵀ B``): the k-split engine
  (Fig 3) — C resident, reduction dimension streamed;
* otherwise (outer-product form): the row-streaming engine (Fig 5) — B
  resident, A and C row blocks streamed.

Like :func:`repro.qr.api.ooc_qr`, it runs numerically on real arrays or
as a data-free simulation on shape tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.errors import ShapeError, ValidationError
from repro.execution.base import RunStats
from repro.execution.run import (
    TimedResult,
    execute,
    host_operand,
    run_spec,
    system_config,
)
from repro.host.tiled import HostMatrix
from repro.obs.span import SpanRecorder
from repro.ooc.accounting import MovementReport
from repro.ooc.inner import run_ksplit_inner
from repro.ooc.outer import run_rowstream_outer
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer
from repro.sim.trace import Trace
from repro.util.validation import positive_int


@dataclass
class GemmResult(TimedResult):
    """Result of one out-of-core GEMM."""

    c: np.ndarray | None          # numeric mode: the output matrix
    strategy: str                 # "ksplit-inner" | "rowstream-outer"
    stats: RunStats
    movement: MovementReport
    trace: Trace | None
    config: SystemConfig


def ooc_gemm(
    a,
    b,
    *,
    trans_a: bool = False,
    alpha: float = 1.0,
    beta: float = 0.0,
    c=None,
    config: SystemConfig | None = None,
    blocksize: int = 16384,
    mode: str | None = None,
    device_memory: int | None = None,
    pipelined: bool = True,
    concurrency: str = "serial",
    obs: SpanRecorder | None = None,
) -> GemmResult:
    """Out-of-core ``C = alpha op(A) B + beta C`` for host-resident operands.

    Supported forms (covering both GEMM types of the paper's pipelines):

    * ``trans_a=True, alpha=1, beta=0`` — inner product ``C = Aᵀ B``;
    * ``trans_a=False, alpha=-1, beta=1`` — trailing update ``C -= A B``
      (C required);
    * ``trans_a=False, alpha=1, beta=0`` — plain ``C = A B`` (computed as
      an update of a zero C).

    Operands are ndarrays / :class:`HostMatrix` (numeric) or shape tuples
    (simulated). Returns a :class:`GemmResult`.

    ``concurrency="threads"`` (numeric mode only) records the run as a
    tile-task graph (:mod:`repro.runtime`) and runs it on the
    work-stealing scheduler, overlapping H2D, compute and D2H (see
    docs/concurrency.md). Results are bitwise identical to ``"serial"``.
    A live ``obs=`` :class:`~repro.obs.span.SpanRecorder` records the
    measured timeline (``trace`` is set only for simulated runs).
    """
    config = system_config(config, device_memory)
    blocksize = positive_int(blocksize, "blocksize")

    host_a, shape_only = host_operand(a, config.element_bytes, "A", copy=False)
    host_b, b_shape_only = host_operand(b, config.element_bytes, "B", copy=False)
    if shape_only != b_shape_only:
        raise ValidationError("A and B must both be data or both be shapes")
    spec = run_spec(
        mode, shape_only=shape_only, modes=("numeric", "sim"),
        concurrency=concurrency, obs=obs,
    )
    # every executor starts with the whole usable device free
    budget = config.usable_device_bytes // config.element_bytes

    if trans_a:
        # inner product C(M, N) = Aᵀ B with A (K, M), B (K, N)
        if alpha != 1.0 or beta != 0.0:
            raise ValidationError(
                "the inner-product form supports alpha=1, beta=0 only"
            )
        if host_a.rows != host_b.rows:
            raise ShapeError(
                f"inner product needs matching K: A {host_a.shape}, "
                f"B {host_b.shape}"
            )
        K, M, N = host_a.rows, host_a.cols, host_b.cols
        host_c = _output(M, N, shape_only, config)
        plan = plan_ksplit_inner(K, M, N, blocksize, budget)
        strategy = "ksplit-inner"

        def driver(ex, _checkpoint):
            run_ksplit_inner(
                ex, host_a.full(), host_b.full(), host_c.full(), plan,
                pipelined=pipelined,
            )
    else:
        # outer-product form C(M, N) (+)= alpha A B with A (M, K), B (K, N)
        if (alpha, beta) not in ((-1.0, 1.0), (1.0, 0.0)):
            raise ValidationError(
                "the outer-product form supports (alpha, beta) in "
                "{(-1, 1), (1, 0)}"
            )
        if host_a.cols != host_b.rows:
            raise ShapeError(
                f"gemm inner dims differ: A {host_a.shape}, B {host_b.shape}"
            )
        M, K, N = host_a.rows, host_a.cols, host_b.cols
        if beta == 1.0:
            if c is None:
                raise ValidationError("beta=1 requires the C operand")
            host_c, c_shape_only = host_operand(
                c, config.element_bytes, "C", copy=False
            )
            if c_shape_only != shape_only:
                raise ValidationError("C must match A/B backing")
        else:
            host_c = _output(M, N, shape_only, config)
        if host_c.shape != (M, N):
            raise ShapeError(f"C is {host_c.shape}, expected {(M, N)}")
        if alpha == 1.0 and host_a.backed:
            # C = A B runs as the update C -= (-A) B of a zero C; the
            # simulator only needs the shapes
            host_a = HostMatrix.from_array(-host_a.data, name="A")
        plan = plan_rowstream_outer(M, K, N, blocksize, budget)
        strategy = "rowstream-outer"

        def driver(ex, _checkpoint):
            run_rowstream_outer(
                ex, host_c.full(), host_a.full(), host_b.full(), plan,
                pipelined=pipelined,
            )

    run = execute(
        driver, config, spec, name=f"ooc_gemm[{strategy}]",
        attrs={"strategy": strategy, "m": M, "n": N, "k": K},
    )
    return GemmResult(
        c=host_c.data if host_c.backed else None,
        strategy=strategy,
        stats=run.stats,
        movement=run.movement,
        trace=run.trace,
        config=config,
    )


def _output(rows: int, cols: int, shape_only: bool, config) -> HostMatrix:
    """A fresh C: zeros, or its shape for simulated runs."""
    if shape_only:
        return HostMatrix.shape_only(rows, cols, config.element_bytes, name="C")
    return HostMatrix.zeros(rows, cols, name="C")
