"""Engine bindings: every shipped OOC engine, run symbolically.

:data:`ENGINE_BINDINGS` is the one table of engine configurations the
library ships (blocking/recursive QR — including the TSQR panel-algorithm
config — LU, Cholesky, and both OOC GEMM engines). Each
:class:`EngineBinding` holds the driver, the shape-only operands it
consumes and the volume law its transfers answer to, so one
binding runs on any executor. :data:`repro.runtime.GRAPH_BUILDERS` records
each binding as a task graph (a
:class:`~repro.runtime.builder.GraphBuilder` with ``materialize=False``);
:func:`verify_engine` and :func:`verify_all_engines` verify those graphs
(the CLI ``analyze --what plans`` sweep CI runs).

Because the engines plan from ``ex.allocator.free_bytes``, a recording
under a given config replays exactly the op stream a real run under that
config would issue.

:func:`capture_job` maps a serve :class:`~repro.serve.job.JobSpec` onto
the matching binding so admission can verify a plan before charging it.

:mod:`repro.runtime` imports this package, so the functions here that
record graphs import the runtime when called, keeping the module
dependency one-way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.analysis.verify import AnalysisReport, verify_program
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.execution.base import Executor
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.ooc.inner import run_ksplit_inner
from repro.ooc.outer import run_rowstream_outer
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr

if TYPE_CHECKING:
    from repro.runtime.task import TaskGraph

#: ``(law, m, n, b)`` transfer-volume hint of a factorization run.
VolumeHint = tuple[str, int, int, int]


def _gemm_inner(ex: Executor, a, b, c, options: QrOptions) -> None:
    """The k-split inner-product engine, ``C = AᵀB`` (Fig 3)."""
    budget = ex.allocator.free_bytes // ex.config.element_bytes
    plan = plan_ksplit_inner(
        a.rows, a.cols, b.cols, min(options.blocksize, a.rows), budget
    )
    run_ksplit_inner(
        ex, a.full(), b.full(), c.full(), plan, pipelined=options.pipelined
    )


def _gemm_outer(ex: Executor, a, b, c, options: QrOptions) -> None:
    """The row-streaming update engine, ``C -= A B`` (Fig 5)."""
    budget = ex.allocator.free_bytes // ex.config.element_bytes
    plan = plan_rowstream_outer(
        a.rows, a.cols, b.cols, min(options.blocksize, a.rows), budget
    )
    run_rowstream_outer(
        ex, c.full(), a.full(), b.full(), plan, pipelined=options.pipelined
    )


@dataclass(frozen=True)
class EngineBinding:
    """One shipped engine configuration, runnable on any executor.

    An engine's *dims* are ``(m, n)`` for the factorizations (A is
    m-by-n) and ``(m, n, k)`` for the GEMMs (C is m-by-n, k the reduction).
    """

    #: ``driver(ex, *operands, options)``.
    driver: Callable[..., Any]
    #: ``dims -> ((name, rows, cols), ...)``: the shape-only host operands,
    #: in driver order.
    operands: Callable[..., tuple[tuple[str, int, int], ...]]
    #: The registry's ``(m, n)`` -> the engine's dims (GEMM entries fold
    #: the reduction dimension into m; LU/Cholesky are n-by-n).
    dims: Callable[[int, int], tuple[int, ...]]
    #: The :data:`~repro.models.movement.VOLUME_LAWS` entry bounding the
    #: transfers (each factorization answers to its own law, e.g.
    #: ``"lu-blocking"``); None when no closed form applies (GEMM).
    volume: str | None = None
    #: Panel algorithm the binding runs under (a config override).
    panel_algorithm: str | None = None

    def configure(self, config: SystemConfig) -> SystemConfig:
        if self.panel_algorithm is None:
            return config
        return replace(config, panel_algorithm=self.panel_algorithm)

    def run(
        self,
        ex: Executor,
        dims: tuple[int, ...],
        b: int,
        options: QrOptions | None = None,
    ) -> VolumeHint | None:
        """Drive the engine on *ex* over shape-only operands; returns the
        run's volume hint."""
        eb = ex.config.element_bytes
        hosts = [
            HostMatrix.shape_only(rows, cols, eb, name=name)
            for name, rows, cols in self.operands(*dims)
        ]
        opts = QrOptions(blocksize=b) if options is None else replace(
            options, blocksize=b
        )
        self.driver(ex, *hosts, opts)
        if self.volume is None:
            return None
        m, n = dims
        return (self.volume, m, n, min(b, n))


def engine_label(name: str, dims: tuple[int, ...], b: int) -> str:
    """``"qr-recursive 96x64 b=16"``: a recorded program's label."""
    return f"{name} {'x'.join(map(str, dims))} b={b}"


def _qr_operands(m: int, n: int) -> tuple[tuple[str, int, int], ...]:
    return (("A", m, n), ("R", n, n))


def _square_operand(m: int, n: int) -> tuple[tuple[str, int, int], ...]:
    return (("A", m, n),)


def _identity(m: int, n: int) -> tuple[int, int]:
    return (m, n)


def _square(m: int, n: int) -> tuple[int, int]:
    return (n, n)


#: The shipped engines. The TSQR entry runs the recursive QR driver under
#: ``panel_algorithm="tsqr"`` (same op stream on device, but a distinct
#: shipped configuration that admission must be able to verify).
ENGINE_BINDINGS: dict[str, EngineBinding] = {
    "qr-blocking": EngineBinding(
        ooc_blocking_qr, _qr_operands, _identity, "qr-blocking"
    ),
    "qr-recursive": EngineBinding(
        ooc_recursive_qr, _qr_operands, _identity, "qr-recursive"
    ),
    "qr-tsqr": EngineBinding(
        ooc_recursive_qr, _qr_operands, _identity, "qr-recursive",
        panel_algorithm="tsqr",
    ),
    "lu-blocking": EngineBinding(
        ooc_blocking_lu, _square_operand, _square, "lu-blocking"
    ),
    "lu-recursive": EngineBinding(
        ooc_recursive_lu, _square_operand, _square, "lu-recursive"
    ),
    "chol-blocking": EngineBinding(
        ooc_blocking_cholesky, _square_operand, _square, "chol-blocking"
    ),
    "chol-recursive": EngineBinding(
        ooc_recursive_cholesky, _square_operand, _square, "chol-recursive"
    ),
    "gemm-inner": EngineBinding(
        _gemm_inner,
        lambda m, n, k: (("A", k, m), ("B", k, n), ("C", m, n)),
        lambda m, n: (n, n, m),
    ),
    "gemm-outer": EngineBinding(
        _gemm_outer,
        lambda m, n, k: (("A", m, k), ("B", k, n), ("C", m, n)),
        lambda m, n: (m, n, n),
    ),
}


def verify_engine(
    name: str,
    config: SystemConfig | None = None,
    *,
    m: int = 96,
    n: int = 64,
    b: int = 16,
    tolerance: float | None = None,
    precision=None,
) -> AnalysisReport:
    """Record one registry engine's task graph and verify it.

    ``tolerance`` / ``precision`` flow through to the precision pass (see
    :func:`repro.analysis.verify.verify_program`). QR programs assert the
    ``m*n``-word input floor on top of the §3.2 upper bounds (every input
    element must be loaded at least once)."""
    from repro.runtime import GRAPH_BUILDERS

    return verify_program(
        GRAPH_BUILDERS[name](config or PAPER_SYSTEM, m, n, b),
        input_floor_words=m * n if name.startswith("qr-") else None,
        tolerance=tolerance,
        precision=precision,
    )


def verify_all_engines(
    config: SystemConfig | None = None,
    *,
    m: int = 96,
    n: int = 64,
    b: int = 16,
) -> dict[str, AnalysisReport]:
    """Verify every registry engine at one (small) shape."""
    return {
        name: verify_engine(name, config, m=m, n=n, b=b)
        for name in ENGINE_BINDINGS
    }


def capture_job(spec, config: SystemConfig) -> "TaskGraph":
    """Record the task graph a serve job would run under *config*.

    *config* must be the job's capped config (allocator capacity = the
    admission grant) so the engines shrink their tilings exactly as the
    real run will.
    """
    from repro.runtime import build_engine_graph

    opts = spec.options
    shapes = spec.shapes()
    if spec.kind == "gemm":
        (r_a, c_a), (_r_b, c_b) = shapes
        if spec.trans_a:
            return build_engine_graph(
                "gemm-inner", config, (c_a, c_b, r_a), opts.blocksize,
                options=opts,
            )
        return build_engine_graph(
            "gemm-outer", config, (r_a, c_b, c_a), opts.blocksize,
            options=opts,
        )
    m, n = shapes[0]
    b = min(opts.blocksize, n)
    family = "chol" if spec.kind == "cholesky" else spec.kind
    dims = (m, n) if family == "qr" else (n, n)
    return build_engine_graph(
        f"{family}-{spec.method}", config, dims, b, options=opts
    )
