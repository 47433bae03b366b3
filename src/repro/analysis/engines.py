"""Engine bindings: every shipped OOC engine, run symbolically.

:data:`ENGINE_BINDINGS` is the one table of engine configurations the
library ships (blocking/recursive QR — including the TSQR panel-algorithm
config — LU, Cholesky, and both OOC GEMM engines). Each
:class:`EngineBinding` holds the driver, the shape-only operands it
consumes and the volume law its transfers answer to, so one
binding runs on any executor. Two registries derive from the table:

* :data:`ENGINE_CAPTURES` — name -> ``capture(config, m, n, b)``, a
  :class:`~repro.analysis.capture.CapturedProgram` for the verifier (the
  registry the CLI ``analyze --what plans`` sweep and CI iterate);
* :data:`repro.runtime.GRAPH_BUILDERS` — the same runs recorded as task
  graphs by a :class:`~repro.runtime.builder.GraphBuilder`.

Because the engines plan from ``ex.allocator.free_bytes``, a capture
under a given config replays exactly the op stream a real run under that
config would issue.

:func:`capture_job` maps a serve :class:`~repro.serve.job.JobSpec` onto
the matching capture so admission can verify a plan before charging it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

from repro.analysis.capture import CapturedProgram, CaptureExecutor
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


def capture_engine(
    name: str,
    config: SystemConfig,
    dims: tuple[int, ...],
    b: int,
    *,
    options: QrOptions | None = None,
) -> CapturedProgram:
    """Symbolically capture one engine binding's run at *dims*."""
    binding = ENGINE_BINDINGS[name]
    ex = CaptureExecutor(
        binding.configure(config), label=engine_label(name, dims, b)
    )
    volume_hint = binding.run(ex, dims, b, options)
    program = ex.finish()
    program.volume_hint = volume_hint
    return program


def _registry_capture(
    name: str, config: SystemConfig, m: int, n: int, b: int
) -> CapturedProgram:
    return capture_engine(name, config, ENGINE_BINDINGS[name].dims(m, n), b)


#: Engine registry for the sweep: name -> capture(config, m, n, b).
ENGINE_CAPTURES: dict[
    str, Callable[[SystemConfig, int, int, int], CapturedProgram]
] = {name: partial(_registry_capture, name) for name in ENGINE_BINDINGS}


def verify_registry_entry(
    registry: dict[str, Callable[..., Any]],
    name: str,
    config: SystemConfig | None,
    *,
    m: int,
    n: int,
    b: int,
    tolerance: float | None,
    precision,
) -> AnalysisReport:
    """Record one registry engine (a capture or a task graph) and verify
    it. QR programs assert the ``m*n``-word input floor on top of the §3.2
    upper bounds (every input element must be loaded at least once)."""
    program = registry[name](config or PAPER_SYSTEM, m, n, b)
    return verify_program(
        program,
        input_floor_words=m * n if name.startswith("qr-") else None,
        tolerance=tolerance,
        precision=precision,
    )


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
    """Capture one registry engine and verify it. ``tolerance`` /
    ``precision`` flow through to the precision pass (see
    :func:`repro.analysis.verify.verify_program`)."""
    return verify_registry_entry(
        ENGINE_CAPTURES, name, config, m=m, n=n, b=b,
        tolerance=tolerance, precision=precision,
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
        for name in ENGINE_CAPTURES
    }


def capture_job(spec, config: SystemConfig) -> CapturedProgram:
    """Capture the program a serve job would run under *config*.

    *config* must be the job's capped config (allocator capacity = the
    admission grant) so the engines shrink their tilings exactly as the
    real run will.
    """
    opts = spec.options
    shapes = spec.shapes()
    if spec.kind == "gemm":
        (r_a, c_a), (_r_b, c_b) = shapes
        if spec.trans_a:
            return capture_engine(
                "gemm-inner", config, (c_a, c_b, r_a), opts.blocksize,
                options=opts,
            )
        return capture_engine(
            "gemm-outer", config, (r_a, c_b, c_a), opts.blocksize,
            options=opts,
        )
    m, n = shapes[0]
    b = min(opts.blocksize, n)
    family = "chol" if spec.kind == "cholesky" else spec.kind
    dims = (m, n) if family == "qr" else (n, n)
    return capture_engine(
        f"{family}-{spec.method}", config, dims, b, options=opts
    )
