"""Public entry point: out-of-core QR factorization.

:func:`ooc_qr` is what a downstream user calls::

    import numpy as np
    from repro.qr import ooc_qr

    a = np.random.default_rng(0).standard_normal((4096, 1024), ).astype(np.float32)
    result = ooc_qr(a, method="recursive", device_memory=64 << 20)
    q, r = result.q, result.r               # a was factorized out of core

At paper scale, pass a *shape* instead of data and get a simulated
performance run::

    result = ooc_qr((131072, 131072), method="recursive", mode="sim")
    print(result.makespan, result.achieved_tflops)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckpt import CheckpointConfig, CheckpointStats
from repro.config import SystemConfig
from repro.execution.base import RunStats
from repro.execution.run import (
    Checkpointed,
    TimedResult,
    execute,
    host_operand,
    run_spec,
    system_config,
)
from repro.health.report import HealthReport
from repro.host.tiled import HostMatrix
from repro.obs.derive import phase_times
from repro.obs.span import SpanRecorder
from repro.ooc.accounting import MovementReport
from repro.qr.blocking import QrRunInfo, ooc_blocking_qr
from repro.qr.options import QrOptions, with_blocksize
from repro.qr.recursive import ooc_recursive_qr
from repro.sim.trace import Trace
from repro.util.validation import one_of

METHODS = ("recursive", "blocking")


@dataclass
class QrResult(TimedResult):
    """Everything one OOC QR run produced."""

    method: str
    mode: str
    q: np.ndarray | None
    r: np.ndarray | None
    info: QrRunInfo
    stats: RunStats
    movement: MovementReport
    trace: Trace | None
    config: SystemConfig
    options: QrOptions
    ckpt: CheckpointStats | None = None

    def phase_times(self) -> dict[str, float]:
        """Compute time per phase (panel / inner / outer), simulated runs."""
        return phase_times(self.trace.spans()) if self.trace is not None else {}

    @property
    def health(self) -> HealthReport | None:
        """The run's numerical-health report (None when the sentinel is
        off); see :class:`~repro.health.report.HealthReport`."""
        return self.info.health


def ooc_qr(
    a,
    *,
    method: str = "recursive",
    mode: str | None = None,
    config: SystemConfig | None = None,
    options: QrOptions | None = None,
    blocksize: int | None = None,
    device_memory: int | None = None,
    concurrency: str = "serial",
    checkpoint: CheckpointConfig | None = None,
    runtime: str = "legacy",
    obs: SpanRecorder | None = None,
) -> QrResult:
    """Out-of-core QR factorization ``A = QR`` (classic Gram-Schmidt).

    Parameters
    ----------
    a
        A tall fp32 matrix (factorized *by value*: the input is copied),
        a :class:`HostMatrix` (factorized in place), or an ``(m, n)``
        shape tuple for a data-free simulated run.
    method
        ``"recursive"`` (the paper's contribution) or ``"blocking"``
        (the conventional baseline).
    mode
        ``"numeric"`` (real computation), ``"sim"`` (event-simulated
        timing, no data), or ``"hybrid"`` (the numeric run, then a sim
        replay of the same driver for its timeline). Defaults to ``"numeric"``
        for backed inputs and ``"sim"`` for shapes.
    config
        System configuration; defaults to the paper's V100-32GB testbed.
    options
        :class:`QrOptions`; ``blocksize`` is a convenience override.
    device_memory
        Convenience cap on simulated device memory in bytes (the §5.2
        16 GB experiment, or small values to force OOC behaviour on small
        numeric problems).
    concurrency
        ``"serial"`` (default) or ``"threads"`` — numeric mode only. With
        ``"threads"`` the op stream runs on per-engine worker threads
        (H2D/compute/D2H overlap, see docs/concurrency.md) and the result
        is bitwise identical to serial; pass ``obs=`` to record the
        measured timeline.
    checkpoint
        Optional :class:`~repro.ckpt.CheckpointConfig` making the run
        resumable (numeric mode only): progress is persisted at panel /
        recursion-node boundaries per the config's policy, and a rerun
        pointed at the same directory restores state, skips completed
        steps and produces a bitwise-identical result. See
        docs/checkpoint.md.
    runtime
        ``"legacy"`` (default) runs the engine imperatively on the
        selected executor. ``"dag"`` records the run as a tile-task
        graph (:mod:`repro.runtime`) and executes it with the dynamic
        dataflow scheduler — numeric mode (serial, or work-stealing
        workers with ``concurrency="threads"``) or sim mode; results are
        bitwise identical to legacy. Not yet combinable with
        ``mode="hybrid"``, ``checkpoint=`` or health monitoring (see
        :data:`repro.execution.run.REFUSALS` and docs/runtime.md).
    obs
        Optional :class:`~repro.obs.SpanRecorder`. When given, the run
        records a root span plus per-op spans (engine lanes, tile rects,
        dep edges on the DAG runtime) into it; export the result with
        :mod:`repro.obs.export` or ``repro trace``. With the default
        (no recorder) execution is bitwise identical to an
        un-instrumented run. See docs/observability.md.

    Returns
    -------
    QrResult
        Q/R arrays (numeric modes), the simulated trace (sim modes),
        movement accounting and run counters.
    """
    method = one_of(method, METHODS, "method")
    config = system_config(config, device_memory)
    host_a, shape_only = host_operand(a, config.element_bytes, "A", copy=True)
    options = with_blocksize(options, blocksize)
    spec = run_spec(
        mode, shape_only=shape_only, concurrency=concurrency, runtime=runtime,
        checkpoint=checkpoint, health=options.health, obs=obs,
    )

    m, n = host_a.rows, host_a.cols
    # the host must hold A (overwritten by Q) and the n-by-n R
    config.check_host_capacity(m * n + n * n, what="OOC QR (A + R)")
    if shape_only:
        host_r = HostMatrix.shape_only(n, n, config.element_bytes, name="R")
    else:
        host_r = HostMatrix.zeros(n, n, dtype=np.float32, name="R")

    driver = ooc_recursive_qr if method == "recursive" else ooc_blocking_qr
    run = execute(
        lambda ex, ckpt: driver(ex, host_a, host_r, options, checkpoint=ckpt),
        config,
        spec,
        name=f"ooc_qr[{method}]",
        attrs={
            "method": method, "mode": spec.mode, "runtime": spec.runtime,
            "m": m, "n": n, "blocksize": options.blocksize,
            "concurrency": spec.concurrency,
        },
        checkpointed=Checkpointed(
            "qr", method, options, {"a": host_a, "r": host_r}
        ),
        volume_hint=(method, m, n, min(options.blocksize, n)),
    )
    return QrResult(
        method=method,
        mode=spec.mode,
        q=host_a.data if host_a.backed else None,
        r=host_r.data if host_r.backed else None,
        info=run.info,
        stats=run.stats,
        movement=run.movement,
        trace=run.trace,
        config=config,
        options=options,
        ckpt=run.ckpt,
    )
