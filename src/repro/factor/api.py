"""Public entry points for the §6 extension factorizations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckpt import CheckpointConfig, CheckpointStats
from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.execution.base import RunStats
from repro.execution.run import (
    Checkpointed,
    TimedResult,
    execute,
    host_operand,
    run_spec,
    system_config,
)
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.common import FactorRunInfo
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.obs.span import SpanRecorder
from repro.ooc.accounting import MovementReport
from repro.qr.options import QrOptions, with_blocksize
from repro.sim.trace import Trace
from repro.util.validation import one_of


@dataclass
class FactorResult(TimedResult):
    """Result of an OOC LU or Cholesky run."""

    kind: str                       # "lu" | "cholesky"
    method: str
    mode: str
    packed: np.ndarray | None       # LU: packed L\\U; Cholesky: L in lower
    info: FactorRunInfo
    stats: RunStats
    movement: MovementReport
    trace: Trace | None
    config: SystemConfig
    options: QrOptions
    ckpt: CheckpointStats | None = None

    @property
    def health(self):
        """The run's numerical-health report (None when the sentinel is
        off); see :class:`~repro.health.report.HealthReport`."""
        return self.info.health

    def lower(self) -> np.ndarray:
        """L with unit diagonal (LU) or the Cholesky factor."""
        if self.packed is None:
            raise ValidationError("simulated runs carry no factors")
        if self.kind == "lu":
            from repro.factor.incore import lu_unpack

            return lu_unpack(self.packed)[0]
        return np.tril(self.packed)

    def upper(self) -> np.ndarray:
        """U (LU only)."""
        if self.kind != "lu":
            raise ValidationError("upper() is only defined for LU results")
        if self.packed is None:
            raise ValidationError("simulated runs carry no factors")
        from repro.factor.incore import lu_unpack

        return lu_unpack(self.packed)[1]


def _run(
    kind: str,
    driver,
    a,
    *,
    method: str,
    mode: str | None,
    config: SystemConfig | None,
    options: QrOptions | None,
    blocksize: int | None,
    device_memory: int | None,
    concurrency: str,
    checkpoint: CheckpointConfig | None = None,
    obs: SpanRecorder | None = None,
) -> FactorResult:
    config = system_config(config, device_memory)
    host_a, shape_only = host_operand(a, config.element_bytes, "A", copy=True)
    options = with_blocksize(options, blocksize)
    spec = run_spec(
        mode, shape_only=shape_only, modes=("numeric", "sim"),
        concurrency=concurrency, checkpoint=checkpoint, health=options.health,
        obs=obs,
    )
    config.check_host_capacity(
        host_a.rows * host_a.cols, what=f"OOC {kind} (A, factored in place)"
    )
    run = execute(
        lambda ex, ckpt: driver(ex, host_a, options, checkpoint=ckpt),
        config,
        spec,
        name=f"ooc_{kind}[{method}]",
        checkpointed=Checkpointed(kind, method, options, {"a": host_a}),
    )
    return FactorResult(
        kind=kind,
        method=method,
        mode=spec.mode,
        packed=host_a.data if host_a.backed else None,
        info=run.info,
        stats=run.stats,
        movement=run.movement,
        trace=run.trace,
        config=config,
        options=options,
        ckpt=run.ckpt,
    )


def ooc_lu(
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
    obs: SpanRecorder | None = None,
) -> FactorResult:
    """Out-of-core unpivoted LU: ``A = L U`` packed in place.

    Same calling convention as :func:`repro.qr.api.ooc_qr` — including
    ``concurrency="threads"`` for the threaded task-DAG scheduler in
    numeric mode (bitwise identical to serial, see docs/concurrency.md) and
    ``checkpoint=`` for resumable runs (see docs/checkpoint.md) and
    ``obs=`` for the measured timeline; the input must be stable without
    pivoting (e.g. diagonally dominant).
    """
    method = one_of(method, ("recursive", "blocking"), "method")
    return _run(
        "lu",
        ooc_recursive_lu if method == "recursive" else ooc_blocking_lu,
        a,
        method=method,
        mode=mode,
        config=config,
        options=options,
        blocksize=blocksize,
        device_memory=device_memory,
        concurrency=concurrency,
        checkpoint=checkpoint,
        obs=obs,
    )


def ooc_cholesky(
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
    obs: SpanRecorder | None = None,
) -> FactorResult:
    """Out-of-core Cholesky: lower factor L of a symmetric positive
    definite matrix, written into the lower triangle in place.

    ``concurrency="threads"`` runs the task DAG on worker threads in
    numeric mode, overlapping H2D/compute/D2H; results stay bitwise
    identical to serial.
    ``checkpoint=`` makes the run resumable (see docs/checkpoint.md);
    ``obs=`` records the measured timeline."""
    method = one_of(method, ("recursive", "blocking"), "method")
    return _run(
        "cholesky",
        ooc_recursive_cholesky if method == "recursive" else ooc_blocking_cholesky,
        a,
        method=method,
        mode=mode,
        config=config,
        options=options,
        blocksize=blocksize,
        device_memory=device_memory,
        concurrency=concurrency,
        checkpoint=checkpoint,
        obs=obs,
    )
