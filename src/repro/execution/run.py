"""One run path for the single-device entry points.

``ooc_qr``, ``ooc_lu``/``ooc_cholesky`` and ``ooc_gemm`` each normalize
their input, pick an engine driver and package its result. Everything in
between lives here:

* :func:`run_spec` — the option combinations that run, refused through
  one table (:data:`REFUSALS`) with one set of messages;
* :func:`execute` — executor choice (serial or threaded numeric, sim, or
  a :class:`~repro.runtime.GraphBuilder` for ``runtime="dag"``), the
  checkpoint session, the health sentinel, the root span, movement
  tracking, graph execution, the hybrid sim replay (:func:`sim_replay`)
  and teardown on every exit path;
* :class:`TimedResult` — ``makespan``/``achieved_tflops`` for the three
  result types.

A driver is any callable ``driver(ex, checkpoint)`` issuing its op stream
on ``ex``; the entry points bind their host matrices and options into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.ckpt import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointSession,
    CheckpointStats,
    run_fingerprint,
)
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ExecutionError, ValidationError
from repro.execution.base import Executor, RunStats
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor
from repro.health.options import HealthOptions
from repro.health.sentinel import HealthSentinel
from repro.host.tiled import HostMatrix
from repro.obs.span import NULL_RECORDER, SpanRecorder
from repro.sim.trace import Trace
from repro.util.validation import one_of

if TYPE_CHECKING:
    from repro.ooc.accounting import MovementReport
    from repro.runtime import TaskGraph

MODES = ("numeric", "sim", "hybrid")
CONCURRENCY = ("serial", "threads")
RUNTIMES = ("legacy", "dag")

#: The counters a hybrid run's numeric pass and sim replay must agree on.
_HYBRID_COUNTERS = (
    "h2d_bytes", "d2h_bytes", "d2d_bytes", "gemm_flops", "n_gemms", "n_panels",
)

_OFF = HealthOptions()


@dataclass(frozen=True)
class RunSpec:
    """Validated run options (build with :func:`run_spec`)."""

    mode: str
    concurrency: str = "serial"
    runtime: str = "legacy"
    checkpoint: CheckpointConfig | None = None
    health: HealthOptions = _OFF
    obs: SpanRecorder = NULL_RECORDER
    #: Whether the input carries no data (shape tuples).
    shape_only: bool = False


#: Every option combination the entry points refuse: (applies, message).
#: Messages are formatted with the requested mode.
REFUSALS: tuple[tuple[Callable[[RunSpec], bool], str], ...] = (
    (lambda s: s.shape_only and s.mode != "sim",
     "mode={mode!r} needs real data; shape inputs only support mode='sim'"),
    (lambda s: s.concurrency == "threads" and s.mode != "numeric",
     "concurrency='threads' requires mode='numeric'"),
    (lambda s: s.checkpoint is not None and s.mode != "numeric",
     "checkpoint= requires mode='numeric'"),
    (lambda s: s.health.enabled and s.mode != "numeric",
     "health monitoring requires mode='numeric' (probes need real numbers), "
     "got mode={mode!r}"),
    (lambda s: s.runtime == "dag" and s.mode == "hybrid",
     "runtime='dag' supports mode='numeric' or 'sim'; hybrid runs stay on "
     "the legacy runtime"),
    (lambda s: s.runtime == "dag" and s.checkpoint is not None,
     "runtime='dag' does not support checkpoint= yet; use the legacy runtime"),
    (lambda s: s.runtime == "dag" and s.health.enabled,
     "runtime='dag' does not support health monitoring yet; use the legacy "
     "runtime"),
)


def run_spec(
    mode: str | None,
    *,
    shape_only: bool,
    modes: tuple[str, ...] = MODES,
    concurrency: str = "serial",
    runtime: str = "legacy",
    checkpoint: CheckpointConfig | None = None,
    health: HealthOptions = _OFF,
    obs: SpanRecorder | None = None,
) -> RunSpec:
    """Validate the run options; ``mode=None`` picks ``"sim"`` for shape
    inputs and ``"numeric"`` otherwise. Raises :class:`ValidationError`
    for unknown values and for every combination in :data:`REFUSALS`."""
    if mode is None:
        mode = "sim" if shape_only else "numeric"
    spec = RunSpec(
        mode=one_of(mode, modes, "mode"),
        concurrency=one_of(concurrency, CONCURRENCY, "concurrency"),
        runtime=one_of(runtime, RUNTIMES, "runtime"),
        checkpoint=checkpoint,
        health=health,
        obs=obs if obs is not None else NULL_RECORDER,
        shape_only=shape_only,
    )
    for applies, message in REFUSALS:
        if applies(spec):
            raise ValidationError(message.format(mode=spec.mode))
    return spec


def system_config(
    config: SystemConfig | None, device_memory: int | None
) -> SystemConfig:
    """The run's config: *config* (default: the paper's testbed) with its
    device memory capped at *device_memory* bytes when given."""
    config = config or PAPER_SYSTEM
    if device_memory is None:
        return config
    return config.with_gpu(config.gpu.with_memory(device_memory, suffix="capped"))


def host_operand(
    x, element_bytes: int, name: str, *, copy: bool
) -> tuple[HostMatrix, bool]:
    """Normalize an entry point's operand; returns (matrix, shape_only).

    ndarrays become C-ordered fp32 host matrices, always copied when
    *copy* (factorizations work in place, and an ndarray input is
    factorized by value); ``(rows, cols)`` tuples become shape-only
    matrices for simulated runs."""
    if isinstance(x, HostMatrix):
        return x, not x.backed
    if isinstance(x, np.ndarray):
        data = (
            np.array(x, dtype=np.float32, order="C", copy=True)
            if copy
            else np.ascontiguousarray(x, dtype=np.float32)
        )
        return HostMatrix.from_array(data, name=name), False
    if isinstance(x, tuple) and len(x) == 2:
        return HostMatrix.shape_only(x[0], x[1], element_bytes, name=name), True
    raise ValidationError(
        f"{name} must be a numpy array, a HostMatrix, or a (rows, cols) shape "
        f"tuple; got {type(x).__name__}"
    )


class TimedResult:
    """``makespan``/``achieved_tflops`` of a result carrying ``trace`` and
    ``stats``."""

    trace: Trace | None
    stats: RunStats

    @property
    def makespan(self) -> float:
        """The simulated makespan when the run has a trace (``mode="sim"``
        or ``"hybrid"``); measured wall seconds (:attr:`RunStats.wall_s`)
        otherwise."""
        if self.trace is not None:
            return self.trace.makespan
        return self.stats.wall_s

    @property
    def achieved_tflops(self) -> float:
        """End-to-end TFLOPS over :attr:`makespan`."""
        span = self.makespan
        return self.stats.total_flops / span / 1e12 if span > 0 else 0.0


@dataclass
class Run:
    """What :func:`execute` hands back to an entry point."""

    info: Any                       # the driver's return value
    stats: RunStats
    movement: MovementReport
    trace: Trace | None
    ckpt: CheckpointStats | None


@dataclass(frozen=True)
class Checkpointed:
    """What a checkpointed run persists: role-keyed host matrices (role
    ``"a"`` first) and the fingerprint inputs besides the config."""

    kind: str
    method: str
    options: Any
    matrices: dict


def _executor(config: SystemConfig, spec: RunSpec, label: str) -> Executor:
    if spec.runtime == "dag":
        from repro.runtime import GraphBuilder

        return GraphBuilder(
            config, label=label, materialize=(spec.mode == "numeric")
        )
    if spec.mode == "sim":
        return SimExecutor(config)
    # numeric, and the numeric pass of a hybrid run
    ex = (
        ConcurrentNumericExecutor(config)
        if spec.concurrency == "threads"
        else NumericExecutor(config)
    )
    ex.obs = spec.obs
    if spec.health.enabled:
        ex.health = HealthSentinel(
            spec.health, base_format=config.precision.input_format, obs=spec.obs
        )
    return ex


def _run_graph(
    graph: TaskGraph,
    config: SystemConfig,
    *,
    mode: str,
    concurrency: str = "serial",
    obs: SpanRecorder = NULL_RECORDER,
) -> Trace | None:
    """Execute a recorded task graph: simulate it (``mode="sim"``, returns
    the simulated trace), or run it on the numeric backend serially or on
    work-stealing threads (returns None; ``obs`` records the timeline)."""
    from repro.runtime import DagScheduler, NumericGraphBackend, SimGraphBackend

    if mode == "sim":
        return SimGraphBackend(config).run(graph)
    backend = NumericGraphBackend(config, obs=obs)
    scheduler = DagScheduler(graph)
    if concurrency == "threads":
        scheduler.run_threaded(backend)
    else:
        scheduler.run_serial(backend)
    backend.allocator.check_balanced()
    return None


def _drain(ex: Executor, config: SystemConfig, spec: RunSpec, volume_hint):
    """Complete the issued work; the run's trace (None for numeric runs)."""
    if spec.runtime == "dag":
        ex.graph.volume_hint = volume_hint
        return _run_graph(
            ex.graph, config, mode=spec.mode, concurrency=spec.concurrency,
            obs=spec.obs,
        )
    if spec.mode == "sim":
        return ex.finish()
    ex.synchronize()
    return None


def sim_replay(driver, config: SystemConfig, stats: RunStats) -> Trace:
    """The timing half of a hybrid run: the same driver on the simulator.
    Its op stream must match the numeric pass counter for counter."""
    sim = SimExecutor(config)
    driver(sim, None)
    trace = sim.finish()
    sim.allocator.check_balanced()
    diverged = [
        name for name in _HYBRID_COUNTERS
        if getattr(stats, name) != getattr(sim.stats, name)
    ]
    if diverged:
        raise ExecutionError(
            f"hybrid sim replay diverged from the numeric run on: "
            f"{', '.join(diverged)}"
        )
    stats.makespan = sim.stats.makespan
    return trace


def execute(
    driver: Callable[[Executor, CheckpointSession | None], Any],
    config: SystemConfig,
    spec: RunSpec,
    *,
    name: str,
    attrs: dict | None = None,
    checkpointed: Checkpointed | None = None,
    volume_hint: tuple | None = None,
) -> Run:
    """Run *driver* once under *spec* and collect what it did.

    *name* labels the root span (and the task graph on the DAG runtime);
    *checkpointed* is required when ``spec.checkpoint`` is set;
    *volume_hint* tags a DAG run's graph for the movement-volume check.
    Worker threads are released and device memory is checked balanced on
    every exit path that gets that far; a live health sentinel's report is
    stored on the driver's ``info.health``.
    """
    from repro.ooc.accounting import track

    ex = _executor(config, spec, name)
    session = None
    with spec.obs.span(name, cat="run", lane="driver", attrs=attrs):
        try:
            if spec.checkpoint is not None:
                session = _session(spec.checkpoint, checkpointed, config, ex)
            with track(ex) as moved:
                info = driver(ex, session)
            trace = _drain(ex, config, spec, volume_hint)
        finally:
            ex.close()
        ex.allocator.check_balanced()
        if spec.mode == "hybrid":
            trace = sim_replay(driver, config, ex.stats)
    if ex.health.enabled:
        info.health = ex.health.finalize()
    return Run(
        info=info,
        stats=ex.stats,
        movement=moved.report,
        trace=trace,
        ckpt=session.stats if session is not None else None,
    )


def _session(
    checkpoint: CheckpointConfig,
    checkpointed: Checkpointed,
    config: SystemConfig,
    ex: Executor,
) -> CheckpointSession:
    a = checkpointed.matrices["a"]
    fingerprint = run_fingerprint(
        checkpointed.kind, checkpointed.method, a.rows, a.cols, config,
        checkpointed.options,
    )
    return CheckpointSession(
        CheckpointManager(checkpoint, fingerprint=fingerprint),
        ex,
        checkpointed.matrices,
    )
