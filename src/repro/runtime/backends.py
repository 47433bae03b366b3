"""Execution backends for scheduled task graphs.

A backend is anything with ``execute(task)`` (plus an optional
``finish(graph)`` hook): the scheduler decides *when* a task runs, the
backend decides *what* running means.

* :class:`NumericGraphBackend` — runs the recorded numeric closures
  against real payload arrays; the graph must have been built with
  ``materialize=True``. Allocator pseudo-tasks replay the build-time
  alloc/free sequence on the backend's own
  :class:`~repro.sim.memory.DeviceAllocator` (the ``alloc`` task creates
  the payload array and its rounded-copy cache lazily, ``free`` drops
  both), so execution-time peak memory is exactly the build-time — and
  hence the eager executor's — peak. A threaded run's builder keeps one
  backend and hands it each segment it runs.
* :class:`SimGraphBackend` — translates the whole graph onto the
  discrete-event :class:`~repro.sim.simulator.GpuSimulator`, one stream
  per engine class with the derived dataflow edges as cross-stream
  dependencies, and returns the simulated :class:`~repro.sim.trace.Trace`.
* :class:`RecordingBackend` — test double that just logs execution order.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.obs.clock import monotonic as _monotonic
from repro.obs.span import NULL_RECORDER
from repro.runtime.task import TaskGraph, TileTask
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import EngineKind, SimOp
from repro.sim.simulator import GpuSimulator
from repro.sim.trace import Trace
from repro.tc.gemm import RoundedCopies


class NumericGraphBackend:
    """Eager numeric execution of a materialized task graph.

    With a live span recorder (``obs=``) every executed task becomes a
    span on its engine lane carrying its task id and dependency edges,
    and alloc/free pseudo-tasks become instants on a ``mem`` lane — the
    measured counterpart of the sim backend's predicted timeline.
    """

    def __init__(self, config: SystemConfig, *, obs=None):
        self.config = config
        self.allocator = DeviceAllocator(config.usable_device_bytes)
        self._t0: float | None = None
        self._t0_lock = threading.Lock()
        self.wall_s = 0.0
        self.obs = obs if obs is not None else NULL_RECORDER
        # Task spans run on pool threads with no open span stack; parent
        # them under whatever span is open where the backend is built
        # (the api layer constructs it inside the run's root span).
        self._obs_parent = self.obs.current_id() if self.obs.enabled else None
        self._obs_t0 = 0.0

    def _now(self) -> float:
        if self._t0 is None:
            with self._t0_lock:
                if self._t0 is None:
                    if self.obs.enabled:
                        self._obs_t0 = self.obs.now()
                    self._t0 = _monotonic()
        return _monotonic() - self._t0

    def execute(self, task: TileTask) -> None:
        if task.mem == "alloc":
            buf = task.buffer
            assert buf is not None
            # Replay of the build-time allocation, now creating the data.
            buf.payload["exec-allocation"] = self.allocator.alloc(
                task.nbytes, name=buf.name
            )
            buf.payload["data"] = np.zeros(
                (buf.rows, buf.cols), dtype=np.float32
            )
            buf.payload["rounded"] = RoundedCopies()
            if self.obs.enabled:
                self.obs.event(
                    f"alloc {buf.name}", cat="mem", lane="mem",
                    parent_id=self._obs_parent,
                    attrs={"task": task.task_id, "nbytes": task.nbytes},
                )
            return
        if task.mem == "free":
            buf = task.buffer
            assert buf is not None
            self.allocator.free(buf.payload.pop("exec-allocation"))
            buf.payload.pop("data", None)
            buf.payload.pop("rounded", None)
            buf.freed = True
            if self.obs.enabled:
                self.obs.event(
                    f"free {buf.name}", cat="mem", lane="mem",
                    parent_id=self._obs_parent,
                    attrs={"task": task.task_id},
                )
            return
        if task.body is None:
            raise ExecutionError(
                "task graph was built without numeric payloads "
                "(materialize=False); it can only be simulated or analyzed"
            )
        op = task.op
        assert op is not None
        op.start = self._now()
        task.body()
        op.end = self._now()
        op.duration = op.end - op.start
        if self.obs.enabled:
            attrs = {
                "task": task.task_id,
                "deps": [dep.task_id for dep in task.deps],
            }
            if op.nbytes:
                attrs["nbytes"] = op.nbytes
            if op.flops:
                attrs["flops"] = op.flops
            self.obs.record(
                op.name,
                op.start + self._obs_t0,
                op.end + self._obs_t0,
                cat=op.kind.value,
                lane=op.engine.value,
                parent_id=self._obs_parent,
                attrs=attrs,
            )

    def finish(self, graph: TaskGraph) -> None:
        if self._t0 is not None:
            self.wall_s = _monotonic() - self._t0
            graph.stats.wall_s = self.wall_s


class SimGraphBackend:
    """Discrete-event simulation of a task graph.

    Unlike the eager backends this consumes the graph whole (``run``):
    the simulator owns scheduling inside its engine model, so the DAG
    scheduler's role collapses to handing over ops with their dataflow
    edges. Graph ops are *cloned* before enqueueing — the simulator
    mutates timestamps and stream FIFO edges, and the graph must stay
    pristine for analysis after the run.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.sim = GpuSimulator(config)

    def run(self, graph: TaskGraph) -> Trace:
        graph.validate()
        trace = simulate_tasks(self.sim, graph.tasks, "dag")
        graph.stats.makespan = trace.makespan
        return trace


def simulate_tasks(
    sim: GpuSimulator, tasks: Iterable[TileTask], prefix: str
) -> Trace:
    """Run *tasks* (in emission order) on the simulator *sim* and return
    its trace.

    Each engine class gets one stream, ``f"{prefix}-{engine}"``; dataflow
    edges become cross-stream dependencies, and edges to tasks outside
    *tasks* are dropped. Allocator tasks replay on the simulator's
    allocator. Ops are cloned first: the simulator stamps them and adds
    stream FIFO edges, and the graph must stay as recorded."""
    streams = {
        engine: sim.stream(f"{prefix}-{engine.value}") for engine in EngineKind
    }
    clones: dict[int, SimOp] = {}
    allocations: dict[int, object] = {}
    for task in tasks:
        if task.mem == "alloc":
            buf = task.buffer
            assert buf is not None
            allocations[id(buf)] = sim.allocator.alloc(task.nbytes, name=buf.name)
            continue
        if task.mem == "free":
            sim.allocator.free(allocations.pop(id(task.buffer)))
            continue
        src = task.op
        assert src is not None
        op = SimOp(
            name=src.name,
            engine=src.engine,
            kind=src.kind,
            duration=task.cost,
            nbytes=src.nbytes,
            flops=src.flops,
            tags=dict(src.tags),
        )
        sim.enqueue(op, streams[src.engine])
        for dep in task.deps:
            mapped = clones.get(dep.task_id)
            if mapped is not None:
                op.deps.add(mapped)
        clones[task.task_id] = op
    return sim.run()


class RecordingBackend:
    """Test backend: thread-safely records the order tasks executed in."""

    def __init__(self):
        self.order: list[int] = []
        self._lock = threading.Lock()

    def execute(self, task: TileTask) -> None:
        if task.body is not None:
            task.body()
        with self._lock:
            self.order.append(task.task_id)


__all__ = [
    "NumericGraphBackend",
    "RecordingBackend",
    "SimGraphBackend",
    "simulate_tasks",
]
