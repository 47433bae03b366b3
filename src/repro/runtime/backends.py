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
* :class:`SimGraphBackend` — times the whole graph with the simulator's
  one scheduling rule (:func:`~repro.sim.simulator.schedule`), the
  derived dataflow and allocator edges as dependencies, and returns the
  simulated :class:`~repro.sim.trace.Trace`.
* :class:`RecordingBackend` — test double that just logs execution order.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Mapping

import numpy as np

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.obs.clock import monotonic as _monotonic
from repro.obs.span import NULL_RECORDER
from repro.runtime.task import TaskGraph, TileTask
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import EngineKind, SimOp
from repro.sim.simulator import schedule
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
    """Simulated time of a task graph.

    Unlike the eager backends this consumes the graph whole (``run``).
    Each task becomes a fresh op (the graph stays as recorded for
    analysis) whose dependencies are the task's edges, and
    :func:`~repro.sim.simulator.schedule` times them in emission order,
    each op holding its engine. Allocator tasks become markers that take
    no time and hold no resource but keep their ordering, as they do when
    the threaded executor runs them: a buffer's first touch waits for the
    frees ahead of its allocation.

    With *device_of* (task id to device, a :mod:`repro.dist` placement)
    each op holds ``(device, engine)`` instead, and the allocator chain
    binds only within a device: each device replays its own allocator,
    so one device's frees never gate another's allocations.
    """

    def __init__(self, config: SystemConfig):
        self.config = config

    def run(
        self, graph: TaskGraph, *, device_of: Mapping[int, int] | None = None
    ) -> Trace:
        graph.validate()
        dev = device_of if device_of is not None else defaultdict(int)
        ops: dict[int, SimOp] = {}
        for task in graph.tasks:
            src = task.op
            if src is None:
                op = SimOp(name=task.name, engine=None, kind=None, duration=0.0)
            else:
                op = SimOp(
                    name=src.name,
                    engine=src.engine,
                    kind=src.kind,
                    duration=task.cost,
                    nbytes=src.nbytes,
                    flops=src.flops,
                    tags={**src.tags, "device": dev[task.task_id]},
                )
            for dep in task.deps:
                # edges into earlier segments were satisfied before it
                mapped = ops.get(dep.task_id)
                if mapped is not None and not (
                    dep.mem and task.mem
                    and dev[dep.task_id] != dev[task.task_id]
                ):
                    op.deps.add(mapped)
            ops[task.task_id] = op
        schedule(list(ops.values()), {}, resource=_device_engine)
        trace = Trace()
        trace.extend(op for op in ops.values() if op.engine is not None)
        graph.stats.makespan = trace.makespan
        return trace


def _device_engine(op: SimOp) -> tuple[int, EngineKind]:
    return op.tags["device"], op.engine


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
]
