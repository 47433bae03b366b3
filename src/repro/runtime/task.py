"""Tile-task DAG core: tasks, dataflow wiring, and the graph container.

A :class:`TileTask` is one unit of work bound to a hardware engine class
(H2D DMA, compute, D2H DMA — :class:`~repro.sim.ops.EngineKind`) plus the
two allocator pseudo-tasks (``alloc``/``free``). Instead of issuing ops
imperatively against streams and events, an engine run is *recorded* as a
:class:`TaskGraph` (by :class:`~repro.runtime.builder.GraphBuilder`) whose
dependency edges are derived purely from declared data accesses:

* **device dataflow** — two tasks whose device accesses overlap with at
  least one writer (the conflict predicate the race detector applies)
  are ordered by a path of edges. Each buffer keeps a *live frontier*:
  its live reads and live writes. A new write links to every overlapping
  live access and then retires each one its rectangle fully covers; a new
  read links only to the overlapping live writes. A retired access stays
  ordered before every later conflicting access through the write that
  covered it, so every hazard pair is connected through the transitive
  closure while each task carries only a few edges;
* **host coherence** — the same rule over declared host-region reads and
  writes, with each matrix's frontier indexed by 256×256 tile so a
  lookup visits only the tiles it overlaps (spill/reload round trips
  through host staging are ordered without any host-side blocking);
* **allocator order** — ``alloc``/``free`` tasks act as whole-buffer
  writers (a buffer's first toucher waits for its allocation, its free
  waits for the live touches and retires the buffer's frontier) and are
  additionally chained in emission order, so every schedule replays the
  allocator sequence of the eager executor and the exact peak of
  §5.2's memory accounting is preserved.

The graph exposes the :class:`~repro.analysis.capture.CapturedProgram`
protocol (``config`` / ``ops`` / ``mem_events`` / ``stats`` / ``label`` /
``volume_hint``), so :func:`repro.analysis.verify.verify_program` checks a
task graph directly — races, lifetimes, exact peak memory, §3.2 transfer
volume — with no capture pass in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable

from repro.analysis.capture import MemEvent
from repro.config import SystemConfig
from repro.errors import DeadlockError
from repro.execution.base import DeviceBuffer, RunStats
from repro.host.tiled import HostRegion
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.scheduler import DeviceAccess, accesses_conflict

#: Edge of the square tiles that key a host matrix's access index.
_HOST_TILE = 256

#: The live frontier of one buffer or host tile: ``(reads, writes)``,
#: each a list of ``(task, DeviceAccess | HostRegion)`` entries.
_Frontier = tuple[list, list]


@dataclass(eq=False)
class TileTask:
    """One node of a task graph.

    Identity semantics (``eq=False``): dependency sets hold tasks
    directly. Real work carries its recorded :class:`~repro.sim.ops.SimOp`
    in ``op`` (mem tasks have ``op=None`` and ``mem`` set), an optional
    executable ``body`` (numeric closures; ``None`` for symbolic graphs),
    and a ``cost`` hint in model seconds that schedulers and the simulated
    backend may use.
    """

    task_id: int
    op: SimOp | None = None
    mem: str = ""                 # "" | "alloc" | "free"
    body: Callable[[], None] | None = None
    cost: float = 0.0
    buffer: DeviceBuffer | None = None
    nbytes: int = 0
    deps: list["TileTask"] = field(default_factory=list)
    accesses: tuple[DeviceAccess, ...] = ()
    host_reads: tuple[HostRegion, ...] = ()
    host_writes: tuple[HostRegion, ...] = ()

    @property
    def name(self) -> str:
        if self.op is not None:
            return self.op.name
        what = self.buffer.name if self.buffer is not None else "?"
        return f"{self.mem} {what}"

    @property
    def engine(self) -> EngineKind | None:
        """Engine class of the task (``None`` for allocator tasks)."""
        return self.op.engine if self.op is not None else None

    @property
    def kind(self) -> OpKind | None:
        return self.op.kind if self.op is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TileTask({self.task_id}, {self.name!r})"


class TaskGraph:
    """A recorded tile-task DAG, ready to schedule, simulate, or verify.

    Satisfies the captured-program protocol consumed by
    :func:`repro.analysis.verify.verify_program`: ``ops`` is the
    emission-ordered list of real op nodes (allocator tasks excluded)
    whose ``deps`` are the derived dataflow edges, and ``mem_events``
    is the allocator log positioned against that op list exactly like a
    capture's.
    """

    def __init__(self, config: SystemConfig, label: str = ""):
        self.config = config
        self.label = label
        self.tasks: list[TileTask] = []
        self.mem_events: list[MemEvent] = []
        self.stats = RunStats()
        #: §3.2 volume model hint ``(model, m, n, b)``; see CapturedProgram.
        self.volume_hint: tuple[str, int, int, int] | None = None
        #: Id of the first task: a segment (:meth:`since`) starts later,
        #: and its edges into earlier tasks count as satisfied.
        self.base = 0
        self._ops: list[SimOp] = []
        # dataflow wiring state: the live frontier of every buffer handle,
        # and of every tile of every host matrix
        self._device_log: dict[int, _Frontier] = {}
        self._host_log: dict[int, dict[tuple[int, int], _Frontier]] = {}
        self._last_mem: TileTask | None = None

    # -- protocol ---------------------------------------------------------------

    @property
    def ops(self) -> list[SimOp]:
        """Emission-ordered real ops (the verifier's op stream)."""
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def n_tasks(self) -> int:
        """All tasks including allocator pseudo-tasks."""
        return len(self.tasks)

    # -- construction ------------------------------------------------------------

    def _link(self, task: TileTask, deps: Iterable[TileTask]) -> None:
        seen = set(map(id, task.deps))
        for dep in deps:
            if dep is task or id(dep) in seen:
                continue
            seen.add(id(dep))
            task.deps.append(dep)
            if task.op is not None and dep.op is not None:
                task.op.deps.add(dep.op)

    def _device_deps(self, task: TileTask, access: DeviceAccess) -> list[TileTask]:
        frontier = self._device_log.setdefault(access[0], ([], []))
        return _advance(
            frontier, task, access, access[5], accesses_conflict, _access_covers
        )

    def _host_deps(
        self, task: TileTask, region: HostRegion, write: bool
    ) -> list[TileTask]:
        # an entry a write covers lies only in tiles the write spans, so
        # it is retired from every tile that holds it
        tiles = self._host_log.setdefault(id(region.matrix), {})
        deps: list[TileTask] = []
        for tile in product(
            _tile_span(region.row0, region.row1),
            _tile_span(region.col0, region.col1),
        ):
            frontier = tiles.setdefault(tile, ([], []))
            deps += _advance(
                frontier, task, region, write, HostRegion.overlaps, _region_covers
            )
        return deps

    def add_op(
        self,
        op: SimOp,
        *,
        body: Callable[[], None] | None = None,
        cost: float = 0.0,
        accesses: Iterable[DeviceAccess] = (),
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> TileTask:
        """Record one real op; dataflow dependencies are derived from its
        device accesses and host regions (see module docstring)."""
        task = TileTask(
            task_id=len(self.tasks),
            op=op,
            body=body,
            cost=cost,
            accesses=tuple(accesses),
            host_reads=host_reads,
            host_writes=host_writes,
        )
        deps: list[TileTask] = []
        for access in task.accesses:
            deps.extend(self._device_deps(task, access))
        for region in host_reads:
            deps.extend(self._host_deps(task, region, False))
        for region in host_writes:
            deps.extend(self._host_deps(task, region, True))
        self._link(task, deps)
        self.tasks.append(task)
        self._ops.append(op)
        return task

    def _add_mem(self, kind: str, buf: DeviceBuffer, nbytes: int) -> TileTask:
        handle = buf.payload["allocation"].handle
        task = TileTask(
            task_id=len(self.tasks), mem=kind, buffer=buf, nbytes=nbytes
        )
        # whole-buffer write: orders the task against every touch of the
        # buffer (first toucher waits for alloc; free waits for the live
        # touches, and nothing touches the buffer after it)
        access: DeviceAccess = (handle, 0, max(buf.rows, 1), 0, max(buf.cols, 1), True)
        deps = self._device_deps(task, access)
        if kind == "free":
            del self._device_log[handle]
        if self._last_mem is not None:
            deps.append(self._last_mem)  # emission-order allocator chain
        self._link(task, deps)
        self._last_mem = task
        self.tasks.append(task)
        self.mem_events.append(
            MemEvent(kind, handle, buf.name, nbytes, len(self._ops), True)
        )
        return task

    def add_alloc(self, buf: DeviceBuffer, nbytes: int) -> TileTask:
        """Record a device allocation as a schedulable pseudo-task."""
        return self._add_mem("alloc", buf, nbytes)

    def add_free(self, buf: DeviceBuffer) -> TileTask:
        """Record a deferred free: it runs once every task touching the
        buffer has completed (its dataflow deps guarantee exactly that)."""
        return self._add_mem("free", buf, buf.payload["allocation"].nbytes)

    def add_dep(self, task: TileTask, dep: TileTask) -> None:
        """Add an explicit edge ``dep -> task`` (tests, adapters). Unlike
        derived edges this may create a cycle — :meth:`validate` (run by
        every scheduler entry point) turns that into a
        :class:`~repro.errors.DeadlockError` instead of a hang."""
        self._link(task, [dep])

    def since(self, start: int) -> "TaskGraph":
        """The tasks recorded from id *start* on, as a graph to schedule
        once every earlier task has run: edges into earlier tasks count
        as satisfied. Shares this graph's tasks and stats."""
        segment = TaskGraph(self.config, label=self.label)
        segment.tasks = self.tasks[start:]
        segment.stats = self.stats
        segment.base = start
        return segment

    # -- structure checks ---------------------------------------------------------

    def validate(self) -> None:
        """Kahn's algorithm over the task DAG; cyclic graphs raise
        :class:`~repro.errors.DeadlockError` naming the stuck tasks."""
        base = self.base
        indegree: dict[int, int] = {}
        dependents: dict[int, list[TileTask]] = {}
        for t in self.tasks:
            live = t.deps if not base else [
                dep for dep in t.deps if dep.task_id >= base
            ]
            indegree[t.task_id] = len(live)
            for dep in live:
                dependents.setdefault(dep.task_id, []).append(t)
        ready = [t for t in self.tasks if not indegree[t.task_id]]
        done = 0
        while ready:
            task = ready.pop()
            done += 1
            for dependent in dependents.get(task.task_id, ()):
                indegree[dependent.task_id] -= 1
                if indegree[dependent.task_id] == 0:
                    ready.append(dependent)
        if done != len(self.tasks):
            stuck = [t for t in self.tasks if indegree[t.task_id] > 0]
            raise DeadlockError(stuck)

    def signature(self) -> list[tuple[str, str, str, tuple[int, ...]]]:
        """Canonical ``(engine, kind, name, dep-indices)`` form of the real
        op stream — comparable against
        :func:`repro.sim.scheduler.happens_before_signature` output."""
        from repro.sim.scheduler import happens_before_signature

        return happens_before_signature(self._ops)


def _advance(
    frontier: _Frontier,
    task: TileTask,
    item: DeviceAccess | HostRegion,
    write: bool,
    overlaps: Callable[..., bool],
    covers: Callable[..., bool],
) -> list[TileTask]:
    """Link *task*'s access *item* to the live frontier and record it.

    A read depends on the overlapping live writes. A write depends on
    every overlapping live access and retires the ones it covers: a later
    access that conflicts with a retired entry overlaps the write too, so
    it is ordered after the entry through the write."""
    reads, writes = frontier
    if not write:
        reads.append((task, item))
        return [t for t, other in writes if overlaps(item, other)]
    deps: list[TileTask] = []
    for live in (writes, reads):
        kept = []
        for entry in live:
            if overlaps(item, entry[1]):
                deps.append(entry[0])
                if covers(item, entry[1]):
                    continue
            kept.append(entry)
        live[:] = kept
    writes.append((task, item))
    return deps


def _tile_span(lo: int, hi: int) -> range:
    """Indices of the host-index tiles that ``[lo, hi)`` spans."""
    return range(lo // _HOST_TILE, (hi - 1) // _HOST_TILE + 1)


def _access_covers(outer: DeviceAccess, inner: DeviceAccess) -> bool:
    """Whether *outer*'s rectangle contains *inner*'s (same buffer)."""
    return (
        outer[1] <= inner[1] and inner[2] <= outer[2]
        and outer[3] <= inner[3] and inner[4] <= outer[4]
    )


def _region_covers(outer: HostRegion, inner: HostRegion) -> bool:
    """Whether *outer* contains *inner* (same host matrix)."""
    return (
        outer.row0 <= inner.row0 and inner.row1 <= outer.row1
        and outer.col0 <= inner.col0 and inner.col1 <= outer.col1
    )


def node_signature(ops: Iterable[SimOp]) -> list[tuple[str, str, str]]:
    """Dependency-free node identity of an op stream: ``(engine, kind,
    name)`` per op in issue order. Stream programs (the simulator, a
    capture) wire stream-FIFO/event edges and task graphs wire dataflow
    edges, so full happens-before signatures differ by design;
    node-for-node equality plus :func:`edges_consistent` is the
    comparison between them."""
    return [(op.engine.value, op.kind.value, op.name) for op in ops]


def edges_consistent(graph_ops: list[SimOp], stream_ops: list[SimOp]) -> bool:
    """Whether the DAG's dependency structure is compatible with the
    stream program's.

    Both op lists must be node-for-node identical (same engines/kinds/
    names in the same issue order — check :func:`node_signature` first).
    Two directions are proved:

    1. *No contradiction*: every DAG edge points backward in the shared
       issue order, so the DAG never inverts an ordering the serial
       schedule established. (Host-coherence edges may *add* ordering
       the stream program leaves to the host thread's blocking — that is
       a refinement, not a conflict.)
    2. *No dropped dataflow*: every direct stream dependency edge between
       two ops with conflicting device accesses is covered by the DAG's
       happens-before closure.
    """
    if len(graph_ops) != len(stream_ops):
        return False
    graph_index = {id(op): i for i, op in enumerate(graph_ops)}
    n = len(graph_ops)
    reach = [0] * n  # bitmask of graph ops that happen-before op i (incl. i)
    for i, op in enumerate(graph_ops):
        mask = 1 << i
        for dep in op.deps:
            j = graph_index.get(id(dep))
            if j is None:
                continue
            if j >= i:  # forward edge: contradicts the issue order
                return False
            mask |= reach[j]
        reach[i] = mask
    stream_index = {id(op): i for i, op in enumerate(stream_ops)}
    for i, op in enumerate(stream_ops):
        for dep in op.deps:
            j = stream_index.get(id(dep))
            if j is None or not _device_conflict(op, dep):
                continue
            if not reach[i] & (1 << j):
                return False
    return True


def _device_conflict(a: SimOp, b: SimOp) -> bool:
    """Whether two ops touch overlapping device data with a writer."""
    for access_a in a.tags.get("accesses", ()):
        for access_b in b.tags.get("accesses", ()):
            if accesses_conflict(access_a, access_b):
                return True
    return False


__all__ = [
    "TaskGraph",
    "TileTask",
    "edges_consistent",
    "node_signature",
]
