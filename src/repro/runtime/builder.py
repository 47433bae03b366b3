"""GraphBuilder: drives the existing engines to *emit* task graphs.

The drivers in :mod:`repro.qr`, :mod:`repro.ooc` and :mod:`repro.factor`
are written against the abstract :class:`~repro.execution.base.Executor`
surface. :class:`GraphBuilder` subclasses the eager
:class:`~repro.execution.numeric.NumericExecutor` and overrides its single
op funnel (``_issue``) so that every op is recorded as a
:class:`~repro.runtime.task.TileTask` — carrying its engine class, tile
read/write sets, host regions, the simulator's duration for the op as a
cost hint, and the unexecuted numeric closure — instead of running
immediately. A scheduler then executes the graph later, in any
dependency-respecting order.

Memory accounting is split in two so both planning and execution match
the eager executor exactly:

* **build time** — ``alloc``/``free`` hit ``self.allocator`` eagerly, so
  drivers that plan from ``allocator.free_bytes`` (k-split depth, spill
  decisions, §4.1.2 staging buffers) make identical choices, and
  over-capacity plans raise ``OutOfDeviceMemoryError`` at the same point
  they would on the eager executor;
* **run time** — the recorded ``alloc``/``free`` pseudo-tasks replay the
  same sequence against the *backend's* allocator, with payload numpy
  arrays created lazily by the ``alloc`` task and dropped by ``free``.

A materialized builder is also the threaded numeric executor:
``synchronize()`` runs every task recorded since the previous call on the
work-stealing :class:`~repro.runtime.scheduler.DagScheduler`, against one
:class:`~repro.runtime.backends.NumericGraphBackend` that lives as long
as the builder, then recording goes on. A driver's ``synchronize()``
therefore means what it means on every executor (all issued work has
retired and host data is current), so checkpoint snapshots and the
health sentinel's host-side probes need no graph-specific path.

With ``materialize=False`` the builder skips body closures entirely, so
symbolic graphs can be built from ``HostMatrix.shape_only`` inputs for
simulation and static analysis without allocating host data;
``synchronize()`` then only records.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.execution.base import DeviceBuffer, DeviceView, Executor, make_op
from repro.execution.numeric import NumericExecutor
from repro.obs.clock import monotonic as _monotonic
from repro.runtime.backends import NumericGraphBackend
from repro.runtime.scheduler import DagScheduler
from repro.runtime.task import TaskGraph, TileTask
from repro.sim.ops import EngineKind
from repro.sim.simulator import op_duration

#: Tag key marking a buffer freed at *build* time. The real ``freed`` flag
#: must stay False until the graph executes (bodies read payload data), so
#: the builder's use-after-free / double-free checks key off this instead.
_GRAPH_FREED = "graph-freed"


class GraphBuilder(NumericExecutor):
    """Executor backend that records a :class:`TaskGraph` instead of
    running ops.

    Parameters
    ----------
    materialize:
        When True (numeric execution), each task keeps the closure the
        eager executor would have run, operating on the same payload
        arrays — a serial replay is *instruction-identical* to the eager
        serial run, which is what makes the differential suite's bitwise
        assertions possible — and :meth:`synchronize` runs them. When
        False (simulation / analysis), bodies are dropped and host arrays
        are never touched.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        label: str = "",
        materialize: bool = True,
    ):
        super().__init__(config)
        self.graph = TaskGraph(config, label=label)
        self.graph.stats = self.stats  # one shared accounting object
        self._materialize = materialize
        #: Tasks already run by :meth:`synchronize`, and the backend that
        #: ran them (made at the first run, inside the caller's span).
        self._ran = 0
        self._backend: NumericGraphBackend | None = None
        self._failure: BaseException | None = None
        self._last_compute: TileTask | None = None

    # -- op funnel --------------------------------------------------------------

    def _issue(self, stream, *, body, **spec) -> None:
        """Record the op as a task; its cost hint is the simulator's
        duration for the same op (:func:`~repro.sim.simulator.op_duration`)."""
        if self._t0 is None and self._materialize:
            self._t0 = _monotonic()
        task = self.graph.add_op(
            make_op(**spec),
            body=body if self._materialize else None,
            cost=op_duration(
                self.config, spec["op"], spec["dims"], spec["nbytes"],
                spec["flops"],
            ),
            accesses=spec["accesses"],
            host_reads=spec["host_reads"],
            host_writes=spec["host_writes"],
        )
        if self.health.escalating and task.engine is EngineKind.COMPUTE:
            # an escalation switches the GEMM format of every compute body
            # after it in issue order: keep those bodies in that order
            if self._last_compute is not None:
                self.graph.add_dep(task, self._last_compute)
            self._last_compute = task

    def synchronize(self) -> None:
        """Run every task recorded since the last call on the threaded
        scheduler (materialized builders only), then keep recording.

        The first task failure re-raises here, and again on every later
        call: the tasks after it never run."""
        if self._failure is not None:
            raise self._failure
        if self._materialize and self._ran < len(self.graph.tasks):
            if self._backend is None:
                self._backend = NumericGraphBackend(self.config, obs=self.obs)
            segment = self.graph.since(self._ran)
            self._ran = len(self.graph.tasks)
            try:
                DagScheduler(segment).run_threaded(self._backend)
            except BaseException as exc:
                self._failure = exc
                raise
        super().synchronize()

    # -- memory -----------------------------------------------------------------

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        # Eager accounting: planning parity with the eager executor. The
        # payload data is created by the alloc *task* when the graph runs.
        buf = Executor.alloc(self, rows, cols, name)
        self.graph.add_alloc(buf, buf.payload["allocation"].nbytes)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.freed or buf.payload.get(_GRAPH_FREED):
            raise ExecutionError(f"double free of device buffer {buf.name!r}")
        buf.payload[_GRAPH_FREED] = True
        self.allocator.free(buf.payload["allocation"])
        self.graph.add_free(buf)

    def _check_live(self, *views: DeviceView) -> None:
        # Build-time liveness: payload data does not exist yet (the alloc
        # *task* creates it), so check allocation records and the
        # graph-freed flag rather than the execution-time payload.
        for view in views:
            buf = view.buffer
            if buf.freed or buf.payload.get(_GRAPH_FREED):
                raise ExecutionError(
                    f"use of freed device buffer {buf.name!r}"
                )
            if "allocation" not in buf.payload:
                raise ExecutionError(
                    f"device buffer {buf.name!r} was not allocated by this "
                    "builder"
                )


__all__ = ["GraphBuilder"]
