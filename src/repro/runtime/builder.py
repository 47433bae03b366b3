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
the legacy executors exactly:

* **build time** — ``alloc``/``free`` hit ``self.allocator`` eagerly, so
  drivers that plan from ``allocator.free_bytes`` (k-split depth, spill
  decisions, §4.1.2 staging buffers) make identical choices, and
  over-capacity plans raise ``OutOfDeviceMemoryError`` at the same point
  they would on the legacy path;
* **run time** — the recorded ``alloc``/``free`` pseudo-tasks replay the
  same sequence against the *backend's* allocator, with payload numpy
  arrays created lazily by the ``alloc`` task and dropped by ``free``.

With ``materialize=False`` the builder skips body closures entirely, so
symbolic graphs can be built from ``HostMatrix.shape_only`` inputs for
simulation and static analysis without allocating host data.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.execution.base import DeviceBuffer, DeviceView, Executor, make_op
from repro.execution.numeric import NumericExecutor
from repro.runtime.task import TaskGraph
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
        legacy executor would have run, operating on the same payload
        arrays — a serial replay is *instruction-identical* to the legacy
        serial run, which is what makes the differential suite's bitwise
        assertions possible. When False (simulation / analysis), bodies
        are dropped and host arrays are never touched.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        label: str = "",
        materialize: bool = True,
    ):
        super().__init__(config, record=False)
        self.graph = TaskGraph(config, label=label)
        self.graph.stats = self.stats  # one shared accounting object
        self._materialize = materialize

    # -- op funnel --------------------------------------------------------------

    def _issue(self, stream, *, body, **spec) -> None:
        """Record the op as a task; its cost hint is the simulator's
        duration for the same op (:func:`~repro.sim.simulator.op_duration`)."""
        self.graph.add_op(
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

    # -- memory -----------------------------------------------------------------

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        # Eager accounting: planning parity with the legacy executors. The
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
