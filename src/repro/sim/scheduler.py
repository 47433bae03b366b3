"""Shared stream/event scheduling core.

Every recorder of a stream program — the discrete-event simulator (which
assigns virtual time to every op) and the capture executor the static
verifier reads — must agree *exactly* on what the program means. Both
realize the same happens-before relation:

* ops enqueued on one stream execute in FIFO order;
* an event recorded on a stream completes when everything enqueued on that
  stream before the record has completed;
* ``wait_event`` makes all later ops on the waiting stream depend on the
  event;
* ops bound to one hardware engine retire in enqueue order.

:class:`StreamProgram` owns the first three rules — it records a program as
an issue-ordered list of :class:`~repro.sim.ops.SimOp` nodes whose ``deps``
sets are exactly the stream-FIFO and event edges. The per-engine FIFO rule
is realized by the consumer: :func:`repro.sim.simulator.schedule` times
the ops in issue order, each holding its engine.

Because both build their graphs here (and name ops with the same
helpers), a captured program can be compared node-for-node against a
simulated trace via :func:`happens_before_signature`, and against a task
graph (:mod:`repro.runtime`, whose edges come from data accesses instead)
via :func:`repro.runtime.edges_consistent`.
"""

from __future__ import annotations

from typing import Any

from repro.sim.ops import SimOp
from repro.sim.stream import Stream
from repro.util.regions import rects_overlap

#: Device access record every op carries in ``tags["accesses"]``:
#: ``(buffer_handle, row0, row1, col0, col1, is_write)``.
DeviceAccess = tuple[int, int, int, int, int, bool]


def accesses_conflict(a: DeviceAccess, b: DeviceAccess) -> bool:
    """Whether two accesses touch overlapping elements of one buffer with
    at least one writer — the hazard the race detector reports and the
    DAG runtime orders."""
    if a[0] != b[0] or not (a[5] or b[5]):
        return False
    return rects_overlap((a[1], a[2]), (a[3], a[4]), (b[1], b[2]), (b[3], b[4]))


class StreamProgram:
    """Issue-ordered record of a stream program and its dependency DAG.

    Ops are appended in program (issue) order; :meth:`append` wires each
    op's stream-FIFO predecessor and any pending event waits into
    ``op.deps``. The class imposes no timing — consumers (the simulator)
    decide when ops run, constrained by the graph.
    """

    def __init__(self) -> None:
        self.ops: list[SimOp] = []
        self.streams: list[Stream] = []

    def stream(self, name: str) -> Stream:
        """Create a new stream belonging to this program."""
        stream = Stream(name=name)
        self.streams.append(stream)
        return stream

    def append(self, op: SimOp, stream: Stream) -> SimOp:
        """Attach *op* to *stream* (wiring FIFO/event deps) and record it."""
        stream.attach(op)
        self.ops.append(op)
        return op

    def __len__(self) -> int:
        return len(self.ops)


def device_access(view: Any, write: bool) -> DeviceAccess:
    """Race-detector access record for a device view.

    The buffer is identified by its allocation handle (unique per executor
    run), the region by absolute element coordinates.
    """
    handle = view.buffer.payload["allocation"].handle
    return (handle, view.row0, view.row1, view.col0, view.col1, write)


def copy_name(prefix: str, src: Any, dst: Any) -> str:
    """Canonical op name for a copy: ``"h2d A[0:8,0:8]->buf[0:8,0:8]"``.

    *src*/*dst* are device views or host regions — anything with a
    ``label()`` method. Both executors use this, so op names are
    comparable across backends.
    """
    return f"{prefix} {src.label()}->{dst.label()}"


def gemm_name(tag: str, m: int, n: int, k: int) -> str:
    """Canonical op name for a GEMM (shape-suffixed tag)."""
    return f"{tag} {m}x{n}x{k}"


def panel_name(tag: str, m: int, b: int) -> str:
    """Canonical op name for a panel factorization / TRSM-style op."""
    return f"{tag} {m}x{b}"


def happens_before_signature(
    ops: list[SimOp],
) -> list[tuple[str, str, str, tuple[int, ...]]]:
    """Canonical, executor-independent form of a recorded program.

    One tuple per op, in issue order: ``(engine, kind, name, deps)`` where
    *deps* are issue indices of the op's stream-FIFO/event predecessors.
    Two executors replayed the same program with the same happens-before
    semantics iff their signatures are equal — the differential harness's
    cross-backend assertion.
    """
    index = {op: i for i, op in enumerate(ops)}
    return [
        (
            op.engine.value,
            op.kind.value,
            op.name,
            tuple(sorted(index[d] for d in op.deps if d in index)),
        )
        for op in ops
    ]
