"""The discrete-event GPU simulator and the one rule for simulated time.

:func:`schedule` times every simulated op, whatever program form it came
from: a stream program (:class:`GpuSimulator`), a task graph
(:class:`~repro.runtime.backends.SimGraphBackend`) or a multi-device TSQR
graph (:func:`repro.dist.sim.simulate_dist_qr`). It walks the ops in
issue order and starts each at the latest of: the time its resource is
free (its engine — H2D DMA, D2H DMA, compute — or ``(device, engine)`` in
:mod:`repro.dist`), the end of its dependencies, and the last host
barrier. So copies on one DMA engine serialize in issue order even across
streams and GEMMs serialize on the compute engine, as CUDA hardware
queues do, while move-ins, GEMMs and move-outs on different streams
overlap: the pipelines of the paper's Figures 7-15.

One pass suffices because dependencies point to ops issued earlier: an
event is recorded before a stream can wait on it, and a task graph links
each task to tasks recorded before it. An untimed dependency can only
come from a hand-wired cycle; it raises
:class:`~repro.errors.DeadlockError` naming every stuck op (real CUDA
would simply hang).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Hashable, Sequence

from repro.config import SystemConfig
from repro.errors import DeadlockError
from repro.hw.transfer import Direction
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import EngineKind, SimOp
from repro.sim.stream import Event, Stream
from repro.sim.trace import Trace


def schedule(
    ops: Sequence[SimOp],
    free: dict[Hashable, float],
    *,
    resource: Callable[[SimOp], Hashable] = attrgetter("engine"),
    barrier: float = 0.0,
) -> None:
    """Assign each op of *ops*, in issue order, its simulated start and
    end (see the module docstring for the rule).

    *free* maps each resource (``resource(op)``) to the time it is next
    free and is advanced in place, so a caller may schedule a program in
    pieces. An op without an engine is an allocator marker: it takes no
    time and holds no resource, but ops that depend on it wait for its
    own dependencies. Raises :class:`~repro.errors.DeadlockError` naming
    every op from the first stuck one on that waits on an untimed op;
    the ops before it stay timed.
    """
    for i, op in enumerate(ops):
        ready = barrier
        for dep in op.deps:
            if dep.end is None:
                raise DeadlockError(
                    [o for o in ops[i:] if any(d.end is None for d in o.deps)]
                )
            ready = max(ready, dep.end)
        if op.engine is None:
            op.start = op.end = ready
            continue
        key = resource(op)
        op.start = max(ready, free.get(key, 0.0))
        op.end = free[key] = op.start + op.duration


class GpuSimulator:
    """Simulator of one GPU with three concurrent engines.

    Records a stream program: ops in issue order, each op's ``deps`` the
    stream-FIFO and event edges (:meth:`repro.sim.stream.Stream.attach`
    wires them). Per-engine FIFO order is the scheduling rule's job
    (:func:`schedule`).
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.allocator = DeviceAllocator(config.usable_device_bytes)
        #: The recorded stream program, in issue order.
        self.ops: list[SimOp] = []
        self._engine_free: dict[EngineKind, float] = {}
        self._barrier = 0.0
        self._trace = Trace()

    # -- stream / event API ---------------------------------------------------

    def stream(self, name: str) -> Stream:
        """Create a new stream."""
        return Stream(name=name)

    def record_event(self, stream: Stream) -> Event:
        """Record an event on *stream* (captures prior work on the stream)."""
        return stream.record()

    def wait_event(self, stream: Stream, event: Event) -> None:
        """Future work on *stream* waits for *event*."""
        stream.wait(event)

    # -- enqueue ---------------------------------------------------------------

    def enqueue(self, op: SimOp, stream: Stream) -> SimOp:
        """Submit *op* on *stream*; it will execute when the simulator runs."""
        stream.attach(op)
        self.ops.append(op)
        return op

    # -- execution --------------------------------------------------------------

    def run(self) -> Trace:
        """Time every op enqueued since the last run; returns the trace.

        Incremental: may be called repeatedly as more work is enqueued;
        engine clocks and the trace persist across calls (like repeatedly
        synchronizing a device). The trace lists the timed ops in issue
        order.
        """
        pending = self.ops[len(self._trace):]
        try:
            schedule(pending, self._engine_free, barrier=self._barrier)
        finally:
            self._trace.extend(op for op in pending if op.scheduled)
        return self._trace

    def barrier(self) -> float:
        """Model a host-side device synchronization.

        Times all pending work; work enqueued *after* the barrier cannot
        start before the resulting makespan (the host was blocked until
        now). Returns the barrier time.
        """
        self.run()
        self._barrier = self._trace.makespan
        return self._barrier

    @property
    def trace(self) -> Trace:
        """The trace accumulated so far."""
        return self._trace

    @property
    def now(self) -> float:
        """Current simulated time (end of the last retired op)."""
        return self._trace.makespan


#: TRSM runs below GEMM rate on TensorCore (serial dependency chain in the
#: triangular solve); cuBLAS achieves roughly half.
TRSM_EFFICIENCY = 0.5

_COPY_DIRECTION = {
    "h2d": Direction.H2D,
    "d2h": Direction.D2H,
    "d2d": Direction.D2D,
}


def op_duration(
    config: SystemConfig,
    op: str,
    dims: tuple[int, ...] | None,
    nbytes: int,
    flops: int,
) -> float:
    """Model seconds of one device op under *config*'s §2 hardware models.

    The one duration model: the simulator times its ops with it and the
    DAG runtime uses it as the task cost hint. *op* is the executor
    vocabulary word and *dims* its shape (see
    :meth:`repro.execution.base.Executor._issue`).
    """
    if dims is None:
        return config.transfer.time(nbytes, _COPY_DIRECTION[op])
    if op == "gemm":
        m, n, k = dims
        return config.gemm.time(m, n, k, config.precision)
    if op == "trsm":
        k, n = dims
        rate = config.gemm.rate(k, n, k, config.precision)
        return config.gpu.kernel_launch_s + flops / (rate * TRSM_EFFICIENCY)
    m, b = dims
    duration = config.panel.time(m, b)
    if op == "panel_lu":
        # m b^2 flops, half of QR's 2 m b^2, at the calibrated panel rate
        return duration / 2.0
    if op == "panel_cholesky":
        # b^3/3 + m b^2 flops at the calibrated panel rate
        return duration * (flops / max(config.panel.flops(m, b), 1))
    return duration
