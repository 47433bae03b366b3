"""Simulated executor: timing without data.

Feeds the executor call stream into the discrete-event simulator. Every op
becomes a :class:`~repro.sim.ops.SimOp` timed by the one duration model
(:func:`~repro.sim.simulator.op_duration`); ``synchronize``/``finish`` time
the program so far. Paper-scale problems (131072 x 131072 = 68 GB matrices)
cost only the op graph, not the data.
"""

from __future__ import annotations

from typing import Any

from repro.config import SystemConfig
from repro.execution.base import Executor, make_op
from repro.sim.simulator import GpuSimulator, op_duration
from repro.sim.stream import Event, Stream
from repro.sim.trace import Trace

#: Shape tags sim ops carry next to the op description.
_DIM_TAGS = {
    "gemm": ("m", "n", "k"),
    "panel_qr": ("m", "b"),
    "panel_lu": ("m", "b"),
    "panel_cholesky": ("m", "b"),
}


class SimExecutor(Executor):
    """Executor backed by :class:`~repro.sim.simulator.GpuSimulator`."""

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.sim = GpuSimulator(config)
        self.allocator = self.sim.allocator

    # -- streams ------------------------------------------------------------------

    def stream(self, name: str) -> Stream:
        return self.sim.stream(name)

    def record_event(self, stream: Stream) -> Event:
        return self.sim.record_event(stream)

    def wait_event(self, stream: Stream, event: Event) -> None:
        self.sim.wait_event(stream, event)

    def synchronize(self) -> None:
        # A host-side sync is a barrier: later work cannot start before it.
        self.sim.barrier()
        self.stats.makespan = self.sim.now

    # -- the op funnel --------------------------------------------------------------

    def _issue(self, stream: Stream, *, body: Any, **spec: Any) -> None:
        op, dims = spec["op"], spec["dims"]
        node = make_op(
            **spec,
            duration=op_duration(
                self.config, op, dims, spec["nbytes"], spec["flops"]
            ),
        )
        node.tags.update(zip(_DIM_TAGS.get(op, ()), dims or ()))
        self.sim.enqueue(node, stream)

    # -- results ------------------------------------------------------------------------

    def finish(self) -> Trace:
        """Time all work and return the completed trace."""
        self.synchronize()
        return self.sim.trace
