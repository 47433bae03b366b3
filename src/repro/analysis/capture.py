"""Symbolic plan capture: run an OOC engine without data or clock.

:class:`CaptureExecutor` runs the shared
:class:`~repro.execution.base.Executor` op vocabulary but *executes
nothing*: every alloc/free/copy/GEMM/panel/stream/event call is recorded
into a
:class:`CapturedProgram` — an issue-ordered op list with the same
stream-FIFO/event dependency edges the simulator and the concurrent
numeric executor honour (built on :class:`~repro.sim.scheduler.StreamProgram`),
plus a memory-event log interleaved with the op stream.

Two properties make the capture suitable for *static* verification:

* **No clock.** Ops carry zero duration; the only order is issue order and
  the dependency DAG. Whatever the verifier proves holds for every legal
  schedule, not just the one the simulator happened to pick.
* **No faults.** The :class:`CaptureAllocator` never raises — allocations
  past capacity, double frees and frees of unknown buffers are recorded as
  events instead of aborting the capture, and an op on a freed buffer is
  recorded like any other (the verifier's use-after-free pass finds it).
  A buggy plan therefore yields a complete program for
  :mod:`repro.analysis.verify` to analyse, with the offending operation
  named, rather than a half-recorded one and a traceback.

The engines plan their tilings from ``ex.allocator.free_bytes``, so a
capture under a given device capacity replays exactly the op stream the
real run would issue under that capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import SystemConfig
from repro.execution.base import (
    DeviceBuffer,
    DeviceView,
    Executor,
    RunStats,
    make_op,
)
from repro.sim.memory import Allocation, _handle_counter
from repro.sim.ops import SimOp
from repro.sim.scheduler import StreamProgram
from repro.sim.stream import Event, Stream
from repro.util.validation import nonnegative_int


@dataclass(frozen=True)
class MemEvent:
    """One allocator event, positioned in the op stream.

    ``position`` is the number of ops issued before the event, so an op at
    issue index ``i`` runs after every event with ``position <= i``. The
    lifetime pass in :mod:`repro.analysis.verify` reconstructs leaks,
    double frees, use-after-free windows and the exact peak from this log.
    """

    kind: str        # "alloc" | "free"
    handle: int
    name: str
    nbytes: int
    position: int
    #: Whether the allocator considered the event legal at capture time
    #: (False: an over-capacity alloc or a free of a non-live handle).
    ok: bool = True


class CaptureAllocator:
    """Byte-counting allocator that records instead of raising.

    Mirrors the :class:`~repro.sim.memory.DeviceAllocator` surface the
    engines consume (``free_bytes`` drives their tiling plans; ``peak``
    and ``check_balanced`` exist for API compatibility) but never throws:
    misuse becomes :class:`MemEvent` records for the verifier.
    """

    def __init__(self, capacity: int, events: list[MemEvent], owner: "CaptureExecutor"):
        self.capacity = nonnegative_int(capacity, "capacity")
        self.used = 0
        self.peak = 0
        self.live: dict[int, Allocation] = {}
        self.events = events
        self._owner = owner
        self.n_allocs = 0
        self.n_frees = 0

    @property
    def free_bytes(self) -> int:
        """Bytes the engines may plan against (never negative)."""
        return max(self.capacity - self.used, 0)

    def alloc(self, nbytes: int, name: str = "") -> Allocation:
        """Record an allocation; over-capacity requests are captured as
        ``ok=False`` events instead of raising."""
        nbytes = nonnegative_int(nbytes, "nbytes")
        allocation = Allocation(next(_handle_counter), name, nbytes)
        ok = nbytes <= self.free_bytes
        self.live[allocation.handle] = allocation
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        self.n_allocs += 1
        self.events.append(
            MemEvent("alloc", allocation.handle, name, nbytes, self._owner.position, ok)
        )
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Record a free; unknown/already-freed handles are captured as
        ``ok=False`` events instead of raising."""
        live = self.live.pop(allocation.handle, None)
        if live is not None:
            self.used -= live.nbytes
            self.n_frees += 1
        self.events.append(
            MemEvent(
                "free",
                allocation.handle,
                allocation.name,
                allocation.nbytes,
                self._owner.position,
                live is not None,
            )
        )

    def check_balanced(self) -> None:
        """No-op: leaks are verifier findings, not capture-time faults."""


@dataclass
class CapturedProgram:
    """A symbolically recorded OOC run, ready for static analysis."""

    config: SystemConfig
    ops: list[SimOp] = field(default_factory=list)
    mem_events: list[MemEvent] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)
    label: str = ""
    #: Optional transfer-volume law this program should respect:
    #: ``(law, m, n, b)`` with law a ``repro.models.movement.VOLUME_LAWS``
    #: key such as ``"qr-recursive"`` (set by the engine capture drivers;
    #: None for GEMM-style programs with no closed-form bound).
    volume_hint: tuple[str, int, int, int] | None = None

    def __len__(self) -> int:
        return len(self.ops)


class CaptureExecutor(Executor):
    """Executor that records a :class:`CapturedProgram` (see module doc)."""

    def __init__(self, config: SystemConfig, label: str = ""):
        super().__init__(config)
        self._stream_program = StreamProgram()
        self.program = CapturedProgram(config=config, label=label)
        self.program.ops = self._stream_program.ops
        self.allocator = CaptureAllocator(
            config.usable_device_bytes, self.program.mem_events, self
        )
        self.program.stats = self.stats

    @property
    def position(self) -> int:
        """Number of ops issued so far (memory events anchor to this)."""
        return len(self._stream_program.ops)

    # -- memory -----------------------------------------------------------------

    def free(self, buf: DeviceBuffer) -> None:
        # Double frees are recorded (the allocator logs the second free of
        # the handle as ok=False), never raised: the verifier names them.
        self.allocator.free(buf.payload["allocation"])
        buf.freed = True

    def _check_live(self, *views: DeviceView) -> None:
        """No-op: use-after-free is a verifier finding, not a capture fault."""

    # -- streams ------------------------------------------------------------------

    def stream(self, name: str) -> Stream:
        return self._stream_program.stream(name)

    def record_event(self, stream: Stream) -> Event:
        return stream.record()

    def wait_event(self, stream: Stream, event: Event) -> None:
        stream.wait(event)

    def synchronize(self) -> None:
        """No-op: a capture has no clock and nothing in flight."""

    # -- the op funnel --------------------------------------------------------------

    def _issue(self, stream: Stream, *, body: Any, **spec: Any) -> None:
        """Record the op with zero duration: a capture has no clock."""
        self._stream_program.append(make_op(**spec), stream)

    # -- results ------------------------------------------------------------------------

    def finish(self) -> CapturedProgram:
        """The recorded program (the capture never has work in flight)."""
        return self.program
