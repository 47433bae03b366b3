"""Executor interface: the device-programming surface of the library.

OOC algorithms (GEMM engines, QR drivers) are written once against this
interface — alloc/free device buffers, async copies, GEMMs, panel
factorizations, streams and events — and run on any executor:

* :class:`~repro.execution.numeric.NumericExecutor` really computes with
  numpy (+ TensorCore numerics emulation) — used for correctness at small
  scale;
* :class:`~repro.execution.sim.SimExecutor` feeds the same call stream into
  the discrete-event simulator — used for timing at paper scale (131072^2
  and beyond) without touching real data.

A hybrid run (numeric results plus a simulated timeline) is the numeric
run followed by a sim replay of the same driver (:mod:`repro.execution.run`).

The interface is deliberately CUDA-shaped (streams order work, events
synchronize across streams) so the pipeline code reads like the CUDA
implementation the paper describes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config import SystemConfig
from repro.errors import ShapeError
from repro.host.tiled import HostRegion
from repro.util.validation import check_shape_2d


@dataclass(eq=False)
class DeviceBuffer:
    """An executor-owned device allocation holding a rows-by-cols matrix."""

    name: str
    rows: int
    cols: int
    #: Executor-specific payloads (numpy array for numeric, Allocation for
    #: both, nothing extra for sim).
    payload: dict[str, Any] = field(default_factory=dict)
    freed: bool = False

    def __post_init__(self) -> None:
        self.rows, self.cols = check_shape_2d((self.rows, self.cols), self.name)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def view(
        self,
        row0: int = 0,
        row1: int | None = None,
        col0: int = 0,
        col1: int | None = None,
    ) -> "DeviceView":
        """A rectangular window of this buffer."""
        row1 = self.rows if row1 is None else row1
        col1 = self.cols if col1 is None else col1
        return DeviceView(self, row0, row1, col0, col1)

    def full(self) -> "DeviceView":
        """The whole buffer as a view."""
        return self.view()


@dataclass(frozen=True)
class DeviceView:
    """A window into a :class:`DeviceBuffer` (GEMM/copy operand)."""

    buffer: DeviceBuffer
    row0: int
    row1: int
    col0: int
    col1: int

    def __post_init__(self) -> None:
        if not (0 <= self.row0 < self.row1 <= self.buffer.rows):
            raise ShapeError(
                f"row range [{self.row0}, {self.row1}) outside device buffer "
                f"{self.buffer.name!r} with {self.buffer.rows} rows"
            )
        if not (0 <= self.col0 < self.col1 <= self.buffer.cols):
            raise ShapeError(
                f"col range [{self.col0}, {self.col1}) outside device buffer "
                f"{self.buffer.name!r} with {self.buffer.cols} cols"
            )

    @property
    def rows(self) -> int:
        return self.row1 - self.row0

    @property
    def cols(self) -> int:
        return self.col1 - self.col0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def label(self) -> str:
        """Compact address used in op names."""
        return (
            f"{self.buffer.name}[{self.row0}:{self.row1},{self.col0}:{self.col1}]"
        )


def as_view(operand: "DeviceBuffer | DeviceView") -> DeviceView:
    """Normalize a buffer-or-view operand to a view."""
    if isinstance(operand, DeviceBuffer):
        return operand.full()
    return operand


@dataclass
class RunStats:
    """Aggregate result of an executor run."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    d2d_bytes: int = 0
    gemm_flops: int = 0
    panel_flops: int = 0
    n_gemms: int = 0
    n_panels: int = 0
    #: Simulated makespan in seconds (0 for pure numeric runs).
    makespan: float = 0.0
    #: Measured wall-clock seconds from first issued op to the last
    #: synchronize (0 until an executor that measures time synchronizes).
    wall_s: float = 0.0

    @property
    def total_flops(self) -> int:
        return self.gemm_flops + self.panel_flops

    @property
    def moved_bytes(self) -> int:
        """Total PCIe traffic (both directions)."""
        return self.h2d_bytes + self.d2h_bytes


class Executor(abc.ABC):
    """Abstract device-programming interface (see module docstring)."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.stats = RunStats()
        # Every executor carries a health sentinel so drivers can notify
        # panel boundaries unconditionally; only numeric executors swap in
        # a live one (probes are meaningless without real numbers).
        from repro.health.sentinel import NULL_SENTINEL
        from repro.obs.span import NULL_RECORDER

        self.health = NULL_SENTINEL
        # Span recorder (repro.obs). Same idiom as the sentinel: disabled
        # by default, and every instrumentation site guards on
        # ``self.obs.enabled`` so obs=off leaves execution untouched.
        self.obs = NULL_RECORDER

    # -- memory -----------------------------------------------------------------

    @abc.abstractmethod
    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        """Allocate a rows-by-cols device buffer."""

    @abc.abstractmethod
    def free(self, buf: DeviceBuffer) -> None:
        """Release a device buffer."""

    # -- streams / events ----------------------------------------------------------

    @abc.abstractmethod
    def stream(self, name: str) -> Any:
        """Create an asynchronous work queue."""

    @abc.abstractmethod
    def record_event(self, stream: Any) -> Any:
        """Record an event capturing the stream's work so far."""

    @abc.abstractmethod
    def wait_event(self, stream: Any, event: Any) -> None:
        """Make future work on *stream* wait for *event*."""

    @abc.abstractmethod
    def synchronize(self) -> None:
        """Block until all submitted work completes."""

    def close(self) -> None:  # noqa: B027 - intentional no-op default
        """Release executor resources (worker threads, etc). Idempotent.

        The base implementation is a no-op; executors that own background
        resources override it. Callers that may run a concurrent executor
        should ``try/finally: ex.close()``.
        """

    # -- data movement ----------------------------------------------------------------

    @abc.abstractmethod
    def h2d(self, dst: DeviceBuffer | DeviceView, src: HostRegion, stream: Any) -> None:
        """Copy a host region into a device view (shapes must match)."""

    @abc.abstractmethod
    def d2h(self, dst: HostRegion, src: DeviceBuffer | DeviceView, stream: Any) -> None:
        """Copy a device view back into a host region."""

    @abc.abstractmethod
    def d2d(
        self, dst: DeviceBuffer | DeviceView, src: DeviceBuffer | DeviceView, stream: Any
    ) -> None:
        """On-device copy (the §4.1.2 staging-buffer fast path)."""

    # -- compute -------------------------------------------------------------------------

    @abc.abstractmethod
    def gemm(
        self,
        c: DeviceBuffer | DeviceView,
        a: DeviceBuffer | DeviceView,
        b: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        trans_a: bool = False,
        trans_b: bool = False,
        tag: str = "gemm",
    ) -> None:
        """``C = alpha * op(A) op(B) + beta * C`` on device views."""

    @abc.abstractmethod
    def panel_qr(
        self,
        panel: DeviceBuffer | DeviceView,
        r_out: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        tag: str = "panel",
    ) -> None:
        """In-core QR of a device-resident tall panel.

        On return the panel view holds Q (orthonormal columns) and *r_out*
        (b-by-b) holds R. This is the LATER-style in-core recursive CGS
        factorization both OOC variants share.
        """

    # -- extension ops for the §6 future-work factorizations (LU, Cholesky) --

    @abc.abstractmethod
    def trsm(
        self,
        a_tri: DeviceBuffer | DeviceView,
        b: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        lower: bool = True,
        unit_diag: bool = False,
        trans_a: bool = False,
        tag: str = "trsm",
    ) -> None:
        """In-core left triangular solve: ``B <- op(A)^{-1} B`` in place.

        *a_tri* is a k-by-k device triangle (lower when ``lower``), *b* a
        k-by-n device view overwritten with the solution.
        """

    @abc.abstractmethod
    def panel_lu(
        self,
        panel: DeviceBuffer | DeviceView,
        u_out: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        tag: str = "panel-lu",
    ) -> None:
        """In-core unpivoted LU of a device-resident tall panel.

        On return the panel's strict lower part holds the multipliers L
        (unit diagonal implicit), its upper b-by-b part holds U11, and
        *u_out* (b-by-b) holds a clean copy of U11. No pivoting — as the
        paper notes (§6), no TensorCore in-core partial-pivoted LU exists;
        callers must supply matrices that are stable without pivoting
        (e.g. diagonally dominant).
        """

    @abc.abstractmethod
    def panel_cholesky(
        self,
        panel: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        tag: str = "panel-chol",
    ) -> None:
        """In-core Cholesky panel: factor the top b-by-b block of an m-by-b
        SPD panel and triangular-solve the rows below in place
        (``panel[:b] <- chol(panel[:b])``, ``panel[b:] <- panel[b:] L^{-T}``).
        """

    # -- shared shape checking helpers ----------------------------------------------------

    @staticmethod
    def _gemm_dims(
        c: DeviceView, a: DeviceView, b: DeviceView, trans_a: bool, trans_b: bool
    ) -> tuple[int, int, int]:
        am, ak = (a.cols, a.rows) if trans_a else (a.rows, a.cols)
        bk, bn = (b.cols, b.rows) if trans_b else (b.rows, b.cols)
        if ak != bk:
            raise ShapeError(
                f"gemm inner dims differ: op(A) {am}x{ak}, op(B) {bk}x{bn}"
            )
        if c.shape != (am, bn):
            raise ShapeError(
                f"gemm output is {c.shape}, expected {(am, bn)}"
            )
        return am, bn, ak

    @staticmethod
    def _check_copy_shapes(dst_shape: tuple[int, int], src_shape: tuple[int, int]) -> None:
        if dst_shape != src_shape:
            raise ShapeError(
                f"copy shape mismatch: dst {dst_shape}, src {src_shape}"
            )
