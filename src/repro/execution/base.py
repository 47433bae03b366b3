"""Executor interface: the device-programming surface of the library.

OOC algorithms (GEMM engines, QR drivers) are written once against this
interface — alloc/free device buffers, async copies, GEMMs, panel
factorizations, streams and events — and run on any executor:

* :class:`~repro.execution.numeric.NumericExecutor` really computes with
  numpy (+ TensorCore numerics emulation) — used for correctness at small
  scale;
* :class:`~repro.execution.sim.SimExecutor` feeds the same call stream into
  the discrete-event simulator — used for timing at paper scale (131072^2
  and beyond) without touching real data;
* :class:`~repro.analysis.capture.CaptureExecutor` records it for the
  static verifier, and :class:`~repro.runtime.builder.GraphBuilder`
  records it as a task graph for the DAG runtime.

The eight device ops (``h2d``, ``d2h``, ``d2d``, ``gemm``, ``panel_qr``,
``trsm``, ``panel_lu``, ``panel_cholesky``) are defined once, on
:class:`Executor`: shape checks, liveness, :class:`RunStats` accounting,
canonical names and the op's description (flops, bytes, device accesses,
host regions, dims) are the same on every executor. Subclasses provide an
``allocator`` and the streams, and implement the single funnel
``_issue``; the numeric executor also supplies the kernel bodies.

A hybrid run (numeric results plus a simulated timeline) is the numeric
run followed by a sim replay of the same driver (:mod:`repro.execution.run`).

The interface is deliberately CUDA-shaped (streams order work, events
synchronize across streams) so the pipeline code reads like the CUDA
implementation the paper describes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import SystemConfig
from repro.errors import ExecutionError, ShapeError
from repro.host.tiled import HostRegion
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.scheduler import (
    DeviceAccess,
    copy_name,
    device_access,
    gemm_name,
    panel_name,
)
from repro.util.units import gemm_flops
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

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        """Allocate a rows-by-cols device buffer."""
        buf = DeviceBuffer(name=name, rows=rows, cols=cols)
        nbytes = rows * cols * self.config.element_bytes
        buf.payload["allocation"] = self.allocator.alloc(nbytes, name=name)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a device buffer."""
        if buf.freed:
            raise ExecutionError(f"double free of device buffer {buf.name!r}")
        self.allocator.free(buf.payload["allocation"])
        buf.freed = True

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
        resources override it. Callers that may run a threaded executor
        should ``try/finally: ex.close()``.
        """

    # -- the op funnel ---------------------------------------------------------------

    @abc.abstractmethod
    def _issue(
        self,
        stream: Any,
        *,
        op: str,
        name: str,
        engine: EngineKind,
        kind: OpKind,
        body: Callable[[], None] | None,
        nbytes: int,
        flops: int,
        tag: str | None,
        accesses: list[DeviceAccess],
        host_reads: tuple[HostRegion, ...],
        host_writes: tuple[HostRegion, ...],
        dims: tuple[int, ...] | None,
    ) -> None:
        """Carry out one fully described op (see the op methods below).

        *op* is the vocabulary word (``"h2d"`` ... ``"panel_cholesky"``),
        *dims* its shape (``(m, n, k)`` for a GEMM, ``(k, n)`` for a TRSM,
        ``(m, b)`` for a panel, ``None`` for a copy) and *body* the
        kernel closure from the ``_<op>_body`` hooks (``None`` on
        executors that compute nothing).
        """

    def _check_live(self, *views: DeviceView) -> None:
        """Liveness hook: refuse an op on a freed operand."""
        for view in views:
            if view.buffer.freed:
                raise ExecutionError(
                    f"use of freed device buffer {view.buffer.name!r}"
                )

    def _no_body(self, *args: Any) -> None:
        """Kernel-body hook default: symbolic executors compute nothing."""
        return None

    _h2d_body = _d2h_body = _d2d_body = _gemm_body = _no_body
    _panel_qr_body = _trsm_body = _panel_lu_body = _panel_cholesky_body = _no_body

    # -- the op vocabulary: each device op, defined once -----------------------------
    #
    # Every op normalizes its operands, checks shapes and liveness, accounts
    # itself in ``stats``, takes its canonical name and hands the complete
    # description to ``_issue``. Executors differ only in that funnel (and
    # in the kernel bodies the numeric executor supplies).

    def h2d(self, dst: DeviceBuffer | DeviceView, src: HostRegion, stream: Any) -> None:
        """Copy a host region into a device view (shapes must match)."""
        dst = as_view(dst)
        self._check_copy_shapes(dst.shape, src.shape)
        self._check_live(dst)
        self.stats.h2d_bytes += src.nbytes
        name = copy_name("h2d", src, dst)
        self._issue(
            stream, op="h2d", name=name, engine=EngineKind.H2D,
            kind=OpKind.COPY_H2D, body=self._h2d_body(dst, src, name),
            nbytes=src.nbytes, flops=0, tag=None,
            accesses=[device_access(dst, True)],
            host_reads=(src,), host_writes=(), dims=None,
        )

    def d2h(self, dst: HostRegion, src: DeviceBuffer | DeviceView, stream: Any) -> None:
        """Copy a device view back into a host region."""
        src = as_view(src)
        self._check_copy_shapes(dst.shape, src.shape)
        self._check_live(src)
        self.stats.d2h_bytes += dst.nbytes
        name = copy_name("d2h", src, dst)
        self._issue(
            stream, op="d2h", name=name, engine=EngineKind.D2H,
            kind=OpKind.COPY_D2H, body=self._d2h_body(dst, src, name),
            nbytes=dst.nbytes, flops=0, tag=None,
            accesses=[device_access(src, False)],
            host_reads=(), host_writes=(dst,), dims=None,
        )

    def d2d(
        self, dst: DeviceBuffer | DeviceView, src: DeviceBuffer | DeviceView, stream: Any
    ) -> None:
        """On-device copy (the §4.1.2 staging-buffer fast path)."""
        dst, src = as_view(dst), as_view(src)
        self._check_copy_shapes(dst.shape, src.shape)
        self._check_live(dst, src)
        nbytes = dst.rows * dst.cols * self.config.element_bytes
        self.stats.d2d_bytes += nbytes
        self._issue(
            stream, op="d2d", name=copy_name("d2d", src, dst),
            engine=EngineKind.COMPUTE, kind=OpKind.COPY_D2D,
            body=self._d2d_body(dst, src), nbytes=nbytes, flops=0, tag=None,
            accesses=[device_access(src, False), device_access(dst, True)],
            host_reads=(), host_writes=(), dims=None,
        )

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
        c, a, b = as_view(c), as_view(a), as_view(b)
        dims = self._gemm_dims(c, a, b, trans_a, trans_b)
        self._check_live(c, a, b)
        flops = gemm_flops(*dims)
        self.stats.gemm_flops += flops
        self.stats.n_gemms += 1
        name = gemm_name(tag, *dims)
        self._issue(
            stream, op="gemm", name=name, engine=EngineKind.COMPUTE,
            kind=OpKind.GEMM,
            body=self._gemm_body(c, a, b, alpha, beta, trans_a, trans_b, name),
            nbytes=0, flops=flops, tag=tag,
            accesses=[
                device_access(a, False),
                device_access(b, False),
                device_access(c, True),
            ],
            host_reads=(), host_writes=(), dims=dims,
        )

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
        panel, r_out = as_view(panel), as_view(r_out)
        self._check_square_out("panel_qr", "R", panel, r_out)
        self._check_live(panel, r_out)
        flops = self.config.panel.flops(panel.rows, panel.cols)
        self.stats.panel_flops += flops
        self.stats.n_panels += 1
        self._issue(
            stream, op="panel_qr", name=panel_name(tag, panel.rows, panel.cols),
            engine=EngineKind.COMPUTE, kind=OpKind.PANEL,
            body=self._panel_qr_body(panel, r_out), nbytes=0, flops=flops,
            tag=tag,
            accesses=[device_access(panel, True), device_access(r_out, True)],
            host_reads=(), host_writes=(), dims=panel.shape,
        )

    # -- extension ops for the §6 future-work factorizations (LU, Cholesky) --

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
        a_tri, b = as_view(a_tri), as_view(b)
        if a_tri.rows != a_tri.cols:
            raise ExecutionError(
                f"trsm: triangle must be square, got {a_tri.shape}"
            )
        if b.rows != a_tri.rows:
            raise ExecutionError(
                f"trsm: B has {b.rows} rows, triangle is {a_tri.rows}"
            )
        self._check_live(a_tri, b)
        k, n = a_tri.rows, b.cols
        flops = k * k * n
        self.stats.gemm_flops += flops
        self.stats.n_gemms += 1
        name = panel_name(tag, k, n)
        self._issue(
            stream, op="trsm", name=name, engine=EngineKind.COMPUTE,
            kind=OpKind.GEMM,
            body=self._trsm_body(a_tri, b, lower, unit_diag, trans_a, name),
            nbytes=0, flops=flops, tag=tag,
            accesses=[device_access(a_tri, False), device_access(b, True)],
            host_reads=(), host_writes=(), dims=(k, n),
        )

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
        panel, u_out = as_view(panel), as_view(u_out)
        self._check_square_out("panel_lu", "U", panel, u_out)
        self._check_live(panel, u_out)
        # LU panel work is m b^2 — half of QR's 2 m b^2
        flops = self.config.panel.flops(panel.rows, panel.cols) // 2
        self.stats.panel_flops += flops
        self.stats.n_panels += 1
        name = panel_name(tag, panel.rows, panel.cols)
        self._issue(
            stream, op="panel_lu", name=name, engine=EngineKind.COMPUTE,
            kind=OpKind.PANEL, body=self._panel_lu_body(panel, u_out, name),
            nbytes=0, flops=flops, tag=tag,
            accesses=[device_access(panel, True), device_access(u_out, True)],
            host_reads=(), host_writes=(), dims=panel.shape,
        )

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
        panel = as_view(panel)
        b = panel.cols
        if panel.rows < b:
            raise ExecutionError(
                f"panel_cholesky: panel {panel.shape} shorter than its width"
            )
        self._check_live(panel)
        # b^3/3 for the diagonal block + m b^2 for the TRSM below
        flops = b * b * b // 3 + (panel.rows - b) * b * b
        self.stats.panel_flops += flops
        self.stats.n_panels += 1
        name = panel_name(tag, panel.rows, b)
        self._issue(
            stream, op="panel_cholesky", name=name, engine=EngineKind.COMPUTE,
            kind=OpKind.PANEL, body=self._panel_cholesky_body(panel, name),
            nbytes=0, flops=flops, tag=tag,
            accesses=[device_access(panel, True)],
            host_reads=(), host_writes=(), dims=panel.shape,
        )

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

    @staticmethod
    def _check_square_out(
        op: str, what: str, panel: DeviceView, out: DeviceView
    ) -> None:
        if out.shape != (panel.cols, panel.cols):
            raise ExecutionError(
                f"{op}: {what} is {out.shape}, expected "
                f"{(panel.cols, panel.cols)}"
            )


def host_tag(region: HostRegion) -> tuple[int, int, int, int, int]:
    """Stable identity of a host region within one run (the verifier's
    redundant-reload pass and the precision pass key on it)."""
    return (id(region.matrix), region.row0, region.row1, region.col0, region.col1)


def make_op(
    *,
    op: str,
    name: str,
    engine: EngineKind,
    kind: OpKind,
    nbytes: int,
    flops: int,
    tag: str | None,
    accesses: list[DeviceAccess],
    host_reads: tuple[HostRegion, ...],
    host_writes: tuple[HostRegion, ...],
    dims: tuple[int, ...] | None,
    duration: float = 0.0,
) -> SimOp:
    """The recorded node of one issued op, built from the ``_issue``
    description minus the body (*op* and *dims* are accepted so the
    description passes through whole). Every executor's program carries
    the same tags: ``tag``, ``accesses``, and for copies the
    ``host_region``/``host_label`` of the host side."""
    tags: dict[str, Any] = {}
    if tag is not None:
        tags["tag"] = tag
    tags["accesses"] = accesses
    host = host_reads or host_writes
    if host:
        tags["host_region"] = host_tag(host[0])
        tags["host_label"] = host[0].label()
    return SimOp(
        name=name, engine=engine, kind=kind, duration=duration,
        nbytes=nbytes, flops=flops, tags=tags,
    )
