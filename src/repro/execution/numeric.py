"""Numeric executor: really computes, with TensorCore numerics emulation.

Work executes eagerly in issue order (a legal serialization of any
correct stream program), so numeric results are exact regardless of how
the calling pipeline arranged its streams. The measured timeline of a run
is its span list (``obs=``).

:class:`~repro.runtime.builder.GraphBuilder` subclasses this executor and
overrides :meth:`NumericExecutor._issue` to record each op body as a task
of a graph that its ``synchronize()`` runs on worker threads.

Device buffers are numpy fp32 arrays, still accounted against the simulated
device capacity through :class:`~repro.sim.memory.DeviceAllocator`, so
numeric runs exercise the same out-of-memory paths as simulated ones (with
a scaled-down :class:`~repro.hw.specs.GpuSpec` for tests).

Next to its ``"data"`` each buffer keeps ``"rounded"``, the
:class:`~repro.tc.gemm.RoundedCopies` of its GEMM-input roundings: a
resident operand is rounded once per residence, not once per GEMM. Every
op body that writes a buffer invalidates the copies overlapping the rect
it wrote, and ``free`` drops them with the data. The copies are host-side
emulation state, not device memory, so the allocator never sees them.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.config import SystemConfig
from repro.errors import ExecutionError, PanelRejected
from repro.execution.base import DeviceBuffer, DeviceView, Executor
from repro.health.sentinel import NULL_SENTINEL, HealthSentinel
from repro.host.tiled import HostRegion
from repro.obs.clock import monotonic as _monotonic
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import EngineKind, OpKind
from repro.sim.scheduler import DeviceAccess
from repro.tc.gemm import CacheSlot, RoundedCopies, tc_gemm


class _NullStream:
    """Streams are ordering hints only for the eager numeric executor."""

    def __init__(self, name: str):
        self.name = name


class _NullEvent:
    pass


class NumericExecutor(Executor):
    """Eager numpy-backed executor (see module docstring).

    Parameters
    ----------
    config
        The system configuration (device capacity, precision, models).
    """

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.allocator = DeviceAllocator(config.usable_device_bytes)
        self._input_format = config.precision.input_format
        #: Wall clock at the first issued op; ``stats.wall_s`` counts from it.
        self._t0: float | None = None
        #: Numerical-health sentinel; the api layer swaps in a live one
        #: when ``options.health`` enables probing. Op bodies consult it,
        #: so it must be attached before any op is issued.
        self.health: HealthSentinel = NULL_SENTINEL

    # -- issue machinery ---------------------------------------------------------

    def _issue(
        self,
        stream: Any,
        *,
        op: str,
        name: str,
        engine: EngineKind,
        kind: OpKind,
        body: Callable[[], None],
        nbytes: int,
        flops: int,
        tag: str | None,
        accesses: list[DeviceAccess],
        host_reads: tuple[HostRegion, ...],
        host_writes: tuple[HostRegion, ...],
        dims: tuple[int, ...] | None,
    ) -> None:
        """Run one operation now. Subclasses override this to run *body*
        elsewhere (the graph builder records it as a task)."""
        if self._t0 is None:
            self._t0 = _monotonic()
        if self.obs.enabled:
            start = self.obs.now()
            body()
            self._record_op_span(
                name, engine, kind, start, self.obs.now(),
                nbytes=nbytes, flops=flops, tag=tag,
                accesses=accesses, stream=stream,
            )
        else:
            body()

    def _record_op_span(
        self,
        name: str,
        engine: EngineKind,
        kind: OpKind,
        start: float,
        end: float,
        *,
        nbytes: int = 0,
        flops: int = 0,
        tag: str | None = None,
        accesses: list | None = None,
        stream: Any = None,
    ) -> None:
        """Record one executed op as a span on its engine lane.

        The access records (already built for the race detector) become a
        compact ``rects`` attribute — ``("w", 0, 32, 0, 8)`` is a write
        to rows 0-32, cols 0-8 — so a Perfetto timeline shows exactly
        which tile rectangle each op touched (the Chrome exporter formats
        them as ``"w[0:32,0:8]"``; raw tuples keep string formatting off
        the hot path). Allocation handles are left out: they come from a
        process-wide counter, and span attributes must be identical from
        run to run (the golden determinism test).
        """
        attrs: dict[str, Any] = {}
        stream_name = getattr(stream, "name", "")
        if stream_name:
            attrs["stream"] = stream_name
        if nbytes:
            attrs["nbytes"] = nbytes
        if flops:
            attrs["flops"] = flops
        if tag is not None:
            attrs["tag"] = tag
        if accesses:
            attrs["rects"] = [
                ("w" if write else "r", r0, r1, c0, c1)
                for _handle, r0, r1, c0, c1, write in accesses
            ]
        self.obs.record(
            name, start, end,
            cat=kind.value, lane=engine.value, attrs=attrs,
        )

    # -- memory -----------------------------------------------------------------

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        buf = super().alloc(rows, cols, name)
        # Device data lives in fp32 regardless of element_bytes: storage
        # sizing models the paper's fp32 matrices, math runs in fp32 with
        # fp16 rounding applied inside GEMMs.
        buf.payload["data"] = np.zeros((rows, cols), dtype=np.float32)
        buf.payload["rounded"] = RoundedCopies()
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        super().free(buf)
        buf.payload.pop("data", None)
        buf.payload.pop("rounded", None)

    # -- streams -----------------------------------------------------------------

    def stream(self, name: str) -> Any:
        return _NullStream(name)

    def record_event(self, stream: Any) -> Any:
        return _NullEvent()

    def wait_event(self, stream: Any, event: Any) -> None:
        pass

    def synchronize(self) -> None:
        # Eager execution has nothing to drain, but a sync is the natural
        # point to refresh the measured wall-clock span of the run.
        if self._t0 is not None:
            self.stats.wall_s = _monotonic() - self._t0

    # -- views -------------------------------------------------------------------

    @staticmethod
    def _data(view: DeviceView) -> np.ndarray:
        buf = view.buffer
        if buf.freed:
            raise ExecutionError(f"use of freed device buffer {buf.name!r}")
        data = buf.payload.get("data")
        if data is None:
            raise ExecutionError(
                f"device buffer {buf.name!r} has no numeric payload "
                "(allocated by a different executor?)"
            )
        return data[view.row0 : view.row1, view.col0 : view.col1]

    @staticmethod
    def _slot(view: DeviceView) -> CacheSlot | None:
        """Where ``tc_gemm`` keeps the rounded copy of a GEMM input view."""
        copies = view.buffer.payload.get("rounded")
        if copies is None:
            return None
        return copies, (view.row0, view.row1, view.col0, view.col1)

    @staticmethod
    def _written(view: DeviceView) -> None:
        """Invalidate the rounded copies overlapping a rect an op body
        writes (op bodies call this; see the module docstring)."""
        copies = view.buffer.payload.get("rounded")
        if copies is not None:
            copies.invalidate((view.row0, view.row1, view.col0, view.col1))

    def _check_live(self, *views: DeviceView) -> None:
        """Fail fast (on the issuing thread) when an operand is dead."""
        for view in views:
            self._data(view)

    # -- kernel bodies (the op methods live in Executor) ----------------------------

    def _h2d_body(self, dst: DeviceView, src: HostRegion, name: str):
        def body() -> None:
            data = self._data(dst)
            self._written(dst)
            np.copyto(data, src.array)
            if self.health.enabled:
                self.health.check_h2d(data, name)

        return body

    def _d2h_body(self, dst: HostRegion, src: DeviceView, name: str):
        def body() -> None:
            data = self._data(src)
            # writeback scan: the last probed boundary before results reach
            # the host — device-side NaNs must never land silently
            if self.health.enabled:
                self.health.check_d2h(data, name)
            np.copyto(dst.array, data)

        return body

    def _d2d_body(self, dst: DeviceView, src: DeviceView):
        def body() -> None:
            self._written(dst)
            np.copyto(self._data(dst), self._data(src))

        return body

    def _gemm_body(
        self,
        c: DeviceView,
        a: DeviceView,
        b: DeviceView,
        alpha: float,
        beta: float,
        trans_a: bool,
        trans_b: bool,
        name: str,
    ):
        def body() -> None:
            health = self.health
            c_data = self._data(c)
            # The sentinel may have escalated trailing updates to fp32;
            # in escalate mode keep the accumulator so a non-finite
            # output can be recomputed instead of refused.
            fmt = (
                health.gemm_format(self._input_format)
                if health.enabled
                else self._input_format
            )
            c_prev = (
                c_data.copy()
                if health.enabled and health.escalating and beta != 0.0
                else None
            )
            tc_gemm(
                self._data(a),
                self._data(b),
                alpha=alpha,
                beta=beta,
                c=c_data if beta != 0.0 else None,
                trans_a=trans_a,
                trans_b=trans_b,
                input_format=fmt,
                out=c_data,
                quant_stats=health.quant_stats,
                a_slot=self._slot(a),
                b_slot=self._slot(b),
            )
            if health.enabled:

                def retry_fp32() -> None:
                    tc_gemm(
                        self._data(a),
                        self._data(b),
                        alpha=alpha,
                        beta=beta,
                        c=c_prev,
                        trans_a=trans_a,
                        trans_b=trans_b,
                        input_format="fp32",
                        out=c_data,
                    )

                health.check_gemm(
                    c_data, name,
                    retry_fp32 if (beta == 0.0 or c_prev is not None) else None,
                )
            # after the write: C may alias an input (multi-GPU TSQR updates
            # a slab in place), whose copy was just stored
            self._written(c)

        return body

    def _panel_qr_body(self, panel: DeviceView, r_out: DeviceView):
        def body() -> None:
            a_data = self._data(panel)
            self._written(panel)
            self._written(r_out)
            q, r = self._factorize_panel(a_data)
            if self.health.enabled:
                # a_data is still the input: breakdown probes compare
                # diag(R) against its column norms, and the TSQR
                # escalation rung refactorizes from it
                q, r = self.health.after_panel(a_data, q, r, self._factorize_panel)
            np.copyto(a_data, q)
            np.copyto(self._data(r_out), r)

        return body

    def _factorize_panel(self, a_data: np.ndarray):
        """Dispatch on ``config.panel_algorithm``; imports are lazy because
        repro.qr also hosts the OOC drivers that import this module.
        Every algorithm returns new arrays and leaves *a_data* untouched,
        which the health sentinel's panel probe relies on.

        ``"cholqr2"`` falls back to the recursive-CGS panel on the
        untouched input whenever its acceptance rule rejects the panel,
        and says so with a ``panel-fallback`` event."""
        algo = self.config.panel_algorithm
        if algo == "tsqr":
            from repro.qr.tsqr import tsqr

            q, r = tsqr(a_data, dtype=np.float32)
            return q.astype(np.float32), r.astype(np.float32)
        if algo == "householder":
            from repro.qr.householder import householder_qr

            q, r = householder_qr(a_data, dtype=np.float32)
            return q.astype(np.float32), r.astype(np.float32)
        from repro.qr.incore import cholqr2, incore_recursive_qr

        if algo == "cholqr2":
            try:
                return cholqr2(a_data)
            except PanelRejected as rejected:
                self.obs.event(
                    "panel-fallback", cat="panel", lane="compute",
                    attrs={"reason": rejected.reason, "shape": a_data.shape},
                )
        return incore_recursive_qr(a_data, input_format=self._input_format)

    def _trsm_body(
        self,
        a_tri: DeviceView,
        b: DeviceView,
        lower: bool,
        unit_diag: bool,
        trans_a: bool,
        name: str,
    ):
        import scipy.linalg

        def body() -> None:
            b_data = self._data(b)
            self._written(b)
            solved = scipy.linalg.solve_triangular(
                self._data(a_tri),
                b_data,
                lower=lower,
                unit_diagonal=unit_diag,
                trans="T" if trans_a else "N",
                check_finite=False,
            )
            np.copyto(b_data, solved.astype(np.float32, copy=False))
            if self.health.enabled:
                self.health.check_output(b_data, name)

        return body

    def _panel_lu_body(self, panel: DeviceView, u_out: DeviceView, name: str):
        from repro.factor.incore import incore_lu_nopivot

        def body() -> None:
            a_data = self._data(panel)
            self._written(panel)
            self._written(u_out)
            packed = incore_lu_nopivot(a_data, input_format=self._input_format)
            if self.health.enabled:
                self.health.check_output(packed, name)
            np.copyto(a_data, packed)
            np.copyto(self._data(u_out), np.triu(packed[: panel.cols]))

        return body

    def _panel_cholesky_body(self, panel: DeviceView, name: str):
        import scipy.linalg

        from repro.errors import ValidationError

        b = panel.cols

        def body() -> None:
            data = self._data(panel)
            self._written(panel)
            try:
                chol = np.linalg.cholesky(data[:b].astype(np.float64))
            except np.linalg.LinAlgError as exc:
                raise ValidationError(
                    "panel_cholesky: diagonal block not positive definite"
                ) from exc
            data[:b] = np.triu(np.zeros((b, b), dtype=np.float32)) + np.tril(
                chol.astype(np.float32)
            )
            if panel.rows > b:
                data[b:] = scipy.linalg.solve_triangular(
                    chol, data[b:].astype(np.float64).T, lower=True,
                    check_finite=False,
                ).T.astype(np.float32)
            if self.health.enabled:
                self.health.check_output(data, name)

        return body
