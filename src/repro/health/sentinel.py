"""Runtime numerical-health sentinel.

One :class:`HealthSentinel` is attached to an executor per run (the api
layer builds it from ``options.health``); the executor's op bodies call
the probe hooks, and the OOC drivers notify panel boundaries so probe
results can be attributed to panels/column ranges.

Concurrency & determinism
-------------------------
A threaded run (the task DAG, :mod:`repro.runtime`) must stay bitwise
identical to the serial one, and the sentinel must not break that.
Panel probes run in issue order: every panel body writes the shared
panel buffer, so the graph orders them. Escalation state (the GEMM
format override) is read and written only inside compute-engine op
bodies, and with ``mode="escalate"`` the graph builder chains every
compute task in issue order, so each body sees the override exactly as
the serial run does. Probe sampling uses *per-kind* counters; with the
default ``stride=1`` every op is probed, so the tallies do not depend on
execution order (with a larger stride a threaded run samples the ops in
the order they ran). The counters and the shared :class:`HealthReport`
tallies are guarded by a lock against lost updates.

Escalation ladder (``mode="escalate"``)
---------------------------------------
Per panel, in order, until the panel probes pass:

1. the configured base panel algorithm (what already ran);
2. a CGS2-style reorthogonalization pass — factor the computed Q again
   and merge the triangular factors ("twice is enough", Giraud et al.);
3. a TSQR panel (communication-optimal, unconditionally backward stable
   — Demmel et al.).

The ladder above guards the panel *locally*. The classic CGS failure
mode is global: single-projection block CGS loses orthogonality
*between* panels at O(kappa^2 u) even when every panel basis is locally
orthonormal (the in-core panels run CGS2 internally, so a local Gram
probe stays clean while the assembled Q collapses). That is caught by a
second, driver-level probe (:meth:`HealthSentinel.probe_host_panel`):
at each panel boundary the finished panel is tested against a sample of
previously finalized Q columns, and in escalate mode a drifted panel is
*block-reorthogonalized* against all previous columns (block CGS2 on
demand) with the exact triangular bookkeeping folded into host R.

The first time any panel escalates, trailing-update GEMMs are also
raised to fp32 emulation for the rest of the run: a panel that broke
under reduced precision poisons every trailing update it feeds.
If the ladder is exhausted the run refuses with a typed
:class:`~repro.errors.NumericalError` instead of returning garbage.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

import numpy as np

from repro.errors import (
    BreakdownError,
    EscalationExhaustedError,
    NonFiniteError,
)
from repro.health.options import HealthOptions
from repro.health.report import Escalation, HealthReport
from repro.obs.span import NULL_RECORDER
from repro.tc.precision import QuantStats

#: GEMM input formats the escalation policy will raise to fp32.
_LOW_PRECISION_FORMATS = ("fp16", "bf16", "tf32")

#: Previously-finalized Q columns sampled by the cross-panel probe
#: (evenly spaced over [0, col0), deterministic — no RNG).
CROSS_SAMPLE_COLUMNS = 64

#: Bytes of each fp64 block buffer a probe pass converts its operands
#: into, one row block at a time: the pass reads each operand once from
#: memory and works on it in L2 cache, and the fp64 products it feeds
#: stay long enough for BLAS to run near full speed.
PROBE_BLOCK_BYTES = 512 << 10


def _block_rows(cols: int) -> int:
    """Rows per block: an fp64 block of *cols* columns stays within
    :data:`PROBE_BLOCK_BYTES`."""
    return max(1, PROBE_BLOCK_BYTES // (8 * max(1, cols)))


def _fp64_blocks(x: np.ndarray):
    """The rows of *x* as fp64 blocks of :func:`_block_rows` rows,
    converted one at a time into one reused buffer (each block is
    overwritten by the next)."""
    step = _block_rows(x.shape[1])
    buf = np.empty((min(step, x.shape[0]), x.shape[1]))
    for i in range(0, x.shape[0], step):
        blk = buf[: min(step, x.shape[0] - i)]
        np.copyto(blk, x[i : i + step])
        yield blk


def _all_finite(x: np.ndarray) -> bool:
    """No NaN or +/-inf in *x*, without a full-size mask: NaN propagates
    through ``min`` and ``max``, and an infinity is one of them."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


def _column_sumsq(a: np.ndarray) -> np.ndarray:
    """fp64 column sums of squares of *a*; finite exactly when *a* is
    (fp32 squares cannot overflow fp64)."""
    sumsq = np.zeros(a.shape[1])
    for blk in _fp64_blocks(a):
        sumsq += np.square(blk, out=blk).sum(axis=0)
    return sumsq


def _gram(q: np.ndarray) -> np.ndarray:
    """fp64 ``qᵀq``; finite exactly when *q* is."""
    gram = np.zeros((q.shape[1], q.shape[1]))
    for blk in _fp64_blocks(q):
        gram += blk.T @ blk
    return gram


def _cross(a: np.ndarray, sample: np.ndarray, col0: int, col1: int) -> np.ndarray:
    """fp64 ``a[:, sample]ᵀ a[:, col0:col1]`` in one pass over the rows
    of *a*: each row block's sampled and panel columns are gathered
    together with one ``take`` and converted to fp64 in one copy."""
    cols = np.concatenate([sample, np.arange(col0, col1)])
    s = len(sample)
    step = _block_rows(len(cols))
    gathered = np.empty((min(step, a.shape[0]), len(cols)), dtype=a.dtype)
    block = np.empty(gathered.shape)
    cross = np.zeros((s, col1 - col0))
    for i in range(0, a.shape[0], step):
        n = min(step, a.shape[0] - i)
        np.take(a[i : i + n], cols, axis=1, out=gathered[:n], mode="clip")
        np.copyto(block[:n], gathered[:n])
        cross += block[:n, :s].T @ block[:n, s:]
    return cross


class HealthSentinel:
    """Per-run numerical-health monitor and escalation policy."""

    def __init__(
        self, options: HealthOptions, *, base_format: str = "fp32", obs=None
    ):
        self.options = options
        self.base_format = base_format
        #: Span recorder (repro.obs): escalations surface as instant
        #: events on a ``health`` lane of the run timeline.
        self.obs = obs if obs is not None else NULL_RECORDER
        self.report = HealthReport(mode=options.mode)
        self.quant_stats = QuantStats() if options.enabled else None
        self._counts: dict[str, int] = {}
        self._gemm_override: str | None = None
        # Once cross-panel drift is detected the run has proven itself
        # ill-conditioned for single-pass block CGS: from then on every
        # panel is reorthogonalized, not just the ones above threshold
        # (the adaptive-reorthogonalization criterion; residual drift
        # just under the alarm would otherwise cap final orthogonality
        # at ~drift_threshold).
        self._reorth_sticky = False
        # (panel_index, col0, col1) queued by the driver at issue time;
        # consumed by panel probes in the same FIFO order the compute
        # worker executes panel bodies.
        self._panel_queue: deque[tuple[int, int, int]] = deque()
        self._last_panel = -1
        self._lock = threading.Lock()

    # -- cheap state queries (hot path) ---------------------------------------

    @property
    def enabled(self) -> bool:
        return self.options.enabled

    @property
    def escalating(self) -> bool:
        return self.options.escalating

    def gemm_format(self, base: str) -> str:
        """Input format trailing-update GEMMs should use right now."""
        return self._gemm_override or base

    # -- driver notifications --------------------------------------------------

    def note_panel(self, panel: int, col0: int = -1, col1: int = -1) -> None:
        """Driver hook: panel *panel* covering columns [col0, col1) was just
        issued. Call exactly once per ``panel_qr`` issue, in issue order."""
        if self.enabled:
            self._panel_queue.append((panel, col0, col1))

    def _record_escalation(
        self, panel: int, trigger: str, action: str, value: float = 0.0
    ) -> None:
        """Tally one escalation and surface it on the observability
        timeline (zero-duration ``health`` event)."""
        with self._lock:
            self.report.record_escalation(panel, trigger, action, value)
        if self.obs.enabled:
            self.obs.event(
                f"escalate:{action}", cat="health", lane="health",
                attrs={"panel": panel, "trigger": trigger, "value": value},
            )

    # -- probes (called from op bodies) ---------------------------------------

    def _sampled(self, kind: str) -> bool:
        with self._lock:
            n = self._counts.get(kind, 0)
            self._counts[kind] = n + 1
        return n % self.options.stride == 0

    def check_h2d(self, data: np.ndarray, name: str) -> None:
        """NaN/Inf scan on a host-to-device transfer result. Non-finite
        *input* data is unrecoverable in every mode: refuse at the source."""
        if not self.enabled or not self._sampled("h2d"):
            return
        with self._lock:
            self.report.probes_run += 1
        if not _all_finite(data):
            raise NonFiniteError(
                f"h2d transfer {name!r} carried non-finite values",
                report=self.finalize(),
            )

    def check_d2h(self, data: np.ndarray, name: str) -> None:
        """NaN/Inf scan on a device-to-host writeback — the last probed
        boundary before results land on the host. Refuses in every mode."""
        if not self.enabled or not self._sampled("d2h"):
            return
        with self._lock:
            self.report.probes_run += 1
        if not _all_finite(data):
            raise NonFiniteError(
                f"d2h writeback {name!r} carried non-finite values",
                report=self.finalize(),
            )

    def check_gemm(
        self, out: np.ndarray, name: str, retry_fp32: Callable[[], None] | None
    ) -> None:
        """NaN/Inf scan on a GEMM output.

        In escalate mode a non-finite output is recomputed once at fp32
        emulation (*retry_fp32*), and the run-wide GEMM override is raised
        so later updates don't re-overflow; if the retry still produces
        non-finite values (the inputs were already poisoned) the run
        refuses. Monitor mode refuses immediately.
        """
        if not self.enabled or not self._sampled("gemm"):
            return
        with self._lock:
            self.report.probes_run += 1
        if _all_finite(out):
            return
        if self.escalating and retry_fp32 is not None:
            self._record_escalation(
                self._current_panel(), "non-finite-gemm", "gemm-fp32-retry"
            )
            self._raise_gemm_precision("non-finite-gemm")
            retry_fp32()
            if _all_finite(out):
                return
        raise NonFiniteError(
            f"gemm {name!r} produced non-finite values"
            + (" (fp32 retry did not recover)" if self.escalating else ""),
            report=self.finalize(),
        )

    def check_output(self, data: np.ndarray, name: str) -> None:
        """Generic non-finite refusal for LU/Cholesky/TRSM outputs (no
        QR-style ladder exists for those panels)."""
        if not self.enabled or not self._sampled("panel-out"):
            return
        with self._lock:
            self.report.probes_run += 1
        if not _all_finite(data):
            raise NonFiniteError(
                f"{name!r} produced non-finite values", report=self.finalize()
            )

    # -- panel probe + escalation ladder --------------------------------------

    def _current_panel(self) -> int:
        """Panel context for non-panel probes: the most recently probed
        panel (trailing updates belong to the panel that produced them)."""
        return self._last_panel

    def _probe_panel(
        self, sumsq: np.ndarray, q: np.ndarray, r: np.ndarray
    ) -> tuple[str | None, float]:
        """Classify a panel factorization Q*R of an input whose fp64
        column sums of squares are *sumsq*. Returns ``(problem,
        measure)`` with problem one of None, "non-finite", "breakdown",
        "drift"."""
        gram = _gram(q)
        if not (np.isfinite(gram).all() and np.isfinite(r).all()):
            return "non-finite", float("inf")
        # Column-norm collapse: |r_jj| tiny relative to the original
        # column norm means the column cancelled against earlier ones.
        col_norms = np.sqrt(sumsq)
        diag = np.abs(np.diag(r).astype(np.float64))
        ref = np.maximum(col_norms, np.finfo(np.float64).tiny)
        ratio = float(np.min(diag / ref))
        if ratio < self.options.breakdown_tol:
            return "breakdown", ratio
        # Loss-of-orthogonality drift of the panel basis.
        drift = float(np.linalg.norm(gram - np.eye(gram.shape[0])))
        with self._lock:
            self.report.worst_drift = max(self.report.worst_drift, drift)
        if drift > self.options.drift_threshold:
            return "drift", drift
        return None, drift

    def _raise_gemm_precision(self, trigger: str) -> None:
        """Escalate trailing-update GEMMs to fp32 emulation (once)."""
        if (
            self._gemm_override is None
            and self.base_format in _LOW_PRECISION_FORMATS
        ):
            self._gemm_override = "fp32"
            self._record_escalation(self._current_panel(), trigger, "gemm-fp32")
            with self._lock:
                self.report.gemm_format_override = self._gemm_override

    def after_panel(
        self,
        orig: np.ndarray,
        q: np.ndarray,
        r: np.ndarray,
        refactor: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe a finished panel factorization and, in escalate mode, walk
        the ladder until it is healthy. *refactor* is the executor's base
        panel algorithm (used for the reorthogonalization rung).

        *orig* is the panel input itself, not a copy: every panel
        algorithm leaves its input untouched, and the executor overwrites
        the panel only after this returns."""
        if not self.enabled:
            return q, r
        panel, col0, col1 = (
            self._panel_queue.popleft() if self._panel_queue else (-1, -1, -1)
        )
        self._last_panel = panel
        where = (
            f"panel {panel} (cols {col0}:{col1})" if panel >= 0 else "panel"
        )
        with self._lock:
            self.report.panel_probes += 1
        sumsq = _column_sumsq(orig)
        problem, value = self._probe_panel(sumsq, q, r)
        if problem is None:
            return q, r
        if problem == "non-finite" and not np.isfinite(sumsq).all():
            raise NonFiniteError(
                f"{where} input data is non-finite", report=self.finalize()
            )
        if not self.escalating:
            # Monitor mode records the event but never changes results —
            # except non-finite output, which is refused in every mode.
            with self._lock:
                self.report.drift_events += 1
            if problem == "non-finite":
                raise NonFiniteError(
                    f"{where} factorization produced non-finite values",
                    report=self.finalize(),
                )
            return q, r

        # Rung 2: CGS2-style reorthogonalization of the computed basis.
        with self._lock:
            self.report.drift_events += 1
        self._record_escalation(panel, problem, "cgs2-reorth", value)
        self._raise_gemm_precision(problem)
        if problem != "non-finite":
            q2, r2 = refactor(q)
            q_new = np.asarray(q2, dtype=np.float32)
            r_new = (
                r2.astype(np.float64) @ r.astype(np.float64)
            ).astype(np.float32)
            problem2, value2 = self._probe_panel(sumsq, q_new, r_new)
            if problem2 is None:
                return q_new, r_new
        # Rung 3: TSQR from the original panel data.
        from repro.qr.tsqr import tsqr

        self._record_escalation(panel, problem, "tsqr-panel", value)
        q3, r3 = tsqr(orig.astype(np.float64))
        q3 = np.asarray(q3, dtype=np.float32)
        r3 = np.asarray(r3, dtype=np.float32)
        problem3, value3 = self._probe_panel(sumsq, q3, r3)
        if problem3 is None:
            return q3, r3
        if problem3 == "breakdown":
            raise BreakdownError(
                f"{where} has (numerically) dependent columns: min "
                f"|r_jj|/|a_j| = {value3:.3e} even under a TSQR panel",
                report=self.finalize(),
            )
        raise EscalationExhaustedError(
            f"{where} still unhealthy ({problem3}, {value3:.3e}) after "
            "cgs2-reorth and tsqr-panel escalation",
            report=self.finalize(),
        )

    # -- cross-panel probe (called from drivers at panel boundaries) -----------

    def probe_host_panel(
        self,
        a,
        r,
        panel: int,
        col0: int,
        col1: int,
    ) -> bool:
        """Driver hook: cross-panel orthogonality probe at a panel boundary.

        Called with the executor quiesced, after panel *panel* (host
        columns ``[col0, col1)`` of *a*) has been written back, so host A
        holds finalized Q columns in ``[0, col1)``. Measures the worst
        inner product between the new panel and a deterministic sample of
        previous Q columns — the drift a local panel Gram probe cannot
        see, because block CGS loses orthogonality *between* panels.

        In escalate mode a drifted panel is block-reorthogonalized
        against **all** previous columns and the correction is folded
        into host R exactly: with ``c = Q1ᵀ q`` and ``q − Q1 c = q' ρ``
        (Householder), ``Q1 R1J + q RJ  ==  Q1 (R1J + c RJ) + q' (ρ RJ)``
        for every R row block RJ of the panel, so ``A = QR`` is preserved
        while Q regains orthogonality. Trailing-update GEMMs are raised
        to fp32 at the first event.

        Returns True when host Q/R were modified — the caller must then
        drop any device-resident copy of the panel.
        """
        if not self.enabled or col0 <= 0:
            return False
        with self._lock:
            self.report.panel_probes += 1
        sample = np.unique(
            np.linspace(
                0, col0 - 1, num=min(col0, CROSS_SAMPLE_COLUMNS)
            ).round().astype(np.intp)
        )
        cross = _cross(a.data, sample, col0, col1)
        drift = float(np.max(np.abs(cross))) if cross.size else 0.0
        with self._lock:
            self.report.worst_drift = max(self.report.worst_drift, drift)
        tripped = drift > self.options.drift_threshold
        if tripped:
            with self._lock:
                self.report.drift_events += 1
        if not self.escalating or not (tripped or self._reorth_sticky):
            return False

        self._record_escalation(
            panel,
            "cross-drift" if tripped else "reorth-sticky",
            "block-reorth",
            drift,
        )
        self._reorth_sticky = True
        self._raise_gemm_precision("cross-drift")
        qp = a.data[:, col0:col1].astype(np.float64)
        q_prev = a.data[:, :col0].astype(np.float64)
        # Project twice ("twice is enough"): a single projection leaves a
        # residual ~|c| * |I - Q1ᵀQ1| that the normalization can amplify
        # when the panel nearly cancels; the second pass squares it away.
        c = q_prev.T @ qp
        q2 = qp - q_prev @ c
        c2 = q_prev.T @ q2
        c += c2
        q_new, rho = np.linalg.qr(q2 - q_prev @ c2)
        rj = r.data[col0:col1, col0:].astype(np.float64)
        r.data[:col0, col0:] += (c @ rj).astype(np.float32)
        r.data[col0:col1, col0:] = (rho @ rj).astype(np.float32)
        a.data[:, col0:col1] = q_new.astype(np.float32)
        return True

    # -- lifecycle -------------------------------------------------------------

    def finalize(self) -> HealthReport:
        """Fold the live counters into the report and return it."""
        if self.quant_stats is not None:
            self.report.overflow_count = self.quant_stats.overflow
            self.report.underflow_count = self.quant_stats.underflow
        self.report.gemm_format_override = self._gemm_override
        return self.report

    # -- checkpoint integration ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable escalation/probe state for checkpoint manifests.

        Restoring this on resume is what keeps a resumed run bitwise
        identical: in particular the GEMM format override must carry over
        or trailing updates after the restart would use a different
        precision than the original run."""
        self.finalize()
        return {
            "counts": dict(self._counts),
            "last_panel": self._last_panel,
            "gemm_format_override": self._gemm_override,
            "reorth_sticky": self._reorth_sticky,
            "probes_run": self.report.probes_run,
            "panel_probes": self.report.panel_probes,
            "worst_drift": self.report.worst_drift,
            "drift_events": self.report.drift_events,
            "overflow": self.report.overflow_count,
            "underflow": self.report.underflow_count,
            "escalations": [
                {
                    "panel": e.panel,
                    "trigger": e.trigger,
                    "action": e.action,
                    "value": e.value,
                }
                for e in self.report.escalations
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output on checkpoint resume."""
        self._counts = {k: int(v) for k, v in state.get("counts", {}).items()}
        self._last_panel = int(state.get("last_panel", -1))
        self._gemm_override = state.get("gemm_format_override")
        self._reorth_sticky = bool(state.get("reorth_sticky", False))
        self.report.probes_run = int(state.get("probes_run", 0))
        self.report.panel_probes = int(state.get("panel_probes", 0))
        self.report.worst_drift = float(state.get("worst_drift", 0.0))
        self.report.drift_events = int(state.get("drift_events", 0))
        self.report.gemm_format_override = self._gemm_override
        if self.quant_stats is not None:
            self.quant_stats.overflow = int(state.get("overflow", 0))
            self.quant_stats.underflow = int(state.get("underflow", 0))
        self.report.escalations = [
            Escalation(
                panel=int(e["panel"]), trigger=str(e["trigger"]),
                action=str(e["action"]), value=float(e.get("value", 0.0)),
            )
            for e in state.get("escalations", [])
        ]
        self.finalize()


#: Shared no-op sentinel (mode "off"): every hook early-returns.
NULL_SENTINEL = HealthSentinel(HealthOptions())
