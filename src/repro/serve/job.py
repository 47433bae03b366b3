"""Job descriptions and future-like handles for the factorization service.

A :class:`JobSpec` is an immutable description of one factorization or
GEMM — the operation kind, its operands (real arrays for numeric jobs,
shape tuples for simulated capacity-planning jobs), the algorithm options
and a scheduling priority. Submitting a spec to
:class:`~repro.serve.service.FactorService` returns a :class:`JobHandle`,
the future the caller blocks on; the service resolves it with a
:class:`JobResult` (or the job's exception) once the job retires.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.qr.options import QrOptions
from repro.util.validation import one_of, positive_float

#: Operation kinds the service knows how to run.
JOB_KINDS = ("qr", "gemm", "lu", "cholesky")


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One unit of work for the service.

    Parameters
    ----------
    kind
        ``"qr"``, ``"gemm"``, ``"lu"`` or ``"cholesky"``.
    operands
        For ``qr``/``lu``/``cholesky``: one matrix (ndarray, or an
        ``(m, n)`` shape tuple for ``mode="sim"``). For ``gemm``: the two
        input matrices A and B (the service runs the inner-product form
        ``C = AᵀB`` when ``trans_a`` is set, else ``C = A B``).
    method
        ``"recursive"`` or ``"blocking"`` (ignored for GEMM).
    options
        :class:`~repro.qr.options.QrOptions` — blocksize, buffering and
        the §4.2 optimization toggles, shared by all job kinds.
    mode
        ``"numeric"`` (really compute) or ``"sim"`` (data-free
        capacity-planning run through the event simulator).
    priority
        Smaller runs earlier; ties dispatch in submission order.
    device_memory
        Optional explicit device-footprint request in bytes; when unset
        the admission controller estimates one from the tiling plans.
    name
        Optional label carried into metrics and handle reprs.
    checkpoint_dir
        Optional directory making the job resumable (numeric
        factorizations only): progress is persisted there, and a retry
        after a worker fault — or a resubmission pointed at the same
        directory — restores state and skips completed steps. See
        docs/checkpoint.md.
    checkpoint_every
        Persist every N completed steps (default 1: every boundary).
    devices
        Place the job across a pool of this many devices (QR only).
        ``devices > 1`` routes through :mod:`repro.dist`: numeric jobs
        run the sharded TSQR backend, sim jobs the partitioned-graph
        device-pool simulation. Admission then charges the *per-device*
        slab footprint, and the per-device programs are verified by the
        dist runner instead of the single-device submit-time plan
        verifier. See docs/dist.md.
    tolerance
        Optional forward-error tolerance for the static precision pass
        (:mod:`repro.analysis.precision`). When set, admission judges the
        plan's predicted error bound against it: a violating plan is
        rejected (``plan-rejected`` quarantine) unless the job's health
        options provide the ``escalate`` runtime fallback, in which case
        it is admitted with a waiver (the ``plans_precision_waived``
        counter). ``None`` (default) runs only the structural precision
        rules. See docs/analysis.md.
    """

    kind: str
    operands: tuple[Any, ...]
    method: str = "recursive"
    options: QrOptions = QrOptions()
    trans_a: bool = True
    mode: str = "numeric"
    priority: int = 0
    device_memory: int | None = None
    name: str = ""
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    devices: int = 1
    tolerance: float | None = None

    def __post_init__(self) -> None:
        one_of(self.kind, JOB_KINDS, "kind")
        one_of(self.mode, ("numeric", "sim"), "mode")
        one_of(self.method, ("recursive", "blocking"), "method")
        if self.devices < 1:
            raise ValidationError(
                f"devices must be >= 1, got {self.devices}"
            )
        if self.devices > 1:
            if self.kind != "qr":
                raise ValidationError(
                    f"multi-device placement supports kind='qr' only, "
                    f"got {self.kind!r}"
                )
            if self.checkpoint_dir is not None:
                raise ValidationError(
                    "multi-device jobs do not support checkpointing"
                )
        if self.checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint_dir is not None:
            if self.kind == "gemm":
                raise ValidationError("gemm jobs do not support checkpointing")
            if self.mode != "numeric":
                raise ValidationError("checkpoint_dir requires mode='numeric'")
        expected = 2 if self.kind == "gemm" else 1
        if len(self.operands) != expected:
            raise ValidationError(
                f"{self.kind} jobs take {expected} operand(s), "
                f"got {len(self.operands)}"
            )
        for op in self.operands:
            if isinstance(op, np.ndarray):
                if self.mode == "sim":
                    raise ValidationError(
                        "sim jobs take (rows, cols) shape operands, not arrays"
                    )
            elif isinstance(op, tuple) and len(op) == 2:
                if self.mode == "numeric":
                    raise ValidationError(
                        "numeric jobs take ndarray operands, not shapes"
                    )
            else:
                raise ValidationError(
                    f"operands must be ndarrays or (rows, cols) tuples, "
                    f"got {type(op).__name__}"
                )
        if self.device_memory is not None and self.device_memory <= 0:
            raise ValidationError("device_memory must be positive or None")
        if self.tolerance is not None:
            # finite too: a NaN or infinite tolerance passes every plan
            positive_float(self.tolerance, "tolerance")

    def shapes(self) -> tuple[tuple[int, int], ...]:
        """The (rows, cols) of every operand, data or shape-only."""
        out = []
        for op in self.operands:
            if isinstance(op, np.ndarray):
                if op.ndim != 2:
                    raise ValidationError(
                        f"operands must be 2-D, got ndim={op.ndim}"
                    )
                out.append((int(op.shape[0]), int(op.shape[1])))
            else:
                out.append((int(op[0]), int(op[1])))
        return tuple(out)

    def label(self) -> str:
        """Short human-readable identity for logs and metrics."""
        dims = "x".join(str(d) for d in self.shapes()[0])
        return self.name or f"{self.kind}-{self.method}-{dims}"


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"      # admitted, waiting in the priority queue
    RUNNING = "running"      # dispatched to a worker
    DONE = "done"            # completed (possibly served from cache)
    FAILED = "failed"        # all retries exhausted; exception() is set


@dataclass
class JobResult:
    """What one completed job produced.

    ``arrays`` maps output names to (read-only) ndarrays: ``q``/``r`` for
    QR, ``c`` for GEMM, ``packed`` for LU and Cholesky. Simulated jobs
    carry no arrays but a simulated ``makespan``.
    """

    kind: str
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: Simulated seconds (sim jobs) or measured wall seconds (numeric).
    makespan: float = 0.0
    #: PCIe traffic of the run, both directions, in bytes.
    moved_bytes: int = 0
    #: True when this result was served from the content-addressed cache.
    cache_hit: bool = False
    #: :class:`~repro.ckpt.CheckpointStats` when the job ran with a
    #: checkpoint directory; None otherwise (including cache hits).
    ckpt: Any | None = None
    #: :class:`~repro.health.report.HealthReport` when the job ran with
    #: the numerical-health sentinel enabled (see docs/health.md); None
    #: otherwise.
    health: Any | None = None
    #: :class:`~repro.faults.report.FaultReport` when the job ran under
    #: fault injection (docs/robustness.md); None otherwise, including
    #: cache hits.
    faults: Any | None = None
    #: Execution attempts the service spent on this job (0 for cache
    #: hits — the job never ran).
    attempts: int = 0
    #: Surviving pool size a ``devices=P`` job was re-admitted at after
    #: losing devices (graceful degradation); None when the job ran at
    #: its requested size.
    degraded_to: int | None = None

    def freeze(self) -> "JobResult":
        """Mark all result arrays read-only (shared safely via the cache)."""
        for arr in self.arrays.values():
            arr.setflags(write=False)
        return self


class JobHandle:
    """Future-like handle returned by :meth:`FactorService.submit`.

    Thread-safe: the service resolves it exactly once; any number of
    threads may block in :meth:`result` / :meth:`wait`.
    """

    def __init__(
        self,
        job_id: int,
        spec: JobSpec,
        footprint_bytes: int,
        charged_bytes: int | None = None,
    ):
        self.job_id = job_id
        self.spec = spec
        #: Device bytes granted to the job — its executor's allocator
        #: capacity, and what the engines plan their tilings against.
        self.footprint_bytes = footprint_bytes
        #: Device bytes the admission controller actually charged to the
        #: budget: the plan verifier's exact peak when verification ran
        #: (never above the grant), else the grant itself.
        self.charged_bytes = (
            footprint_bytes if charged_bytes is None else charged_bytes
        )
        self.state = JobState.PENDING
        self.attempts = 0
        #: Seconds spent queued before the first dispatch.
        self.wait_s = 0.0
        #: Seconds of the final (successful or last) execution attempt.
        self.run_s = 0.0
        self._done = threading.Event()
        self._result: JobResult | None = None
        self._exception: BaseException | None = None

    # -- resolution (service side) ------------------------------------------------

    def _resolve(self, result: JobResult) -> None:
        self._result = result
        self.state = JobState.DONE
        self._done.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self.state = JobState.FAILED
        self._done.set()

    # -- caller side ---------------------------------------------------------------

    def done(self) -> bool:
        """Whether the job has retired (completed or failed)."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job retires; returns False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> JobResult:
        """The job's :class:`JobResult`; re-raises the job's exception on
        failure, :class:`TimeoutError` if it does not retire in time."""
        if not self._done.wait(timeout):
            # Deliberately the builtin, matching concurrent.futures
            # semantics callers already handle.
            raise TimeoutError(  # lint: allow[reproerror-raises]
                f"job {self.job_id} ({self.spec.label()}) not done after "
                f"{timeout} s"
            )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The job's exception (None on success)."""
        if not self._done.wait(timeout):
            raise TimeoutError(  # lint: allow[reproerror-raises]
                f"job {self.job_id} not done after {timeout} s"
            )
        return self._exception

    @property
    def cache_hit(self) -> bool:
        """Whether the job was served from the result cache."""
        return self._result is not None and self._result.cache_hit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle(#{self.job_id} {self.spec.label()} "
            f"{self.state.value}, {self.footprint_bytes >> 10} KiB)"
        )
