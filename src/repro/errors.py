"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration (GPU spec, system config)."""


class ShapeError(ReproError, ValueError):
    """Matrix/tile shapes are inconsistent for the requested operation."""


class OutOfDeviceMemoryError(ReproError):
    """A device allocation exceeded the simulated device-memory capacity."""

    def __init__(self, requested: int, free: int, capacity: int, what: str = ""):
        self.requested = int(requested)
        self.free = int(free)
        self.capacity = int(capacity)
        self.what = what
        msg = (
            f"out of device memory allocating {requested} bytes"
            f"{' for ' + what if what else ''}: "
            f"{free} free of {capacity} total"
        )
        super().__init__(msg)


class OutOfHostMemoryError(ReproError):
    """A run's host working set exceeds the configured host capacity.

    The paper hits this wall itself: "limited by our main memory capacity,
    we only tested the matrices with sizes 65536x65536 and 262144x65536"
    (§5.2, 128 GB host).
    """

    def __init__(self, required: int, capacity: int, what: str = ""):
        self.required = int(required)
        self.capacity = int(capacity)
        self.what = what
        super().__init__(
            f"host working set of {required} bytes"
            f"{' for ' + what if what else ''} exceeds host capacity "
            f"{capacity}"
        )


class AllocationError(ReproError):
    """Misuse of the device allocator (double free, unknown handle, ...)."""


class StreamError(ReproError):
    """Misuse of streams or events (waiting on an unrecorded event, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an invalid state."""


class DeadlockError(SimulationError):
    """Cross-stream event dependencies formed a cycle; no op can make progress.

    Real CUDA programs can also hard-hang this way (e.g. a stream waiting on
    an event that is only recorded behind the waiting op in another engine
    queue); the simulator detects it and reports the stuck ops.
    """

    def __init__(self, stuck_ops):
        self.stuck_ops = list(stuck_ops)
        names = ", ".join(op.name for op in self.stuck_ops[:8])
        more = "" if len(self.stuck_ops) <= 8 else f" (+{len(self.stuck_ops) - 8} more)"
        super().__init__(f"simulation deadlock; stuck ops: {names}{more}")


class PlanError(ReproError):
    """An out-of-core tiling plan could not be constructed (e.g. a working
    set that can never fit in device memory)."""


class AdmissionError(ReproError):
    """The factorization service refused a job (queue saturated, footprint
    over budget, service shutting down). ``reason`` is a short machine-
    readable tag; the message carries the details."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class ExecutionError(ReproError):
    """An executor was driven through an invalid sequence of operations."""


class AnalysisError(ReproError):
    """Static analysis could not run or a lint/verify rule was violated.

    Raised by the :mod:`repro.analysis` subsystem (plan verifier + repo
    lint pack). Like every :class:`ReproError`, the CLI maps it to a
    one-line ``error:`` message and exit code 2.
    """


class PlanViolation(AnalysisError):
    """The plan verifier proved a recorded program unsafe.

    Carries the full :class:`~repro.analysis.verify.AnalysisReport` in
    ``report`` so callers (the serve admission path, tests) can inspect
    which pass failed and which op is at fault; the message lists the
    first few findings.
    """

    def __init__(self, report):
        self.report = report
        findings = getattr(report, "findings", [])
        listing = "; ".join(str(f) for f in findings[:4])
        more = "" if len(findings) <= 4 else f" (+{len(findings) - 4} more)"
        label = getattr(report, "label", "") or "plan"
        super().__init__(
            f"{label}: {len(findings)} static-analysis violation(s): "
            f"{listing}{more}"
        )


class PrecisionError(AnalysisError):
    """The static precision/error-flow pass could not certify a plan.

    Raised by :mod:`repro.analysis.precision` when a mixed-precision plan
    is structurally broken (TensorCore input-format invariant, wasted
    upcast) or its predicted forward-error bound cannot meet the caller's
    tolerance. Like every :class:`ReproError`, the CLI maps it to a
    one-line ``error:`` message and exit code 2.
    """


class PrecisionViolation(PrecisionError):
    """The precision verifier proved a plan numerically unsafe.

    Mirrors :class:`PlanViolation`: carries the full
    :class:`~repro.analysis.verify.AnalysisReport` in ``report`` (its
    ``precision_bound`` / ``precision_tolerance`` fields hold the
    predicted bound and the tolerance it was checked against); the
    message lists the first few findings.
    """

    def __init__(self, report):
        self.report = report
        findings = getattr(report, "findings", [])
        listing = "; ".join(str(f) for f in findings[:4])
        more = "" if len(findings) <= 4 else f" (+{len(findings) - 4} more)"
        label = getattr(report, "label", "") or "plan"
        super().__init__(
            f"{label}: {len(findings)} precision violation(s): "
            f"{listing}{more}"
        )


class CheckpointError(ReproError):
    """A checkpoint could not be trusted or applied (corrupt manifest or
    payload, config fingerprint mismatch, wrong backing storage).
    ``reason`` is a short machine-readable tag; the message carries the
    details. Never raised for a merely *absent* checkpoint — that is a
    normal fresh start."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class ValidationError(ReproError, ValueError):
    """Invalid argument value (non-positive dimension, bad enum string...)."""


class NumericalError(ReproError, ArithmeticError):
    """A factorization went numerically bad and no recovery remains.

    Deterministic by construction: re-running the same job on the same
    data reproduces the failure, so the serve layer quarantines instead
    of retrying. ``reason`` is a short machine-readable tag; ``report``
    (when present) is the :class:`repro.health.HealthReport` accumulated
    up to the failure point.
    """

    def __init__(self, reason: str, detail: str = "", report=None):
        self.reason = reason
        self.detail = detail
        self.report = report
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class NonFiniteError(NumericalError):
    """A NaN/Inf was detected in an operand, transfer, or result."""

    def __init__(self, detail: str = "", report=None):
        super().__init__("non-finite", detail, report)


class BreakdownError(NumericalError, ValidationError):
    """Rank-deficiency / norm collapse: a panel column became (numerically)
    dependent on earlier columns, so no orthonormal basis exists.

    Also a :class:`ValidationError` so pre-existing callers that treated
    dependent columns as invalid input keep catching it."""

    def __init__(self, detail: str = "", report=None):
        super().__init__("breakdown", detail, report)


class PanelRejected(ReproError):
    """A fast panel algorithm's acceptance rule refused its input; the
    caller factors the panel with a stable algorithm instead. ``reason``
    is a short machine-readable tag."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class EscalationExhaustedError(NumericalError):
    """Every rung of the escalation ladder was tried and the panel is
    still numerically unhealthy."""

    def __init__(self, detail: str = "", report=None):
        super().__init__("escalation-exhausted", detail, report)


class FaultError(ReproError):
    """An execution fault in the distributed pool that recovery could not
    (or was told not to) absorb: retries exhausted on a transient fault,
    every device lost, or a recovered placement that failed
    re-verification. ``reason`` is a short machine-readable tag
    (``retries-exhausted``, ``task-timeout``, ``pool-exhausted``,
    ``recovery-unverified``, ...); the message carries the details.

    Deliberately *not* in the serve layer's ``DETERMINISTIC_ERRORS``:
    a fault is transient by definition, so the service's retry ladder
    applies to it (see docs/robustness.md).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class InjectedFaultError(FaultError):
    """A transient fault fired by the :mod:`repro.faults` injection plane
    (``worker_crash``, ``task_error``, ``transfer_timeout``,
    ``transfer_stall``). Raised at the guarded site exactly where the
    real fault would surface, so detection and recovery exercise the
    production path; ``event`` is the :class:`repro.faults.FaultEvent`
    that fired."""

    def __init__(self, reason: str, detail: str = "", event=None):
        self.event = event
        super().__init__(reason, detail)


class DeviceLostError(FaultError):
    """A device dropped out of the pool mid-run.

    ``device`` is the lost member; ``lost`` accumulates every device lost
    so far in the run (so the serve layer can re-admit at the surviving
    size). Recoverable below the job boundary via lineage replay
    (:mod:`repro.dist.recovery`); when recovery is disabled or the pool
    is exhausted this escapes to the caller.
    """

    def __init__(self, device: int, detail: str = "", lost=()):
        self.device = int(device)
        self.lost = tuple(lost) if lost else (self.device,)
        super().__init__(
            "device-lost",
            detail or f"device {device} dropped out of the pool",
        )
