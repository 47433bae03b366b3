"""`FactorService`: a multi-tenant out-of-core factorization service.

One service owns one (simulated) device and serves a stream of QR / GEMM /
LU / Cholesky jobs under a device-memory budget:

* :meth:`FactorService.submit` validates a :class:`~repro.serve.job.JobSpec`,
  prices its device footprint (:mod:`repro.serve.admission`), consults the
  content-addressed result cache, and either resolves the returned
  :class:`~repro.serve.job.JobHandle` immediately (cache hit), enqueues it,
  or rejects it with a reasoned :class:`~repro.errors.AdmissionError`
  (backpressure: bounded queue, footprint over budget);
* a scheduler thread dispatches the highest-priority queued job whose
  footprint fits the remaining budget onto a pool of worker threads —
  smaller jobs may overtake a too-large queue head (first-fit packing);
* each job runs on its own executor (the eager
  :class:`~repro.execution.numeric.NumericExecutor`, the threaded task
  DAG, or a :class:`~repro.execution.sim.SimExecutor` for data-free
  capacity planning) whose allocator capacity *is* the admitted footprint, so the
  budget is enforced by construction;
* worker faults retry with exponential backoff (a failed threaded run
  joins its scheduler workers before the error reaches the job, so a
  failed pipeline unwinds cleanly first); deterministic input errors
  fail fast;
* everything observable lands in a :class:`~repro.obs.metrics.MetricsRegistry`
  (queue depth, admitted bytes, wait/run latencies, cache hit rate,
  rejections, retries) exposable as a JSON snapshot.

See docs/serve.md for the architecture discussion.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import (
    AdmissionError,
    AnalysisError,
    CheckpointError,
    ConfigError,
    DeviceLostError,
    NumericalError,
    OutOfDeviceMemoryError,
    OutOfHostMemoryError,
    PlanError,
    PlanViolation,
    PrecisionViolation,
    ShapeError,
    ValidationError,
)
from repro.faults.inject import as_injector
from repro.faults.report import FaultReport
from repro.obs import clock as _clock
from repro.obs.clock import monotonic as _monotonic
from repro.obs.span import NULL_RECORDER, SpanRecorder
from repro.serve.admission import AdmissionController, estimate_footprint_bytes
from repro.serve.cache import LruCache, ResultCache, job_cache_key
from repro.serve.job import JobHandle, JobResult, JobSpec, JobState
from repro.obs.metrics import MetricsRegistry
from repro.util.validation import one_of

#: Exception types never worth retrying: the same inputs will fail again.
#: NumericalError is here because the executors are deterministic — a job
#: whose data NaN'd or whose escalation ladder was exhausted will do so
#: identically on every retry; the service quarantines it instead (one
#: attempt, failure report attached, ``jobs_quarantined`` incremented).
#: :class:`~repro.errors.FaultError` is deliberately *not* here: faults
#: are transient by definition, so a faulted attempt retries (and its
#: injected spec has burnt, so the retry makes progress). Its
#: ``DeviceLostError`` subclass is handled separately — the degradation
#: path, not the retry ladder.
DETERMINISTIC_ERRORS = (
    ValidationError,
    ShapeError,
    PlanError,
    ConfigError,
    AdmissionError,
    AnalysisError,
    CheckpointError,
    NumericalError,
    OutOfDeviceMemoryError,
    OutOfHostMemoryError,
)

#: Plan identities whose admission verdict one service remembers (see
#: :meth:`FactorService._plan_verdict`). An entry is one small
#: ``AnalysisReport`` (or an unplannable message), never the task graph.
PLAN_CACHE_ENTRIES = 256


def run_job(
    spec: JobSpec,
    config: SystemConfig,
    concurrency: str,
    *,
    faults=None,
    dist_recover: bool = True,
) -> JobResult:
    """Execute one job on *config* and package its outputs.

    This is the default runner; the service accepts a replacement (the
    positional three-argument signature suffices — the keyword-only
    fault-plane arguments are passed to the default runner only) for
    fault injection and capacity experiments. *faults* is a
    :class:`~repro.faults.plan.FaultPlan` or a live per-job injector;
    *dist_recover* controls whether multi-device jobs absorb device
    losses via lineage recovery or surface them to the service's
    degradation path.
    """
    opts = spec.options
    if spec.kind == "gemm":
        from repro.ooc.api import ooc_gemm

        a, b = spec.operands
        res = ooc_gemm(
            a, b, trans_a=spec.trans_a, mode=spec.mode, config=config,
            blocksize=opts.blocksize, pipelined=opts.pipelined,
            concurrency=concurrency if spec.mode == "numeric" else "serial",
        )
        arrays = {} if res.c is None else {"c": res.c}
        return JobResult(
            kind=spec.kind, arrays=arrays, makespan=res.makespan,
            moved_bytes=res.stats.moved_bytes,
        )

    if spec.devices > 1:
        return _run_dist_job(spec, config, faults=faults, recover=dist_recover)

    kwargs: dict[str, Any] = dict(
        method=spec.method, mode=spec.mode, config=config, options=opts,
    )
    if spec.mode == "numeric":
        kwargs["concurrency"] = concurrency
    if spec.checkpoint_dir is not None:
        from repro.ckpt import CheckpointConfig, CheckpointPolicy

        kwargs["checkpoint"] = CheckpointConfig(
            spec.checkpoint_dir,
            policy=CheckpointPolicy(every_steps=spec.checkpoint_every),
        )
    if spec.kind == "qr":
        from repro.qr.api import ooc_qr

        res = ooc_qr(spec.operands[0], **kwargs)
        arrays = {} if res.q is None else {"q": res.q, "r": res.r}
    else:
        from repro.factor.api import ooc_cholesky, ooc_lu

        run = ooc_lu if spec.kind == "lu" else ooc_cholesky
        res = run(spec.operands[0], **kwargs)
        arrays = {} if res.packed is None else {"packed": res.packed}
    return JobResult(
        kind=spec.kind, arrays=arrays, makespan=res.makespan,
        moved_bytes=res.stats.moved_bytes, ckpt=res.ckpt, health=res.health,
    )


def _run_dist_job(
    spec: JobSpec, config: SystemConfig, *, faults=None, recover: bool = True
) -> JobResult:
    """Place one QR job across a device pool via :mod:`repro.dist`.

    Numeric jobs run the sharded TSQR backend inline (the service's
    worker threads are the concurrency layer; no per-job process pool).
    Sim jobs partition the global task graph across a symmetric pool
    built from the job's capped per-device config and *verify every
    per-device program* — this is where the plan verification that
    submit skips for multi-device jobs actually happens; an unsafe
    placement fails the job deterministically with the report attached.
    With ``recover=True`` (the default) injected device losses are
    absorbed inside the backend — lineage recovery, results bitwise
    identical to fault-free; ``recover=False`` lets the loss escape as
    :class:`~repro.errors.DeviceLostError` for the service's graceful
    degradation path.
    """
    if spec.tolerance is not None:
        # Multi-device jobs skip the single-device submit-time capture, so
        # the precision gate runs here against the global dist graph (the
        # bound prices the reduction tree by depth; docs/analysis.md).
        from repro.analysis import PRECISION_RULES
        from repro.dist.sim import dist_precision_report

        dm, dn = spec.shapes()[0]
        report = dist_precision_report(
            config, m=dm, n=dn, n_devices=spec.devices,
            tolerance=spec.tolerance,
        )
        if (
            any(f.rule in PRECISION_RULES for f in report.findings)
            and not spec.options.health.escalating
        ):
            raise PrecisionViolation(report)
    if spec.mode == "numeric":
        from repro.dist.numeric import dist_qr_numeric

        res = dist_qr_numeric(
            spec.operands[0], n_devices=spec.devices, processes=0,
            faults=faults, recover=recover,
        )
        comm = res.comm
        return JobResult(
            kind=spec.kind,
            arrays={"q": res.q, "r": res.r},
            moved_bytes=(comm.total_up_words + comm.down_words) * 8,
            faults=res.faults,
        )
    from repro.dist.sim import simulate_dist_qr

    m, n = spec.shapes()[0]
    sim = simulate_dist_qr(
        config, m=m, n=n, n_devices=spec.devices, faults=faults
    )
    if not sim.all_verified:
        bad = next(r for r in sim.reports if not r.ok)
        raise PlanViolation(bad)
    return JobResult(
        kind=spec.kind,
        arrays={},
        makespan=sim.makespan,
        moved_bytes=sim.transfer_bytes,
        faults=sim.faults,
    )


@dataclass(order=True)
class _QueueEntry:
    """Heap entry: priority first, then submission order."""

    priority: int
    seq: int
    job: "_Job" = field(compare=False, default=None)  # type: ignore[assignment]


@dataclass(eq=False)
class _Job:
    spec: JobSpec
    handle: JobHandle
    cache_key: str | None
    #: ``submit()`` entry: turnaround runs from here, like the root span.
    received_at: float
    #: Enqueue instant: queue wait runs from here, so it excludes the
    #: plan verification done in the caller's thread.
    submitted_at: float
    #: Pre-allocated root span id (admission -> verify -> wait -> execute
    #: -> cache); the span itself is recorded when the job retires.
    obs_root: int | None = None
    #: Recorder-timebase submit instant (the root span's start).
    obs_t0: float = 0.0


class FactorService:
    """Multi-tenant factorization service (see module docstring).

    Parameters
    ----------
    config
        The device being served; defaults to the paper's V100 testbed.
        Tests pass memory-starved configs so tiny jobs exercise real
        queueing and packing.
    device_budget
        Total device bytes concurrently admitted jobs may hold; defaults
        to the config's usable device bytes (one whole device).
    n_workers
        Worker threads (= maximum concurrently running jobs).
    queue_limit
        Bound on *queued* (admitted but not yet running) jobs; submissions
        beyond it are rejected with reason ``queue-saturated``.
    cache
        A :class:`~repro.serve.cache.ResultCache` to share, True for a
        fresh private 128-entry cache (the default), or None/False to
        disable result caching.
    max_retries / backoff_base_s / backoff_max_s
        Per-job retry policy for transient worker faults: attempt N sleeps
        ``min(backoff_max_s, backoff_base_s * 2**N)`` before re-running.
    job_concurrency
        Executor flavour for numeric jobs: ``"serial"`` or ``"threads"``
        (the task DAG on worker threads inside each job,
        docs/concurrency.md).
    metrics
        A shared :class:`~repro.obs.metrics.MetricsRegistry`; defaults
        to a private one.
    runner
        Replacement for :func:`run_job` (fault injection, test doubles).
    verify_plans
        Run the static plan verifier (:mod:`repro.analysis`) at submit
        time: the job's task graph is recorded symbolically under its
        exact grant, proved race-free / leak-free / within budget, and
        the verifier's *exact* peak-memory result — not the plan
        heuristic — is what admission charges. Plans with findings are
        quarantined with ``AdmissionError("plan-rejected")`` before they
        ever touch the queue. Verdicts are memoized per plan identity
        (shape, options, grant, tolerance — never the data), so a repeat
        shape skips recording and verification. On by default; see
        docs/analysis.md.
    obs
        A shared :class:`~repro.obs.SpanRecorder`. Every job then records
        one root span (submit to retire) on a ``jobs`` lane plus
        verify/wait/attempt child spans on a ``serve`` lane; off by
        default. See docs/observability.md.
    faults
        A :class:`~repro.faults.plan.FaultPlan` injected into every job:
        each execution gets its *own* injector (specs burn down per job,
        so retries and degraded re-runs make progress past an injected
        fault), guarding the worker attempt (site ``serve-worker``) and,
        for multi-device jobs, every dist-backend site. Off by default;
        a disabled plan is bitwise-off. See docs/robustness.md.
    on_device_loss
        Policy for a ``devices=P`` job whose pool loses members:
        ``"recover"`` (default) absorbs the loss inside the dist backend
        — lineage recovery, results bitwise identical to fault-free at
        the full pool size; ``"degrade"`` re-admits the job at the
        surviving pool size (re-priced through the admission charger,
        ``jobs_degraded`` incremented, result carries ``degraded_to``);
        ``"fail"`` fails the job deterministically (the chaos-smoke
        negative control).
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        device_budget: int | None = None,
        n_workers: int = 2,
        queue_limit: int = 64,
        cache: ResultCache | None | bool = True,
        max_retries: int = 2,
        backoff_base_s: float = 0.02,
        backoff_max_s: float = 1.0,
        job_concurrency: str = "serial",
        metrics: MetricsRegistry | None = None,
        runner: Callable[[JobSpec, SystemConfig, str], JobResult] | None = None,
        verify_plans: bool = True,
        obs: SpanRecorder | None = None,
        faults=None,
        on_device_loss: str = "recover",
    ):
        self.config = config or PAPER_SYSTEM
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
        self.job_concurrency = one_of(
            job_concurrency, ("serial", "threads"), "job_concurrency"
        )
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.verify_plans = verify_plans
        self.faults = faults
        self.on_device_loss = one_of(
            on_device_loss, ("recover", "degrade", "fail"), "on_device_loss"
        )
        self.metrics = metrics or MetricsRegistry()
        # Span recorder (repro.obs): one root span per job spanning
        # admission -> verify -> wait -> execute -> cache, with phase
        # child spans; disabled by default (docs/observability.md).
        self.obs = obs if obs is not None else NULL_RECORDER
        self.admission = AdmissionController(
            budget_bytes=(
                device_budget
                if device_budget is not None
                else self.config.usable_device_bytes
            ),
            max_pending=queue_limit,
        )
        self._runner = runner or run_job
        # Admission verdicts by plan identity (_plan_verdict): plans depend
        # on shape, options and grant only, never on the operands' data.
        self._plan_cache = LruCache(PLAN_CACHE_ENTRIES)

        m = self.metrics
        self._submitted_c = m.counter("jobs_submitted", "jobs accepted by submit()")
        self._completed_c = m.counter("jobs_completed", "jobs finished successfully")
        self._failed_c = m.counter("jobs_failed", "jobs that exhausted retries")
        self._rejected_c = m.counter("jobs_rejected", "submissions refused by admission")
        self._retries_c = m.counter("job_retries", "re-executions after worker faults")
        self._cache_hits_c = m.counter("cache_hits", "submissions served from cache")
        self._cache_misses_c = m.counter("cache_misses", "submissions that had to run")
        self._queue_depth_g = m.gauge("queue_depth", "jobs waiting to be dispatched")
        self._running_g = m.gauge("jobs_running", "jobs currently executing")
        self._admitted_g = m.gauge("admitted_bytes", "device bytes charged to running jobs")
        self._wait_h = m.histogram("queue_wait_s", "enqueue-to-dispatch latency")
        self._run_h = m.histogram("run_s", "execution time of the final attempt")
        self._turnaround_h = m.histogram("turnaround_s", "submit-to-done latency")
        self._ckpt_written_c = m.counter(
            "checkpoints_written", "checkpoints persisted by jobs"
        )
        self._ckpt_bytes_c = m.counter(
            "checkpoint_bytes", "payload bytes written to checkpoints"
        )
        self._resumes_c = m.counter(
            "resumes", "job executions that resumed from a checkpoint"
        )
        self._steps_skipped_c = m.counter(
            "steps_skipped_on_resume", "steps skipped by resumed jobs"
        )
        self._quarantined_c = m.counter(
            "jobs_quarantined",
            "jobs refused by the numerical-health sentinel (poison jobs: "
            "deterministic failures, one attempt, never retried)",
        )
        self._escalations_c = m.counter(
            "escalations_total", "panel escalations recorded across all jobs"
        )
        self._plans_verified_c = m.counter(
            "plans_verified", "submissions whose plan the verifier proved clean"
        )
        self._plans_rejected_c = m.counter(
            "plans_rejected",
            "submissions quarantined because the static plan verifier "
            "found violations (race, leak, over-budget peak, ...)",
        )
        self._plan_cache_hits_c = m.counter(
            "plan_cache_hits",
            "plan verifications answered from the plan-verdict cache "
            "(no recording, no verification)",
        )
        self._plans_precision_waived_c = m.counter(
            "plans_precision_waived",
            "submissions admitted despite precision findings because the "
            "job's health=escalate runtime fallback can recover per-panel "
            "(static bound over tolerance, waived; see docs/analysis.md)",
        )
        self._distributed_c = m.counter(
            "jobs_distributed",
            "jobs placed across a multi-device pool via repro.dist",
        )
        self._faults_injected_c = m.counter(
            "faults_injected",
            "faults fired by the injection plane across all jobs",
        )
        self._recoveries_c = m.counter(
            "recoveries_total",
            "device-loss recoveries (lineage replays) performed by jobs",
        )
        self._degraded_c = m.counter(
            "jobs_degraded",
            "devices=P jobs re-admitted at a smaller surviving pool size "
            "after device loss (graceful degradation, never cached)",
        )

        self._cv = threading.Condition()
        self._pending: list[_QueueEntry] = []
        self._seq = itertools.count()
        self._free_workers = n_workers
        self._active = 0
        self._closed = False
        self._run_queue: "queue.SimpleQueue[_Job | None]" = queue.SimpleQueue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for w in self._workers:
            w.start()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- public API ---------------------------------------------------------------

    def job_config(self, spec: JobSpec) -> SystemConfig:
        """The exact capped config a job runs under (admitted footprint as
        allocator capacity) — submit-independent, so a direct
        ``ooc_qr``/``ooc_gemm``/``ooc_lu`` call on this config reproduces
        the service's result bit for bit."""
        return self._capped_config(estimate_footprint_bytes(spec, self.config))

    def verify_job(self, spec: JobSpec):
        """Statically verify the plan *spec* would run under its grant.

        Records the job's task graph symbolically (no data, no clock)
        under the same capped config :meth:`job_config` returns and runs
        every verifier pass against the grant as the budget. Returns the
        :class:`~repro.analysis.verify.AnalysisReport`; raises
        :class:`~repro.errors.AdmissionError` (``job-unplannable``) when
        the engines cannot even plan inside the grant. A plan identity the
        service has seen before is answered from its verdict cache; the
        report is then shared and must be treated as read-only.
        """
        footprint = estimate_footprint_bytes(spec, self.config)
        return self._plan_verdict(spec, footprint)[0]

    def _verify_plan(self, spec: JobSpec, footprint: int):
        """Record and verify *spec*'s task graph under its grant (uncached;
        raises :class:`~repro.errors.PlanError` when it cannot plan)."""
        from repro.analysis import capture_job, verify_program

        program = capture_job(spec, self._capped_config(footprint))
        return verify_program(
            program, budget_bytes=footprint, tolerance=spec.tolerance
        )

    def _plan_verdict(self, spec: JobSpec, footprint: int):
        """``(report, cached)`` for *spec*'s plan under *footprint*.

        The key is everything :meth:`_verify_plan` reads: the capped
        config (which carries the grant), kind, method, mode, ``trans_a``,
        operand shapes, options and tolerance — all frozen and compared
        by exact equality, so there is no digest to collide. A miss runs
        :meth:`_verify_plan` and remembers the report, or for an
        unplannable job only the plan error's message (an exception would
        pin its traceback's frames, recorded graph included); a hit
        replays it. An unplannable verdict raises a fresh
        ``AdmissionError`` (``job-unplannable``) either way. Concurrent
        first-of-shape misses may each verify; their verdicts are equal,
        so the last write wins harmlessly.
        """
        key = (
            self._capped_config(footprint), spec.kind, spec.method,
            spec.mode, spec.trans_a, spec.shapes(), spec.options,
            spec.tolerance,
        )
        verdict = self._plan_cache.get(key)
        cached = verdict is not None
        if cached:
            self._plan_cache_hits_c.inc()
        else:
            try:
                verdict = self._verify_plan(spec, footprint)
            except PlanError as exc:
                verdict = str(exc)
            self._plan_cache.put(key, verdict)
        if isinstance(verdict, str):
            cause = PlanError(verdict)
            raise AdmissionError(
                "job-unplannable",
                f"{spec.label()} cannot be planned inside its "
                f"{footprint}-byte grant: {cause}",
            ) from cause
        return verdict, cached

    def _gate_plan(self, spec: JobSpec, footprint: int, rid, t_submit):
        """Verify *spec*'s plan and apply the admission gate; returns
        ``(report, cached)``, or raises ``AdmissionError`` (counting and
        recording the rejection). Precision-only findings are waived —
        with the ``plans_precision_waived`` counter on the books — when
        the job's health options provide the ``escalate`` runtime
        fallback. Counters move once per job, cached verdict or not."""
        try:
            report, cached = self._plan_verdict(spec, footprint)
        except AdmissionError:
            self._rejected_c.inc()
            self._record_job_root(spec, rid, t_submit, "rejected")
            raise
        if report.findings:
            from repro.analysis import PRECISION_RULES

            precision_only = all(
                f.rule in PRECISION_RULES for f in report.findings
            )
            if precision_only and spec.options.health.escalating:
                # The runtime escalation ladder (docs/health.md) can
                # re-run unhealthy panels at higher precision, so a
                # statically-over-tolerance plan is admissible — with
                # a waiver on the books, not silently.
                self._plans_precision_waived_c.inc()
            else:
                self._plans_rejected_c.inc()
                self._rejected_c.inc()
                self._record_job_root(spec, rid, t_submit, "plan-rejected")
                violation = (
                    PrecisionViolation(report)
                    if precision_only
                    else PlanViolation(report)
                )
                raise AdmissionError(
                    "plan-rejected", str(violation)
                ) from violation
        else:
            self._plans_verified_c.inc()
        return report, cached

    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; returns its future-like handle.

        Raises :class:`~repro.errors.AdmissionError` (with a ``reason``
        tag) when the job can never fit the budget, the queue is
        saturated, the service is closed, or (``verify_plans``) the
        static plan verifier proves the job's op stream unsafe
        (``plan-rejected``) — including the precision pass when the spec
        carries a ``tolerance`` (waived if the job's ``health=escalate``
        runtime fallback can recover per-panel; see docs/analysis.md).
        """
        received_at = _monotonic()
        obs = self.obs
        # Root span id + start are fixed at submit; the span itself is
        # recorded whenever the job retires (any thread, any outcome).
        t_submit = obs.now() if obs.enabled else 0.0
        rid = obs.allocate_id() if obs.enabled else None
        footprint = estimate_footprint_bytes(spec, self.config)
        key = None
        if self.cache is not None and spec.mode == "numeric":
            key = job_cache_key(spec, self.config, footprint)
            cached = self.cache.get(key)
            if cached is not None:
                if (
                    spec.tolerance is not None
                    and self.verify_plans
                    and spec.devices == 1
                ):
                    # A cached result must not bypass the precision gate:
                    # the tolerance is an admission predicate, not part of
                    # the result's identity (the plan computes the same
                    # bits either way, so it is absent from the cache key).
                    self._gate_plan(spec, footprint, rid, t_submit)
                self._cache_hits_c.inc()
                handle = JobHandle(next(self._seq), spec, footprint)
                handle._resolve(
                    JobResult(
                        kind=cached.kind, arrays=cached.arrays,
                        makespan=cached.makespan,
                        moved_bytes=cached.moved_bytes, cache_hit=True,
                        health=cached.health,
                    )
                )
                self._record_job_root(spec, rid, t_submit, "cache-hit")
                return handle
            self._cache_misses_c.inc()

        # Static plan verification happens outside the scheduler lock: the
        # capture is pure (no data, no clock, no shared state), and a
        # repeat plan identity is a verdict-cache lookup.
        # Multi-device jobs skip the single-device capture: their
        # placement is verified per-device by the dist runner instead
        # (every DeviceProgram through verify_program; see _run_dist_job).
        charge = footprint
        if self.verify_plans and spec.devices == 1:
            verify_t0 = obs.now() if obs.enabled else 0.0
            report, cached = self._gate_plan(spec, footprint, rid, t_submit)
            if obs.enabled:
                obs.record(
                    "verify", verify_t0, obs.now(), cat="serve", lane="serve",
                    parent_id=rid,
                    attrs={"job": spec.label(), "cached": cached},
                )
            # Charge the verifier's exact peak, not the plan heuristic.
            # The grant (allocator capacity the job runs under) stays at
            # the heuristic footprint so the engines plan identically; a
            # clean report proves the run never exceeds ``peak_bytes`` of
            # that grant, so that is all the budget it needs to hold. An
            # explicit ``spec.device_memory`` is a deliberate reservation
            # (headroom the caller asked to hold) and is charged as-is.
            if spec.device_memory is None:
                charge = max(report.peak_bytes, 1)

        with self._cv:
            if self._closed:
                self._rejected_c.inc()
                self._record_job_root(spec, rid, t_submit, "rejected")
                raise AdmissionError("service-closed", "submit after close()")
            try:
                self.admission.check_submittable(charge, spec.label())
            except AdmissionError:
                self._rejected_c.inc()
                self._record_job_root(spec, rid, t_submit, "rejected")
                raise
            handle = JobHandle(next(self._seq), spec, footprint, charged_bytes=charge)
            job = _Job(
                spec=spec, handle=handle, cache_key=key,
                received_at=received_at, submitted_at=_monotonic(),
                obs_root=rid, obs_t0=t_submit,
            )
            heapq.heappush(
                self._pending,
                _QueueEntry(priority=spec.priority, seq=handle.job_id, job=job),
            )
            self.admission.enqueue()
            self._submitted_c.inc()
            if spec.devices > 1:
                self._distributed_c.inc()
            self._queue_depth_g.set(len(self._pending))
            self._cv.notify_all()
        return handle

    def _record_job_root(
        self,
        spec: JobSpec,
        rid: int | None,
        t_start: float,
        outcome: str,
        attempts: int | None = None,
    ) -> None:
        """Record a job's root span (pre-allocated id) at retirement."""
        if not self.obs.enabled or rid is None:
            return
        attrs: dict[str, Any] = {"kind": spec.kind, "outcome": outcome}
        if attempts is not None:
            attrs["attempts"] = attempts
        self.obs.record(
            f"job:{spec.label()}", t_start, self.obs.now(),
            cat="job", lane="jobs", span_id=rid, parent_id=None, attrs=attrs,
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted job has retired; False on timeout."""
        deadline = None if timeout is None else _monotonic() + timeout
        with self._cv:
            while self._pending or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining)
        return True

    def snapshot_metrics(self) -> dict[str, Any]:
        """JSON-able view of every counter/gauge/histogram."""
        return self.metrics.snapshot()

    def close(self, wait: bool = True) -> None:
        """Stop the service. Still-queued jobs are rejected (their handles
        fail with ``service-closed``); running jobs finish. Idempotent."""
        with self._cv:
            if self._closed:
                if wait:
                    self._join(self._scheduler)
                    for w in self._workers:
                        self._join(w)
                return
            self._closed = True
            self._cv.notify_all()
        if wait:
            self._join(self._scheduler)
            for w in self._workers:
                self._join(w)

    @staticmethod
    def _join(thread: threading.Thread, timeout: float = 60.0) -> None:
        thread.join(timeout)

    def __enter__(self) -> "FactorService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=True)

    # -- scheduling ---------------------------------------------------------------

    def _capped_config(self, footprint: int) -> SystemConfig:
        """The service config with the allocator capacity set to exactly
        *footprint* bytes (zero reserve: the reserve was already taken out
        of the service-level usable bytes)."""
        return replace(
            self.config,
            gpu=self.config.gpu.with_memory(footprint, suffix="job"),
            mem_reserve_fraction=0.0,
        )

    def _pick_locked(self) -> _Job | None:
        """Highest-priority queued job whose footprint fits right now.

        Skipped entries (too big for the current remaining budget) are
        pushed back — smaller, later jobs may overtake them, which is what
        keeps the device packed.
        """
        skipped: list[_QueueEntry] = []
        picked: _Job | None = None
        while self._pending:
            entry = heapq.heappop(self._pending)
            if self.admission.fits(entry.job.handle.charged_bytes):
                picked = entry.job
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(self._pending, entry)
        return picked

    def _scheduler_loop(self) -> None:
        while True:
            with self._cv:
                job: _Job | None = None
                while not self._closed:
                    if self._free_workers > 0:
                        job = self._pick_locked()
                        if job is not None:
                            break
                    self._cv.wait()
                if job is None and self._closed:
                    # reject whatever is still queued, then stop the pool
                    while self._pending:
                        entry = heapq.heappop(self._pending)
                        self.admission.drop_pending()
                        self._rejected_c.inc()
                        self._record_job_root(
                            entry.job.spec, entry.job.obs_root,
                            entry.job.obs_t0, "rejected",
                        )
                        entry.job.handle._fail(
                            AdmissionError(
                                "service-closed",
                                f"{entry.job.spec.label()} still queued at close",
                            )
                        )
                    self._queue_depth_g.set(0)
                    self._cv.notify_all()
                    for _ in self._workers:
                        self._run_queue.put(None)
                    return
                assert job is not None
                self.admission.acquire(
                    job.handle.job_id, job.handle.charged_bytes
                )
                self._free_workers -= 1
                self._active += 1
                self._queue_depth_g.set(len(self._pending))
                self._admitted_g.set(self.admission.in_use_bytes)
                self._running_g.set(self._active)
            self._run_queue.put(job)

    # -- execution ----------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._run_queue.get()
            if job is None:
                return
            try:
                self._execute(job)
            finally:
                with self._cv:
                    self.admission.release(job.handle.job_id)
                    self._free_workers += 1
                    self._active -= 1
                    self._admitted_g.set(self.admission.in_use_bytes)
                    self._running_g.set(self._active)
                    self._cv.notify_all()

    def _call_runner(self, spec: JobSpec, config: SystemConfig, injector):
        """Dispatch one attempt. The default runner receives the fault
        plane; replacement runners keep the plain three-argument call."""
        if self._runner is run_job:
            return run_job(
                spec, config, self.job_concurrency,
                faults=injector,
                dist_recover=self.on_device_loss == "recover",
            )
        return self._runner(spec, config, self.job_concurrency)

    def _retire_faults(self, job: _Job, injector, result) -> None:
        """Fault-plane bookkeeping at retirement: counters plus one obs
        instant per injected fault on the job's span stream."""
        if injector is None:
            return
        self._faults_injected_c.inc(injector.fired)
        if result is not None and result.faults is not None:
            self._recoveries_c.inc(result.faults.recoveries)
        if self.obs.enabled and job.obs_root is not None:
            for ev in injector.events:
                self.obs.event(
                    f"fault:{ev.describe()}", cat="fault", lane="serve",
                    parent_id=job.obs_root,
                    attrs={"job": job.spec.label(), "kind": ev.kind},
                )

    def _execute(self, job: _Job) -> None:
        handle = job.handle
        spec = job.spec
        obs = self.obs
        handle.state = JobState.RUNNING
        handle.wait_s = _monotonic() - job.submitted_at
        self._wait_h.observe(handle.wait_s)
        if obs.enabled and job.obs_root is not None:
            obs.record(
                "wait", job.obs_t0, obs.now(), cat="serve", lane="serve",
                parent_id=job.obs_root, attrs={"job": spec.label()},
            )
        job_config = self._capped_config(handle.footprint_bytes)
        # One injector per job: its specs burn down across attempts, so
        # a retry (or a degraded re-run) makes progress past a fault
        # instead of re-hitting it forever.
        injector = as_injector(self.faults)
        spec_now = spec
        degraded_to: int | None = None
        retries = 0  # transient retries; degradation does not consume them

        while True:
            handle.attempts += 1
            t0 = _monotonic()
            attempt_t0 = obs.now() if obs.enabled else 0.0

            def record_attempt(outcome: str) -> None:
                if obs.enabled and job.obs_root is not None:
                    obs.record(
                        f"attempt {handle.attempts}", attempt_t0, obs.now(),
                        cat="serve", lane="serve", parent_id=job.obs_root,
                        attrs={"job": spec.label(), "outcome": outcome},
                    )

            try:
                if injector is not None:
                    injector.check("serve-worker")
                result = self._call_runner(spec_now, job_config, injector)
            except DeviceLostError as exc:
                handle.run_s = _monotonic() - t0
                record_attempt(type(exc).__name__)
                survivors = spec_now.devices - len(set(exc.lost))
                if (
                    spec_now.devices > 1
                    and survivors >= 1
                    and self.on_device_loss != "fail"
                ):
                    try:
                        spec_now, job_config = self._degrade(
                            job, spec_now, survivors, exc
                        )
                    except AdmissionError as adm:
                        self._fail_job(job, injector, adm)
                        return
                    degraded_to = survivors
                    continue
                self._fail_job(job, injector, exc)
                return
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                handle.run_s = _monotonic() - t0
                record_attempt(type(exc).__name__)
                retryable = not isinstance(exc, DETERMINISTIC_ERRORS)
                if retryable and retries < self.max_retries:
                    self._retries_c.inc()
                    retries += 1
                    # module-attribute call: one clock.sleep monkeypatch
                    # fakes every backoff ladder (docs/robustness.md)
                    _clock.sleep(
                        min(
                            self.backoff_max_s,
                            self.backoff_base_s * 2 ** (retries - 1),
                        )
                    )
                    continue
                if isinstance(exc, NumericalError):
                    # poison-job quarantine: the failure is a deterministic
                    # property of the job's data, so it burned exactly one
                    # attempt; the sentinel's report rides on the exception
                    self._quarantined_c.inc()
                    report = getattr(exc, "report", None)
                    if report is not None:
                        self._escalations_c.inc(report.n_escalations)
                self._fail_job(job, injector, exc)
                return
            handle.run_s = _monotonic() - t0
            record_attempt("ok")
            self._run_h.observe(handle.run_s)
            self._turnaround_h.observe(_monotonic() - job.received_at)
            if result.ckpt is not None:
                self._ckpt_written_c.inc(result.ckpt.checkpoints_written)
                self._ckpt_bytes_c.inc(result.ckpt.checkpoint_bytes)
                self._resumes_c.inc(result.ckpt.resumes)
                self._steps_skipped_c.inc(result.ckpt.steps_skipped)
            if result.health is not None:
                self._escalations_c.inc(result.health.n_escalations)
            if result.makespan == 0.0:
                result.makespan = handle.run_s
            result.attempts = handle.attempts
            result.degraded_to = degraded_to
            if injector is not None and injector.fired:
                if result.faults is None:
                    # single-device (or test-runner) job faulted at the
                    # serve-worker guard: synthesize the provenance report
                    result.faults = FaultReport(
                        plan_seed=injector.plan.seed,
                        events=injector.events,
                        retries=retries,
                    )
                elif retries:
                    # the dist backend reported its own run; fold the
                    # serve-level retries (and any serve-worker events)
                    # into the job's provenance
                    result.faults = replace(
                        result.faults,
                        events=injector.events,
                        retries=result.faults.retries + retries,
                    )
            if degraded_to is not None:
                self._degraded_c.inc()
            if (
                self.cache is not None
                and job.cache_key is not None
                and degraded_to is None
            ):
                # degraded results ran at a different pool size than the
                # key was computed for — never cache them
                self.cache.put(job.cache_key, result)
                if obs.enabled and job.obs_root is not None:
                    obs.event(
                        "cache.put", cat="serve", lane="serve",
                        parent_id=job.obs_root, attrs={"job": spec.label()},
                    )
            self._completed_c.inc()
            self._retire_faults(job, injector, result)
            self._record_job_root(
                spec, job.obs_root, job.obs_t0, "completed",
                attempts=handle.attempts,
            )
            handle._resolve(result)
            return

    def _degrade(
        self,
        job: _Job,
        spec_now: JobSpec,
        survivors: int,
        exc: DeviceLostError,
    ) -> tuple[JobSpec, SystemConfig]:
        """Re-admit a shrunken-pool job at its surviving size.

        Re-prices the job's footprint for the smaller pool through the
        admission charger (the swap must still fit the budget — raises
        ``AdmissionError("degraded-over-budget")`` otherwise) and hands
        back the degraded spec plus its re-capped config.
        """
        new_spec = replace(spec_now, devices=survivors)
        new_footprint = estimate_footprint_bytes(new_spec, self.config)
        with self._cv:
            self.admission.recharge(job.handle.job_id, new_footprint)
            self._admitted_g.set(self.admission.in_use_bytes)
        job.handle.footprint_bytes = new_footprint
        job.handle.charged_bytes = new_footprint
        if self.obs.enabled and job.obs_root is not None:
            self.obs.event(
                f"degrade:{spec_now.devices}->{survivors}",
                cat="fault", lane="serve", parent_id=job.obs_root,
                attrs={
                    "job": job.spec.label(),
                    "lost": list(exc.lost),
                    "devices": survivors,
                },
            )
        return new_spec, self._capped_config(new_footprint)

    def _fail_job(self, job: _Job, injector, exc: BaseException) -> None:
        self._failed_c.inc()
        self._retire_faults(job, injector, None)
        self._record_job_root(
            job.spec, job.obs_root, job.obs_t0, "failed",
            attempts=job.handle.attempts,
        )
        job.handle._fail(exc)
