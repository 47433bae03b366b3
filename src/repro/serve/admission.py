"""Admission control: bound concurrent jobs by device-memory footprint.

Every job admitted to the service is charged a device-byte footprint
*before* it runs; the sum of charged footprints never exceeds the
service's device budget. The charge is also the cap the job actually runs
under — its executor's allocator capacity *is* the admitted footprint —
so the accounting is enforced, not advisory: a job cannot allocate past
what admission granted it.

Footprints come from the same tiling plans the engines execute
(:mod:`repro.ooc.plan`): for a GEMM job, the planned working set; for the
factorizations, the persistent panel buffers plus the top recursion
level's inner/outer pipelines. A floor term guarantees the granted cap is
always enough for the engines' minimal (fully shrunk) plans, so an
admitted job never fails for lack of its own grant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.errors import AdmissionError, PlanError
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer, streamed_chunk
from repro.serve.job import JobSpec

#: Elements added to every factorization floor: covers the fully shrunk
#: (blocksize 1, single-column panels) inner/outer/TRSM pipelines, whose
#: working sets are a few times m + n elements each.
_FLOOR_SLACK_ELEMENTS = 1024


def _factor_floor_elements(m: int, n: int, b: int) -> int:
    """Minimal device elements an OOC QR/LU/Cholesky can run in: the
    persistent panel (m-by-b) and b-by-b tile, plus fully shrunk streaming
    pipelines (a few times m + n elements)."""
    return m * b + b * b + 6 * (m + n) + _FLOOR_SLACK_ELEMENTS


def estimate_footprint_bytes(spec: JobSpec, config: SystemConfig) -> int:
    """Device bytes to charge (and grant) for *spec* on *config*.

    An explicit ``spec.device_memory`` wins, clamped to the device but
    raised to the kind's floor (a grant below it would be guaranteed to
    OOM at run time); GEMM explicit requests are plan-checked and raise
    ``job-unplannable`` when nothing fits. The estimate is otherwise
    plan-derived and clamped to the device's usable bytes — a job is
    never granted more than one device — but never below the floor, so
    the grant always suffices to run.
    """
    usable = config.usable_device_bytes
    eb = config.element_bytes
    explicit = (
        None if spec.device_memory is None else min(spec.device_memory, usable)
    )

    opts = spec.options
    nb = opts.n_buffers
    shapes = spec.shapes()

    if spec.kind == "gemm":
        (r_a, c_a), (r_b, c_b) = shapes
        cap_elements = (explicit if explicit is not None else usable) // eb
        try:
            if spec.trans_a:
                # inner product: A (K, M), B (K, N)
                plan = plan_ksplit_inner(
                    r_a, c_a, c_b, min(opts.blocksize, r_a), cap_elements,
                    n_buffers=nb,
                )
            else:
                # update form: A (M, K), B (K, N)
                plan = plan_rowstream_outer(
                    r_a, c_a, c_b, min(opts.blocksize, r_a), cap_elements,
                    n_buffers=nb, staging=opts.staging_buffer,
                )
            elements = plan.working_set_elements()
        except PlanError as exc:
            raise AdmissionError(
                "job-unplannable",
                f"{spec.label()} cannot fit in "
                f"{cap_elements * eb} device bytes: {exc}",
            ) from exc
        if explicit is not None:
            return explicit
        # small headroom over the exact plan (engines allocate per plan)
        elements = elements + elements // 8 + _FLOOR_SLACK_ELEMENTS
        return min(elements * eb, usable)

    if spec.devices > 1:
        # multi-device QR (repro.dist): each device of the pool holds one
        # row slab of ceil(m / devices) rows plus the small tree-merge
        # scratch (a 2b-by-b stack, its R, and one b-by-b factor) — the
        # charge is the *per-device* peak, matching what the dist
        # verifier proves against each device's budget
        m, n = shapes[0]
        slab_rows = -(-m // spec.devices)
        elements = slab_rows * n + 4 * n * n + _FLOOR_SLACK_ELEMENTS
        if explicit is not None:
            return max(explicit, min(elements * eb, usable))
        return min(elements * eb, usable)

    # qr / lu / cholesky: persistent panel + the top-level GEMM pipelines
    m, n = shapes[0]
    b = min(opts.blocksize, n)
    floor = _factor_floor_elements(m, n, b)
    if explicit is not None:
        # an explicit grant below the floor would be guaranteed to OOM at
        # run time — raise it to the minimum the drivers can run in
        return max(explicit, floor * eb)
    # desired working set: stream buffers over the widest (top) recursion
    # level — chunk buffers against both operands plus a resident R12/C.
    # The chunk is the one the drivers stream (streamed_chunk over the
    # m-row extent); charging less would make their plans halve back.
    wl = max(n // 2, 1)
    chunk = streamed_chunk(b, m, n, config)
    desired = (
        m * b + b * b                    # persistent panel + tile
        + wl * (n - wl if n > wl else 1)  # resident R12 / C panel
        + nb * chunk * (m + n)            # double-buffered streamed chunks
    )
    elements = max(floor, desired)
    return max(min(elements * eb, usable), floor * eb)


@dataclass
class AdmissionController:
    """Byte-budget and queue-bound bookkeeping for the service.

    Not internally locked: the service calls it under its own scheduler
    lock. ``peak_in_use`` records the high-water mark of concurrently
    charged footprints — the number the acceptance test compares against
    the budget.
    """

    budget_bytes: int
    max_pending: int = 64
    in_use_bytes: int = 0
    peak_in_use: int = 0
    pending: int = 0
    _charged: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise AdmissionError(
                "bad-budget", f"budget must be positive, got {self.budget_bytes}"
            )
        if self.max_pending < 1:
            raise AdmissionError(
                "bad-queue-limit",
                f"max_pending must be >= 1, got {self.max_pending}",
            )

    # -- submission-time checks ---------------------------------------------------

    def check_submittable(self, footprint: int, label: str = "") -> None:
        """Reject-with-reason before the job ever enters the queue."""
        if footprint > self.budget_bytes:
            raise AdmissionError(
                "footprint-over-budget",
                f"{label or 'job'} needs {footprint} device bytes; "
                f"budget is {self.budget_bytes}",
            )
        if self.pending >= self.max_pending:
            raise AdmissionError(
                "queue-saturated",
                f"{self.pending} jobs already queued (limit "
                f"{self.max_pending}); retry after the queue drains",
            )

    def enqueue(self) -> None:
        self.pending += 1

    # -- dispatch-time budget ------------------------------------------------------

    def fits(self, footprint: int) -> bool:
        """Whether *footprint* fits in the budget right now."""
        return self.in_use_bytes + footprint <= self.budget_bytes

    def acquire(self, job_id: int, footprint: int) -> None:
        """Charge *footprint* to the running set (caller checked fits())."""
        if not self.fits(footprint):
            raise AdmissionError(
                "over-admission",
                f"job {job_id}: {footprint} bytes over remaining budget",
            )
        self.pending -= 1
        self._charged[job_id] = footprint
        self.in_use_bytes += footprint
        if self.in_use_bytes > self.peak_in_use:
            self.peak_in_use = self.in_use_bytes

    def recharge(self, job_id: int, new_bytes: int) -> None:
        """Re-price a *running* job in place.

        The device-loss degradation path: a ``devices=P`` job whose pool
        shrank re-admits at the surviving size, which changes its
        per-device footprint (docs/robustness.md). The swap must still
        fit the budget — a degraded job that would now exceed it fails
        with ``degraded-over-budget`` instead of silently overcommitting.
        """
        old = self._charged.get(job_id)
        if old is None:
            raise AdmissionError(
                "unknown-job", f"recharge of uncharged job {job_id}"
            )
        if self.in_use_bytes - old + new_bytes > self.budget_bytes:
            raise AdmissionError(
                "degraded-over-budget",
                f"job {job_id}: re-pricing {old} -> {new_bytes} bytes "
                f"exceeds the {self.budget_bytes}-byte budget",
            )
        self._charged[job_id] = new_bytes
        self.in_use_bytes += new_bytes - old
        if self.in_use_bytes > self.peak_in_use:
            self.peak_in_use = self.in_use_bytes

    def release(self, job_id: int) -> None:
        """Return a retired job's footprint to the budget."""
        footprint = self._charged.pop(job_id, None)
        if footprint is None:
            raise AdmissionError(
                "unknown-job", f"release of uncharged job {job_id}"
            )
        self.in_use_bytes -= footprint

    def drop_pending(self) -> None:
        """Forget one still-queued job (rejected at shutdown)."""
        self.pending -= 1
