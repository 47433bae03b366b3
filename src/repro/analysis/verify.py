"""Static verification passes over recorded OOC programs.

The passes consume the *program protocol* — ``config`` / ``ops`` /
``mem_events`` / ``stats`` / ``label`` / ``volume_hint``. Its producer is
the :class:`~repro.runtime.task.TaskGraph` a
:class:`~repro.runtime.builder.GraphBuilder` records with
``materialize=False`` (:func:`repro.runtime.build_engine_graph`, and
:func:`repro.analysis.capture_job` for serve admission), plus the dist
layer's per-device slices of one (:class:`~repro.dist.placement.DeviceProgram`).
The graph's derived dataflow edges *are* the happens-before relation the
hazard pass checks. The passes prove (or refute) the properties a plan
must have *before* it is worth running:

* :func:`check_hazards` — happens-before hazard analysis: two ops touching
  overlapping device regions, at least one writing, with no stream-FIFO or
  event path between them, constitute a race under some legal schedule.
  Shares its core (:func:`repro.sim.race.find_hazards`) and its overlap
  predicate (:mod:`repro.util.regions`) with the dynamic trace detector.
* :func:`check_lifetimes` — allocator lifetime proofs: leaks (allocations
  never freed) and use-after-free (an op whose access window opens after
  its buffer's free), each naming the offending op or buffer. Double
  frees, and ops on a buffer freed at record time, are refused by the
  recorder itself.
* :func:`check_memory` — exact peak device memory: replay the alloc/free
  event log and compare the high-water mark against the budget. This is
  the number :mod:`repro.serve` admission charges in place of its plan
  heuristic.
* :func:`check_transfer_volume` — compare recorded H2D/D2H volumes against
  the engine's own law (QR: the §3.2 closed forms, blocking Θ(k·mn),
  recursive Θ(log k·mn); LU and Cholesky: the same accounting over their
  own update structure). The laws are *no-reuse worst cases*, so a
  healthy engine stays below ``VOLUME_SLACK`` times its law; a recorded
  volume above that bound means the engine regressed past the
  accounting. QR engines must additionally load every input element at
  least once (``m·n`` words).
* :func:`check_redundant_transfers` — dead-transfer detection: an H2D that
  re-moves the same host region into the same device region with no
  intervening write to either side is provably a no-op.

:func:`verify_program` runs every applicable pass and returns an
:class:`AnalysisReport`; :func:`assert_plan_ok` raises a typed
:class:`~repro.errors.PlanViolation` carrying the report when any finding
survives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import PlanViolation
from repro.models.movement import VOLUME_LAWS
from repro.sim.ops import OpKind, SimOp
from repro.sim.race import find_hazards
from repro.util.regions import rects_overlap

#: Documented constant factor on the engines' volume laws. The laws count
#: the no-reuse worst case; the engines' reuse optimizations (§4.2) keep
#: measured volumes at or below the law with ample memory, and tilings
#: shrunk by memory pressure re-read some of it (blocking LU H2D at 1024²
#: b=128 on a 1 MiB device, CI's tightest shape: 1.10x), so 1.25x is
#: headroom for those boundary effects while still catching a
#: Θ-regression (e.g. an extra trailing-matrix round trip per panel).
VOLUME_SLACK = 1.25


@dataclass(frozen=True)
class MemEvent:
    """One allocator event, positioned in the op stream.

    ``position`` is the number of ops issued before the event, so an op at
    issue index ``i`` runs after every event with ``position <= i``. The
    lifetime pass reconstructs leaks, use-after-free windows and the
    exact peak from this log.
    """

    kind: str        # "alloc" | "free"
    handle: int
    name: str
    nbytes: int
    position: int


@dataclass(frozen=True)
class AnalysisFinding:
    """One violation a verification pass proved about a recorded program."""

    rule: str        # "race" | "leak" | "use-after-free" |
                     # "peak-over-budget" |
                     # "volume-over-model" | "volume-under-floor" |
                     # "redundant-h2d"
    message: str
    #: Name of the offending op (or buffer, for allocation findings).
    op: str = ""

    def __str__(self) -> str:
        where = f" [{self.op}]" if self.op else ""
        return f"{self.rule}{where}: {self.message}"


@dataclass
class AnalysisReport:
    """Everything the verifier proved about one recorded program."""

    label: str
    n_ops: int = 0
    #: Exact high-water mark of live device bytes over the whole program.
    peak_bytes: int = 0
    #: The budget the peak was checked against (device capacity or an
    #: admission grant).
    budget_bytes: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    findings: list[AnalysisFinding] = field(default_factory=list)
    #: Which volume law applied (a ``VOLUME_LAWS`` key such as
    #: "qr-recursive" or "lu-blocking"; "" if none).
    volume_model: str = ""
    #: Model-predicted H2D/D2H bytes (0 when no model applied).
    model_h2d_bytes: int = 0
    model_d2h_bytes: int = 0
    #: Passes that could not run (with the reason), e.g. a volume model
    #: whose divisibility preconditions the shape does not meet.
    skipped: list[str] = field(default_factory=list)
    #: Predicted forward-error bound from the precision pass (0.0 when the
    #: pass did not run), the tolerance it was judged against (0.0 when the
    #: pass ran structurally only), and the plan tag it walked under.
    precision_bound: float = 0.0
    precision_tolerance: float = 0.0
    precision_plan: str = ""

    @property
    def ok(self) -> bool:
        """Whether every pass came back clean."""
        return not self.findings

    def summary(self) -> str:
        """One-line verdict for logs and the CLI."""
        if self.ok:
            verdict = "clean"
        else:
            counts = Counter(f.rule for f in self.findings)
            per_rule = " ".join(
                f"{rule}={n}" for rule, n in sorted(counts.items())
            )
            verdict = f"{len(self.findings)} violation(s) [{per_rule}]"
        line = (
            f"{self.label or 'plan'}: {verdict}; {self.n_ops} ops, "
            f"peak {self.peak_bytes} B of {self.budget_bytes} B budget, "
            f"H2D {self.h2d_bytes} B, D2H {self.d2h_bytes} B"
        )
        if self.precision_plan:
            line += f", err bound {self.precision_bound:.2e}"
            if self.precision_tolerance:
                line += f" (tol {self.precision_tolerance:.1e})"
            line += f" [{self.precision_plan}]"
        return line


# -- happens-before hazards ------------------------------------------------------


def check_hazards(program) -> list[AnalysisFinding]:
    """Unordered conflicting device accesses (races under *some* schedule)."""
    return [
        AnalysisFinding(
            rule="race",
            message=(
                f"unordered conflicting accesses to device buffer "
                f"{race.buffer_handle}: {race.op_a.name!r} vs "
                f"{race.op_b.name!r}"
            ),
            op=race.op_b.name,
        )
        for race in find_hazards(program.ops)
    ]


# -- allocator lifetime proofs ----------------------------------------------------


def check_lifetimes(program) -> list[AnalysisFinding]:
    """Leaks and use-after-free, each naming its culprit."""
    findings: list[AnalysisFinding] = []
    alloc_at: dict[int, int] = {}
    freed_at: dict[int, int] = {}
    names: dict[int, str] = {}
    for ev in program.mem_events:
        names.setdefault(ev.handle, ev.name or f"handle {ev.handle}")
        if ev.kind == "alloc":
            alloc_at[ev.handle] = ev.position
        else:
            freed_at[ev.handle] = ev.position

    for handle, pos in alloc_at.items():
        if handle not in freed_at:
            findings.append(
                AnalysisFinding(
                    rule="leak",
                    message=(
                        f"device buffer {names[handle]!r} allocated at op "
                        f"position {pos} is never freed"
                    ),
                    op=names[handle],
                )
            )

    for i, op in enumerate(program.ops):
        for acc in op.tags.get("accesses", ()):
            handle = acc[0]
            free_pos = freed_at.get(handle)
            if free_pos is not None and free_pos <= i:
                findings.append(
                    AnalysisFinding(
                        rule="use-after-free",
                        message=(
                            f"op {op.name!r} (issue index {i}) accesses "
                            f"device buffer {names.get(handle, handle)!r} "
                            f"freed at op position {free_pos}"
                        ),
                        op=op.name,
                    )
                )
                break  # one report per op is enough
    return findings


# -- exact peak device memory ------------------------------------------------------


def exact_peak_bytes(program) -> int:
    """The program's exact high-water mark of live device bytes.

    Replays the memory-event log (see :func:`check_memory`). This is
    exact, not a heuristic: the engines allocate eagerly at plan
    boundaries, so issue order is the allocation order of every legal
    schedule.
    """
    return check_memory(program, float("inf"))[0]


def check_memory(
    program, budget_bytes: float
) -> tuple[int, list[AnalysisFinding]]:
    """Exact peak vs *budget_bytes*; returns ``(peak, findings)``."""
    findings: list[AnalysisFinding] = []
    used = peak = 0
    live: set[int] = set()
    crossing: MemEvent | None = None
    for ev in program.mem_events:
        if ev.kind == "alloc":
            live.add(ev.handle)
            used += ev.nbytes
            if used > peak:
                peak = used
                if peak > budget_bytes and crossing is None:
                    crossing = ev
        elif ev.handle in live:
            live.discard(ev.handle)
            used -= ev.nbytes
    if crossing is not None:
        findings.append(
            AnalysisFinding(
                rule="peak-over-budget",
                message=(
                    f"exact peak {peak} device bytes exceeds the "
                    f"{budget_bytes}-byte budget (first crossed allocating "
                    f"{crossing.name!r}, {crossing.nbytes} B, at op position "
                    f"{crossing.position})"
                ),
                op=crossing.name,
            )
        )
    return peak, findings


# -- §3.2 transfer-volume accounting ----------------------------------------------


def check_transfer_volume(
    program, report: AnalysisReport
) -> list[AnalysisFinding]:
    """Recorded H2D/D2H volume vs the engine's own no-reuse worst case.

    Applies the :data:`~repro.models.movement.VOLUME_LAWS` entry named by
    ``program.volume_hint``; fills the model fields of *report* and
    appends a skip note when the shape does not meet the law's
    preconditions (``n % b != 0``, or a non-power-of-two panel count for
    a recursive law).
    """
    if program.volume_hint is None:
        report.skipped.append("volume: no closed-form model for this engine")
        return []
    model, m, n, b = program.volume_hint
    eb = program.config.element_bytes
    if n % b:
        report.skipped.append(
            f"volume: §3.2 models need n % b == 0 (n={n}, b={b})"
        )
        return []
    k = n // b
    if model.endswith("-recursive") and (k & (k - 1)):
        report.skipped.append(
            f"volume: recursive model needs a power-of-two panel count, k={k}"
        )
        return []
    h2d_law, d2h_law = VOLUME_LAWS[model]
    h2d_model = h2d_law(m, n, b)
    d2h_model = d2h_law(m, n, b)
    report.volume_model = model
    report.model_h2d_bytes = int(h2d_model * eb)
    report.model_d2h_bytes = int(d2h_model * eb)

    findings: list[AnalysisFinding] = []
    for direction, moved, bound in (
        ("H2D", program.stats.h2d_bytes, h2d_model * eb),
        ("D2H", program.stats.d2h_bytes, d2h_model * eb),
    ):
        limit = VOLUME_SLACK * bound
        if moved > limit:
            findings.append(
                AnalysisFinding(
                    rule="volume-over-model",
                    message=(
                        f"{direction} volume {moved} B exceeds "
                        f"{VOLUME_SLACK} x the {model} law "
                        f"({bound:.0f} B): the engine moves asymptotically "
                        f"more data than its no-reuse accounting allows"
                    ),
                    op=direction.lower(),
                )
            )
    return findings


def check_volume_floor(
    program, floor_words: int
) -> list[AnalysisFinding]:
    """Recorded H2D volume must load at least *floor_words* elements."""
    eb = program.config.element_bytes
    if program.stats.h2d_bytes < floor_words * eb:
        return [
            AnalysisFinding(
                rule="volume-under-floor",
                message=(
                    f"H2D volume {program.stats.h2d_bytes} B is below the "
                    f"{floor_words * eb}-byte input floor: the program "
                    f"cannot have loaded every input element"
                ),
                op="h2d",
            )
        ]
    return []


# -- dead / redundant transfer detection ------------------------------------------


def _writes_device_region(op: SimOp, handle: int, rect: tuple[int, int, int, int]) -> bool:
    for acc in op.tags.get("accesses", ()):
        if acc[0] != handle or not acc[5]:
            continue
        if rects_overlap((acc[1], acc[2]), (acc[3], acc[4]), rect[:2], rect[2:]):
            return True
    return False


def _writes_host_region(
    op: SimOp, matrix_id: int, rect: tuple[int, int, int, int]
) -> bool:
    if op.kind is not OpKind.COPY_D2H:
        return False
    host = op.tags.get("host_region")
    if host is None or host[0] != matrix_id:
        return False
    return rects_overlap((host[1], host[2]), (host[3], host[4]), rect[:2], rect[2:])


def check_redundant_transfers(program) -> list[AnalysisFinding]:
    """H2D copies that are provably no-ops.

    An H2D is *dead* when an earlier H2D already moved the identical host
    region into the identical device region and, in between, nothing wrote
    to either side — no D2H touched the host region and no op wrote any
    overlapping part of the device region. (Re-loading the same host tile
    into a *rotated* buffer, or after the device copy was overwritten, is
    normal pipelining and is not flagged.)
    """
    findings: list[AnalysisFinding] = []
    last_load: dict[tuple, int] = {}
    for i, op in enumerate(program.ops):
        if op.kind is not OpKind.COPY_H2D:
            continue
        host = op.tags.get("host_region")
        accesses = op.tags.get("accesses", ())
        if host is None or not accesses:
            continue
        dst = accesses[0]
        key = (host, dst[0], dst[1], dst[2], dst[3], dst[4])
        j = last_load.get(key)
        last_load[key] = i
        if j is None:
            continue
        matrix_id, rect = host[0], (host[1], host[2], host[3], host[4])
        dev_rect = (dst[1], dst[2], dst[3], dst[4])
        dirty = any(
            _writes_device_region(mid_op, dst[0], dev_rect)
            or _writes_host_region(mid_op, matrix_id, rect)
            for mid_op in program.ops[j + 1 : i]
        )
        if not dirty:
            findings.append(
                AnalysisFinding(
                    rule="redundant-h2d",
                    message=(
                        f"op {op.name!r} (issue index {i}) re-moves "
                        f"{program.ops[j].tags.get('host_label', 'a tile')} "
                        f"already resident since issue index {j} with no "
                        f"intervening host or device write"
                    ),
                    op=op.name,
                )
            )
    return findings


# -- the driver -------------------------------------------------------------------


def verify_program(
    program,
    *,
    budget_bytes: int | None = None,
    input_floor_words: int | None = None,
    tolerance: float | None = None,
    precision=None,
) -> AnalysisReport:
    """Run every applicable pass over *program*, a
    :class:`~repro.runtime.task.TaskGraph` (or a dist per-device slice of
    one).

    ``budget_bytes`` defaults to the program config's usable device bytes
    (the capacity the engines planned against); serve admission passes its
    own grant. ``input_floor_words`` optionally asserts a minimum H2D
    volume (QR programs pass ``m * n``).

    The precision pass (:mod:`repro.analysis.precision`) always runs its
    structural rules and records the predicted forward-error bound in the
    report; pass ``tolerance`` to additionally judge the bound (and each
    quantization step) against it, and ``precision`` (a
    :class:`~repro.analysis.precision.PrecisionPlan`) to override the plan
    the program's config implies.
    """
    budget = (
        program.config.usable_device_bytes
        if budget_bytes is None
        else budget_bytes
    )
    report = AnalysisReport(
        label=program.label,
        n_ops=len(program.ops),
        budget_bytes=budget,
        h2d_bytes=program.stats.h2d_bytes,
        d2h_bytes=program.stats.d2h_bytes,
    )
    report.findings.extend(check_hazards(program))
    report.findings.extend(check_lifetimes(program))
    peak, memory_findings = check_memory(program, budget)
    report.peak_bytes = peak
    report.findings.extend(memory_findings)
    report.findings.extend(check_transfer_volume(program, report))
    if input_floor_words is not None:
        report.findings.extend(check_volume_floor(program, input_floor_words))
    report.findings.extend(check_redundant_transfers(program))
    # lazy import: precision.py imports AnalysisFinding from this module
    from repro.analysis.precision import check_precision

    flow, precision_findings = check_precision(
        program, plan=precision, tolerance=tolerance
    )
    report.precision_bound = flow.bound
    report.precision_tolerance = tolerance or 0.0
    report.precision_plan = flow.plan.describe()
    report.findings.extend(precision_findings)
    return report


def assert_plan_ok(report: AnalysisReport) -> AnalysisReport:
    """Raise :class:`~repro.errors.PlanViolation` unless *report* is clean."""
    if not report.ok:
        raise PlanViolation(report)
    return report
