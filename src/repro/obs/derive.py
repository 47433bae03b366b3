"""Derived run figures: one place that turns spans into summary numbers.

Every makespan / busy-time / exposed-transfer / overlap figure the repo
reports comes from a span list through :func:`run_summary` — a measured
run's recorded spans, or a simulated schedule's
:meth:`~repro.sim.trace.Trace.spans` — so sim and measured numbers are
the same computation on the same type. Busy time is merged per lane,
which also rules out the double counting of a layer that both timed
itself and was timed by its caller (the DAG backend stamps op times
*and* the scheduler stamps task times).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.span import ENGINE_LANES, Span
from repro.sim.trace import interval_difference, interval_length, merge_intervals


@dataclass(frozen=True)
class RunSummary:
    """Figures derived from one run's span list (see :func:`run_summary`)."""

    #: Latest end minus earliest start over the engine-lane interval spans
    #: (all interval spans when no engine work was recorded) — the
    #: measured analogue of a sim Trace's makespan, excluding driver-lane
    #: setup such as input generation or graph build.
    makespan_s: float
    t_start_s: float
    t_end_s: float
    n_spans: int
    #: Zero-duration markers (health escalations, cache events, ...).
    n_events: int
    #: Busy time per lane (merged intervals, so nested/overlapping spans
    #: on one lane never double-count).
    lane_busy_s: dict[str, float] = field(default_factory=dict)
    #: Timeline length where a DMA lane is busy but compute is idle.
    exposed_transfer_s: float = 0.0
    #: Fraction of DMA busy time hidden under compute:
    #: ``1 - exposed / (h2d busy + d2h busy)``. 1.0 means every byte moved
    #: while the compute engine ran (the paper's "perfectly overlapped"),
    #: and also when nothing was transferred; 0.0 means fully serialized.
    overlap_ratio: float = 1.0


def lane_intervals(spans: list[Span], lane: str) -> list[tuple[float, float]]:
    """Merged busy intervals of *lane* (interval spans only)."""
    return merge_intervals(
        (s.start_s, s.end_s) for s in spans if s.lane == lane and not s.is_event
    )


def run_summary(spans: list[Span]) -> RunSummary:
    """Summarize a run's spans into makespan / busy / overlap figures.

    Busy times and the overlap ratio are computed per *lane* with merged
    intervals: a driver root span on the ``driver`` lane coexisting with
    op spans on engine lanes contributes to its own lane only, and two
    nested spans on the same lane count their union once — this is the
    double-counting fix for the old per-layer RunStats timing.
    """
    timed = [s for s in spans if not s.is_event]
    if not timed:
        return RunSummary(
            makespan_s=0.0, t_start_s=0.0, t_end_s=0.0,
            n_spans=0, n_events=len(spans),
        )
    # makespan over engine work only: the driver root span also covers
    # setup (input staging, graph build), which is not part of the
    # schedule the sim predicts or RunStats.wall_s measures
    engine_ops = [s for s in timed if s.lane in ENGINE_LANES] or timed
    t_start = min(s.start_s for s in engine_ops)
    t_end = max(s.end_s for s in engine_ops)

    lanes = sorted({s.lane for s in timed if s.lane})
    busy = {lane: interval_length(lane_intervals(timed, lane)) for lane in lanes}

    compute_iv = lane_intervals(timed, "compute")
    dma_iv = merge_intervals(
        (s.start_s, s.end_s)
        for s in timed
        if s.lane in ENGINE_LANES and s.lane != "compute"
    )
    exposed = interval_length(interval_difference(dma_iv, compute_iv))
    dma_busy = sum(busy.get(lane, 0.0) for lane in ENGINE_LANES if lane != "compute")
    overlap = 1.0 if dma_busy == 0 else max(0.0, 1.0 - exposed / dma_busy)

    return RunSummary(
        makespan_s=t_end - t_start,
        t_start_s=t_start,
        t_end_s=t_end,
        n_spans=len(timed),
        n_events=len(spans) - len(timed),
        lane_busy_s=busy,
        exposed_transfer_s=exposed,
        overlap_ratio=overlap,
    )


def phase_times(spans: list[Span]) -> dict[str, float]:
    """Compute-lane time per phase: spans grouped by their ``tag`` attr
    (QR drivers tag ops ``panel`` / ``inner`` / ``outer``; the paper's
    Table 4 GEMMs-vs-panel split), untagged ones by ``cat``."""
    times: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.lane == "compute" and not s.is_event:
            times[s.attrs.get("tag", s.cat)] += s.duration_s
    return dict(times)
