"""ASCII timeline (Gantt) views of a span list.

The paper's Figures 7-15 are NVVP-style timelines with one row per engine
(H2D copies, compute, D2H copies). :func:`render_timeline` reproduces them
as text from any span list — a simulated schedule's
:meth:`~repro.sim.trace.Trace.spans` or a measured run's recorded spans —
and :func:`render_summary` prints the figures under each chart. Only
interval spans on the three engine lanes are drawn; the chart starts at
the first engine op, so setup on other lanes never reads as idle time.
"""

from __future__ import annotations

from repro.obs.derive import run_summary
from repro.obs.span import ENGINE_LANES, Span
from repro.util.units import fmt_bytes, fmt_rate, fmt_time

#: Glyph per span ``cat`` (an op kind) in the Gantt rows; any other cat
#: on an engine lane draws as ``.``.
GLYPHS = {
    "copy_h2d": ">",
    "copy_d2h": "<",
    "copy_d2d": "=",
    "gemm": "#",
    "panel": "P",
    "small": ".",
}

LANE_LABELS = {"h2d": "H2D copy", "compute": "Compute ", "d2h": "D2H copy"}


def render_timeline(
    spans: list[Span], *, width: int = 100, title: str | None = None
) -> str:
    """Render the three engine rows of *spans* as an ASCII Gantt chart.

    Each column of the chart is one time bucket of ``makespan / width``; a
    bucket shows the glyph of the span covering most of it, or a space
    when the engine is idle. A scale line and a per-engine utilisation
    summary follow the rows.
    """
    ops = [s for s in spans if s.lane in ENGINE_LANES and not s.is_event]
    summary = run_summary(ops)
    span = summary.makespan_s
    lines: list[str] = []
    if title:
        lines.append(title)
    if span <= 0 or not ops:
        lines.append("(empty timeline)")
        return "\n".join(lines)

    t0 = summary.t_start_s
    dt = span / width
    for lane in ENGINE_LANES:
        segs = sorted(
            (s for s in ops if s.lane == lane),
            key=lambda s: (s.start_s, s.span_id),
        )
        row = []
        for col in range(width):
            lo, hi = t0 + col * dt, t0 + (col + 1) * dt
            best_cat, best_cover = None, 0.0
            for seg in segs:
                if seg.end_s <= lo:
                    continue
                if seg.start_s >= hi:
                    break
                cover = min(seg.end_s, hi) - max(seg.start_s, lo)
                if cover > best_cover:
                    best_cover, best_cat = cover, seg.cat
            row.append(" " if best_cat is None else GLYPHS.get(best_cat, "."))
        util = 100.0 * summary.lane_busy_s.get(lane, 0.0) / span
        lines.append(f"{LANE_LABELS[lane]} |{''.join(row)}| {util:5.1f}% busy")
    lines.append(
        f"{'':9}0{'':{max(0, width - len(fmt_time(span)) - 1)}}{fmt_time(span)}"
    )
    lines.append(
        "legend: > h2d   < d2h   # gemm   P panel   = d2d stage   . small"
    )
    return "\n".join(lines)


def render_summary(spans: list[Span], *, title: str | None = None) -> str:
    """One-paragraph numeric summary of *spans* (used under each figure):
    makespan, per-engine busy time and traffic, overlap ratio and the
    achieved rate over the engine-lane spans' ``nbytes``/``flops``."""
    ops = [s for s in spans if s.lane in ENGINE_LANES]
    summary = run_summary(ops)
    busy = summary.lane_busy_s

    def traffic(cat: str) -> int:
        return sum(s.attrs.get("nbytes", 0) for s in ops if s.cat == cat)

    flops = sum(s.attrs.get("flops", 0) for s in ops)
    rate = flops / summary.makespan_s if summary.makespan_s > 0 else 0.0
    lines = [] if title is None else [title]
    lines.append(f"  makespan        : {fmt_time(summary.makespan_s)}")
    lines.append(f"  compute busy    : {fmt_time(busy.get('compute', 0.0))}")
    lines.append(
        f"  H2D traffic     : {fmt_bytes(traffic('copy_h2d'))} "
        f"({fmt_time(busy.get('h2d', 0.0))})"
    )
    lines.append(
        f"  D2H traffic     : {fmt_bytes(traffic('copy_d2h'))} "
        f"({fmt_time(busy.get('d2h', 0.0))})"
    )
    lines.append(f"  overlap ratio   : {summary.overlap_ratio:.3f}")
    lines.append(f"  achieved rate   : {fmt_rate(rate)}")
    return "\n".join(lines)
