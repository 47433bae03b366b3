"""Span exporters: Chrome trace JSON and the sim-vs-measured diff.

Two ways out of a span list (recorded, or a simulated schedule's
:meth:`~repro.sim.trace.Trace.spans`):

* :func:`spans_to_chrome_trace` — Chrome ``trace_event`` JSON with one
  timeline row per lane, loadable at https://ui.perfetto.dev; the one
  Chrome exporter, so sim and measured traces open side by side in the
  same viewer.
* :func:`render_sim_vs_measured` — the paper's argument in one table:
  predicted vs measured makespan, per-engine busy time and overlap ratio
  for the same plan.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.derive import run_summary
from repro.obs.span import ENGINE_LANES, Span
from repro.util.tables import render_table


def _format_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """Render hot-path attr encodings human-readable for export.

    Executors record tile rects as raw tuples (``("w", 0, 32, 0, 8)``) to
    keep string formatting out of the op path; here they become the
    compact ``"w[0:32,0:8]"`` form a trace viewer shows.
    """
    rects = attrs.get("rects")
    if rects:
        attrs = dict(attrs)
        attrs["rects"] = [
            f"{mode}[{r0}:{r1},{c0}:{c1}]" for mode, r0, r1, c0, c1 in rects
        ]
    return attrs


def _lane_order(spans: list[Span]) -> list[str]:
    """Engine lanes first (fixed order), then the rest alphabetically."""
    seen = {s.lane for s in spans if s.lane}
    extra = sorted(seen - set(ENGINE_LANES))
    return [lane for lane in ENGINE_LANES if lane in seen] + extra


def spans_to_chrome_events(spans: list[Span]) -> list[dict[str, Any]]:
    """Chrome ``trace_event`` dicts for *spans* (one tid per lane)."""
    lanes = _lane_order(spans)
    tids = {lane: i for i, lane in enumerate(lanes)}
    events: list[dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": lane},
        }
        for lane, tid in tids.items()
    ]
    for span in spans:
        tid = tids.get(span.lane, len(lanes))
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(_format_attrs(span.attrs))
        if span.is_event:
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "pid": 0,
                    "tid": tid,
                    "ts": span.start_s * 1e6,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": span.start_s * 1e6,  # microseconds
                    "dur": span.duration_s * 1e6,
                    "args": args,
                }
            )
    return events


def spans_to_chrome_trace(spans: list[Span], path: str | Path) -> Path:
    """Write *spans* as Chrome-trace/Perfetto JSON; returns the path."""
    path = Path(path)
    payload = {"traceEvents": spans_to_chrome_events(spans)}
    path.write_text(json.dumps(payload, indent=1))
    return path


def render_sim_vs_measured(
    sim_spans: list[Span], measured_spans: list[Span], *, title: str | None = None
) -> str:
    """Side-by-side table of predicted (sim) vs measured figures.

    Both columns come from :func:`repro.obs.derive.run_summary` — the sim
    column over a simulated schedule's :meth:`~repro.sim.trace.Trace.spans`
    — so a row's ratio is a genuine model error, not a definition
    mismatch.
    """
    sim = run_summary(sim_spans)
    measured = run_summary(measured_spans)

    def ratio(meas: float, predicted: float) -> str:
        return f"{meas / predicted:.2f}x" if predicted > 0 else "-"

    rows: list[list[object]] = [
        [
            "makespan_s",
            f"{sim.makespan_s:.6f}",
            f"{measured.makespan_s:.6f}",
            ratio(measured.makespan_s, sim.makespan_s),
        ]
    ]
    for lane in ENGINE_LANES:
        predicted = sim.lane_busy_s.get(lane, 0.0)
        meas = measured.lane_busy_s.get(lane, 0.0)
        rows.append(
            [
                f"busy_{lane}_s",
                f"{predicted:.6f}",
                f"{meas:.6f}",
                ratio(meas, predicted),
            ]
        )
    rows.append(
        [
            "overlap_ratio",
            f"{sim.overlap_ratio:.3f}",
            f"{measured.overlap_ratio:.3f}",
            "-",
        ]
    )
    return render_table(
        ["figure", "simulated", "measured", "meas/sim"],
        rows,
        title=title or "sim vs measured",
    )
