"""Unified observability: spans, metrics, trace export (docs/observability.md).

Every execution layer — the numeric/concurrent executors, the DAG
runtime, the serve scheduler, checkpointing, the health sentinel —
records into one :class:`SpanRecorder` when a caller opts in (``obs=``).
A span list — recorded, or a simulated schedule's ``Trace.spans()`` — is
the one timeline type: :mod:`repro.obs.derive` sums it into busy/overlap
figures, :mod:`repro.obs.timeline` draws it as the paper's Gantt charts
and :mod:`repro.obs.export` writes it as a Perfetto trace or a
sim-vs-measured diff. With no recorder attached
(:data:`NULL_RECORDER`), instrumented paths are bitwise identical to
un-instrumented code.
"""

from repro.obs import clock
from repro.obs.derive import RunSummary, lane_intervals, phase_times, run_summary
from repro.obs.export import (
    render_sim_vs_measured,
    spans_to_chrome_events,
    spans_to_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import (
    ENGINE_LANES,
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanRecorder,
)
from repro.obs.timeline import render_summary, render_timeline

__all__ = [
    "ENGINE_LANES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "RunSummary",
    "Span",
    "SpanRecorder",
    "clock",
    "lane_intervals",
    "phase_times",
    "render_sim_vs_measured",
    "render_summary",
    "render_timeline",
    "run_summary",
    "spans_to_chrome_events",
    "spans_to_chrome_trace",
]
