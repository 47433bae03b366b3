"""Unit tests for the ASCII timeline renderer, fed a simulated schedule's
spans (``Trace.spans()``) and hand-made measured spans."""

from dataclasses import replace

import pytest

from repro.obs import Span, render_summary, render_timeline
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.trace import Trace


def done_op(name, engine, kind, start, end, **kw):
    op = SimOp(name=name, engine=engine, kind=kind, duration=end - start, **kw)
    op.start, op.end = start, end
    return op


def pipeline_trace():
    t = Trace()
    t.extend(
        [
            done_op("h0", EngineKind.H2D, OpKind.COPY_H2D, 0, 2, nbytes=8),
            done_op("g0", EngineKind.COMPUTE, OpKind.GEMM, 2, 6, flops=8 * 10**9),
            done_op("d0", EngineKind.D2H, OpKind.COPY_D2H, 6, 7, nbytes=4),
            done_op("p0", EngineKind.COMPUTE, OpKind.PANEL, 6, 8, flops=10),
        ]
    )
    return t


def pipeline_spans():
    return pipeline_trace().spans()


def row(out, label):
    return next(line for line in out.splitlines() if line.startswith(label))


class TestSegments:
    def test_ordered_by_start(self):
        compute = [s for s in pipeline_spans() if s.lane == "compute"]
        assert [s.name for s in compute] == ["g0", "p0"]
        assert compute[0].duration_s == 4

    def test_empty_engine(self):
        assert Trace().spans() == []
        no_h2d = [s for s in pipeline_spans() if s.lane != "h2d"]
        out = render_timeline(no_h2d, width=8)
        assert row(out, "H2D").split("|")[1] == " " * 8
        assert row(out, "H2D").endswith("  0.0% busy")


class TestRenderTimeline:
    def test_rows_and_legend(self):
        out = render_timeline(pipeline_spans(), width=40)
        assert "H2D copy" in out
        assert "Compute" in out
        assert "D2H copy" in out
        assert "legend:" in out

    def test_glyphs_present(self):
        out = render_timeline(pipeline_spans(), width=80)
        compute_row = row(out, "Compute")
        assert "#" in compute_row  # gemm
        assert "P" in compute_row  # panel
        assert ">" in row(out, "H2D")

    def test_busy_percentages(self):
        out = render_timeline(pipeline_spans(), width=40)
        assert "75.0% busy" in row(out, "Compute")  # 6 busy of 8 span

    def test_title(self):
        out = render_timeline(pipeline_spans(), width=10, title="Figure X")
        assert out.splitlines()[0] == "Figure X"

    def test_empty_trace(self):
        out = render_timeline(Trace().spans(), width=10, title="t")
        assert "(empty timeline)" in out

    def test_width_respected(self):
        out = render_timeline(pipeline_spans(), width=25)
        bar = row(out, "Compute").split("|")[1]
        assert len(bar) == 25

    def test_idle_is_blank(self):
        out = render_timeline(pipeline_spans(), width=8)
        bar = row(out, "D2H").split("|")[1]
        assert "<" in bar  # has the glyph
        assert " " in bar  # and idle space


def measured(sid, name, lane, start, end, cat, **attrs):
    return Span(
        span_id=sid, parent_id=1, name=name, cat=cat, lane=lane,
        start_s=start, end_s=end, attrs=attrs,
    )


def shifted(spans, dt):
    return [replace(s, start_s=s.start_s + dt, end_s=s.end_s + dt) for s in spans]


#: Recorder furniture around the engine ops: a driver root span covering
#: setup, and a zero-duration health event.
FURNITURE = [
    Span(1, None, "run", "run", "driver", 0.0, 20.0, {}),
    measured(6, "escalate", "health", 4.0, 4.0, "health"),
]


class TestMeasuredSpans:
    @pytest.mark.parametrize("width", [8, 40, 80])
    def test_only_engine_lane_intervals_are_drawn(self, width):
        sim = render_timeline(pipeline_spans(), width=width)
        assert render_timeline(pipeline_spans() + FURNITURE, width=width) == sim

    @pytest.mark.parametrize("width", [8, 40, 80])
    def test_chart_starts_at_the_first_engine_op(self, width):
        # 10 s of setup before the first op never reads as idle time
        sim = render_timeline(pipeline_spans(), width=width)
        assert render_timeline(shifted(pipeline_spans(), 10.0), width=width) == sim

    def test_summary_reads_nbytes_and_flops_attrs(self):
        spans = shifted(pipeline_spans(), 10.0) + FURNITURE
        assert render_summary(spans) == render_summary(pipeline_spans())
        assert "H2D traffic     : 8 B (2.00 s)" in render_summary(spans)
        assert "D2H traffic     : 4 B (1.00 s)" in render_summary(spans)
        # 8 GFLOP (+10) over the 8 s makespan
        assert "achieved rate   : 1.0 GFLOPS" in render_summary(spans)

    def test_unknown_cat_draws_as_small(self):
        spans = [measured(2, "misc", "compute", 0.0, 1.0, "whatever")]
        assert row(render_timeline(spans, width=4), "Compute").split("|")[1] == "...."


class TestRenderSummary:
    def test_contains_key_metrics(self):
        out = render_summary(pipeline_spans(), title="Summary")
        assert "makespan" in out
        assert "overlap ratio" in out
        assert "achieved rate" in out
        assert out.splitlines()[0] == "Summary"
