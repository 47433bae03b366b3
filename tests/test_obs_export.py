"""Tests for repro.obs exporters and derived run figures.

Chrome trace_event schema validation (Perfetto-loadable), the
sim-vs-measured diff table, and the merged-interval run summary that
every busy/overlap figure comes from.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.workloads import random_tall
from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.obs import (
    Span,
    SpanRecorder,
    lane_intervals,
    render_sim_vs_measured,
    run_summary,
    spans_to_chrome_events,
    spans_to_chrome_trace,
)
from repro.qr.api import ooc_qr
from repro.obs.span import ENGINE_LANES
from repro.sim.ops import EngineKind
from tests.conftest import make_tiny_spec


@pytest.fixture
def config():
    return SystemConfig(gpu=make_tiny_spec(4 << 20), precision=Precision.FP32)


def span(sid, name, lane, start, end, *, cat="op", parent=None, attrs=None):
    return Span(
        span_id=sid, parent_id=parent, name=name, cat=cat, lane=lane,
        start_s=start, end_s=end, attrs=attrs or {},
    )


SAMPLE = [
    span(1, "run", "driver", 0.0, 10.0, cat="run"),
    span(2, "h2d A", "h2d", 1.0, 3.0, cat="copy_h2d", parent=1,
         attrs={"nbytes": 1024}),
    span(3, "gemm C", "compute", 2.0, 6.0, cat="gemm", parent=1,
         attrs={"flops": 2048}),
    span(4, "d2h C", "d2h", 6.0, 7.0, cat="copy_d2h", parent=1),
    span(5, "escalate", "health", 4.0, 4.0, cat="health", parent=1),
]


class TestChromeTraceSchema:
    def test_metadata_names_one_thread_per_lane(self):
        events = spans_to_chrome_events(SAMPLE)
        meta = [e for e in events if e["ph"] == "M"]
        assert all(e["name"] == "thread_name" for e in meta)
        names = [e["args"]["name"] for e in meta]
        # engine lanes first in fixed order, then extras alphabetically
        assert names == ["h2d", "compute", "d2h", "driver", "health"]
        assert [e["tid"] for e in meta] == list(range(len(meta)))

    def test_interval_spans_become_complete_events(self):
        events = spans_to_chrome_events(SAMPLE)
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert set(xs) == {"run", "h2d A", "gemm C", "d2h C"}
        gemm = xs["gemm C"]
        assert gemm["ts"] == pytest.approx(2.0e6)   # microseconds
        assert gemm["dur"] == pytest.approx(4.0e6)
        assert gemm["pid"] == 0
        assert gemm["args"]["flops"] == 2048
        assert gemm["args"]["parent_id"] == 1

    def test_zero_duration_spans_become_instants(self):
        events = spans_to_chrome_events(SAMPLE)
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "escalate"
        assert instant["s"] == "t"  # thread-scoped
        assert "dur" not in instant

    def test_written_file_is_valid_json_with_trace_events(self, tmp_path):
        path = spans_to_chrome_trace(SAMPLE, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents"}
        assert len(payload["traceEvents"]) == len(SAMPLE) + 5  # + metadata
        for event in payload["traceEvents"]:
            assert event["ph"] in ("M", "X", "i")
            if event["ph"] != "M":
                assert isinstance(event["ts"], float)

    def test_real_qr_trace_exports_clean(self, config, tmp_path):
        rec = SpanRecorder()
        a = random_tall(96, 48, seed=3)
        ooc_qr(a, method="recursive", config=config, blocksize=16, obs=rec)
        path = spans_to_chrome_trace(rec.spans(), tmp_path / "qr.json")
        payload = json.loads(path.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phases and "M" in phases


class TestRunSummary:
    def test_empty(self):
        summary = run_summary([])
        assert summary.makespan_s == 0.0 and summary.n_spans == 0

    def test_makespan_covers_engine_ops_not_driver_setup(self):
        summary = run_summary(SAMPLE)
        assert summary.makespan_s == pytest.approx(6.0)  # ops 1.0 -> 7.0
        assert summary.n_spans == 4 and summary.n_events == 1

    def test_lane_busy_merges_overlapping_spans(self):
        spans = [
            span(1, "a", "compute", 0.0, 2.0),
            span(2, "b", "compute", 1.0, 3.0),  # overlaps a
        ]
        summary = run_summary(spans)
        assert summary.lane_busy_s["compute"] == pytest.approx(3.0)
        assert lane_intervals(spans, "compute") == [(0.0, 3.0)]

    def test_overlap_ratio_matches_trace_definition(self):
        # DMA busy: h2d 1-3 + d2h 6-7 = 3s; compute 2-6 hides only 2-3,
        # so 1s of h2d and all 1s of d2h are exposed
        summary = run_summary(SAMPLE)
        assert summary.exposed_transfer_s == pytest.approx(2.0)
        assert summary.overlap_ratio == pytest.approx(1.0 - 2.0 / 3.0)

    def test_agrees_with_trace_adapter_on_a_real_run(self, config):
        # the trace adapter is Trace.spans(): on a real simulated run its
        # summary is the schedule's own makespan and per-engine op time
        sim = ooc_qr((96, 48), method="recursive", config=config, blocksize=16)
        summary = run_summary(sim.trace.spans())
        assert summary.makespan_s == sim.trace.makespan
        for engine in EngineKind:
            assert summary.lane_busy_s.get(engine.value, 0.0) == pytest.approx(
                sum(op.end - op.start for op in sim.trace if op.engine == engine)
            )
        # measured: a serial run never overlaps ops on a lane, so merged
        # busy time is the sum of its op spans
        rec = SpanRecorder()
        a = random_tall(96, 48, seed=3)
        ooc_qr(a, method="recursive", config=config, blocksize=16, obs=rec)
        spans = rec.spans()
        summary = run_summary(spans)
        for lane in ENGINE_LANES:
            assert summary.lane_busy_s.get(lane, 0.0) == pytest.approx(
                sum(s.duration_s for s in spans if s.lane == lane)
            )


class TestSimVsMeasured:
    def test_renders_all_figures(self, config):
        rec = SpanRecorder()
        a = random_tall(96, 48, seed=3)
        ooc_qr(a, method="recursive", config=config, blocksize=16, obs=rec)
        sim = ooc_qr((96, 48), method="recursive", config=config, blocksize=16)
        table = render_sim_vs_measured(sim.trace.spans(), rec.spans(), title="t")
        assert table.startswith("t")
        for figure in ("makespan_s", "busy_h2d_s", "busy_compute_s",
                       "busy_d2h_s", "overlap_ratio"):
            assert figure in table
        makespan_row = next(
            line for line in table.splitlines() if "makespan_s" in line
        )
        assert f"{sim.makespan:.6f}" in makespan_row
