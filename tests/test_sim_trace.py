"""Unit tests for the simulated schedule and the figures read from its
spans: busy time, volumes, overlap ratio, phase splits, interval
arithmetic and the structural checks."""

import pytest

from repro.errors import SimulationError
from repro.obs import phase_times, render_summary, run_summary
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.trace import (
    Trace,
    interval_difference,
    interval_length,
    merge_intervals,
)


def done_op(name, engine, kind, start, end, nbytes=0, flops=0, tags=None):
    op = SimOp(
        name=name, engine=engine, kind=kind, duration=end - start,
        nbytes=nbytes, flops=flops, tags=tags or {},
    )
    op.start, op.end = start, end
    return op


def make_trace(*ops):
    t = Trace()
    t.extend(ops)
    return t


def overlap(t):
    return run_summary(t.spans()).overlap_ratio


class TestBasics:
    def test_empty_trace(self):
        t = Trace()
        assert t.makespan == 0.0
        assert overlap(t) == 1.0
        assert len(t) == 0

    def test_rejects_unscheduled(self):
        t = Trace()
        with pytest.raises(SimulationError):
            t.add(SimOp(name="x", engine=EngineKind.H2D, kind=OpKind.COPY_H2D, duration=1))

    def test_makespan_and_busy(self):
        t = make_trace(
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 0, 2, nbytes=100),
            done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 1, 4, flops=50),
        )
        assert t.makespan == 4
        busy = run_summary(t.spans()).lane_busy_s
        assert busy == {"h2d": 2, "compute": 3}

    def test_volumes(self):
        t = make_trace(
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 0, 1, nbytes=10),
            done_op("h2", EngineKind.H2D, OpKind.COPY_H2D, 1, 2, nbytes=20),
            done_op("d", EngineKind.D2H, OpKind.COPY_D2H, 0, 1, nbytes=5),
        )
        assert t.h2d_bytes == 30
        assert t.d2h_bytes == 5

    def test_rate(self):
        t = make_trace(
            done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 0, 2, flops=8 * 10**9)
        )
        assert t.total_flops == 8 * 10**9
        assert "achieved rate   : 4.0 GFLOPS" in render_summary(t.spans())


class TestOverlapRatio:
    def test_fully_hidden(self):
        t = make_trace(
            done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 0, 10),
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 2, 5, nbytes=1),
        )
        assert overlap(t) == 1.0

    def test_fully_exposed(self):
        t = make_trace(
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 0, 4, nbytes=1),
            done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 4, 8),
        )
        assert overlap(t) == 0.0

    def test_half_exposed(self):
        t = make_trace(
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 0, 4, nbytes=1),
            done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 2, 6),
        )
        assert overlap(t) == pytest.approx(0.5)

    def test_no_transfers_means_perfect(self):
        t = make_trace(done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 0, 1))
        assert overlap(t) == 1.0

    def test_concurrent_copies_count_per_engine(self):
        # both DMA engines busy 0-2 with compute idle: 2 s exposed out of
        # 4 s of DMA busy time (summed per engine, as the paper's figures do)
        t = make_trace(
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 0, 2, nbytes=1),
            done_op("d", EngineKind.D2H, OpKind.COPY_D2H, 0, 2, nbytes=1),
            done_op("g", EngineKind.COMPUTE, OpKind.GEMM, 2, 3),
        )
        summary = run_summary(t.spans())
        assert summary.exposed_transfer_s == 2
        assert summary.overlap_ratio == pytest.approx(0.5)


class TestPhaseSplit:
    def test_phase_times_by_tag(self):
        t = make_trace(
            done_op("p", EngineKind.COMPUTE, OpKind.PANEL, 0, 2, tags={"tag": "panel"}),
            done_op("g1", EngineKind.COMPUTE, OpKind.GEMM, 2, 5, tags={"tag": "inner"}),
            done_op("g2", EngineKind.COMPUTE, OpKind.GEMM, 5, 6, tags={"tag": "outer"}),
            done_op("h", EngineKind.H2D, OpKind.COPY_H2D, 0, 1, tags={"tag": "inner"}),
        )
        assert phase_times(t.spans()) == {"panel": 2, "inner": 3, "outer": 1}

    def test_untagged_compute_grouped_by_kind(self):
        t = make_trace(
            done_op("c", EngineKind.COMPUTE, OpKind.COPY_D2D, 0, 1),
        )
        assert phase_times(t.spans()) == {"copy_d2d": 1}


class TestStructuralChecks:
    def test_engine_overlap_detected(self):
        t = make_trace(
            done_op("a", EngineKind.COMPUTE, OpKind.GEMM, 0, 2),
            done_op("b", EngineKind.COMPUTE, OpKind.GEMM, 1, 3),
        )
        with pytest.raises(SimulationError, match="overlap"):
            t.check_engine_serial()

    def test_causality_violation_detected(self):
        a = done_op("a", EngineKind.H2D, OpKind.COPY_H2D, 0, 5)
        b = done_op("b", EngineKind.COMPUTE, OpKind.GEMM, 1, 2)
        b.deps.add(a)
        with pytest.raises(SimulationError, match="starts before"):
            make_trace(a, b).check_causality()


class TestIntervalHelpers:
    def test_merge(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(2, 2), (3, 4)]) == [(3, 4)]

    def test_difference_simple(self):
        assert interval_difference([(0, 10)], [(2, 4)]) == [(0, 2), (4, 10)]

    def test_difference_no_overlap(self):
        assert interval_difference([(0, 1)], [(5, 6)]) == [(0, 1)]

    def test_difference_full_cover(self):
        assert interval_difference([(2, 3)], [(0, 10)]) == []

    def test_difference_multiple(self):
        out = interval_difference([(0, 5), (6, 10)], [(1, 2), (4, 7)])
        assert out == [(0, 1), (2, 4), (7, 10)]

    def test_length(self):
        assert interval_length([(0, 2), (5, 6.5)]) == pytest.approx(3.5)
