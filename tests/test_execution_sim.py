"""Unit tests for the simulated executor."""

import pytest

from repro.errors import OutOfDeviceMemoryError, ShapeError
from repro.host.tiled import HostMatrix
from repro.sim.ops import EngineKind, OpKind


def first_on(trace, engine):
    """The earliest op *trace* ran on *engine*."""
    return min((op for op in trace if op.engine == engine), key=lambda op: op.start)


class TestShapeOnlyExecution:
    def test_no_data_required(self, sim_ex):
        host = HostMatrix.shape_only(100, 100)
        buf = sim_ex.alloc(100, 100)
        s = sim_ex.stream("s")
        sim_ex.h2d(buf, host.full(), s)
        trace = sim_ex.finish()
        assert len(trace) == 1
        assert trace.h2d_bytes == 100 * 100 * 4

    def test_durations_from_models(self, sim_ex):
        host = HostMatrix.shape_only(500, 500)
        buf = sim_ex.alloc(500, 500)
        s = sim_ex.stream("s")
        sim_ex.h2d(buf, host.full(), s)
        trace = sim_ex.finish()
        expected = sim_ex.config.transfer.time(
            500 * 500 * 4, __import__("repro.hw.transfer", fromlist=["Direction"]).Direction.H2D
        )
        assert trace.makespan == pytest.approx(expected)

    def test_gemm_op_created(self, sim_ex):
        a = sim_ex.alloc(10, 20)
        b = sim_ex.alloc(20, 30)
        c = sim_ex.alloc(10, 30)
        sim_ex.gemm(c, a, b, sim_ex.stream("s"), tag="inner")
        trace = sim_ex.finish()
        gemm = first_on(trace, EngineKind.COMPUTE)
        assert gemm.kind == OpKind.GEMM
        assert gemm.flops == 2 * 10 * 30 * 20
        assert gemm.tags["tag"] == "inner"

    def test_gemm_shape_validation(self, sim_ex):
        a = sim_ex.alloc(10, 20)
        b = sim_ex.alloc(21, 30)
        c = sim_ex.alloc(10, 30)
        with pytest.raises(ShapeError):
            sim_ex.gemm(c, a, b, sim_ex.stream("s"))

    def test_capacity_enforced(self, sim_ex):
        cap_elems = sim_ex.allocator.capacity // 4
        with pytest.raises(OutOfDeviceMemoryError):
            sim_ex.alloc(cap_elems, 2)

    def test_panel_op(self, sim_ex):
        panel = sim_ex.alloc(200, 16)
        r = sim_ex.alloc(16, 16)
        sim_ex.panel_qr(panel, r, sim_ex.stream("s"))
        trace = sim_ex.finish()
        assert first_on(trace, EngineKind.COMPUTE).kind == OpKind.PANEL

    def test_synchronize_is_barrier(self, sim_ex):
        host = HostMatrix.shape_only(400, 400)
        buf = sim_ex.alloc(400, 400)
        s1 = sim_ex.stream("s1")
        sim_ex.h2d(buf, host.full(), s1)
        sim_ex.synchronize()
        t_sync = sim_ex.sim.now
        s2 = sim_ex.stream("s2")
        c = sim_ex.alloc(10, 10)
        sim_ex.gemm(c, c.view(0, 10, 0, 10), c.view(0, 10, 0, 10), s2)
        trace = sim_ex.finish()
        gemm = first_on(trace, EngineKind.COMPUTE)
        assert gemm.start >= t_sync

    def test_stats_makespan_updated(self, sim_ex):
        host = HostMatrix.shape_only(100, 100)
        buf = sim_ex.alloc(100, 100)
        sim_ex.h2d(buf, host.full(), sim_ex.stream("s"))
        sim_ex.synchronize()
        assert sim_ex.stats.makespan > 0


class TestEventSemantics:
    def test_cross_stream_overlap_without_events(self, sim_ex):
        """Independent streams overlap H2D with compute."""
        host = HostMatrix.shape_only(400, 400)
        buf = sim_ex.alloc(400, 400)
        c = sim_ex.alloc(64, 64)
        s1, s2 = sim_ex.stream("copy"), sim_ex.stream("go")
        sim_ex.h2d(buf, host.full(), s1)
        sim_ex.gemm(c, c.full(), c.full(), s2)
        trace = sim_ex.finish()
        gemm = first_on(trace, EngineKind.COMPUTE)
        assert gemm.start == 0.0

    def test_event_forces_ordering(self, sim_ex):
        host = HostMatrix.shape_only(400, 400)
        buf = sim_ex.alloc(400, 400)
        c = sim_ex.alloc(64, 64)
        s1, s2 = sim_ex.stream("copy"), sim_ex.stream("go")
        sim_ex.h2d(buf, host.full(), s1)
        ev = sim_ex.record_event(s1)
        sim_ex.wait_event(s2, ev)
        sim_ex.gemm(c, c.full(), c.full(), s2)
        trace = sim_ex.finish()
        copy = first_on(trace, EngineKind.H2D)
        gemm = first_on(trace, EngineKind.COMPUTE)
        assert gemm.start == pytest.approx(copy.end)
