"""Tests for the OOC inner-product engines: numeric correctness against
numpy, simulated pipeline structure, residency/reuse paths."""

import numpy as np
import pytest

from repro.errors import PlanError, ShapeError
from repro.host.tiled import HostMatrix
from repro.obs.derive import run_summary
from repro.ooc.inner import run_ksplit_inner, run_panel_inner
from repro.ooc.plan import plan_ksplit_inner, plan_panel_inner
from repro.sim.ops import EngineKind


def budget(ex):
    return ex.allocator.free_bytes // ex.config.element_bytes


class TestKSplitNumeric:
    @pytest.mark.parametrize("K,M,N,b", [(100, 30, 40, 32), (257, 16, 16, 64), (64, 50, 20, 64)])
    def test_matches_numpy(self, numeric_ex, rng, K, M, N, b):
        a = rng.standard_normal((K, M)).astype(np.float32)
        bmat = rng.standard_normal((K, N)).astype(np.float32)
        c = np.zeros((M, N), dtype=np.float32)
        plan = plan_ksplit_inner(K, M, N, b, budget(numeric_ex))
        run_ksplit_inner(
            numeric_ex,
            HostMatrix.from_array(a).full(),
            HostMatrix.from_array(bmat).full(),
            HostMatrix.from_array(c).full(),
            plan,
        )
        np.testing.assert_allclose(c, a.T @ bmat, rtol=1e-4, atol=1e-4)
        numeric_ex.allocator.check_balanced()

    def test_multi_panel_path(self, numeric_ex, rng):
        K, M, N = 120, 40, 60
        a = rng.standard_normal((K, M)).astype(np.float32)
        bmat = rng.standard_normal((K, N)).astype(np.float32)
        c = np.zeros((M, N), dtype=np.float32)
        # budget below even a b=1 single-panel working set: must split
        tight = 2500
        plan = plan_ksplit_inner(K, M, N, 16, tight)
        assert plan.n_panels >= 2
        run_ksplit_inner(
            numeric_ex,
            HostMatrix.from_array(a).full(),
            HostMatrix.from_array(bmat).full(),
            HostMatrix.from_array(c).full(),
            plan,
        )
        np.testing.assert_allclose(c, a.T @ bmat, rtol=1e-4, atol=1e-4)

    def test_keep_on_device_returns_buffer(self, numeric_ex, rng):
        K, M, N = 50, 10, 12
        a = rng.standard_normal((K, M)).astype(np.float32)
        bmat = rng.standard_normal((K, N)).astype(np.float32)
        plan = plan_ksplit_inner(K, M, N, 32, budget(numeric_ex))
        res = run_ksplit_inner(
            numeric_ex,
            HostMatrix.from_array(a).full(),
            HostMatrix.from_array(bmat).full(),
            None,
            plan,
            keep_on_device=True,
        )
        assert res.c_device is not None
        out = HostMatrix.zeros(M, N)
        numeric_ex.d2h(out.full(), res.c_device.view(0, M, 0, N), numeric_ex.stream("s"))
        np.testing.assert_allclose(out.data, a.T @ bmat, rtol=1e-4, atol=1e-4)
        numeric_ex.free(res.c_device)
        numeric_ex.allocator.check_balanced()

    def test_keep_requires_single_panel(self, numeric_ex):
        # budget below M*N + smallest possible chunk buffers: must split
        plan = plan_ksplit_inner(100, 40, 60, 16, 2500)
        assert plan.n_panels > 1
        with pytest.raises(PlanError):
            run_ksplit_inner(
                numeric_ex,
                HostMatrix.shape_only(100, 40).full(),
                HostMatrix.shape_only(100, 60).full(),
                None,
                plan,
                keep_on_device=True,
            )

    def test_requires_output_or_keep(self, numeric_ex):
        plan = plan_ksplit_inner(10, 4, 4, 8, budget(numeric_ex))
        with pytest.raises(PlanError):
            run_ksplit_inner(
                numeric_ex,
                HostMatrix.shape_only(10, 4).full(),
                HostMatrix.shape_only(10, 4).full(),
                None,
                plan,
            )

    def test_shape_mismatch_rejected(self, numeric_ex):
        plan = plan_ksplit_inner(10, 4, 4, 8, budget(numeric_ex))
        with pytest.raises(ShapeError):
            run_ksplit_inner(
                numeric_ex,
                HostMatrix.shape_only(11, 4).full(),
                HostMatrix.shape_only(10, 4).full(),
                HostMatrix.shape_only(4, 4).full(),
                plan,
            )

    def test_gradual_schedule_still_correct(self, numeric_ex, rng):
        K, M, N = 300, 20, 24
        a = rng.standard_normal((K, M)).astype(np.float32)
        bmat = rng.standard_normal((K, N)).astype(np.float32)
        c = np.zeros((M, N), dtype=np.float32)
        plan = plan_ksplit_inner(K, M, N, 64, budget(numeric_ex), gradual=True)
        run_ksplit_inner(
            numeric_ex,
            HostMatrix.from_array(a).full(),
            HostMatrix.from_array(bmat).full(),
            HostMatrix.from_array(c).full(),
            plan,
        )
        np.testing.assert_allclose(c, a.T @ bmat, rtol=1e-4, atol=1e-4)


class TestKSplitSimulated:
    def test_pipeline_overlaps(self, sim_ex):
        K, M, N = 4096, 96, 96
        plan = plan_ksplit_inner(K, M, N, 256, budget(sim_ex))
        run_ksplit_inner(
            sim_ex,
            HostMatrix.shape_only(K, M).full(),
            HostMatrix.shape_only(K, N).full(),
            HostMatrix.shape_only(M, N).full(),
            plan,
        )
        trace = sim_ex.finish()
        trace.check_engine_serial()
        trace.check_causality()
        # async pipeline must beat the serial sum of its parts
        serial = sum(op.duration for op in trace.ops)
        assert trace.makespan < 0.9 * serial

    def test_sync_mode_serializes(self, sim_ex, tiny_config):
        from repro.execution.sim import SimExecutor

        K, M, N = 2048, 64, 64
        args = (
            HostMatrix.shape_only(K, M).full(),
            HostMatrix.shape_only(K, N).full(),
            HostMatrix.shape_only(M, N).full(),
        )
        plan = plan_ksplit_inner(K, M, N, 256, budget(sim_ex))
        run_ksplit_inner(sim_ex, *args, plan, pipelined=False)
        sync_time = sim_ex.finish().makespan

        ex2 = SimExecutor(tiny_config)
        plan2 = plan_ksplit_inner(K, M, N, 256, budget(ex2))
        run_ksplit_inner(ex2, *args, plan2, pipelined=True)
        async_time = ex2.finish().makespan
        assert async_time < sync_time

    def test_h2d_volume_matches_plan(self, sim_ex):
        K, M, N = 1024, 50, 70
        plan = plan_ksplit_inner(K, M, N, 128, budget(sim_ex))
        run_ksplit_inner(
            sim_ex,
            HostMatrix.shape_only(K, M).full(),
            HostMatrix.shape_only(K, N).full(),
            HostMatrix.shape_only(M, N).full(),
            plan,
        )
        assert sim_ex.stats.h2d_bytes == plan.h2d_elements() * 4
        assert sim_ex.stats.d2h_bytes == plan.d2h_elements() * 4


class TestPanelInnerNumeric:
    def _load_panel(self, ex, q_np):
        panel = ex.alloc(*q_np.shape, name="panel")
        ex.h2d(panel, HostMatrix.from_array(q_np).full(), ex.stream("s"))
        return panel

    @pytest.mark.parametrize("keep", [True, False])
    def test_matches_numpy(self, numeric_ex, rng, keep):
        K, M, N = 80, 8, 44
        q = rng.standard_normal((K, M)).astype(np.float32)
        bmat = rng.standard_normal((K, N)).astype(np.float32)
        c = np.zeros((M, N), dtype=np.float32)
        panel = self._load_panel(numeric_ex, q)
        plan = plan_panel_inner(K, M, N, 16, budget(numeric_ex), prefer_keep_c=keep)
        assert plan.keep_c == keep
        res = run_panel_inner(
            numeric_ex,
            panel,
            HostMatrix.from_array(bmat).full(),
            HostMatrix.from_array(c).full(),
            plan,
        )
        np.testing.assert_allclose(c, q.T @ bmat, rtol=1e-4, atol=1e-4)
        if keep:
            assert res.c_device is not None
            numeric_ex.free(res.c_device)
        else:
            assert res.c_device is None
        numeric_ex.free(panel)
        numeric_ex.allocator.check_balanced()

    def test_view_as_panel(self, numeric_ex, rng):
        # the QR drivers pass a *view* of a wider panel buffer
        K, M, N = 60, 6, 20
        q = rng.standard_normal((K, M)).astype(np.float32)
        bmat = rng.standard_normal((K, N)).astype(np.float32)
        c = np.zeros((M, N), dtype=np.float32)
        wide = numeric_ex.alloc(K, M + 4, "wide")
        numeric_ex.h2d(
            wide.view(0, K, 0, M), HostMatrix.from_array(q).full(), numeric_ex.stream("s")
        )
        plan = plan_panel_inner(K, M, N, 8, budget(numeric_ex), prefer_keep_c=False)
        run_panel_inner(
            numeric_ex,
            wide.view(0, K, 0, M),
            HostMatrix.from_array(bmat).full(),
            HostMatrix.from_array(c).full(),
            plan,
        )
        np.testing.assert_allclose(c, q.T @ bmat, rtol=1e-4, atol=1e-4)
        numeric_ex.free(wide)


class TestPanelInnerSimulated:
    def test_reduction_shaped_gemms_are_slow(self, tiny_config):
        """The engine's GEMMs carry the blocking algorithm's bad aspect
        ratio: in-core rate well below a square GEMM of equal volume."""
        from dataclasses import replace

        from repro.execution.sim import SimExecutor
        from tests.conftest import make_tiny_spec

        config = replace(tiny_config, gpu=make_tiny_spec(mem_bytes=64 << 20))
        ex = SimExecutor(config)
        K, M, N = 8192, 64, 256
        panel = ex.alloc(K, M, "panel")
        plan = plan_panel_inner(K, M, N, 64, budget(ex), prefer_keep_c=False)
        run_panel_inner(
            ex,
            panel,
            HostMatrix.shape_only(K, N).full(),
            HostMatrix.shape_only(M, N).full(),
            plan,
        )
        trace = ex.finish()
        rate = trace.total_flops / run_summary(trace.spans()).lane_busy_s["compute"]
        square_rate = config.gemm.rate(512, 512, 512, config.precision)
        assert rate < square_rate
        ex.free(panel)
