"""Tests for the out-of-core triangular-solve engines."""

import numpy as np
import pytest
import scipy.linalg

from repro.errors import PlanError, ShapeError
from repro.host.tiled import HostMatrix
from repro.ooc.trsm import (
    plan_ooc_trsm,
    plan_panel_trsm,
    run_ooc_trsm,
    run_panel_trsm,
)


def budget(ex):
    return ex.allocator.free_bytes // ex.config.element_bytes


def make_triangle(k, rng, *, garbage_upper=True):
    """A well-conditioned unit-lower triangle (random ones explode)."""
    tri = np.eye(k, dtype=np.float32) + 0.5 * np.tril(
        rng.standard_normal((k, k)).astype(np.float32), -1
    ) / np.sqrt(k)
    if garbage_upper:
        tri = tri + np.triu(rng.standard_normal((k, k)).astype(np.float32), 1)
    return tri


class TestPlan:
    def test_single_panel(self):
        plan = plan_ooc_trsm(100, 50, 20, 10**6)
        assert plan.n_panels == 1
        assert sum(h for _, h in plan.blocks) == 100

    def test_panel_split_under_pressure(self):
        plan = plan_ooc_trsm(100, 50, 4, 100 * 10 + 2 * 1 * 100 + 8)
        assert plan.n_panels >= 2

    def test_h2d_accounting(self):
        plan = plan_ooc_trsm(64, 16, 16, 10**6)
        # strips: heights 16, widths 16/32/48/64 -> 16*(16+32+48+64) + B
        assert plan.h2d_elements() == 16 * (16 + 32 + 48 + 64) + 64 * 16

    def test_infeasible(self):
        with pytest.raises(PlanError):
            plan_ooc_trsm(10**4, 10**4, 1, 100)


class TestOocTrsm:
    @pytest.mark.parametrize("K,N,b", [(96, 40, 16), (64, 64, 64), (50, 7, 8)])
    def test_matches_scipy(self, numeric_ex, rng, K, N, b):
        tri = make_triangle(K, rng)
        rhs = rng.standard_normal((K, N)).astype(np.float32)
        ref = scipy.linalg.solve_triangular(
            np.tril(tri, -1).astype(np.float64) + np.eye(K),
            rhs.astype(np.float64),
            lower=True,
            unit_diagonal=True,
        )
        x = rhs.copy()
        plan = plan_ooc_trsm(K, N, b, budget(numeric_ex))
        run_ooc_trsm(
            numeric_ex,
            HostMatrix.from_array(tri, "L").full(),
            HostMatrix.from_array(rhs, "B").full(),
            HostMatrix.from_array(x, "X").full(),
            plan,
        )
        assert np.abs(x - ref).max() / np.abs(ref).max() < 1e-5
        numeric_ex.allocator.check_balanced()

    def test_in_place_alias(self, numeric_ex, rng):
        """The LU driver aliases B and X (solves into the packed storage)."""
        K, N = 64, 24
        tri = make_triangle(K, rng)
        rhs = rng.standard_normal((K, N)).astype(np.float32)
        ref = scipy.linalg.solve_triangular(
            np.tril(tri, -1).astype(np.float64) + np.eye(K),
            rhs.astype(np.float64), lower=True, unit_diagonal=True,
        )
        host = HostMatrix.from_array(rhs, "BX")
        plan = plan_ooc_trsm(K, N, 16, budget(numeric_ex))
        run_ooc_trsm(
            numeric_ex,
            HostMatrix.from_array(tri, "L").full(),
            host.full(),
            host.full(),
            plan,
        )
        assert np.abs(rhs - ref).max() / np.abs(ref).max() < 1e-5

    def test_keep_on_device(self, numeric_ex, rng):
        K, N = 48, 12
        tri = make_triangle(K, rng)
        rhs = rng.standard_normal((K, N)).astype(np.float32)
        plan = plan_ooc_trsm(K, N, 16, budget(numeric_ex))
        x_dev = run_ooc_trsm(
            numeric_ex,
            HostMatrix.from_array(tri, "L").full(),
            HostMatrix.from_array(rhs, "B").full(),
            None,
            plan,
            keep_on_device=True,
        )
        assert x_dev is not None
        out = HostMatrix.zeros(K, N)
        numeric_ex.d2h(out.full(), x_dev.view(0, K, 0, N), numeric_ex.stream("s"))
        ref = scipy.linalg.solve_triangular(
            np.tril(tri, -1) + np.eye(K, dtype=np.float32), rhs,
            lower=True, unit_diagonal=True,
        )
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)
        numeric_ex.free(x_dev)
        numeric_ex.allocator.check_balanced()

    def test_panel_split_path(self, numeric_ex, rng):
        K, N = 64, 40
        tri = make_triangle(K, rng)
        rhs = rng.standard_normal((K, N)).astype(np.float32)
        tight = K * (N // 2) + 2 * 8 * K + 8
        plan = plan_ooc_trsm(K, N, 8, tight)
        assert plan.n_panels >= 2
        x = rhs.copy()
        run_ooc_trsm(
            numeric_ex,
            HostMatrix.from_array(tri, "L").full(),
            HostMatrix.from_array(rhs, "B").full(),
            HostMatrix.from_array(x, "X").full(),
            plan,
        )
        ref = scipy.linalg.solve_triangular(
            np.tril(tri, -1).astype(np.float64) + np.eye(K),
            rhs.astype(np.float64), lower=True, unit_diagonal=True,
        )
        assert np.abs(x - ref).max() / np.abs(ref).max() < 1e-5

    def test_non_unit_diagonal(self, numeric_ex, rng):
        K, N = 32, 8
        tri = make_triangle(K, rng, garbage_upper=False) + np.diag(
            rng.uniform(1.0, 2.0, K).astype(np.float32) - 1.0
        )
        rhs = rng.standard_normal((K, N)).astype(np.float32)
        ref = scipy.linalg.solve_triangular(
            tri.astype(np.float64), rhs.astype(np.float64), lower=True
        )
        x = rhs.copy()
        plan = plan_ooc_trsm(K, N, 8, budget(numeric_ex))
        run_ooc_trsm(
            numeric_ex,
            HostMatrix.from_array(tri, "L").full(),
            HostMatrix.from_array(rhs, "B").full(),
            HostMatrix.from_array(x, "X").full(),
            plan,
            unit_diag=False,
        )
        assert np.abs(x - ref).max() / np.abs(ref).max() < 1e-4

    def test_shape_validation(self, numeric_ex):
        plan = plan_ooc_trsm(16, 8, 8, budget(numeric_ex))
        with pytest.raises(ShapeError):
            run_ooc_trsm(
                numeric_ex,
                HostMatrix.shape_only(17, 16).full(),
                HostMatrix.shape_only(16, 8).full(),
                HostMatrix.shape_only(16, 8).full(),
                plan,
            )

    def test_sim_trace_valid(self, sim_ex):
        plan = plan_ooc_trsm(512, 128, 64, budget(sim_ex))
        run_ooc_trsm(
            sim_ex,
            HostMatrix.shape_only(512, 512).full(),
            HostMatrix.shape_only(512, 128).full(),
            HostMatrix.shape_only(512, 128).full(),
            plan,
        )
        trace = sim_ex.finish()
        trace.check_engine_serial()
        trace.check_causality()
        assert sim_ex.stats.h2d_bytes == plan.h2d_elements() * 4


class TestPanelTrsm:
    def test_matches_scipy(self, numeric_ex, rng):
        k, N = 16, 44
        tri = make_triangle(k, rng)
        rhs = rng.standard_normal((k, N)).astype(np.float32)
        tri_dev = numeric_ex.alloc(k, k, "tri")
        numeric_ex.h2d(tri_dev, HostMatrix.from_array(tri, "T").full(), numeric_ex.stream("s"))
        plan = plan_panel_trsm(k, N, 16, budget(numeric_ex), keep_x=False)
        x = np.zeros_like(rhs)
        run_panel_trsm(
            numeric_ex,
            tri_dev,
            HostMatrix.from_array(rhs, "B").full(),
            HostMatrix.from_array(x, "X").full(),
            plan,
        )
        ref = scipy.linalg.solve_triangular(
            np.tril(tri, -1) + np.eye(k, dtype=np.float32), rhs,
            lower=True, unit_diagonal=True,
        )
        np.testing.assert_allclose(x, ref, rtol=1e-4, atol=1e-4)
        numeric_ex.free(tri_dev)
        numeric_ex.allocator.check_balanced()

    def test_keep_resident(self, numeric_ex, rng):
        k, N = 8, 20
        tri = make_triangle(k, rng)
        rhs = rng.standard_normal((k, N)).astype(np.float32)
        tri_dev = numeric_ex.alloc(k, k, "tri")
        numeric_ex.h2d(tri_dev, HostMatrix.from_array(tri, "T").full(), numeric_ex.stream("s"))
        plan = plan_panel_trsm(k, N, 8, budget(numeric_ex))
        assert plan.keep_x
        res = run_panel_trsm(
            numeric_ex, tri_dev, HostMatrix.from_array(rhs, "B").full(), None, plan
        )
        assert res.c_device is not None
        numeric_ex.free(res.c_device)
        numeric_ex.free(tri_dev)


class TestPanelTrsmPlan:
    """The panel TRSM plan counts exactly the X buffers the solve allocates."""

    K, N, B = 64, 448, 64

    def test_streams_the_full_block_when_its_buffers_fit(self):
        plan = plan_panel_trsm(self.K, self.N, self.B, 2 * self.K * self.B,
                               keep_x=False)
        assert plan.max_block == self.B
        assert plan.working_set_elements() == 2 * self.K * self.B

    def test_keeps_x_when_it_fits_exactly(self):
        plan = plan_panel_trsm(self.K, self.N, self.B, self.K * self.N)
        assert plan.keep_x and plan.max_block == self.B
        narrower = plan_panel_trsm(self.K, self.N, self.B, self.K * self.N - 1)
        assert not narrower.keep_x

    def test_unplannable(self):
        with pytest.raises(PlanError):
            plan_panel_trsm(self.K, self.N, self.B, 2 * self.K - 1)

    @pytest.mark.parametrize("keep_x", [True, False])
    def test_working_set_is_the_allocator_peak_at_a_tight_grant(
        self, keep_x, numeric_ex, rng
    ):
        ex = numeric_ex
        k, N, b = self.K, self.N, self.B
        tri = make_triangle(k, rng)
        tri_dev = ex.alloc(k, k, "tri")
        ex.h2d(tri_dev, HostMatrix.from_array(tri, "T").full(), ex.stream("s"))
        need = k * N if keep_x else 2 * k * b
        # leave exactly the plan's working set free
        filler = ex.alloc(1, budget(ex) - need, "filler")
        plan = plan_panel_trsm(k, N, b, budget(ex), keep_x=keep_x)
        assert plan.keep_x == keep_x and plan.max_block == b
        assert plan.working_set_elements() == need == budget(ex)
        base = ex.allocator.used
        rhs = rng.standard_normal((k, N)).astype(np.float32)
        x = np.zeros_like(rhs)
        res = run_panel_trsm(
            ex, tri_dev, HostMatrix.from_array(rhs, "B").full(),
            HostMatrix.from_array(x, "X").full(), plan,
        )
        ex.synchronize()
        assert ex.allocator.peak - base == need * ex.config.element_bytes
        ref = scipy.linalg.solve_triangular(
            np.tril(tri, -1) + np.eye(k, dtype=np.float32), rhs,
            lower=True, unit_diagonal=True,
        )
        np.testing.assert_allclose(x, ref, rtol=1e-4, atol=1e-4)
        if res.c_device is not None:
            ex.free(res.c_device)
        for buf in (filler, tri_dev):
            ex.free(buf)
        ex.allocator.check_balanced()


class TestBlockingLuTrsmPin:
    """Blocking LU's U12 solves at tight grants (512², b=64, sim mode): per
    solve, (N, streamed block width, X left resident). Integer plan
    arithmetic only, so the pin holds in every environment."""

    PINNED = {
        160 << 10: [(448, 16, False), (384, 16, False), (320, 16, False),
                    (256, 16, False), (192, 16, False), (128, 16, False),
                    (64, 16, False)],
        200 << 10: [(448, 64, False), (384, 64, False), (320, 64, False),
                    (256, 64, False), (192, 64, True), (128, 64, True),
                    (64, 64, True)],
        240 << 10: [(448, 64, False), (384, 64, False), (320, 64, True),
                    (256, 64, True), (192, 64, True), (128, 64, True),
                    (64, 64, True)],
    }

    @staticmethod
    def solves(mem_bytes: int, monkeypatch) -> list[tuple[int, int, bool]]:
        import repro.factor.lu as lu
        from repro.config import SystemConfig
        from repro.factor import ooc_lu
        from tests.conftest import make_tiny_spec

        seen = []

        def record(*args, **kwargs):
            res = run_panel_trsm(*args, **kwargs)
            plan = args[4]
            seen.append((plan.N, plan.max_block, res.c_device is not None))
            return res

        monkeypatch.setattr(lu, "run_panel_trsm", record)
        cfg = SystemConfig(gpu=make_tiny_spec(mem_bytes))
        ooc_lu((512, 512), method="blocking", mode="sim", config=cfg, blocksize=64)
        return seen

    @pytest.mark.parametrize("mem_bytes", sorted(PINNED))
    def test_pinned_solves(self, mem_bytes, monkeypatch):
        assert self.solves(mem_bytes, monkeypatch) == self.PINNED[mem_bytes]
