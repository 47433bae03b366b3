"""Unit tests for OOC tiling plans: feasibility, budgets, fallbacks."""

from dataclasses import replace

import pytest

from repro.bench.concurrency import bench_spec
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import PlanError, ValidationError
from repro.ooc.api import ooc_gemm
from repro.ooc.plan import (
    op_latency_s,
    plan_ksplit_inner,
    plan_panel_inner,
    plan_rowstream_outer,
    plan_tile_outer,
    split_even,
    streamed_chunk,
)
from repro.qr.options import QrOptions

#: The 8 MiB benchmark device (25 us per-op latency, 1 GB/s H2D).
BENCH = SystemConfig(gpu=bench_spec(8 << 20))


class TestSplitEven:
    def test_even(self):
        assert split_even(10, 2) == [(0, 5), (5, 5)]

    def test_uneven_front_loaded(self):
        assert split_even(10, 3) == [(0, 4), (4, 3), (7, 3)]

    def test_single(self):
        assert split_even(7, 1) == [(0, 7)]

    def test_too_many_parts(self):
        with pytest.raises(PlanError):
            split_even(3, 4)


class TestKSplitInner:
    def test_single_panel_when_c_fits(self):
        plan = plan_ksplit_inner(K=1000, M=100, N=100, blocksize=100,
                                 budget_elements=100 * 100 + 2 * 100 * 200 + 10)
        assert plan.n_panels == 1
        assert plan.h2d_elements() == 1000 * 100 * 2  # A and B once each

    def test_panel_split_when_c_too_big(self):
        # C = 100x100 doesn't fit; half-panels do
        budget = 100 * 50 + 2 * 10 * 150 + 10
        plan = plan_ksplit_inner(K=1000, M=100, N=100, blocksize=10,
                                 budget_elements=budget)
        assert plan.n_panels >= 2
        # A is re-read once per panel
        assert plan.h2d_elements() == plan.n_panels * 1000 * 100 + 1000 * 100

    def test_blocksize_shrinks_to_fit(self):
        plan = plan_ksplit_inner(K=1000, M=10, N=10, blocksize=512,
                                 budget_elements=10 * 10 + 2 * 64 * 20 + 10)
        assert plan.blocksize < 512
        assert plan.working_set_elements() <= 10 * 10 + 2 * 64 * 20 + 10

    def test_infeasible_raises(self):
        with pytest.raises(PlanError):
            plan_ksplit_inner(K=10, M=1000, N=1000, blocksize=10,
                              budget_elements=100)

    def test_working_set_within_budget(self):
        budget = 50_000
        plan = plan_ksplit_inner(K=2048, M=100, N=300, blocksize=256,
                                 budget_elements=budget)
        assert plan.working_set_elements() <= budget

    def test_chunks_cover_k(self):
        plan = plan_ksplit_inner(K=1000, M=10, N=10, blocksize=64,
                                 budget_elements=10**6)
        assert sum(h for _, h in plan.chunks) == 1000

    def test_gradual_flag(self):
        plan = plan_ksplit_inner(K=4096, M=10, N=10, blocksize=512,
                                 budget_elements=10**6, gradual=True)
        sizes = [h for _, h in plan.chunks]
        assert sizes[0] < sizes[-1] or len(set(sizes)) > 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            plan_ksplit_inner(K=0, M=1, N=1, blocksize=1, budget_elements=10)


class TestPanelInner:
    def test_keep_c_preferred(self):
        plan = plan_panel_inner(K=1000, M=16, N=200, blocksize=64,
                                budget_elements=16 * 200 + 2 * 1000 * 64 + 10)
        assert plan.keep_c

    def test_keep_c_with_smaller_stream_blocks(self):
        # full-blocksize streaming busts the budget, but keep_c at a
        # smaller streamed width fits: prefer that (paper's 16 GB config)
        budget = 16 * 200 + 2 * 1000 * 16 + 10
        plan = plan_panel_inner(K=1000, M=16, N=200, blocksize=64,
                                budget_elements=budget)
        assert plan.keep_c
        assert plan.blocksize < 64

    def test_streamed_c_counts_every_block_buffer(self):
        # run_panel_inner allocates n_buffers C blocks next to the
        # n_buffers B blocks; at this budget one C block more would not fit
        budget = 8704
        plan = plan_panel_inner(K=1024, M=128, N=128, blocksize=128,
                                budget_elements=budget, prefer_keep_c=False)
        allocated = plan.n_buffers * (128 + 1024) * plan.max_block
        assert plan.working_set_elements() == allocated <= budget

    def test_no_keep_when_disabled(self):
        plan = plan_panel_inner(K=1000, M=16, N=200, blocksize=64,
                                budget_elements=10**6, prefer_keep_c=False)
        assert not plan.keep_c

    def test_blocks_cover_n(self):
        plan = plan_panel_inner(K=100, M=8, N=77, blocksize=16,
                                budget_elements=10**6)
        assert sum(w for _, w in plan.blocks) == 77

    def test_infeasible(self):
        with pytest.raises(PlanError):
            plan_panel_inner(K=10**6, M=100, N=100, blocksize=100,
                             budget_elements=1000)


class TestRowStreamOuter:
    def test_resident_b_plan(self):
        plan = plan_rowstream_outer(M=1000, K=50, N=60, blocksize=100,
                                    budget_elements=10**6, b_resident=True)
        assert plan.b_resident
        assert plan.n_panels == 1
        assert plan.h2d_elements() == 1000 * 50 + 1000 * 60  # A + C only

    def test_resident_b_not_charged(self):
        # budget only needs the stream buffers + stage when B is resident
        b, K, N = 10, 100, 100
        budget = 2 * b * (K + N) + b * N + 5
        plan = plan_rowstream_outer(M=1000, K=K, N=N, blocksize=b,
                                    budget_elements=budget, b_resident=True)
        assert plan.b_resident

    def test_falls_back_to_streaming_b(self):
        # B (K x N) cannot fit at all -> must panel-split, dropping residency
        plan = plan_rowstream_outer(M=100, K=300, N=400, blocksize=10,
                                    budget_elements=1500,
                                    b_resident=True)
        assert not plan.b_resident

    def test_blocks_cover_m(self):
        plan = plan_rowstream_outer(M=777, K=10, N=10, blocksize=100,
                                    budget_elements=10**6)
        assert sum(h for _, h in plan.blocks) == 777

    def test_staging_costs_memory(self):
        kwargs = dict(M=100, K=50, N=60, blocksize=20, budget_elements=10**6)
        with_stage = plan_rowstream_outer(staging=True, **kwargs)
        without = plan_rowstream_outer(staging=False, **kwargs)
        assert (
            with_stage.working_set_elements()
            == without.working_set_elements() + 20 * 60
        )

    def test_infeasible(self):
        with pytest.raises(PlanError):
            plan_rowstream_outer(M=10, K=10**4, N=10**4, blocksize=1,
                                 budget_elements=100)


class TestTileOuter:
    def test_tiles_clamped_to_matrix(self):
        plan = plan_tile_outer(M=30, K=10, N=50, blocksize=100,
                               budget_elements=10**6)
        assert plan.b1 == 30 and plan.b2 == 50
        assert plan.n_tiles == 1

    def test_tiles_shrink_to_fit(self):
        plan = plan_tile_outer(M=1000, K=10, N=1000, blocksize=512,
                               budget_elements=3 * 128 * 256 + 10)
        assert plan.b1 * plan.b2 <= 128 * 256
        assert plan.working_set_elements() <= 3 * 128 * 256 + 10

    def test_tile_grid_covers(self):
        plan = plan_tile_outer(M=100, K=5, N=90, blocksize=32,
                               budget_elements=10**6)
        assert sum(h for _, h in plan.row_blocks) == 100
        assert sum(w for _, w in plan.col_blocks) == 90

    def test_infeasible(self):
        with pytest.raises(PlanError):
            plan_tile_outer(M=10, K=10, N=10, blocksize=10, budget_elements=2)


class TestStreamedChunk:
    def test_qr_tall_chunks(self):
        # 16384x256 recursive QR, b=64: the top-level GEMMs stream 256-wide
        # rows (h* = sqrt(16384 * 25e-6 * 1e9 / 1024) = 633 -> 1024) and the
        # leaf-level tiles 64-wide rows (h* = 1265 -> 2048)
        assert op_latency_s(BENCH.gpu) == pytest.approx(25e-6)
        assert streamed_chunk(64, 16384, 256, BENCH) == 1024
        assert streamed_chunk(32, 16384, 256, BENCH) == 1024
        assert streamed_chunk(64, 16384, 64, BENCH) == 2048

    def test_floor_wins_when_latency_is_cheap(self):
        assert streamed_chunk(4096, 16384, 256, BENCH) == 4096

    def test_clamped_to_extent(self):
        assert streamed_chunk(16, 600, 4, BENCH) == 600

    def test_zero_latency_returns_the_floor(self):
        gpu = replace(BENCH.gpu, pcie_latency_s=0.0, kernel_launch_s=0.0)
        assert streamed_chunk(64, 16384, 256, replace(BENCH, gpu=gpu)) == 64

    @pytest.mark.parametrize("floor,extent,row", [
        (16384, 131072, 32768),     # k-split inner, M = N = 16384
        (8192, 131072, 32768),      # row-stream outer, outer blocksize 8192
        (16384, 131072, 16384),     # tiled outer
        (8192, 65536, 8192),
    ])
    def test_paper_scale_keeps_the_paper_chunk(self, floor, extent, row):
        assert streamed_chunk(floor, extent, row, PAPER_SYSTEM) == floor

    def test_validation(self):
        with pytest.raises(ValidationError):
            streamed_chunk(0, 100, 10, BENCH)
        with pytest.raises(ValidationError):
            streamed_chunk(8, 100, 0, BENCH)

    def test_options_defaults_go_through_the_helper(self):
        opts = QrOptions(blocksize=64)
        assert opts.outer_chunk(BENCH, 16384, 256) == 1024
        assert opts.tile_chunk(BENCH, 16384, 64) == 2048

    def test_ooc_gemm_blocksize_is_exact(self):
        # C = AᵀB with K = 16384 streams K / blocksize chunks, one GEMM each
        res = ooc_gemm((16384, 128), (16384, 128), trans_a=True, mode="sim",
                       config=BENCH, blocksize=64)
        assert res.stats.n_gemms == 16384 // 64
