"""Smoke + shape tests of the experiment harness itself.

The full paper-scale experiments run in the benchmarks; here we verify the
harness machinery (rows, checks, artifacts) and run the cheapest
experiments end to end so a plain `pytest tests/` still exercises them.
"""

import pytest

from repro.bench.experiments import (
    PAPER,
    exp_gemm_timeline,
    exp_headline,
    exp_qr_timeline,
    exp_table1,
    exp_table3,
)
from repro.bench.studies import (
    exp_future_hardware,
    exp_gradual_blocksize,
    exp_movement_validation,
)


class TestPaperConstants:
    def test_transcribed_tables_sane(self):
        assert PAPER["t1_rec"]["incore_tf"] == 99.9
        assert PAPER["t1_blk"]["incore_tf"] == 52.6
        assert PAPER["t2_blk"]["sync"] == pytest.approx(5.119)
        assert PAPER["headline"]["speedup_16gb"] == 2.0

    def test_table2_async_correction_is_consistent(self):
        # 2 * 131072 * 16384 * 114688 flops at the paper's 96.2 TFLOPS
        flops = 2 * 131072 * 16384 * 114688
        assert flops / (PAPER["t2_blk"]["async_tf"] * 1e12) == pytest.approx(
            PAPER["t2_blk"]["async_"], rel=0.01
        )


class TestCoreExperiments:
    def test_table1_reproduces(self):
        res = exp_table1()
        assert res.all_passed, res.render(include_artifacts=False)
        assert len(res.rows) >= 10

    def test_table3_reproduces(self):
        res = exp_table3()
        assert res.all_passed, res.render(include_artifacts=False)

    def test_headline_reproduces(self):
        res = exp_headline()
        assert res.all_passed, res.render(include_artifacts=False)

    @pytest.mark.parametrize("fig", [8, 11])
    def test_gemm_timelines(self, fig):
        res = exp_gemm_timeline(fig)
        assert res.all_passed, res.render(include_artifacts=False)
        assert "timeline" in res.artifacts
        assert "Compute" in res.artifacts["timeline"]

    def test_qr_timeline_fig13(self):
        res = exp_qr_timeline(13)
        assert res.all_passed, res.render(include_artifacts=False)

    def test_bad_figure_numbers(self):
        with pytest.raises(ValueError):
            exp_gemm_timeline(12)
        with pytest.raises(ValueError):
            exp_qr_timeline(7)


class TestStudies:
    def test_gradual_ablation(self):
        res = exp_gradual_blocksize()
        assert res.all_passed, res.render(include_artifacts=False)

    def test_movement_validation(self):
        res = exp_movement_validation()
        assert res.all_passed, res.render(include_artifacts=False)

    def test_future_hardware(self):
        res = exp_future_hardware()
        assert res.all_passed, res.render(include_artifacts=False)


# S13's eight sweep points (own links, then one shared host link), taken
# from the column-split simulation at M=32768, N=65536, K=65536, b=8192:
# (shared link, GPUs, makespan s, total H2D bytes, total flops).
S13_GOLDEN = [
    (False, 1, 3.585482034061211, 25769803776, 281474976710656),
    (False, 2, 1.950243235451462, 34359738368, 281474976710656),
    (False, 4, 1.3407133390376171, 51539607552, 281474976710656),
    (False, 8, 1.0353863223341344, 85899345920, 281474976710656),
    (True, 1, 3.585482034061211, 25769803776, 281474976710656),
    (True, 2, 3.7315406630426278, 34359738368, 281474976710656),
    (True, 4, 5.104600318390467, 51539607552, 281474976710656),
    (True, 8, 7.974449753500032, 85899345920, 281474976710656),
]


class TestS13Golden:
    """S13 pinned point by point: each GPU runs the public ``ooc_gemm``
    on its column slice of C, on the topology's per-device config."""

    @pytest.mark.parametrize("shared,gpus,makespan,h2d,flops", S13_GOLDEN)
    def test_sweep_point(self, shared, gpus, makespan, h2d, flops):
        from repro.config import PAPER_SYSTEM
        from repro.dist.topology import DeviceTopology
        from repro.ooc.api import ooc_gemm
        from repro.ooc.plan import split_even

        dev = DeviceTopology.symmetric(
            PAPER_SYSTEM, gpus, shared_host_link=shared
        ).device_config(0)
        runs = [
            ooc_gemm((65536, 32768), (65536, w), trans_a=True, mode="sim",
                     config=dev, blocksize=8192)
            for _, w in split_even(65536, gpus)
        ]
        assert [r.makespan for r in runs] == [makespan] * gpus
        assert sum(r.stats.h2d_bytes for r in runs) == h2d
        assert sum(r.stats.gemm_flops for r in runs) == flops

    def test_report_rows_match(self):
        from repro.bench.report import fmt_s
        from repro.bench.studies import exp_multi_gpu_scaling

        res = exp_multi_gpu_scaling()
        assert res.all_passed, res.render(include_artifacts=False)
        assert len(res.rows) == len(S13_GOLDEN)
        base = {s: m for s, g, m, _, _ in S13_GOLDEN if g == 1}
        for row, (shared, _, makespan, h2d, _) in zip(res.rows, S13_GOLDEN):
            assert row.measured == (
                f"{fmt_s(makespan)} ({base[shared] / makespan:.2f}x)"
            )
            assert row.note == f"{h2d / 1e9:.0f} GB total in"
