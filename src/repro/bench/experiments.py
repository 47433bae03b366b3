"""The paper's evaluation, experiment by experiment.

One function per table/figure of §5 (plus the §5.3 headline), each
returning an :class:`~repro.bench.report.ExperimentResult` that pairs the
paper's published numbers with our simulated measurements and asserts the
*shape* of the result — who wins, by roughly what factor, where crossovers
fall. Absolute milliseconds are not expected to match a physical V100.

Ablations and projections (§4.1.3, §4.2, §6) live in
:mod:`repro.bench.studies`.
"""

from __future__ import annotations

from repro.bench import runners
from repro.bench.report import ExperimentResult, fmt_ratio, fmt_s, fmt_tf
from repro.bench.workloads import (
    PAPER_INNER_BLOCKING,
    PAPER_INNER_RECURSIVE,
    PAPER_MAIN_SHAPE,
    PAPER_OUTER_BLOCKING,
    PAPER_OUTER_RECURSIVE,
    PAPER_SQUARE_SHAPE,
    PAPER_TALL_SHAPE,
)
from repro.errors import ValidationError
from repro.config import PAPER_SYSTEM, PAPER_SYSTEM_16GB, SystemConfig
from repro.obs import render_summary, render_timeline, run_summary
from repro.qr.api import QrResult, ooc_qr
from repro.qr.options import QrOptions

#: Published numbers transcribed from the paper (seconds / TFLOPS).
PAPER = {
    "t1_rec": dict(h2d=0.693, gemm=1.408, d2h=1.306, incore_tf=99.9,
                   sync=18.183, sync_tf=62.0, async_=12.932, async_tf=87.1),
    "t1_blk": dict(h2d=0.728, gemm=1.337, d2h=0.081, incore_tf=52.6,
                   sync=14.920, sync_tf=33.0, async_=11.286, async_tf=43.6),
    "t2_rec": dict(h2d=0.347, gemm=0.654, d2h=0.163, incore_tf=107.6,
                   sync=14.129, sync_tf=60.3, async_=11.517, async_tf=97.7),
    # Table 2's blocking "Asynchronous 11286ms" is inconsistent with its own
    # 96.2 TFLOPS row (4.93e14 flops / 96.2 TF = 5.12 s); we take the rate
    # row as authoritative — see EXPERIMENTS.md.
    "t2_blk": dict(h2d=0.086, gemm=0.089, d2h=0.081, incore_tf=98.8,
                   sync=5.119, sync_tf=34.7, async_=5.121, async_tf=96.2),
    "t3": dict(rec_h2d=37.9, rec_d2h=19.3, blk_h2d=47.2, blk_d2h=22.3),
    "t4_square": dict(rec_gemms=10.5, blk_gemms=18.9, panel=2.7),
    "t4_tall": dict(rec_gemms=38.5, blk_gemms=77.0, panel=9.0),
    "headline": dict(speedup_32gb=1.25, speedup_16gb=2.0, peak_fraction=0.45),
}


def _close(measured: float, paper: float, rel: float) -> bool:
    return abs(measured - paper) <= rel * abs(paper)


# -- Table 1 ------------------------------------------------------------------


def exp_table1(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """Table 1: inner-product behaviours, recursive vs blocking."""
    res = ExperimentResult("T1", "Inner product behaviours (Table 1)")
    rec = runners.sim_inner_recursive(config, **PAPER_INNER_RECURSIVE)
    rec_sync = runners.sim_inner_recursive(
        config, pipelined=False, **PAPER_INNER_RECURSIVE
    )
    blk = runners.sim_inner_blocking(config, **PAPER_INNER_BLOCKING)
    blk_sync = runners.sim_inner_blocking(
        config, pipelined=False, **PAPER_INNER_BLOCKING
    )
    p_rec, p_blk = PAPER["t1_rec"], PAPER["t1_blk"]

    res.add_row("rec  in-core rate", fmt_tf(p_rec["incore_tf"] * 1e12), fmt_tf(rec.incore_rate))
    res.add_row("rec  sync time", fmt_s(p_rec["sync"]), fmt_s(rec_sync.makespan))
    res.add_row("rec  async time", fmt_s(p_rec["async_"]), fmt_s(rec.makespan))
    res.add_row("rec  async rate", fmt_tf(p_rec["async_tf"] * 1e12), fmt_tf(rec.overall_rate))
    res.add_row("blk  per-block H2D", fmt_s(p_blk["h2d"]), fmt_s(blk.median_h2d))
    res.add_row("blk  per-block GEMM", fmt_s(p_blk["gemm"]), fmt_s(blk.median_gemm))
    res.add_row("blk  per-block D2H", fmt_s(p_blk["d2h"]), fmt_s(blk.median_d2h))
    res.add_row("blk  in-core rate", fmt_tf(p_blk["incore_tf"] * 1e12), fmt_tf(blk.incore_rate))
    res.add_row("blk  sync time", fmt_s(p_blk["sync"]), fmt_s(blk_sync.makespan))
    res.add_row("blk  async time", fmt_s(p_blk["async_"]), fmt_s(blk.makespan))
    res.add_row("blk  async rate", fmt_tf(p_blk["async_tf"] * 1e12), fmt_tf(blk.overall_rate))

    res.add_check(
        "recursive in-core GEMMs much faster than blocking's "
        "reduction-shaped GEMMs (paper 1.9x)",
        rec.incore_rate > 1.5 * blk.incore_rate,
    )
    res.add_check(
        "recursive async rate ~2x blocking async rate (paper 87.1 vs 43.6)",
        1.5 <= rec.overall_rate / blk.overall_rate <= 2.6,
    )
    res.add_check(
        "async beats sync for both variants",
        rec.makespan < rec_sync.makespan and blk.makespan < blk_sync.makespan,
    )
    res.add_check(
        "blocking per-block times within 15% of paper",
        _close(blk.median_h2d, p_blk["h2d"], 0.15)
        and _close(blk.median_gemm, p_blk["gemm"], 0.15)
        and _close(blk.median_d2h, p_blk["d2h"], 0.15),
    )
    res.add_check(
        "recursive async time within 25% of paper",
        _close(rec.makespan, p_rec["async_"], 0.25),
    )
    return res


# -- Table 2 ------------------------------------------------------------------


def exp_table2(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """Table 2: outer-product behaviours, recursive vs blocking."""
    res = ExperimentResult("T2", "Outer product behaviours (Table 2)")
    rec = runners.sim_outer_recursive(config, **PAPER_OUTER_RECURSIVE)
    rec_sync = runners.sim_outer_recursive(
        config, pipelined=False, **PAPER_OUTER_RECURSIVE
    )
    blk = runners.sim_outer_blocking(config, **PAPER_OUTER_BLOCKING)
    blk_sync = runners.sim_outer_blocking(
        config, pipelined=False, **PAPER_OUTER_BLOCKING
    )
    p_rec, p_blk = PAPER["t2_rec"], PAPER["t2_blk"]

    res.add_row("rec  per-block H2D", fmt_s(p_rec["h2d"]), fmt_s(rec.median_h2d), "A+C block pair")
    res.add_row("rec  per-block GEMM", fmt_s(p_rec["gemm"]), fmt_s(rec.median_gemm))
    res.add_row("rec  per-block D2H", fmt_s(p_rec["d2h"]), fmt_s(rec.median_d2h))
    res.add_row("rec  in-core rate", fmt_tf(p_rec["incore_tf"] * 1e12), fmt_tf(rec.incore_rate))
    res.add_row("rec  sync time", fmt_s(p_rec["sync"]), fmt_s(rec_sync.makespan))
    res.add_row("rec  async time", fmt_s(p_rec["async_"]), fmt_s(rec.makespan))
    res.add_row("rec  async rate", fmt_tf(p_rec["async_tf"] * 1e12), fmt_tf(rec.overall_rate))
    res.add_row("blk  per-block H2D", fmt_s(p_blk["h2d"]), fmt_s(blk.median_h2d))
    res.add_row("blk  per-block GEMM", fmt_s(p_blk["gemm"]), fmt_s(blk.median_gemm))
    res.add_row("blk  per-block D2H", fmt_s(p_blk["d2h"]), fmt_s(blk.median_d2h))
    res.add_row("blk  in-core rate", fmt_tf(p_blk["incore_tf"] * 1e12), fmt_tf(blk.incore_rate))
    res.add_row("blk  async time", fmt_s(p_blk["async_"]), fmt_s(blk.makespan),
                "paper async row corrected (see note)")
    res.add_row("blk  async rate", fmt_tf(p_blk["async_tf"] * 1e12), fmt_tf(blk.overall_rate))

    res.add_check(
        "both outer products run near TensorCore peak in core "
        "(paper 107.6 and 98.8)",
        rec.incore_rate > 0.85 * config.gpu.tc_peak_flops
        and blk.incore_rate > 0.85 * config.gpu.tc_peak_flops,
    )
    res.add_check(
        "at QR blocksize 16384 the blocking outer product overlaps fine "
        "(no big rec advantage — paper: 97.7 vs 96.2 TFLOPS)",
        0.8 <= rec.overall_rate / blk.overall_rate <= 1.25,
    )
    res.add_check(
        "recursive async within 20% of paper's 11.5 s",
        _close(rec.makespan, p_rec["async_"], 0.20),
    )
    res.add_check(
        "blocking per-block times within 20% of paper",
        _close(blk.median_gemm, p_blk["gemm"], 0.20)
        and _close(blk.median_d2h, p_blk["d2h"], 0.20),
    )
    res.add_check(
        "pipelining roughly triples blocking outer throughput "
        "(paper 34.7 -> 96.2 TFLOPS)",
        blk_sync.makespan / blk.makespan > 2.0,
    )
    return res


# -- Table 3 ------------------------------------------------------------------


def exp_table3(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """Table 3: end-to-end QR data-movement time, blocksize 16384."""
    res = ExperimentResult("T3", "QR data movement, b = 16384 (Table 3)")
    m, n = PAPER_MAIN_SHAPE
    opts = QrOptions(blocksize=16384)
    rec = ooc_qr((m, n), method="recursive", mode="sim", config=config, options=opts)
    blk = ooc_qr((m, n), method="blocking", mode="sim", config=config, options=opts)
    p = PAPER["t3"]

    rec_h2d = rec.movement.h2d_bytes / config.gpu.h2d_bytes_per_s
    rec_d2h = rec.movement.d2h_bytes / config.gpu.d2h_bytes_per_s
    blk_h2d = blk.movement.h2d_bytes / config.gpu.h2d_bytes_per_s
    blk_d2h = blk.movement.d2h_bytes / config.gpu.d2h_bytes_per_s

    res.add_row("recursive H2D time", fmt_s(p["rec_h2d"]), fmt_s(rec_h2d),
                f"{rec.movement.h2d_bytes / 1e9:.0f} GB")
    res.add_row("recursive D2H time", fmt_s(p["rec_d2h"]), fmt_s(rec_d2h),
                f"{rec.movement.d2h_bytes / 1e9:.0f} GB")
    res.add_row("blocking  H2D time", fmt_s(p["blk_h2d"]), fmt_s(blk_h2d),
                f"{blk.movement.h2d_bytes / 1e9:.0f} GB")
    res.add_row("blocking  D2H time", fmt_s(p["blk_d2h"]), fmt_s(blk_d2h),
                f"{blk.movement.d2h_bytes / 1e9:.0f} GB")

    res.add_check(
        "recursive moves less data than blocking in both directions",
        rec.movement.h2d_bytes < blk.movement.h2d_bytes
        and rec.movement.d2h_bytes < blk.movement.d2h_bytes,
    )
    res.add_check(
        "H2D ratio blocking/recursive in the paper's band (1.25 +- 0.25)",
        1.0 < blk.movement.h2d_bytes / rec.movement.h2d_bytes < 1.6,
    )
    res.add_check(
        "recursive H2D time within 25% of paper's 37.9 s",
        _close(rec_h2d, p["rec_h2d"], 0.25),
    )
    return res


# -- Table 4 ------------------------------------------------------------------


def _qr_phase_split(result: QrResult) -> tuple[float, float]:
    """(gemm_seconds, panel_seconds) on the compute engine."""
    phases = result.phase_times()
    gemms = phases.get("inner", 0.0) + phases.get("outer", 0.0)
    return gemms, phases.get("panel", 0.0)


def exp_table4(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """Table 4: GEMMs-vs-panel split for 65536^2 and 262144x65536, b=8192."""
    res = ExperimentResult("T4", "GEMM/panel time by matrix shape (Table 4)")
    opts = QrOptions(blocksize=8192)
    for shape, key in ((PAPER_SQUARE_SHAPE, "t4_square"), (PAPER_TALL_SHAPE, "t4_tall")):
        p = PAPER[key]
        label = f"{shape[0]}x{shape[1]}"
        rec = ooc_qr(shape, method="recursive", mode="sim", config=config, options=opts)
        blk = ooc_qr(shape, method="blocking", mode="sim", config=config, options=opts)
        rec_gemms, rec_panel = _qr_phase_split(rec)
        blk_gemms, blk_panel = _qr_phase_split(blk)

        res.add_row(f"{label} rec GEMMs", fmt_s(p["rec_gemms"]), fmt_s(rec_gemms))
        res.add_row(f"{label} blk GEMMs", fmt_s(p["blk_gemms"]), fmt_s(blk_gemms))
        res.add_row(f"{label} panel (both)", fmt_s(p["panel"]),
                    f"{fmt_s(rec_panel)} / {fmt_s(blk_panel)}")
        res.add_row(f"{label} overall speedup",
                    fmt_ratio(1.5 if key == "t4_square" else 1.7),
                    fmt_ratio(blk.makespan / rec.makespan))

        res.add_check(
            f"{label}: blocking spends ~2x recursive's GEMM time "
            f"(paper {p['blk_gemms'] / p['rec_gemms']:.1f}x)",
            1.4 <= blk_gemms / rec_gemms <= 2.6,
        )
        res.add_check(
            f"{label}: panel time identical across methods",
            abs(rec_panel - blk_panel) < 0.02 * max(rec_panel, blk_panel) + 1e-9,
        )
        res.add_check(
            f"{label}: panel time within 25% of paper's {p['panel']} s",
            _close(rec_panel, p["panel"], 0.25),
        )
        res.add_check(
            f"{label}: recursive wins overall (paper "
            f"{1.5 if key == 't4_square' else 1.7}x)",
            1.15 <= blk.makespan / rec.makespan <= 2.4,
        )
    return res


# -- §5.3 headline ---------------------------------------------------------------


def exp_headline(
    config32: SystemConfig = PAPER_SYSTEM,
    config16: SystemConfig = PAPER_SYSTEM_16GB,
) -> ExperimentResult:
    """§5.3: ~1.25x at 32 GB / b=16384, ~2x at 16 GB / b=8192, ~45% of peak."""
    res = ExperimentResult("S1", "Headline speedups (§5.3) on 131072^2")
    shape = PAPER_MAIN_SHAPE
    p = PAPER["headline"]

    runs = {}
    for label, cfg, b in (("32GB", config32, 16384), ("16GB", config16, 8192)):
        rec = ooc_qr(shape, method="recursive", mode="sim", config=cfg,
                     options=QrOptions(blocksize=b))
        blk = ooc_qr(shape, method="blocking", mode="sim", config=cfg,
                     options=QrOptions(blocksize=b))
        runs[label] = (rec, blk)
        res.add_row(
            f"{label} b={b} speedup",
            fmt_ratio(p["speedup_32gb"] if label == "32GB" else p["speedup_16gb"]),
            fmt_ratio(blk.makespan / rec.makespan),
            f"rec {fmt_s(rec.makespan)} vs blk {fmt_s(blk.makespan)}",
        )

    rec32, blk32 = runs["32GB"]
    rec16, blk16 = runs["16GB"]
    peak = config32.gpu.tc_peak_flops
    res.add_row("rec fraction of TC peak", f"{p['peak_fraction']:.0%}",
                f"{rec32.achieved_tflops * 1e12 / peak:.0%}")

    s32 = blk32.makespan / rec32.makespan
    s16 = blk16.makespan / rec16.makespan
    res.add_check("recursive wins at 32 GB (paper ~1.25x)", 1.10 <= s32 <= 1.45)
    res.add_check("recursive wins big at 16 GB (paper ~2x)", 1.5 <= s16 <= 2.5)
    res.add_check(
        "the advantage grows as memory shrinks (paper's central claim)",
        s16 > s32,
    )
    res.add_check(
        "recursive time barely changes with the memory cap "
        "(paper: 'the performance of recursive QR doesn't change much')",
        rec16.makespan / rec32.makespan < 1.25,
    )
    res.add_check(
        "recursive achieves ~45% of TensorCore peak end to end",
        0.35 <= rec32.achieved_tflops * 1e12 / peak <= 0.60,
    )
    return res


# -- Figures 7-11: OOC GEMM timelines ----------------------------------------------


def exp_gemm_timeline(fig: int, config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """Figures 7-11: pipeline timelines of the standalone OOC GEMMs."""
    specs = {
        7: ("blocking inner product, 16384x131072x114688, b=16384",
            lambda: runners.sim_inner_blocking(config, **PAPER_INNER_BLOCKING)),
        8: ("recursive inner product, 65536x131072x65536, b=16384",
            lambda: runners.sim_inner_recursive(config, **PAPER_INNER_RECURSIVE)),
        9: ("blocking outer product, 131072x16384x114688, b=16384",
            lambda: runners.sim_outer_blocking(config, **PAPER_OUTER_BLOCKING)),
        10: ("recursive outer product, 131072x65536x65536, b=8192",
             lambda: runners.sim_outer_recursive(config, **PAPER_OUTER_RECURSIVE)),
        11: ("blocking outer product with QR blocksize 8192, "
             "131072x8192x131072, tiles 32768^2",
             lambda: runners.sim_outer_blocking(
                 config, M=131072, K=8192, N=131072, blocksize=32768)),
    }
    if fig not in specs:
        raise ValidationError(f"figure must be 7..11, got {fig}")
    title, run = specs[fig]
    metrics = run()
    res = ExperimentResult(f"F{fig}", f"Figure {fig}: {title}")
    spans = metrics.trace.spans()
    res.artifacts["timeline"] = render_timeline(spans, width=100, title=title)
    res.artifacts["summary"] = render_summary(spans)
    res.add_row("makespan", "(timeline)", fmt_s(metrics.makespan))
    res.add_row("overlap ratio", "(timeline)", f"{metrics.overlap_ratio:.2f}")

    if fig in (8, 10):
        res.add_check(
            "recursive GEMM pipeline hides nearly all transfers",
            metrics.overlap_ratio > 0.75,
        )
    if fig == 9:
        res.add_check(
            "blocking outer at b=16384 still overlaps well (paper Fig 9)",
            metrics.overlap_ratio > 0.6,
        )
    if fig == 11:
        # per-tile GEMM (paper 170 ms) is far below per-tile traffic
        # (paper 347 + 326 ms): the pipeline is transfer-bound
        res.add_check(
            "with QR blocksize 8192 the tile GEMMs can no longer hide "
            "the tile traffic (paper: 347/170/326 ms)",
            metrics.median_gemm < 0.7 * (metrics.median_h2d + metrics.median_d2h),
        )
        res.add_check(
            "per-tile times near paper's 347/170/326 ms",
            _close(metrics.median_gemm, 0.170, 0.25)
            and _close(metrics.median_h2d, 0.347, 0.25)
            and _close(metrics.median_d2h, 0.326, 0.25),
        )
    if fig == 7:
        res.add_check(
            "blocking inner pipeline is compute-bound on slow "
            "reduction-shaped GEMMs (GEMM > H2D per block)",
            metrics.median_gemm > metrics.median_h2d,
        )
    return res


# -- Figures 12-15: full QR timelines -----------------------------------------------


def exp_qr_timeline(fig: int) -> ExperimentResult:
    """Figures 12-15: end-to-end QR timelines (32 GB b=16384, 16 GB b=8192)."""
    specs = {
        12: ("blocking OOC QR, b=16384, 32 GB", "blocking", PAPER_SYSTEM, 16384),
        13: ("recursive OOC QR, b=16384, 32 GB", "recursive", PAPER_SYSTEM, 16384),
        14: ("blocking OOC QR, b=8192, 16 GB cap", "blocking", PAPER_SYSTEM_16GB, 8192),
        15: ("recursive OOC QR, b=8192, 16 GB cap", "recursive", PAPER_SYSTEM_16GB, 8192),
    }
    if fig not in specs:
        raise ValidationError(f"figure must be 12..15, got {fig}")
    title, method, config, b = specs[fig]
    result = ooc_qr(
        PAPER_MAIN_SHAPE, method=method, mode="sim", config=config,
        options=QrOptions(blocksize=b),
    )
    res = ExperimentResult(f"F{fig}", f"Figure {fig}: {title}")
    spans = result.trace.spans()
    summary = run_summary(spans)
    res.artifacts["timeline"] = render_timeline(spans, width=100, title=title)
    res.artifacts["summary"] = render_summary(spans)
    res.add_row("makespan", "(timeline)", fmt_s(result.makespan))
    res.add_row("achieved rate", "(timeline)", f"{result.achieved_tflops:.1f} TFLOPS")
    res.add_row("overlap ratio", "(timeline)", f"{summary.overlap_ratio:.2f}")
    if fig in (13, 15):
        res.add_check(
            "recursive QR keeps the compute engine mostly busy",
            summary.lane_busy_s["compute"] / result.makespan > 0.65,
        )
    if fig == 14:
        # the small forced blocksize ruins blocking QR twice over: the
        # reduction-shaped inner GEMMs crawl in core and the outer tile
        # traffic can no longer hide — effective throughput collapses
        res.add_check(
            "blocking QR at 16 GB collapses below 35% of TensorCore peak",
            result.achieved_tflops * 1e12 / config.gpu.tc_peak_flops < 0.35,
        )
        res.add_check(
            "significant transfer time is exposed (overlap ratio drops)",
            summary.overlap_ratio < 0.85,
        )
    return res

