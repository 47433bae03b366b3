"""Ablations, model validation and hardware projections.

Everything in the paper's §4 implementation notes and §6 outlook that is
measurable but not a numbered table/figure:

* S2 — §4.1.3 gradual-blocksize trick (paper: ~85 -> ~87 TFLOPS on the
  largest inner product);
* S3 — §4.2 QR-level optimizations (paper: ~15% end-to-end);
* S4 — §3.2 analytic data-movement formulas vs the engines' measured
  byte counters, swept over k;
* S5 — §3.3 overlap crossovers located empirically with the simulator;
* S6 — §6 projections to A100 and RTX-class GPUs (the
  compute-to-bandwidth ratio keeps growing, so recursion keeps winning);
* S8 — the §6 LU/Cholesky future work, built and measured;
* S10 — the [3] communication lower bound + the pinned-memory ablation;
* S11 — blocksize sensitivity (the paper's concluding claim, swept);
* S13 — multi-GPU OOC GEMM scaling (§2.2's cuBLASXt/BLASX territory);
* S14 — multi-GPU TSQR panels vs Table 4's serial panel floor.

(S9 and S12, the numerics studies, live in :mod:`repro.bench.numerics`.)
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import runners
from repro.bench.report import ExperimentResult, fmt_ratio, fmt_s, fmt_tf
from repro.bench.workloads import PAPER_INNER_RECURSIVE, PAPER_MAIN_SHAPE
from repro.config import PAPER_SYSTEM, PAPER_SYSTEM_16GB, SystemConfig
from repro.hw.specs import A100_40GB, RTX2080TI, RTX3090, V100_16GB, V100_32GB
from repro.models.movement import (
    blocking_d2h_words,
    blocking_h2d_words,
    recursive_h2d_words,
)
from repro.models.overlap import machine_balance, overlap_threshold
from repro.ooc.api import GemmResult, ooc_gemm
from repro.ooc.plan import split_even
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions


def exp_gradual_blocksize(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S2: §4.1.3 — ramping the first chunks up from b/4 hides part of the
    first move-in; the paper gained 85 -> 87 TFLOPS on the big inner
    product."""
    res = ExperimentResult("S2", "Gradual-blocksize ablation (§4.1.3)")
    base = runners.sim_inner_recursive(config, gradual=False, **PAPER_INNER_RECURSIVE)
    ramp = runners.sim_inner_recursive(config, gradual=True, **PAPER_INNER_RECURSIVE)
    res.add_row("uniform blocksize rate", fmt_tf(85.0e12), fmt_tf(base.overall_rate))
    res.add_row("gradual blocksize rate", fmt_tf(87.0e12), fmt_tf(ramp.overall_rate))
    res.add_row("time saved", "(~300 ms)", fmt_s(base.makespan - ramp.makespan))
    res.add_check(
        "the ramp helps (paper: +2 TFLOPS on 85)",
        ramp.makespan < base.makespan,
    )
    res.add_check(
        "the gain is small but real (0.5% - 6%)",
        0.005 <= (base.makespan - ramp.makespan) / base.makespan <= 0.06,
    )
    return res


def exp_qr_level_opt(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S3: §4.2 — QR-level overlap + reuse vs phase-synchronized baseline;
    the paper credits these with ~15% on both factorizations."""
    res = ExperimentResult("S3", "QR-level optimization ablation (§4.2)")
    shape = PAPER_MAIN_SHAPE
    for method in ("recursive", "blocking"):
        on = ooc_qr(shape, method=method, mode="sim", config=config,
                    options=QrOptions(blocksize=16384))
        off = ooc_qr(shape, method=method, mode="sim", config=config,
                     options=QrOptions(blocksize=16384).all_optimizations_off())
        gain = off.makespan / on.makespan - 1.0
        res.add_row(f"{method} optimized", "(Fig 12/13)", fmt_s(on.makespan))
        res.add_row(f"{method} unoptimized", "(Fig 12/13)", fmt_s(off.makespan))
        res.add_row(f"{method} gain", "~15%", f"{gain:.0%}")
        res.add_check(
            f"{method}: QR-level optimizations give a 5% - 35% speedup "
            "(paper ~15%)",
            0.05 <= gain <= 0.35,
        )
    return res


def exp_movement_validation(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S4: §3.2 closed forms vs measured engine counters, swept over k.

    The analytic forms assume *no reuse*; the engines do reuse (that is
    §4.2), so measured volume must come in at or below the model while
    preserving the linear-vs-logarithmic growth in k.
    """
    res = ExperimentResult("S4", "Data-movement model vs measurement (§3.2)")
    m = n = 65536
    ratios = []
    for b in (16384, 8192, 4096):
        k = n // b
        opts = QrOptions(blocksize=b)
        rec = ooc_qr((m, n), method="recursive", mode="sim", config=config, options=opts)
        blk = ooc_qr((m, n), method="blocking", mode="sim", config=config, options=opts)
        eb = config.element_bytes
        model_blk = blocking_h2d_words(m, n, b) * eb
        model_rec = recursive_h2d_words(m, n, b) * eb
        res.add_row(
            f"k={k} blk H2D", f"{model_blk / 1e9:.0f} GB (model)",
            f"{blk.movement.h2d_bytes / 1e9:.0f} GB",
        )
        res.add_row(
            f"k={k} rec H2D", f"{model_rec / 1e9:.0f} GB (model)",
            f"{rec.movement.h2d_bytes / 1e9:.0f} GB",
        )
        ratios.append(blk.movement.h2d_bytes / rec.movement.h2d_bytes)
        res.add_check(
            f"k={k}: measured volumes do not exceed the no-reuse model",
            blk.movement.h2d_bytes <= model_blk * 1.02
            and rec.movement.h2d_bytes <= model_rec * 1.10,
        )
    res.add_check(
        "the blocking/recursive movement gap widens with k "
        "(linear vs logarithmic growth)",
        ratios == sorted(ratios) and ratios[-1] > ratios[0],
    )
    return res


def exp_overlap_crossover(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S5: locate the §3.3 overlap crossover empirically.

    Sweep the output dimension m of the k-split inner product: below the
    analytic threshold (4 R_g/R_m words) transfers dominate, above it the
    pipeline turns compute-bound. The empirical crossover must straddle the
    analytic one. (The analytic form uses peak R_g; the simulator's
    shape-dependent GEMM rate shifts the measured crossover somewhat
    lower.)
    """
    res = ExperimentResult("S5", "Overlap crossover (§3.3)")
    threshold = overlap_threshold(config.gpu, streams_both_operands=True,
                                  element_bytes=config.element_bytes)
    res.add_row("analytic threshold m*", "30,000 (paper, 90 TF/12 GB/s)",
                f"{threshold:,.0f}", f"{config.gpu.name} rates")
    res.add_row(
        "machine balance", "4 R_g/R_m words",
        f"{machine_balance(config.gpu, config.element_bytes):,.0f} flops/element",
    )

    compute_bound_at = None
    transfer_bound_at = None
    for m in (2048, 4096, 8192, 16384, 32768, 65536):
        run = runners.sim_inner_recursive(
            config, K=131072, M=m, N=m, blocksize=8192
        )
        compute_frac = run.gemm_busy / run.makespan
        res.add_row(f"m={m} compute fraction", "", f"{compute_frac:.2f}",
                    f"rate {run.overall_rate / 1e12:.1f} TF")
        if compute_frac < 0.5:
            transfer_bound_at = m
        # ~0.75 rather than ~1.0: the final M x M C move-out of a
        # standalone inner product can never overlap, capping the fraction
        if compute_frac > 0.75 and compute_bound_at is None:
            compute_bound_at = m
    res.add_check(
        "small m is transfer-bound, large m compute-bound",
        transfer_bound_at is not None and compute_bound_at is not None
        and transfer_bound_at < compute_bound_at,
    )
    res.add_check(
        "the empirical crossover brackets the analytic threshold's "
        "order of magnitude",
        compute_bound_at is not None
        and threshold / 8 <= compute_bound_at <= threshold * 4,
    )
    return res


def exp_future_hardware() -> ExperimentResult:
    """S6: §6 projections — the faster the TensorCore relative to PCIe,
    the bigger the recursive advantage (A100 > V100; small-memory RTX
    cards gain from recursion's insensitivity to blocksize)."""
    res = ExperimentResult("S6", "Hardware projections (§6)")
    m = n = 131072
    speedups = {}
    for spec, b in (
        (V100_32GB, 16384),
        (V100_16GB, 8192),
        (A100_40GB, 16384),
        (RTX3090, 8192),
        (RTX2080TI, 4096),
    ):
        config = SystemConfig(gpu=spec)
        rec = ooc_qr((m, n), method="recursive", mode="sim", config=config,
                     options=QrOptions(blocksize=b))
        blk = ooc_qr((m, n), method="blocking", mode="sim", config=config,
                     options=QrOptions(blocksize=b))
        s_sim = blk.makespan / rec.makespan
        speedups[spec.name] = s_sim
        res.add_row(
            f"{spec.name} (b={b})",
            "> 1x (§6)",
            fmt_ratio(s_sim),
            f"balance {machine_balance(spec):,.0f} flops/word",
        )
    res.add_check(
        "recursion wins on every projected GPU",
        all(s > 1.0 for s in speedups.values()),
    )
    res.add_check(
        "A100 (higher compute/bandwidth ratio) gains at least as much as "
        "the V100 (paper §6's prediction)",
        speedups[A100_40GB.name] >= speedups[V100_32GB.name] * 0.95,
    )
    res.add_check(
        "memory-starved cards gain more than the 32 GB V100",
        speedups[V100_16GB.name] > speedups[V100_32GB.name]
        and speedups[RTX2080TI.name] > speedups[V100_32GB.name],
    )
    return res


def exp_lu_cholesky_extension() -> ExperimentResult:
    """S8: §6 future work, built — OOC LU and Cholesky, both variants.

    The paper predicts recursion "can definitely help" LU/Cholesky because
    their trailing updates are outer-product-form too, but leaves them
    unimplemented. We build them (on the same engines, plus an OOC TRSM for
    recursive LU's U12 solve) and measure: at the 32 GB / b = 16384 corner
    the blocking variants already overlap their tile traffic (recursion
    buys nothing — consistent with the paper's own finding that b = 16384
    suffices for the *outer-product* GEMM type), while under the 16 GB /
    b = 8192 memory pressure of §5.2, recursion wins for both
    factorizations, as it does for QR.
    """
    from repro.factor import ooc_cholesky, ooc_lu

    res = ExperimentResult("S8", "OOC LU & Cholesky extension (§6 future work)")
    shape = PAPER_MAIN_SHAPE
    speedups = {}
    for label, cfg, b in (("32GB b=16384", PAPER_SYSTEM, 16384),
                          ("16GB b=8192", PAPER_SYSTEM_16GB, 8192)):
        for kind, fn in (("LU", ooc_lu), ("Cholesky", ooc_cholesky)):
            rec = fn(shape, method="recursive", mode="sim", config=cfg, blocksize=b)
            blk = fn(shape, method="blocking", mode="sim", config=cfg, blocksize=b)
            s = blk.makespan / rec.makespan
            speedups[(kind, label)] = s
            res.add_row(
                f"{kind} {label} speedup",
                "(unmeasured in paper)",
                fmt_ratio(s),
                f"rec {fmt_s(rec.makespan)} vs blk {fmt_s(blk.makespan)}",
            )
    res.add_check(
        "under §5.2's memory pressure, recursion wins for both LU and "
        "Cholesky (the paper's §6 prediction)",
        speedups[("LU", "16GB b=8192")] > 1.1
        and speedups[("Cholesky", "16GB b=8192")] > 1.1,
    )
    res.add_check(
        "the advantage grows when memory shrinks, as for QR",
        speedups[("LU", "16GB b=8192")] > speedups[("LU", "32GB b=16384")]
        and speedups[("Cholesky", "16GB b=8192")]
        > speedups[("Cholesky", "32GB b=16384")],
    )
    res.add_check(
        "at 32 GB / b=16384 blocking's already-overlapped tile updates keep "
        "it competitive (no false recursive win)",
        0.8 <= speedups[("LU", "32GB b=16384")] <= 1.2,
    )
    return res


def exp_communication_analysis() -> ExperimentResult:
    """S10: measured traffic vs the [3] lower bound, and the pinned-memory
    ablation.

    The paper's §1 frames OOC design with the Ω(#flops/√M) communication
    lower bound; here we place both algorithms' measured H2D+D2H traffic
    against it (recursion lands within a small constant of the bound), and
    quantify how much of the headline depends on pinned transfers (§3.3
    computes its crossovers "if using pinned memory").
    """
    from dataclasses import replace as dc_replace

    from repro.models.bounds import (
        movement_optimality_ratio,
        qr_lower_bound_bytes,
    )

    res = ExperimentResult("S10", "Communication bound + pinned-memory ablation")
    m, n = PAPER_MAIN_SHAPE
    config = PAPER_SYSTEM
    bound = qr_lower_bound_bytes(config, m, n)
    res.add_row("Ω(#flops/√M) bound", "[3], §1", f"{bound / 1e9:.0f} GB")

    ratios = {}
    for method in ("recursive", "blocking"):
        run = ooc_qr((m, n), method=method, mode="sim", config=config,
                     options=QrOptions(blocksize=16384))
        ratios[method] = movement_optimality_ratio(
            config, m, n, run.movement.total_bytes
        )
        res.add_row(
            f"{method} traffic / bound",
            "small constant",
            f"{ratios[method]:.1f}x",
            f"{run.movement.total_bytes / 1e9:.0f} GB moved",
        )
    res.add_check(
        "recursive traffic is within 10x of the asymptotic lower bound",
        ratios["recursive"] < 10.0,
    )
    res.add_check(
        "recursive sits closer to the bound than blocking",
        ratios["recursive"] < ratios["blocking"],
    )

    times = {}
    for pinned in (True, False):
        cfg = dc_replace(config, pinned=pinned)
        run = ooc_qr((m, n), method="recursive", mode="sim", config=cfg,
                     options=QrOptions(blocksize=16384))
        times[pinned] = run.makespan
        res.add_row(
            f"recursive QR, {'pinned' if pinned else 'pageable'} transfers",
            "pinned ~2x pageable BW",
            fmt_s(run.makespan),
        )
    res.add_check(
        "pageable transfers slow the factorization materially "
        "(pinned staging is load-bearing)",
        times[False] > 1.15 * times[True],
    )
    return res


def exp_blocksize_sensitivity(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S11: the paper's conclusion, swept — "the GEMMs in recursive QR
    factorization is insensitive to the blocksize ... while the GEMMs in
    conventional blocking QR cannot run at peak ... due to the fixed
    blocksize".

    Sweeps the QR blocksize at fixed problem size and machine: blocking's
    time balloons as b shrinks (reduction-shaped inner GEMMs + unhidden
    tile traffic, and Θ(k·mn) movement with k = n/b), while recursive time
    stays nearly flat (its big GEMMs don't depend on b).
    """
    res = ExperimentResult("S11", "Blocksize sensitivity (§6 conclusion)")
    m, n = 65536, 65536
    times = {"recursive": {}, "blocking": {}}
    for b in (16384, 8192, 4096, 2048):
        for method in times:
            run = ooc_qr((m, n), method=method, mode="sim", config=config,
                         options=QrOptions(blocksize=b))
            times[method][b] = run.makespan
        res.add_row(
            f"b={b}",
            "blocking degrades, recursive flat",
            f"rec {fmt_s(times['recursive'][b])} / "
            f"blk {fmt_s(times['blocking'][b])}",
            f"speedup {times['blocking'][b] / times['recursive'][b]:.2f}x",
        )
    rec_spread = max(times["recursive"].values()) / min(times["recursive"].values())
    blk_growth = times["blocking"][2048] / times["blocking"][16384]
    res.add_row("recursive max/min over sweep", "~1", f"{rec_spread:.2f}x")
    res.add_row("blocking t(2048)/t(16384)", ">> 1", f"{blk_growth:.2f}x")
    res.add_check(
        "recursive time varies < 35% across an 8x blocksize range",
        rec_spread < 1.35,
    )
    res.add_check(
        "blocking slows > 1.8x when the blocksize shrinks 8x",
        blk_growth > 1.8,
    )
    res.add_check(
        "the recursive advantage grows monotonically as b shrinks",
        all(
            times["blocking"][b2] / times["recursive"][b2]
            >= times["blocking"][b1] / times["recursive"][b1] - 0.05
            for b1, b2 in ((16384, 8192), (8192, 4096), (4096, 2048))
        ),
    )
    return res


def column_split_gemm(
    config: SystemConfig,
    n_devices: int,
    *,
    M: int,
    N: int,
    K: int,
    blocksize: int,
    shared_host_link: bool = False,
) -> list[GemmResult]:
    """``C(M, N) = AᵀB`` with C's columns split evenly across *n_devices*.

    Each device runs the public :func:`~repro.ooc.api.ooc_gemm` on its
    column slice, simulated on the topology's per-device config (PCIe
    derated by the device count behind a shared host link); the slices
    are independent, so the makespan is the max over the returned runs.
    """
    from repro.dist.topology import DeviceTopology

    dev = DeviceTopology.symmetric(
        config, n_devices, shared_host_link=shared_host_link
    ).device_config(0)
    return [
        ooc_gemm((K, M), (K, w), trans_a=True, mode="sim", config=dev,
                 blocksize=blocksize)
        for _, w in split_even(N, n_devices)
    ]


def exp_multi_gpu_scaling(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S13: multi-GPU OOC GEMM scaling (§2.2's cuBLASXt/BLASX territory).

    Naive output-column splitting (:func:`column_split_gemm`) re-reads
    the shared operand on every device, so aggregate traffic grows with
    the GPU count: with independent PCIe links scaling is sub-linear;
    behind one shared host link it *collapses* — which is precisely the
    problem BLASX's tile caching (and this paper's single-GPU
    data-movement discipline) exists to solve.
    """
    res = ExperimentResult("S13", "Multi-GPU OOC GEMM scaling (§2.2)")
    results = {}
    for shared in (False, True):
        label = "shared link" if shared else "own links"
        for g in (1, 2, 4, 8):
            runs = column_split_gemm(
                config, g, M=32768, N=65536, K=65536, blocksize=8192,
                shared_host_link=shared,
            )
            makespan = max(r.makespan for r in runs)
            h2d = sum(r.stats.h2d_bytes for r in runs)
            flops = sum(r.stats.gemm_flops for r in runs)
            results[shared, g] = makespan, h2d, flops
            res.add_row(
                f"{label}, {g} GPU{'s' if g > 1 else ''}",
                "sub-linear (redundant A reads)" if not shared
                else "collapses (host bottleneck)",
                f"{fmt_s(makespan)} ({results[shared, 1][0] / makespan:.2f}x)",
                f"{h2d / 1e9:.0f} GB total in",
            )

    def speedup(shared: bool, g: int) -> float:
        return results[shared, 1][0] / results[shared, g][0]

    res.add_check(
        "with independent links, 4 GPUs give a real but sub-linear speedup",
        1.5 <= speedup(False, 4) <= 4.0,
    )
    res.add_check(
        "aggregate H2D traffic grows with GPU count (the shared operand is "
        "re-read per device — BLASX's motivating waste)",
        results[False, 8][1] > 2 * results[False, 1][1],
    )
    res.add_check(
        "behind one shared host link, adding GPUs stops helping",
        speedup(True, 8) < 1.2,
    )
    res.add_check(
        "per-device results are identical across link models in compute",
        results[False, 1][2] == results[True, 1][2],
    )
    return res


def exp_multi_gpu_panel(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S14: multi-GPU TSQR panels vs the Table-4 panel bottleneck.

    Panel factorization is the serial floor of both OOC algorithms (Table 4
    charges it identically to both). TSQR splits a panel across devices;
    each point is the verified, globally scheduled
    :func:`~repro.dist.sim.simulate_dist_qr` run (binomial tree, factor
    broadcasts staged through the host). The sweep shows the regime
    split: skinny panels approach linear scaling (the tree reduction is
    negligible), while at the paper's fat b = 8192 panels the (2b x b)
    reduction QRs eat the gain — multi-GPU TSQR is not the fix for the
    paper's configuration, only for skinny-panel variants.
    """
    from repro.dist.sim import dist_scaling_sweep

    res = ExperimentResult("S14", "Multi-GPU TSQR panels (Table 4's serial floor)")
    speedups = {}
    for b in (1024, 8192):
        sweep = dist_scaling_sweep(config, m=131072, n=b, device_counts=(1, 2, 4))
        for g, r in sweep.items():
            s = r.speedup_over(sweep[1])
            speedups[(b, g)] = s
            res.add_row(
                f"b={b}, {g} GPU{'s' if g > 1 else ''}",
                "skinny scales, fat hits the tree",
                f"{fmt_s(r.makespan)} ({s:.2f}x)",
                f"{r.transfer_bytes / 1e6:.0f} MB moved, "
                + ("verified" if r.all_verified else "FINDINGS"),
            )
    res.add_check(
        "skinny panels (b=1024) scale well on 4 GPUs (> 2.5x)",
        speedups[(1024, 4)] > 2.5,
    )
    res.add_check(
        "the paper's fat panels (b=8192) fall far short of the 4x ideal "
        "(< 2x on 4 GPUs): the reduction tree becomes the bottleneck",
        speedups[(8192, 4)] < 2.0,
    )
    res.add_check(
        "the fat-panel tree phase is comparable to the local phase",
        speedups[(8192, 4)] < 0.7 * speedups[(1024, 4)],
    )
    res.add_check(
        "scaling is monotone in GPU count for skinny panels",
        speedups[(1024, 2)] <= speedups[(1024, 4)],
    )
    return res

