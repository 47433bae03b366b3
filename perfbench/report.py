"""Set up, run and score one workload; print every metric with its unit."""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import spec
from perfbench.layers import layer_metrics, median, paper_tables
from perfbench.workloads import (
    BATCH, FULL, TINY, Checker, Phase, ServeWorkload, entry_kwargs,
)

#: Set-up repeats per run; set-up time is their median.
SETUP_REPEATS = 3


def _build(args, scale, phases: int):
    if args.workload == "serve-mixed":
        return ServeWorkload(args.seed, scale, args.seconds / phases, phases)
    return BATCH[args.workload](args.seed, scale, args.out)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least 10
    values beyond it, never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def _qr_times(phase: Phase, label: str) -> list[float]:
    return [o.run_s for o in phase.outcomes
            if o.ok and o.executed and o.label == label]


def end_to_end(phase: Phase, checker: Checker, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, plus notes printed beside them."""
    ok = [o for o in phase.outcomes if o.ok]
    turnaround = [o.turnaround_s for o in ok]
    tail_s, tail_pct = tail(turnaround)
    qr = [o.run_s for o in ok if o.kind == "qr" and o.executed and o.devices == 1]
    metrics = {
        "setup_s": setup_s,
        "qr_s": median(qr),
        "turnaround_p50_s": median(turnaround),
        "turnaround_tail_s": tail_s,
        "goodput_jobs_s": len(ok) / phase.wall_s if phase.wall_s > 0 else 0.0,
        "backward_err": checker.backward,
        "orth_err": checker.orth,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "turnaround_tail_s": f"p{tail_pct:.1f} of {len(turnaround)}",
        "qr_s": f"median of {len(qr)}",
    }
    return metrics, notes


def host_floor(qr_shape: tuple[int, int], seed: int) -> dict:
    """numpy's in-core rates on this host, same thread settings."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1024, 1024), dtype=np.float32)
    y = rng.standard_normal((1024, 1024), dtype=np.float32)
    a = rng.standard_normal(qr_shape, dtype=np.float32)

    def median_time(fn, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    matmul_s = median_time(lambda: x @ y, 7)
    return {
        "floor.matmul_gflop_s": 2 * 1024**3 / matmul_s / 1e9,
        "floor.linalg_qr_s": median_time(lambda: np.linalg.qr(a), 3),
    }


def _sim(workload):
    """The same QR spec in ``mode="sim"``."""
    from repro.qr.api import ooc_qr

    kwargs = entry_kwargs(ooc_qr, mode="sim", **workload.qr_spec)
    return ooc_qr(workload.qr_shape, **kwargs)


def per_layer(args, workload, untraced: Phase, traced: Phase, spans, probe) -> dict:
    metrics = layer_metrics(
        spans, n_ops=traced.n_ops, allocator_peaks=probe.allocator_peaks,
        windows=traced.windows,
    )
    metrics.update(traced.extra)
    if args.workload != "serve-mixed":
        # a batch caller starts each call when the previous one returns
        metrics["loadgen.lag_p50_s"] = median(o.lag_s for o in traced.outcomes)
        metrics["loadgen.lag_max_s"] = max(o.lag_s for o in traced.outcomes)
        for key in ("serve.queue_wait_s", "serve.run_s", "serve.cache_hit_frac",
                    "serve.retries", "serve.queue_depth_max"):
            metrics[key] = 0.0

    for kind, name in (("lu", "factor.lu_s"), ("cholesky", "factor.chol_s")):
        metrics[name] = median(
            o.run_s for o in traced.outcomes if o.ok and o.executed and o.kind == kind
        )

    plain = median(_qr_times(untraced, workload.qr_label))
    plain_traced = median(_qr_times(traced, workload.qr_label))
    metrics["obs.trace_overhead_frac"] = (plain_traced - plain) / plain if plain else 0.0

    sim = _sim(workload)
    metrics["sim.predicted_over_measured"] = sim.makespan / plain if plain else 0.0
    metrics.update(host_floor(workload.qr_shape, args.seed))
    achieved = sim.stats.total_flops / plain / 1e9 if plain else 0.0
    metrics["floor.achieved_over_matmul"] = achieved / metrics["floor.matmul_gflop_s"]
    metrics["floor.qr_over_linalg"] = plain / metrics["floor.linalg_qr_s"]

    if args.workload != "serve-mixed":
        # the round's first call is its QR call
        lo, hi = traced.windows[0]
        one_call = [s for s in spans if s.start_s >= lo and s.end_s <= hi]
        print(f"paper tables for {workload.qr_label} (first traced call):")
        print(f"  {'quantity':<26}{'sim s':>12}{'measured s':>14}")
        for what, sim_s, meas_s in paper_tables(sim.trace, one_call):
            print(f"  {what:<26}{sim_s:>12.6f}{meas_s:>14.6f}")

    for name in probe.absent_metrics():
        print(f"absent: {name} (wrapped function no longer exists)")
        metrics.pop(name, None)
    return metrics


def run_workload(args, t_start: float) -> dict:
    """Run one workload as ``run.py`` was asked to; returns the result JSON."""
    t_imported = time.perf_counter()
    scale = TINY if args.tiny else FULL
    phases = 2 if args.trace else 1
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # one set of inputs in memory at a time
        t0 = time.perf_counter()
        workload = _build(args, scale, phases)
        setups.append(time.perf_counter() - t0)
    setup_s = (t_imported - t_start) + statistics.median(setups)

    checker = Checker()
    if not args.trace:
        phase = workload.run_phase(args.seconds, checker)
        metrics, notes = end_to_end(phase, checker, setup_s)
        outcomes = phase.outcomes
        units = spec.END_TO_END_UNITS
    else:
        from repro.obs.export import spans_to_chrome_trace
        from repro.obs.span import SpanRecorder

        from perfbench.probe import LayerProbe

        untraced = workload.run_phase(args.seconds / 2, checker, phase=0)
        rec = SpanRecorder()
        with LayerProbe(rec) as probe:
            traced = workload.run_phase(args.seconds / 2, checker, rec=rec, phase=1)
        spans = rec.spans()
        path = Path(args.out) / f"{args.workload}-seed{args.seed}.perfetto.json"
        spans_to_chrome_trace(spans, path)
        print(f"perfetto trace: {path} ({len(spans)} spans)")
        metrics = per_layer(args, workload, untraced, traced, spans, probe)
        notes = {}
        outcomes = untraced.outcomes + traced.outcomes
        units = spec.PER_LAYER_UNITS

    failed = sum(not o.ok for o in outcomes)
    for what in checker.failures:
        print(f"FAILED check: {what}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outcomes)} operations, fail_frac {failed / max(len(outcomes), 1):.4f}")
    for name in units:
        if name in metrics:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<32}{metrics[name]:>16.6g} {units[name]}{note}")
    return {
        "correct": failed == 0 and not checker.failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units if name in metrics
        },
    }
