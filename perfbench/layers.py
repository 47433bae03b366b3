"""Per-layer figures derived from one traced phase's span list.

Op spans come from ``repro`` itself (``ooc_qr`` and the DAG backend record
them when given a recorder) or from :class:`~perfbench.probe.LayerProbe`'s
op wrappers; both carry a span category, an engine lane, a tag (or a
tag-prefixed name) and exact byte/flop counts. Layer spans come from the
probe's timers and from the serve layer's own job spans.
"""

from __future__ import annotations

import statistics

from repro.obs.derive import run_summary
from repro.obs.span import ENGINE_LANES, Span
from repro.sim.ops import OpKind
from repro.sim.trace import interval_length, merge_intervals

OP_CATS = ("copy_h2d", "copy_d2h", "copy_d2d", "gemm", "panel")


def median(values) -> float:
    """Median, or 0.0 for no values."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def op_tag(span: Span) -> str:
    """The driver's op tag (``inner``/``outer``/``panel``/``trsm``...);
    the DAG backend keeps it only as the op name's first word."""
    return span.attrs.get("tag") or span.name.split(" ", 1)[0]


def op_spans(spans: list[Span]) -> list[Span]:
    """Executed device ops (engine lanes, interval spans)."""
    return [
        s for s in spans
        if s.lane in ENGINE_LANES and s.cat in OP_CATS and not s.is_event
    ]


def _covered(intervals, window: tuple[float, float]) -> float:
    lo, hi = window
    clipped = [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]
    return interval_length(merge_intervals(clipped))


def unattributed_frac(spans: list[Span], windows: list[tuple[float, float]]) -> float:
    """Share of the windows' wall time no layer span covers.

    Every interval span is a layer span except a run's root span
    (category ``run``), which is the measured call itself. Layer spans
    nest, so their union equals the sum of top-level self times.
    """
    layer_iv = merge_intervals(
        (s.start_s, s.end_s) for s in spans if s.cat != "run" and not s.is_event
    )
    wall = sum(hi - lo for lo, hi in windows)
    if wall <= 0:
        return 0.0
    covered = sum(_covered(layer_iv, w) for w in windows)
    return max(0.0, min(1.0, (wall - covered) / wall))


def layer_metrics(
    spans: list[Span],
    *,
    n_ops: int,
    allocator_peaks: list[int],
    windows: list[tuple[float, float]],
) -> dict[str, float]:
    """Execution, tc, runtime, analysis, serve-submit, dist, ckpt, health
    and obs figures. Sums are per timed operation (*n_ops*: batch rounds
    or executed serve jobs); medians are per call of the wrapped function.
    """
    per = max(n_ops, 1)
    ops = op_spans(spans)

    def busy(pred) -> float:
        return sum(s.duration_s for s in ops if pred(s)) / per

    def total(cat: str, key: str) -> float:
        return sum(int(s.attrs.get(key, 0)) for s in ops if s.cat == cat) / per

    def named(layer: str, name: str) -> list[Span]:
        return [s for s in spans if s.cat == layer and s.name == name]

    summary = run_summary(ops)
    out = {
        "execution.gemm_inner_s": busy(lambda s: s.cat == "gemm" and op_tag(s) == "inner"),
        "execution.gemm_outer_s": busy(lambda s: s.cat == "gemm" and op_tag(s) == "outer"),
        "execution.panel_s": busy(lambda s: s.cat == "panel"),
        "execution.trsm_s": busy(lambda s: s.cat == "gemm" and op_tag(s) == "trsm"),
        "execution.h2d_s": busy(lambda s: s.cat == "copy_h2d"),
        "execution.d2h_s": busy(lambda s: s.cat == "copy_d2h"),
        "execution.h2d_bytes": total("copy_h2d", "nbytes"),
        "execution.d2h_bytes": total("copy_d2h", "nbytes"),
        "execution.gemm_flops": total("gemm", "flops"),
        "execution.panel_flops": total("panel", "flops"),
        "execution.device_peak_bytes": float(max(allocator_peaks, default=0)),
        "execution.overlap_ratio": summary.overlap_ratio,
        "execution.exposed_transfer_s": summary.exposed_transfer_s / per,
    }

    tc_gemm = named("tc", "tc_gemm")
    out["tc.round_s"] = sum(s.duration_s for s in named("tc", "round_to")) / per
    out["tc.gemm_s"] = sum(s.duration_s for s in tc_gemm) / per
    out["tc.gemm_calls"] = len(tc_gemm) / per

    schedules = named("runtime", "schedule")
    out["runtime.build_s"] = median(s.duration_s for s in named("runtime", "build"))
    out["runtime.schedule_s"] = median(s.duration_s for s in schedules)
    out["runtime.tasks"] = median(s.attrs["tasks"] for s in schedules)
    op_iv = merge_intervals((o.start_s, o.end_s) for o in ops)
    out["runtime.dispatch_us"] = median(
        1e6 * (s.duration_s - _covered(op_iv, (s.start_s, s.end_s)))
        / max(s.attrs["tasks"], 1)
        for s in schedules
    )

    verifies = named("analysis", "verify")
    out["analysis.capture_s"] = median(s.duration_s for s in named("analysis", "capture"))
    out["analysis.verify_s"] = median(s.duration_s for s in verifies)
    out["analysis.precision_s"] = median(
        s.duration_s for s in named("analysis", "precision")
    )
    out["analysis.calls"] = float(len(verifies))

    out["serve.submit_s"] = median(s.duration_s for s in named("serve", "submit"))
    out["serve.cache_key_s"] = median(s.duration_s for s in named("serve", "cache_key"))

    dist = named("dist", "dist_qr")
    out["dist.qr_s"] = median(s.duration_s for s in dist)
    out["dist.comm_words"] = median(s.attrs["words"] for s in dist)

    commits = named("ckpt", "commit")
    out["ckpt.commit_s"] = median(s.duration_s for s in commits)
    out["ckpt.bytes"] = sum(s.attrs["bytes"] for s in commits) / per
    out["ckpt.commits"] = len(commits) / per

    probes = named("health", "probe")
    out["health.probe_s"] = sum(s.duration_s for s in probes) / per
    out["health.probes"] = len(probes) / per

    out["obs.unattributed_frac"] = unattributed_frac(spans, windows)
    return out


# -- paper tables: measured next to simulated ---------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def paper_tables(sim_trace, spans: list[Span]) -> list[tuple[str, float, float]]:
    """Rows of (quantity, simulated s, measured s) for one QR call.

    Tables 1/2: the mean per-block move-in, GEMM and move-out time.
    Table 4: GEMM time against panel time.
    """
    ops = op_spans(spans)
    sim_ops = list(sim_trace)

    def sim_mean(kind: OpKind) -> float:
        return _mean(op.duration for op in sim_ops if op.kind is kind)

    def sim_sum(pred) -> float:
        return sum(op.duration for op in sim_ops if pred(op))

    def meas(cat: str) -> list[float]:
        return [s.duration_s for s in ops if s.cat == cat]

    return [
        ("T1/2 move-in per block", sim_mean(OpKind.COPY_H2D), _mean(meas("copy_h2d"))),
        ("T1/2 GEMM per block", sim_mean(OpKind.GEMM), _mean(meas("gemm"))),
        ("T1/2 move-out per block", sim_mean(OpKind.COPY_D2H), _mean(meas("copy_d2h"))),
        ("T4 GEMM total", sim_sum(lambda op: op.kind is OpKind.GEMM), sum(meas("gemm"))),
        ("T4 panel total", sim_sum(lambda op: op.kind is OpKind.PANEL), sum(meas("panel"))),
    ]
