"""What the benchmark measures: workloads, metric names, units and bounds.

This module is the single source of the metric catalogue. ``BENCHMARK.json``
at the repository root is generated from it (``python3 perfbench/run.py
--write-spec``) and the benchmark's tests check the two agree.

Every end-to-end metric is reported by every workload, so each metric is
defined in a way that holds for a batch caller and for the serve stream
alike (see ``END_TO_END``). Per-layer metrics are named
``<module>.<metric>`` after the ``src/repro`` module doing the work.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: (name, why) — the order is the order ``--workload`` accepts them in.
WORKLOADS = [
    (
        "qr-tall",
        "paper headline path: recursive CGS QR of a tall fp32 matrix out of "
        "core with fp16 TensorCore emulation; runtime, analysis, serve, "
        "ckpt and health are bypassed",
    ),
    (
        "square-dag",
        "square QR on the DAG runtime with threads plus LU and Cholesky: "
        "trailing-update GEMMs, graph build and scheduling, trsm and "
        "LU/Cholesky panels",
    ),
    (
        "serve-mixed",
        "open-loop Poisson stream of mixed jobs into FactorService with "
        "plan verification and the result cache on: admission, cache, "
        "queueing and dist TSQR",
    ),
    (
        "qr-tall-ckpt",
        "the qr-tall input with a checkpoint every step and health "
        "monitoring: the same kernels plus durable writes and probes",
    ),
]

#: (name, unit, better, bound, definition). Timings get the largest bound
#: allowed: on the shared two-core host the benchmark was tuned on, CPU
#: speed drifts by 10-20% over tens of seconds (CPU time equals wall time,
#: so it is not descheduling), and ten-run quartile spreads of the timings
#: reached 0.05-0.13. Errors and memory repeat within 1%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "script start to the first timed call: imports, then the median of "
     "three repeats of input generation, warm-up and service start"),
    ("qr_s", "s", "lower", 0.25,
     "median wall time of one ooc_qr call (serve: of one single-device QR "
     "job's execution inside the service)"),
    ("turnaround_p50_s", "s", "lower", 0.25,
     "median time from an operation's scheduled start to its result; a "
     "batch caller schedules each call when the previous one returns"),
    ("turnaround_tail_s", "s", "lower", 0.25,
     "turnaround at the highest percentile with at least 10 operations "
     "beyond it (never below the median)"),
    ("goodput_jobs_s", "jobs/s", "higher", 0.25,
     "correctly completed operations per second of generator wall time "
     "(batch: of summed call time)"),
    ("backward_err", "ratio", "lower", 0.1,
     "largest ||A - factors||_F / ||A||_F over all checked outputs"),
    ("orth_err", "ratio", "lower", 0.1,
     "largest ||I - Q^T Q||_F over all checked Q outputs"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "peak resident memory of the benchmark process"),
]

#: (name, unit, better, definition). Times are per timed operation
#: (a batch round or an executed serve job) unless stated otherwise.
PER_LAYER = [
    ("execution.gemm_inner_s", "s", "lower", "busy time of inner-product GEMMs"),
    ("execution.gemm_outer_s", "s", "lower", "busy time of outer-product GEMMs"),
    ("execution.panel_s", "s", "lower", "busy time of panel factorizations"),
    ("execution.trsm_s", "s", "lower", "busy time of triangular solves"),
    ("execution.h2d_s", "s", "lower", "busy time of host-to-device copies"),
    ("execution.d2h_s", "s", "lower", "busy time of device-to-host copies"),
    ("execution.h2d_bytes", "bytes", "lower", "host-to-device bytes (exact)"),
    ("execution.d2h_bytes", "bytes", "lower", "device-to-host bytes (exact)"),
    ("execution.gemm_flops", "flops", "lower", "GEMM and trsm flops (exact)"),
    ("execution.panel_flops", "flops", "lower", "panel flops (exact)"),
    ("execution.device_peak_bytes", "bytes", "lower",
     "largest device-allocator peak of any run"),
    ("execution.overlap_ratio", "ratio", "higher",
     "1 - exposed transfer / transfer busy, from obs.derive.run_summary"),
    ("execution.exposed_transfer_s", "s", "lower",
     "transfer time with compute idle, from obs.derive.run_summary"),
    ("tc.round_s", "s", "lower", "time in round_to (fp16 input rounding)"),
    ("tc.gemm_s", "s", "lower", "time in tc_gemm, rounding included"),
    ("tc.gemm_calls", "count", "lower", "tc_gemm calls (exact)"),
    ("runtime.build_s", "s", "lower", "median task-graph build time per DAG call"),
    ("runtime.schedule_s", "s", "lower", "median DagScheduler run time per DAG call"),
    ("runtime.tasks", "count", "lower", "tasks per DAG call (exact)"),
    ("runtime.dispatch_us", "us", "lower",
     "(schedule_s - merged task busy time) / tasks"),
    ("analysis.capture_s", "s", "lower", "median capture_job time per call"),
    ("analysis.verify_s", "s", "lower",
     "median verify_program time per call, precision pass included"),
    ("analysis.precision_s", "s", "lower", "median propagate time per call"),
    ("analysis.calls", "count", "lower", "verify_program calls in the traced phase"),
    ("serve.submit_s", "s", "lower", "median FactorService.submit time"),
    ("serve.cache_key_s", "s", "lower", "median job_cache_key time"),
    ("serve.queue_wait_s", "s", "lower", "median queue wait of executed jobs"),
    ("serve.run_s", "s", "lower", "median run time of executed jobs"),
    ("serve.cache_hit_frac", "ratio", "higher", "cache hits / resubmissions"),
    ("serve.retries", "count", "lower", "job retries after worker faults"),
    ("serve.queue_depth_max", "count", "lower", "largest queue depth seen"),
    ("dist.qr_s", "s", "lower", "median dist_qr_numeric time of devices=2 jobs"),
    ("dist.comm_words", "words", "lower", "tree words moved per devices=2 job"),
    ("ckpt.commit_s", "s", "lower", "median CheckpointManager.save time"),
    ("ckpt.bytes", "bytes", "lower", "checkpoint payload bytes per call (exact)"),
    ("ckpt.commits", "count", "lower", "checkpoints written per call (exact)"),
    ("health.probe_s", "s", "lower", "health probe time per call"),
    ("health.probes", "count", "lower", "health probe calls per call (exact)"),
    ("obs.trace_overhead_frac", "ratio", "lower",
     "(traced - untraced median operation wall) / untraced"),
    ("obs.unattributed_frac", "ratio", "lower",
     "share of the traced wall that no layer span covers"),
    ("sim.predicted_over_measured", "ratio", "higher",
     "mode='sim' makespan of the same QR spec / measured qr_s"),
    ("floor.matmul_gflop_s", "GFLOP/s", "higher",
     "np.matmul rate on a 1024x1024 fp32 square"),
    ("floor.linalg_qr_s", "s", "lower", "np.linalg.qr time on the workload's QR shape"),
    ("floor.achieved_over_matmul", "ratio", "higher",
     "ooc_qr GFLOP/s over the matmul floor"),
    ("floor.qr_over_linalg", "ratio", "lower", "qr_s / floor.linalg_qr_s"),
    ("loadgen.lag_p50_s", "s", "lower", "median lateness of each send"),
    ("loadgen.lag_max_s", "s", "lower", "largest lateness of any send"),
    ("factor.lu_s", "s", "lower", "median ooc_lu wall time (square-dag, serve)"),
    ("factor.chol_s", "s", "lower", "median ooc_cholesky wall time (square-dag, serve)"),
]

END_TO_END_UNITS = {name: unit for name, unit, *_ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in the contract's key order."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
