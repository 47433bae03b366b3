#!/usr/bin/env python
"""Measure the span recorder's overhead on a numeric QR run.

Times the same out-of-core QR factorization with observability off
(``NULL_RECORDER``, the production default) and on (a live
``SpanRecorder``), taking the **minimum over several repeats** of each —
the least noise-contaminated estimate, standard for wall-clock
microbenchmarks — and fails when the relative slowdown exceeds the
budget. CI runs this in the ``loadgen-smoke`` job with a 5% gate; the
subsystem's design target is <2%.

A small absolute floor (default 2 ms) keeps the check meaningful on
noisy shared runners: a 6% blip on a 20 ms run is scheduler jitter, not
recorder cost. BLAS runs single-threaded (as in ``perfbench/run.py``):
a multithreaded BLAS pool's jitter on a small host is larger than the
budget and would be measured instead of the recorder.

Usage::

    python tools/check_obs_overhead.py [--budget 0.05] [--repeats 5]
        [-m 256 -n 128 -b 32] [--floor-ms 2.0]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

# before numpy is imported: its BLAS sizes its thread pool at load time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.05,
                        help="max allowed relative overhead (default 5%%)")
    # defaults give ~25 ms runs with ~100 ops of realistic (sub-ms)
    # granularity; much smaller blocks make every op a few microseconds,
    # where any instrumentation reads as inflated relative overhead
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("-m", "--rows", type=int, default=1024)
    parser.add_argument("-n", "--cols", type=int, default=512)
    parser.add_argument("-b", "--blocksize", type=int, default=128)
    parser.add_argument("--floor-ms", type=float, default=2.0,
                        help="absolute slowdown below this never fails")
    args = parser.parse_args(argv)

    from repro.bench.concurrency import bench_spec
    from repro.bench.workloads import random_tall
    from repro.config import SystemConfig
    from repro.hw.gemm import Precision
    from repro.obs import SpanRecorder
    from repro.obs.clock import monotonic
    from repro.qr.api import ooc_qr

    config = SystemConfig(gpu=bench_spec(), precision=Precision.FP32)
    a = random_tall(args.rows, args.cols, seed=0)

    def best_of(obs_on: bool) -> float:
        best = float("inf")
        for _ in range(args.repeats):
            obs = SpanRecorder() if obs_on else None
            t0 = monotonic()
            ooc_qr(a, method="recursive", config=config,
                   blocksize=args.blocksize, obs=obs)
            best = min(best, monotonic() - t0)
        return best

    best_of(False)  # warm caches off the record
    off_s = best_of(False)
    on_s = best_of(True)
    delta_s = on_s - off_s
    rel = delta_s / off_s if off_s > 0 else 0.0
    print(
        f"obs overhead: off {off_s * 1e3:.2f} ms, on {on_s * 1e3:.2f} ms, "
        f"delta {delta_s * 1e3:+.2f} ms ({rel * 100:+.1f}%), "
        f"budget {args.budget * 100:.0f}%"
    )
    if rel > args.budget and delta_s * 1e3 > args.floor_ms:
        print(
            f"FAIL: recorder overhead {rel * 100:.1f}% exceeds the "
            f"{args.budget * 100:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
