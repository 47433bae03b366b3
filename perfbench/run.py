"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload qr-tall --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` runs the workload untraced for half the time and traced for the other
half, prints the per-layer metrics and the measured paper tables next to
the simulated ones, and writes a Perfetto trace under ``.bench_out/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 19, "failed": 0, "metrics": {...}}

The process exits non-zero when any output fails its check.
``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# One process, at most two threads of numeric work: single-threaded BLAS,
# so the DAG runtime's and the service's two workers are the parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv: list[str]) -> argparse.Namespace:
    from perfbench.spec import RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes (the benchmark's smoke tests)")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                    help="directory for traces and checkpoint scratch")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = ap.parse_args(argv)
    if not args.write_spec and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.write_spec:
        from perfbench.spec import benchmark_json

        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n"
        )
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    # scratch files (dist TSQR memmaps) stay inside the checkout
    tempfile.tempdir = str(args.out)

    from perfbench.report import run_workload

    result = run_workload(args, T_START)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
