"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``   run the paper's evaluation (all, or selected ids)
``qr``            simulated (or numeric) OOC QR with a timeline
``lu``/``chol``   the §6 extension factorizations, simulated or numeric
``gemm``          out-of-core GEMM (cuBLASXt-style)
``loadgen``       open-loop Poisson load test of the service (BENCH_serve.json)
``trace``         run a numeric QR under the span recorder and render the
                  measured per-engine timeline (docs/observability.md)
``analyze``       static plan verifier + repo lint pack (docs/analysis.md)
``dist``          multi-device sharded QR: simulated scaling sweep over a
                  device pool, or the numeric process-pool backend
                  (docs/dist.md)
``gpus``          list built-in GPU specs and their §3.3 thresholds

Domain failures (bad shapes, unknown GPUs, unplannable configs) exit with
code 2 and a one-line ``error:`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.hw.specs import KNOWN_GPUS, V100_32GB, get_gpu
from repro.qr.options import QrOptions
from repro.util.tables import render_table


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", "--rows", type=int, default=131072)
    parser.add_argument("-n", "--cols", type=int, default=131072)
    parser.add_argument("-b", "--blocksize", type=int, default=16384)
    parser.add_argument(
        "--method", choices=["recursive", "blocking", "both"], default="both"
    )
    parser.add_argument(
        "--gpu", default=V100_32GB.name, help="GPU spec name (see `gpus`)"
    )
    parser.add_argument(
        "--memory-gib", type=float, default=None,
        help="cap device memory (the paper's §5.2 experiment)",
    )
    parser.add_argument("--timeline", action="store_true", help="print the Gantt chart")
    parser.add_argument("--sync", action="store_true", help="disable pipelining")
    parser.add_argument(
        "--mode", choices=["sim", "numeric"], default="sim",
        help="sim: data-free timing model; numeric: really compute on "
        "random data (use small -m/-n)",
    )
    parser.add_argument(
        "--concurrency", choices=["serial", "threads"], default="serial",
        help="numeric mode: run ops serially, or record them as a "
        "tile-task graph and run it on worker threads (real "
        "H2D/compute/D2H overlap; see docs/concurrency.md)",
    )
    parser.add_argument(
        "--no-opts", action="store_true", help="disable the §4.2 optimizations"
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="numeric mode: persist progress to DIR and resume from it "
        "(rerun the same command after a crash; see docs/checkpoint.md)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N completed steps (default 1)",
    )
    parser.add_argument(
        "--health", choices=["off", "monitor", "escalate"], default="off",
        help="numeric mode: numerical-health sentinel — monitor records "
        "NaN/Inf and loss-of-orthogonality probes, escalate also repairs "
        "drifted panels and raises GEMM precision (see docs/health.md)",
    )
    parser.add_argument(
        "--health-stride", type=int, default=1, metavar="N",
        help="probe 1-in-N h2d transfers / GEMM outputs (default 1: all)",
    )


def _config(args) -> SystemConfig:
    gpu = get_gpu(args.gpu)
    if args.memory_gib is not None:
        gpu = gpu.with_memory(int(args.memory_gib * (1 << 30)), suffix="capped")
    return SystemConfig(gpu=gpu)


def _options(args) -> QrOptions:
    opts = QrOptions(blocksize=args.blocksize, pipelined=not args.sync)
    if args.no_opts:
        opts = opts.all_optimizations_off()
    if getattr(args, "health", "off") != "off":
        from dataclasses import replace

        from repro.health import HealthOptions

        opts = replace(
            opts,
            health=HealthOptions(mode=args.health, stride=args.health_stride),
        )
    return opts


def _timeline_recorder(args):
    """A span recorder for a numeric run's ``--timeline``, else None."""
    if not args.timeline:
        return None
    from repro.obs import SpanRecorder

    return SpanRecorder()


def _print_timeline(result, rec, *, title: str) -> None:
    """The Gantt chart and summary of a run: its recorded spans (numeric)
    or its simulated trace's."""
    from repro.obs import render_summary, render_timeline

    spans = rec.spans() if rec is not None else result.trace.spans()
    print(render_timeline(spans, width=100, title=title))
    print(render_summary(spans))


def _run_factorization(args, kind: str) -> int:
    from repro.factor.api import ooc_cholesky, ooc_lu
    from repro.qr.api import ooc_qr

    runners = {"qr": ooc_qr, "lu": ooc_lu, "chol": ooc_cholesky}
    run = runners[kind]
    config = _config(args)
    options = _options(args)
    methods = ["recursive", "blocking"] if args.method == "both" else [args.method]
    shape = (args.rows, args.cols)
    if kind == "chol" and args.rows != args.cols:
        print("cholesky requires a square matrix", file=sys.stderr)
        return 2
    if kind == "lu" and args.mode == "numeric" and args.rows != args.cols:
        print("numeric lu (unpivoted) requires a square matrix", file=sys.stderr)
        return 2
    if args.health != "off" and args.mode != "numeric":
        print("--health requires --mode numeric", file=sys.stderr)
        return 2
    checkpoint = None
    if args.checkpoint_dir is not None:
        if args.mode != "numeric":
            print("--checkpoint-dir requires --mode numeric", file=sys.stderr)
            return 2
        if args.method == "both":
            print("--checkpoint-dir requires a single --method "
                  "(a checkpoint belongs to one run)", file=sys.stderr)
            return 2
        from repro.ckpt import CheckpointConfig, CheckpointPolicy

        checkpoint = CheckpointConfig(
            args.checkpoint_dir,
            policy=CheckpointPolicy(every_steps=args.checkpoint_every),
        )

    times = {}
    for method in methods:
        rec = None
        if args.mode == "numeric":
            import numpy as np

            from repro.util.rng import default_rng

            # inputs the kind can factor: LU needs diagonal dominance
            # (no pivoting), Cholesky needs SPD
            if kind == "lu":
                from repro.factor.incore import diagonally_dominant

                a = diagonally_dominant(*shape, seed=0)
            elif kind == "chol":
                from repro.factor.incore import spd_matrix

                a = spd_matrix(shape[0], seed=0)
            else:
                a = default_rng(0).standard_normal(shape).astype(np.float32)
            rec = _timeline_recorder(args)
            result = run(
                a, method=method, mode="numeric", config=config,
                options=options, concurrency=args.concurrency,
                checkpoint=checkpoint, obs=rec,
            )
        else:
            result = run(
                shape, method=method, mode="sim", config=config,
                options=options,
            )
        times[method] = result.makespan
        clock = "measured" if args.mode == "numeric" else "simulated"
        print(
            f"{kind} {method:10s} {shape[0]}x{shape[1]} b={options.blocksize} "
            f"on {config.gpu.name}: {result.makespan:8.3f} s {clock}, "
            f"{result.achieved_tflops:6.1f} TFLOPS, "
            f"H2D {result.movement.h2d_bytes / 1e9:7.1f} GB, "
            f"D2H {result.movement.d2h_bytes / 1e9:7.1f} GB"
        )
        if result.ckpt is not None:
            c = result.ckpt
            print(
                f"  checkpoint: {c.checkpoints_written} written "
                f"({c.checkpoint_bytes >> 10} KiB), resumes {c.resumes}, "
                f"steps skipped {c.steps_skipped}"
            )
        if result.health is not None:
            print(f"  health: {result.health.summary()}")
        if args.timeline:
            _print_timeline(result, rec, title=f"{kind} {method}")
    if len(times) == 2:
        print(f"speedup (blocking / recursive): "
              f"{times['blocking'] / times['recursive']:.2f}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Domain errors (:class:`~repro.errors.ReproError`: bad shapes, unknown
    GPUs or configs, simulation failures) become a one-line ``error:``
    message on stderr and exit code 2 — no traceback.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recursive out-of-core TensorCore QR (ICPP'21) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="run the paper's evaluation")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_exp.add_argument("--no-artifacts", action="store_true",
                       help="omit timelines from the output")

    for kind, help_text in (
        ("qr", "simulated out-of-core QR factorization"),
        ("lu", "simulated out-of-core LU (unpivoted, §6 extension)"),
        ("chol", "simulated out-of-core Cholesky (§6 extension)"),
    ):
        p = sub.add_parser(kind, help=help_text)
        _add_common(p)

    p_gemm = sub.add_parser(
        "gemm", help="simulated out-of-core GEMM (cuBLASXt-style)"
    )
    p_gemm.add_argument("-M", type=int, default=65536)
    p_gemm.add_argument("-N", type=int, default=65536)
    p_gemm.add_argument("-K", type=int, default=131072)
    p_gemm.add_argument("-b", "--blocksize", type=int, default=16384)
    p_gemm.add_argument("--kind", choices=["inner", "outer"], default="inner")
    p_gemm.add_argument("--gpu", default=V100_32GB.name)
    p_gemm.add_argument("--memory-gib", type=float, default=None)
    p_gemm.add_argument("--timeline", action="store_true")
    p_gemm.add_argument("--sync", action="store_true")
    p_gemm.add_argument("--mode", choices=["sim", "numeric"], default="sim")
    p_gemm.add_argument(
        "--concurrency", choices=["serial", "threads"], default="serial"
    )

    p_lg = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load test of the factorization service "
        "(writes BENCH_serve.json; see docs/observability.md)",
    )
    p_lg.add_argument("--jobs", type=int, default=32,
                      help="number of jobs in the arrival schedule")
    p_lg.add_argument("--rate", type=float, default=200.0,
                      help="mean offered rate in jobs/s (Poisson arrivals)")
    p_lg.add_argument("--workers", type=int, default=2)
    p_lg.add_argument("--size", type=int, default=64,
                      help="base matrix dimension of the workload")
    p_lg.add_argument("-b", "--blocksize", type=int, default=32)
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument(
        "--mix", nargs="+", default=["qr", "gemm", "lu", "cholesky"],
        choices=["qr", "gemm", "lu", "cholesky"],
        help="job kinds, round-robined over the stream",
    )
    p_lg.add_argument(
        "--job-concurrency", choices=["serial", "threads"], default="serial",
    )
    p_lg.add_argument("--out", default="BENCH_serve.json",
                      help="result JSON path (default: ./BENCH_serve.json)")
    p_lg.add_argument(
        "--trace-out", default=None, metavar="JSON",
        help="also record per-job spans and export a Chrome trace "
        "(load in Perfetto / chrome://tracing)",
    )
    p_lg.add_argument(
        "--inject", action="append", default=None,
        metavar="KIND[:DEV[:ROUND]]",
        help="inject one fault per flag into every job and print each "
        "affected job's retry provenance (docs/robustness.md)",
    )

    p_tr = sub.add_parser(
        "trace",
        help="numeric QR under the span recorder: measured per-engine "
        "timeline, optional Chrome trace and sim comparison",
    )
    p_tr.add_argument("-m", "--rows", type=int, default=256)
    p_tr.add_argument("-n", "--cols", type=int, default=128)
    p_tr.add_argument("-b", "--blocksize", type=int, default=32)
    p_tr.add_argument(
        "--method", choices=["recursive", "blocking"], default="recursive"
    )
    p_tr.add_argument("--gpu", default=V100_32GB.name)
    p_tr.add_argument("--memory-gib", type=float, default=None)
    p_tr.add_argument("--sync", action="store_true", help="disable pipelining")
    p_tr.add_argument(
        "--concurrency", choices=["serial", "threads"], default="serial",
        help="threads: run the task graph on worker threads, so per-task "
        "spans carry dependency edges",
    )
    p_tr.add_argument(
        "--out", default=None, metavar="JSON",
        help="write the spans as a Chrome trace (Perfetto-loadable)",
    )
    p_tr.add_argument(
        "--compare-sim", action="store_true",
        help="also simulate the same run and tabulate sim vs measured",
    )

    p_an = sub.add_parser(
        "analyze",
        help="statically verify engine plans and lint the repo "
        "(race/leak/budget/volume proofs; see docs/analysis.md)",
    )
    p_an.add_argument(
        "--what",
        choices=["lint", "plans", "precision", "all"],
        default="all",
        help="run the repo lint pack, the plan verifier sweep over every "
        "engine's task graph, the precision/error-flow "
        "sweep (split-precision plans must prove their bound, the "
        "flat-tree fp16 negative control must be flagged), or all",
    )
    p_an.add_argument("-m", "--rows", type=int, default=96,
                      help="recorded shape rows (small by design: the "
                      "proofs are shape-generic per §3.2)")
    p_an.add_argument("-n", "--cols", type=int, default=64)
    p_an.add_argument("-b", "--blocksize", type=int, default=16)
    p_an.add_argument(
        "--engine", default=None,
        help="verify one engine from the registry (default: every engine)",
    )
    p_an.add_argument("--gpu", default=V100_32GB.name)
    p_an.add_argument("--memory-gib", type=float, default=None)
    p_an.add_argument(
        "--tolerance", type=float, default=None,
        help="forward-error tolerance for --what precision (default: the "
        "pass's DEFAULT_TOLERANCE)",
    )

    p_dist = sub.add_parser(
        "dist",
        help="multi-device sharded QR over a CAQR reduction tree: "
        "simulated scaling sweep or numeric process-pool run "
        "(docs/dist.md)",
    )
    p_dist.add_argument("-m", "--rows", type=int, default=1_048_576)
    p_dist.add_argument("-n", "--cols", type=int, default=1024)
    p_dist.add_argument(
        "--devices", type=int, nargs="+", default=[1, 8, 16, 32, 64],
        help="device counts to sweep (sim) or run (numeric)",
    )
    p_dist.add_argument(
        "--tree", choices=["binomial", "flat"], default="binomial",
        help="reduction tree: binomial meets the CAQR bound, flat is the "
        "instructive root-hotspot baseline",
    )
    p_dist.add_argument(
        "--mode", choices=["sim", "numeric"], default="sim",
        help="sim: partitioned-graph device-pool model; numeric: really "
        "factor random data through the memmap shard backend "
        "(use small -m/-n)",
    )
    p_dist.add_argument(
        "--processes", type=int, default=0,
        help="numeric mode worker processes (0 = inline, default)",
    )
    p_dist.add_argument(
        "--shared-link", action="store_true",
        help="sim: all devices contend for one host link",
    )
    p_dist.add_argument("--gpu", default=V100_32GB.name)
    p_dist.add_argument("--memory-gib", type=float, default=None)
    p_dist.add_argument(
        "--inject", action="append", default=None,
        metavar="KIND[:DEV[:ROUND]]",
        help="inject one fault per flag: KIND is worker_crash, "
        "device_loss, transfer_timeout, transfer_stall or task_error, "
        "optionally pinned to a device and reduction round "
        "(docs/robustness.md); repeatable",
    )
    p_dist.add_argument(
        "--no-recover", action="store_true",
        help="numeric: disable device-loss recovery so an injected loss "
        "fails the run loudly (the chaos-smoke negative control)",
    )
    p_dist.add_argument(
        "--bench-out", default=None, metavar="JSON",
        help="sim: write the sweep as a BENCH_dist.json document",
    )
    p_dist.add_argument(
        "--trace-out", default=None, metavar="JSON",
        help="sim: export per-device span lanes of the largest sweep "
        "point as a Chrome trace (Perfetto-loadable)",
    )

    sub.add_parser("gpus", help="list built-in GPU specs")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "gpus":
        from repro.models.overlap import machine_balance, overlap_threshold

        rows = [
            [
                spec.name,
                f"{spec.mem_bytes >> 30} GiB",
                f"{spec.tc_peak_flops / 1e12:.0f} TF",
                f"{spec.h2d_bytes_per_s / 1e9:.1f} GB/s",
                f"{overlap_threshold(spec):,.0f}",
            ]
            for spec in KNOWN_GPUS.values()
        ]
        print(render_table(
            ["name", "memory", "TC peak", "H2D", "overlap m*"], rows
        ))
        return 0

    if args.command == "experiments":
        from repro.bench import EXPERIMENTS

        ids = [i.upper() for i in args.ids] or list(EXPERIMENTS)
        unknown = [i for i in ids if i not in EXPERIMENTS]
        if unknown:
            print(f"unknown ids {unknown}; available: {', '.join(EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
        results = [EXPERIMENTS[i]() for i in ids]
        failures = 0
        for res in results:
            print(res.render(include_artifacts=not args.no_artifacts))
            print()
            failures += 0 if res.all_passed else 1
        print(f"{len(results)} experiments, {failures} failed shape checks")
        return 1 if failures else 0

    if args.command == "gemm":
        return _run_gemm(args)

    if args.command == "loadgen":
        return _run_loadgen(args)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "analyze":
        return _run_analyze(args)

    if args.command == "dist":
        return _run_dist(args)

    return _run_factorization(args, args.command)


def _parse_inject(values) -> "object | None":
    """``--inject KIND[:DEV[:ROUND]]`` flags -> a :class:`FaultPlan`."""
    if not values:
        return None
    from repro.errors import ValidationError
    from repro.faults import FaultPlan, FaultSpec

    specs = []
    for raw in values:
        parts = raw.split(":")
        if len(parts) > 3:
            raise ValidationError(
                f"--inject takes KIND[:DEV[:ROUND]], got {raw!r}"
            )
        try:
            device = int(parts[1]) if len(parts) > 1 and parts[1] else None
            rnd = int(parts[2]) if len(parts) > 2 and parts[2] else None
        except ValueError as exc:
            raise ValidationError(
                f"--inject device/round must be integers, got {raw!r}"
            ) from exc
        specs.append(FaultSpec(parts[0], device=device, round_index=rnd))
    return FaultPlan(specs=tuple(specs))


def _run_dist(args) -> int:
    config = _config(args)
    counts = sorted(set(args.devices))
    faults = _parse_inject(args.inject)

    if args.mode == "numeric":
        import numpy as np

        from repro.dist.numeric import dist_qr_numeric
        from repro.util.rng import default_rng

        a = default_rng(0).standard_normal((args.rows, args.cols))
        rows = []
        for p in counts:
            res = dist_qr_numeric(
                a, n_devices=p, tree=args.tree, processes=args.processes,
                faults=faults, recover=not args.no_recover,
            )
            resid = np.linalg.norm(res.q @ res.r - a) / np.linalg.norm(a)
            rows.append([
                str(p),
                f"{res.comm.max_up_words}",
                f"{res.comm.caqr_ratio:.3f}",
                "yes" if res.comm.meets_bound else "NO",
                f"{resid:.2e}",
                str(res.processes),
                res.faults.summary() if res.faults is not None else "off",
            ])
        print(render_table(
            ["devices", "up words/dev", "caqr ratio", "meets bound",
             "residual", "procs", "faults"],
            rows,
        ))
        return 0

    from repro.dist.sim import dist_scaling_sweep, dist_trace_spans

    sweep = dist_scaling_sweep(
        config, m=args.rows, n=args.cols, device_counts=tuple(counts),
        tree=args.tree, shared_host_link=args.shared_link, faults=faults,
    )
    baseline = sweep[min(sweep)]
    rows = []
    failures = 0
    for p in counts:
        r = sweep[p]
        failures += 0 if r.all_verified else 1
        rows.append([
            str(p),
            f"{r.makespan * 1e3:.1f} ms",
            f"{r.speedup_over(baseline):.2f}x",
            f"{r.peak_bytes / 1e9:.2f} GB",
            f"{r.transfer_bytes / 1e9:.2f} GB",
            f"{r.comm.caqr_ratio:.3f}",
            "ok" if r.all_verified else "FINDINGS",
        ])
    print(render_table(
        ["devices", "makespan", "speedup", "peak/dev", "transfers",
         "caqr ratio", "verify"],
        rows,
    ))
    if faults is not None:
        for p in counts:
            r = sweep[p]
            if r.faults is not None and not r.faults.clean:
                print(f"faults @{p} devices: {r.faults.summary()}")
    if args.bench_out is not None:
        from repro.bench.dist import sweep_document

        print(f"wrote {sweep_document(config, sweep).write(args.bench_out)}")
    if args.trace_out is not None:
        from repro.obs import spans_to_chrome_trace

        spans = dist_trace_spans(sweep[max(sweep)])
        spans_to_chrome_trace(spans, args.trace_out)
        print(f"wrote {args.trace_out} ({len(spans)} spans, "
              f"{max(sweep)} device lanes)")
    return 1 if failures else 0


def _run_analyze(args) -> int:
    from repro.errors import ValidationError

    failures = 0
    if args.what in ("lint", "all"):
        from pathlib import Path

        from repro.analysis.lint import lint_tree

        root = Path(__file__).resolve().parent  # src/repro
        findings = lint_tree(root)
        for finding in findings:
            print(finding)
        verdict = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"lint: {verdict} over {root}")
        failures += len(findings)

    if args.what in ("plans", "all"):
        from repro.analysis import ENGINE_BINDINGS, verify_engine

        config = _config(args)
        if args.engine is not None and args.engine not in ENGINE_BINDINGS:
            raise ValidationError(
                f"unknown engine {args.engine!r}; available: "
                f"{', '.join(ENGINE_BINDINGS)}"
            )
        names = [args.engine] if args.engine else list(ENGINE_BINDINGS)
        for name in names:
            report = verify_engine(
                name, config, m=args.rows, n=args.cols, b=args.blocksize
            )
            print(report.summary())
            for finding in report.findings:
                print(f"  {finding}")
            for skip in report.skipped:
                print(f"  skipped: {skip}")
            failures += len(report.findings)

    if args.what in ("precision", "all"):
        from dataclasses import replace as _replace

        from repro.analysis import (
            DEFAULT_TOLERANCE,
            ENGINE_BINDINGS,
            verify_engine,
        )
        from repro.dist.sim import dist_precision_report
        from repro.hw.gemm import Precision

        config = _config(args)
        tol = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        m, n, b = args.rows, args.cols, args.blocksize

        # structural sweep: every engine at the config's own precision
        # (no tolerance judging — the bound is reported, not gated)
        for name in ENGINE_BINDINGS:
            report = verify_engine(name, config, m=m, n=n, b=b)
            print(f"precision {report.summary()}")

        # positive set: the paper's split-precision recursive-QR plans
        # must prove their bound within the tolerance
        for prec in (Precision.TC_FP16_SPLIT3, Precision.TC_FP16_SPLIT4):
            report = verify_engine(
                "qr-recursive", _replace(config, precision=prec),
                m=m, n=n, b=b, tolerance=tol,
            )
            print(f"precision [{prec.value}] {report.summary()}")
            for finding in report.findings:
                print(f"  {finding}")
            failures += len(report.findings)

        # dist positive: 64-device binomial tree under fp16x4 (the bound
        # accrues log2 P merge steps and must stay within tolerance)
        dist_n = b
        dist_m = 64 * b
        report = dist_precision_report(
            _replace(config, precision=Precision.TC_FP16_SPLIT4),
            m=dist_m, n=dist_n, n_devices=64, tree="binomial",
            tolerance=tol,
        )
        print(f"precision [tc-fp16x4 binomial-64] {report.summary()}")
        for finding in report.findings:
            print(f"  {finding}")
        failures += len(report.findings)

        # negative control: the same 64 devices on a *flat* tree under
        # plain fp16 accrue P-1 merge steps and must be flagged
        report = dist_precision_report(
            _replace(config, precision=Precision.TC_FP16),
            m=dist_m, n=dist_n, n_devices=64, tree="flat",
            tolerance=tol,
        )
        if report.findings:
            print(
                f"precision [tc-fp16 flat-64] negative control flagged "
                f"(expected): bound {report.precision_bound:.2e} > "
                f"tol {tol:.1e}"
            )
        else:
            print(
                f"precision [tc-fp16 flat-64] NEGATIVE CONTROL NOT "
                f"FLAGGED: bound {report.precision_bound:.2e} passed "
                f"tol {tol:.1e} — the pass lost its depth sensitivity"
            )
            failures += 1

    return 1 if failures else 0


def _run_loadgen(args) -> int:
    from repro.bench.loadgen import run_loadgen

    obs = None
    if args.trace_out is not None:
        from repro.obs import SpanRecorder

        obs = SpanRecorder()
    result = run_loadgen(
        args.jobs,
        rate_jobs_s=args.rate,
        workers=args.workers,
        size=args.size,
        blocksize=args.blocksize,
        seed=args.seed,
        mix=tuple(args.mix),
        job_concurrency=args.job_concurrency,
        obs=obs,
        faults=_parse_inject(args.inject),
    )
    print(result.render())
    print(f"wrote {result.write(args.out)}")
    if obs is not None:
        from repro.obs import spans_to_chrome_trace

        spans_to_chrome_trace(obs.spans(), args.trace_out)
        print(f"wrote {args.trace_out} ({len(obs)} spans)")
    return 0


def _run_trace(args) -> int:
    import numpy as np

    from repro.obs import (
        SpanRecorder,
        render_sim_vs_measured,
        render_summary,
        render_timeline,
        run_summary,
        spans_to_chrome_trace,
    )
    from repro.qr.api import ooc_qr
    from repro.util.rng import default_rng

    config = _config(args)
    options = QrOptions(blocksize=args.blocksize, pipelined=not args.sync)
    rec = SpanRecorder()
    a = default_rng(0).standard_normal(
        (args.rows, args.cols)
    ).astype(np.float32)
    ooc_qr(
        a, method=args.method, mode="numeric", config=config,
        options=options, concurrency=args.concurrency, obs=rec,
    )
    spans = rec.spans()
    summary = run_summary(spans)
    print(render_timeline(
        spans, width=100,
        title=f"qr {args.method} {args.rows}x{args.cols} "
        f"b={options.blocksize} — measured ({args.concurrency})",
    ))
    print(render_summary(spans))
    print(f"  spans           : {summary.n_spans} "
          f"(+{summary.n_events} events)")
    if args.compare_sim:
        sim = ooc_qr(
            (args.rows, args.cols), method=args.method, mode="sim",
            config=config, options=options,
        )
        print()
        print(render_sim_vs_measured(
            sim.trace.spans(), spans,
            title=f"sim vs measured: qr {args.method} "
            f"{args.rows}x{args.cols} b={options.blocksize}",
        ))
    if args.out is not None:
        spans_to_chrome_trace(spans, args.out)
        print(f"wrote {args.out} ({len(spans)} spans)")
    return 0


def _run_gemm(args) -> int:
    from repro.ooc.api import ooc_gemm

    config = _config(args)
    rec = None
    if args.mode == "numeric":
        import numpy as np

        from repro.util.rng import default_rng

        rng = default_rng(0)
        rec = _timeline_recorder(args)
        if args.kind == "inner":
            a = rng.standard_normal((args.K, args.M)).astype(np.float32)
            b = rng.standard_normal((args.K, args.N)).astype(np.float32)
            result = ooc_gemm(
                a, b, trans_a=True, mode="numeric", config=config,
                blocksize=args.blocksize, pipelined=not args.sync,
                concurrency=args.concurrency, obs=rec,
            )
        else:
            a = rng.standard_normal((args.M, args.K)).astype(np.float32)
            b = rng.standard_normal((args.K, args.N)).astype(np.float32)
            c = rng.standard_normal((args.M, args.N)).astype(np.float32)
            result = ooc_gemm(
                a, b, alpha=-1.0, beta=1.0, c=c, mode="numeric",
                config=config, blocksize=args.blocksize,
                pipelined=not args.sync, concurrency=args.concurrency,
                obs=rec,
            )
    elif args.kind == "inner":
        result = ooc_gemm(
            (args.K, args.M), (args.K, args.N), trans_a=True, mode="sim",
            config=config, blocksize=args.blocksize, pipelined=not args.sync,
        )
    else:
        result = ooc_gemm(
            (args.M, args.K), (args.K, args.N), alpha=-1.0, beta=1.0,
            c=(args.M, args.N), mode="sim", config=config,
            blocksize=args.blocksize, pipelined=not args.sync,
        )
    clock = "measured" if args.mode == "numeric" else "simulated"
    print(
        f"gemm {args.kind} {args.M}x{args.N}x{args.K} b={args.blocksize} "
        f"({result.strategy}) on {config.gpu.name}: "
        f"{result.makespan:7.2f} s {clock}, "
        f"{result.achieved_tflops:6.1f} TFLOPS, "
        f"H2D {result.movement.h2d_bytes / 1e9:6.1f} GB"
    )
    if args.timeline:
        _print_timeline(result, rec, title=f"gemm {args.kind}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
