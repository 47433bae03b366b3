"""Open-loop serve load generator: Poisson arrivals, latency percentiles.

Drives the factorization service (docs/serve.md) the way a capacity test
drives a real endpoint: job arrivals follow a Poisson process whose rate
is fixed *in advance* and never slows down because the service is busy
(an **open loop** — closed-loop generators that wait for completions
before submitting hide queueing collapse, the "coordinated omission"
trap). Rejected submissions (queue saturated, footprint over budget) are
counted, not retried: under overload the right signal is goodput
dropping below the offered rate, not a generator that politely backs
off.

Latency percentiles come straight from the service's own ``turnaround_s``
histogram — the same numbers its metrics snapshot API exports — so the
benchmark measures what operators would see. ``submit()`` verifies each
plan in the caller's thread, so the generator itself can fall behind its
schedule; each submission's lag behind its scheduled instant is reported
as ``lag_s`` rather than hidden. Results serialize to ``BENCH_serve.json``
(schema below) for CI trend tracking::

    PYTHONPATH=src python -m repro.bench.loadgen          # writes ./BENCH_serve.json
    python -m repro loadgen --jobs 40 --rate 200          # CLI front-end

Pass a :class:`~repro.obs.span.SpanRecorder` to also capture the per-job
span trees (admission, queue wait, attempts) and export them as a Chrome
trace via :func:`repro.obs.export.spans_to_chrome_trace`. Pass a
:class:`~repro.faults.plan.FaultPlan` as ``faults=`` to inject it into
every job (docs/robustness.md); the summary then lists each job's
retry/degradation provenance.
"""

from __future__ import annotations

import json
from repro.obs import clock as _clock  # pacing sleeps + clock reads
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

from repro.bench.concurrency import bench_spec
from repro.config import SystemConfig
from repro.errors import AdmissionError, ReproError, ValidationError
from repro.hw.gemm import Precision
from repro.obs.clock import monotonic as _monotonic
from repro.obs.span import SpanRecorder
from repro.qr.options import QrOptions
from repro.serve.job import JobSpec
from repro.serve.service import FactorService
from repro.util.rng import default_rng
from repro.util.tables import render_kv

#: Bumped whenever the BENCH_serve.json layout changes shape.
SCHEMA_VERSION = 2

#: Keys of the ``latency_s`` block, in emitted order.
LATENCY_KEYS = ("p50", "p90", "p99", "mean", "max")


@dataclass
class LoadgenResult:
    """Everything one load-generator run measured.

    ``to_json`` is the persisted form; the field layout mirrors it so
    tests can assert on either.
    """

    params: dict[str, Any]
    submitted: int
    completed: int
    rejected: int
    failed: int
    latency_s: dict[str, float]
    #: How late submissions went out against the Poisson schedule
    #: (``p50``, ``max``): nonzero when ``submit()`` blocked the generator.
    lag_s: dict[str, float]
    wall_s: float
    #: Full service metrics snapshot (``FactorService.snapshot_metrics``).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: One row per job that retried, degraded or saw an injected fault
    #: (label, attempts, degraded pool size, fault summary); rendered,
    #: not persisted — the counters are in ``metrics``.
    provenance: list[dict[str, Any]] = field(default_factory=list)

    @property
    def goodput_jobs_s(self) -> float:
        """Successfully completed jobs per second of wall time."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> dict[str, Any]:
        """The ``BENCH_serve.json`` document (plain JSON-able dict)."""
        return {
            "bench": "serve-loadgen",
            "schema_version": SCHEMA_VERSION,
            "generated_by": "repro.bench.loadgen",
            "params": dict(self.params),
            "jobs": {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "failed": self.failed,
            },
            "latency_s": {k: self.latency_s[k] for k in LATENCY_KEYS},
            "lag_s": dict(self.lag_s),
            "goodput_jobs_s": self.goodput_jobs_s,
            "wall_s": self.wall_s,
            "metrics": self.metrics,
        }

    def write(self, path: str | Path) -> Path:
        """Persist :meth:`to_json` to *path*; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def render(self) -> str:
        """Human-readable run summary."""
        lat = self.latency_s
        summary = render_kv(
            [
                ("offered rate", f"{self.params['rate_jobs_s']:.1f} jobs/s"),
                ("submitted", self.submitted),
                ("completed", self.completed),
                ("rejected", self.rejected),
                ("failed", self.failed),
                ("goodput", f"{self.goodput_jobs_s:.1f} jobs/s"),
                ("wall", f"{self.wall_s * 1e3:.1f} ms"),
                ("latency p50", f"{lat['p50'] * 1e3:.1f} ms"),
                ("latency p90", f"{lat['p90'] * 1e3:.1f} ms"),
                ("latency p99", f"{lat['p99'] * 1e3:.1f} ms"),
                ("submit lag p50", f"{self.lag_s['p50'] * 1e3:.1f} ms"),
                ("submit lag max", f"{self.lag_s['max'] * 1e3:.1f} ms"),
            ],
            title=f"loadgen: {self.params['n_jobs']} jobs, "
            f"workers={self.params['workers']}, "
            f"mix={'/'.join(self.params['mix'])}",
        )
        lines = [summary]
        for row in self.provenance:
            degraded = (
                "" if row["degraded_to"] is None
                else f", degraded to {row['degraded_to']} devices"
            )
            lines.append(
                f"  {row['job']}: {row['attempts']} attempt(s)"
                f"{degraded}; {row['faults'] or 'no faults'}"
            )
        return "\n".join(lines)


def synthetic_workload(
    n_jobs: int,
    *,
    size: int = 96,
    blocksize: int = 32,
    seed: int = 0,
    kinds: tuple[str, ...] = ("qr", "gemm", "lu", "cholesky"),
) -> list[JobSpec]:
    """A deterministic mixed stream of numeric jobs, round-robin over
    *kinds*, with shapes jittered around *size* so footprints differ."""
    from repro.factor.incore import diagonally_dominant, spd_matrix

    if not kinds:
        raise ValidationError("kinds must name at least one job kind")
    for kind in kinds:
        if kind not in ("qr", "gemm", "lu", "cholesky"):
            raise ValidationError(f"unknown workload kind {kind!r}")
    rng = default_rng(seed)
    opts = QrOptions(blocksize=blocksize)
    specs: list[JobSpec] = []
    for i in range(n_jobs):
        kind = kinds[i % len(kinds)]
        n = size + 16 * (i % 3)
        m = n + (16 * (i % 2) if kind in ("qr", "gemm") else 0)
        if kind == "qr":
            a = rng.standard_normal((m, n)).astype(np.float32)
            operands = (a,)
        elif kind == "gemm":
            a = rng.standard_normal((m, n)).astype(np.float32)
            b = rng.standard_normal((m, max(n // 2, 8))).astype(np.float32)
            operands = (a, b)
        elif kind == "lu":
            operands = (diagonally_dominant(n, n, seed=seed + i),)
        else:
            operands = (spd_matrix(n, seed=seed + i),)
        specs.append(
            JobSpec(
                kind, operands, options=opts, priority=i % 3,
                name=f"{kind}-{i}",
            )
        )
    return specs


def arrival_schedule(
    n_jobs: int, rate_jobs_s: float, *, seed: int = 0
) -> list[float]:
    """Poisson arrival offsets (seconds from t0) for *n_jobs* at the given
    mean rate: cumulative sums of exponential interarrival gaps."""
    if n_jobs < 0:
        raise ValidationError(f"n_jobs must be non-negative, got {n_jobs}")
    if rate_jobs_s <= 0:
        raise ValidationError(f"rate_jobs_s must be > 0, got {rate_jobs_s}")
    rng = default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_jobs_s, size=n_jobs)
    out, t = [], 0.0
    for gap in gaps:
        t += float(gap)
        out.append(t)
    return out


def run_loadgen(
    n_jobs: int = 32,
    *,
    rate_jobs_s: float = 200.0,
    workers: int = 2,
    size: int = 64,
    blocksize: int = 32,
    seed: int = 0,
    mix: tuple[str, ...] = ("qr", "gemm", "lu", "cholesky"),
    job_concurrency: str = "serial",
    config: SystemConfig | None = None,
    obs: SpanRecorder | None = None,
    faults=None,
) -> LoadgenResult:
    """Run one open-loop load test against a fresh service instance.

    Submissions are paced by the precomputed Poisson schedule regardless
    of completions; after the last arrival the service drains. Latency
    aggregates are read from the service's metrics snapshot, goodput,
    wall time and submission lag from this function's own clock.
    *faults* (a :class:`~repro.faults.plan.FaultPlan`) is injected into
    every job.
    """
    config = config or SystemConfig(gpu=bench_spec(), precision=Precision.FP32)
    specs = synthetic_workload(
        n_jobs, size=size, blocksize=blocksize, seed=seed, kinds=mix
    )
    arrivals = arrival_schedule(n_jobs, rate_jobs_s, seed=seed + 1)
    svc = FactorService(
        config,
        n_workers=workers,
        queue_limit=max(n_jobs, 1),
        cache=None,  # capacity test: every admitted job really runs
        job_concurrency=job_concurrency,
        obs=obs,
        faults=faults,
    )
    submitted = rejected = failed = 0
    handles = []
    lags: list[float] = []
    provenance: list[dict[str, Any]] = []
    try:
        t0 = _monotonic()
        for spec, due in zip(specs, arrivals):
            ahead = due - (_monotonic() - t0)
            if ahead > 0:
                _clock.sleep(ahead)
            lags.append(_monotonic() - t0 - due)
            try:
                handles.append(svc.submit(spec))
                submitted += 1
            except AdmissionError:
                rejected += 1
        svc.drain(timeout=600)
        for handle in handles:
            try:
                res = handle.result(timeout=600)
            except ReproError:
                failed += 1
                continue
            if (
                res.attempts > 1
                or res.degraded_to is not None
                or res.faults is not None
            ):
                provenance.append({
                    "job": handle.spec.label(),
                    "attempts": res.attempts,
                    "degraded_to": res.degraded_to,
                    "faults": (
                        res.faults.summary() if res.faults is not None else None
                    ),
                })
        wall_s = _monotonic() - t0
        snap = svc.snapshot_metrics()
    finally:
        svc.close()
    turnaround = snap.get("turnaround_s", {})
    latency = {k: float(turnaround.get(k, 0.0)) for k in LATENCY_KEYS}
    lag = {"p50": median(lags) if lags else 0.0, "max": max(lags, default=0.0)}
    return LoadgenResult(
        params={
            "n_jobs": n_jobs,
            "rate_jobs_s": rate_jobs_s,
            "workers": workers,
            "size": size,
            "blocksize": blocksize,
            "seed": seed,
            "mix": list(mix),
            "job_concurrency": job_concurrency,
        },
        submitted=submitted,
        completed=submitted - failed,
        rejected=rejected,
        failed=failed,
        latency_s=latency,
        lag_s=lag,
        wall_s=wall_s,
        metrics=snap,
        provenance=provenance,
    )


if __name__ == "__main__":  # pragma: no cover - manual benchmark entry
    result = run_loadgen()
    print(result.render())
    print(f"wrote {result.write('BENCH_serve.json')}")
