"""Tests for the open-loop serve load generator (repro.bench.loadgen)."""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.bench.loadgen import (
    LATENCY_KEYS,
    SCHEMA_VERSION,
    arrival_schedule,
    run_loadgen,
    synthetic_workload,
)
from repro.errors import ValidationError
from repro.obs import SpanRecorder

#: One small, fast run shared by most assertions (module-scoped: the
#: loadgen really drives the service, so we pay for it once).
N_JOBS = 10


@pytest.fixture(scope="module")
def result():
    return run_loadgen(
        N_JOBS, rate_jobs_s=500.0, workers=2, size=48, blocksize=16, seed=0
    )


class TestSyntheticWorkload:
    def test_mixed_and_deterministic(self):
        specs = synthetic_workload(8, size=48, blocksize=16, seed=1)
        assert len(specs) == 8
        assert {s.kind for s in specs} == {"qr", "gemm", "lu", "cholesky"}
        again = synthetic_workload(8, size=48, blocksize=16, seed=1)
        for s1, s2 in zip(specs, again):
            assert s1.kind == s2.kind
            assert s1.shapes() == s2.shapes()

    def test_golden_stream(self):
        # Pins the exact job stream (kinds, names, priorities, shapes and
        # operand bytes), so moving or refactoring the generator cannot
        # silently change what every serve benchmark submits.
        specs = synthetic_workload(8, size=48, blocksize=16, seed=1)
        assert [(s.kind, s.name, s.priority, s.shapes()) for s in specs] == [
            ("qr", "qr-0", 0, ((48, 48),)),
            ("gemm", "gemm-1", 1, ((80, 64), (80, 32))),
            ("lu", "lu-2", 2, ((80, 80),)),
            ("cholesky", "cholesky-3", 0, ((48, 48),)),
            ("qr", "qr-4", 1, ((64, 64),)),
            ("gemm", "gemm-5", 2, ((96, 80), (96, 40))),
            ("lu", "lu-6", 0, ((48, 48),)),
            ("cholesky", "cholesky-7", 1, ((64, 64),)),
        ]
        digest = hashlib.sha256()
        for spec in specs:
            for operand in spec.operands:
                digest.update(operand.dtype.str.encode())
                digest.update(operand.tobytes())
        assert digest.hexdigest() == (
            "64ed8c12fd85e54710aef8d619c316a765999bb4c01383b0ae1362c641a57c22"
        )


class TestArrivalSchedule:
    def test_deterministic_for_a_seed(self):
        assert arrival_schedule(20, 100.0, seed=5) == \
            arrival_schedule(20, 100.0, seed=5)
        assert arrival_schedule(20, 100.0, seed=5) != \
            arrival_schedule(20, 100.0, seed=6)

    def test_monotone_increasing(self):
        times = arrival_schedule(50, 250.0, seed=1)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_gap_tracks_rate(self):
        times = arrival_schedule(2000, 100.0, seed=2)
        assert times[-1] / len(times) == pytest.approx(1 / 100.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            arrival_schedule(-1, 100.0)
        with pytest.raises(ValidationError):
            arrival_schedule(10, 0.0)


class TestLoadgenRun:
    def test_every_job_accounted_for(self, result):
        assert result.submitted + result.rejected == N_JOBS
        assert result.completed + result.failed == result.submitted
        assert result.failed == 0

    def test_goodput_positive(self, result):
        assert result.goodput_jobs_s > 0
        assert result.wall_s > 0

    def test_percentiles_monotone(self, result):
        lat = result.latency_s
        assert 0 < lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]
        assert lat["p50"] <= lat["max"]

    def test_metrics_snapshot_included(self, result):
        # the service's own registry, not a parallel accounting path
        assert result.metrics["jobs_completed"]["value"] == result.completed
        assert result.metrics["turnaround_s"]["count"] == result.completed


class TestLoadgenLag:
    def test_blocking_submit_shows_as_lag(self, monkeypatch):
        # submit() verifies the plan in the caller's thread; when it
        # blocks, the generator falls behind its schedule and must say so
        import repro.analysis

        capture = repro.analysis.capture_job

        def slow_capture(spec, config):
            time.sleep(0.05)
            return capture(spec, config)

        monkeypatch.setattr(repro.analysis, "capture_job", slow_capture)
        result = run_loadgen(
            4, rate_jobs_s=500.0, workers=2, size=48, blocksize=16,
            seed=0, mix=("qr",),
        )
        assert result.lag_s["max"] >= 0.05
        assert 0 <= result.lag_s["p50"] <= result.lag_s["max"]


class TestBenchServeJson:
    def test_schema(self, result, tmp_path):
        path = result.write(tmp_path / "BENCH_serve.json")
        doc = json.loads(path.read_text())
        assert list(doc) == [
            "bench", "schema_version", "generated_by", "params", "jobs",
            "latency_s", "lag_s", "goodput_jobs_s", "wall_s", "metrics",
        ]
        assert doc["bench"] == "serve-loadgen"
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["generated_by"] == "repro.bench.loadgen"
        assert list(doc["latency_s"]) == list(LATENCY_KEYS)
        assert list(doc["lag_s"]) == ["p50", "max"]
        assert doc["jobs"]["submitted"] == result.submitted
        assert doc["goodput_jobs_s"] == pytest.approx(result.goodput_jobs_s)

    def test_params_recorded(self, result):
        doc = result.to_json()
        assert doc["params"]["n_jobs"] == N_JOBS
        assert doc["params"]["rate_jobs_s"] == 500.0
        assert doc["params"]["mix"] == ["qr", "gemm", "lu", "cholesky"]

    def test_render_mentions_goodput(self, result):
        out = result.render()
        assert "goodput" in out and "latency p99" in out

    def test_clean_run_prints_no_provenance(self, result):
        assert result.provenance == []
        assert "attempt(s)" not in result.render()


class TestLoadgenPerf:
    @pytest.mark.skipif(
        not os.environ.get("REPRO_PERF") or (os.cpu_count() or 1) < 4,
        reason="perf assertion needs REPRO_PERF=1 and >=4 cores",
    )
    def test_four_workers_beat_one(self):
        # a saturating rate: the whole stream is offered at once, so
        # goodput is bounded by the workers, not by the arrivals
        def goodput(workers: int) -> float:
            return run_loadgen(
                16, rate_jobs_s=1e6, workers=workers, size=384,
                blocksize=128,
            ).goodput_jobs_s

        assert goodput(4) > goodput(1)


class TestLoadgenWithSpans:
    def test_job_root_spans_recorded(self):
        rec = SpanRecorder()
        result = run_loadgen(
            6, rate_jobs_s=500.0, workers=2, size=48, blocksize=16,
            seed=1, mix=("qr", "gemm"), obs=rec,
        )
        spans = rec.spans()
        roots = [s for s in spans if s.cat == "job"]
        assert len(roots) == result.submitted + result.rejected
        completed = [s for s in roots if s.attrs.get("outcome") == "completed"]
        assert len(completed) == result.completed
        root_ids = {s.span_id for s in roots}
        children = [s for s in spans if s.cat == "serve"]
        assert children and all(s.parent_id in root_ids for s in children)
