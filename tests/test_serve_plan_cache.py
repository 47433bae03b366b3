"""The service's plan-verdict cache (docs/serve.md, "Static plan
verification at submit").

Admission memoizes each plan identity's verifier report: a repeat shape
is answered without recording or verifying its task graph again. These
tests hold the cache to the uncached decision procedure
(``capture_job`` + ``verify_program``) across every job kind, method,
tolerance and health mode, check that every key field separates plans,
and pin the hit path's bookkeeping (counters, spans, fresh exceptions,
no retained graph).
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import repro.analysis
import repro.serve.service as service_mod
from repro.analysis import PRECISION_RULES, capture_job, verify_program
from repro.config import SystemConfig
from repro.errors import AdmissionError, PlanError, PrecisionViolation
from repro.health import HealthOptions
from repro.hw.gemm import Precision
from repro.obs import SpanRecorder
from repro.qr.options import QrOptions
from repro.serve import FactorService, JobResult, JobSpec, estimate_footprint_bytes

from tests.conftest import make_tiny_spec

OPTS = QrOptions(blocksize=16)


def tc_config(mem_bytes: int = 1 << 20) -> SystemConfig:
    """Tiny device with fp16 TensorCore GEMM inputs, so a tight tolerance
    draws precision findings."""
    return SystemConfig(
        gpu=make_tiny_spec(mem_bytes=mem_bytes), precision=Precision.TC_FP16
    )


def noop_runner(spec, config, concurrency):
    """Admission is under test, not execution: jobs finish at once."""
    return JobResult(kind=spec.kind)


def service(config=None, **kwargs) -> FactorService:
    kwargs.setdefault("runner", noop_runner)
    kwargs.setdefault("cache", False)
    return FactorService(config or tc_config(), **kwargs)


def operands(kind: str, n: int) -> tuple:
    """Zero operands of the kind's shape; the plan never reads data."""
    if kind == "qr":
        return (np.zeros((n + 16, n), np.float32),)
    if kind == "gemm":
        return (
            np.zeros((n + 16, n), np.float32),
            np.zeros((n + 16, n // 2), np.float32),
        )
    return (np.zeros((n, n), np.float32),)


def make_spec(kind="qr", n=32, method="recursive", **kwargs) -> JobSpec:
    kwargs.setdefault("options", OPTS)
    return JobSpec(kind, operands(kind, n), method=method, **kwargs)


@pytest.fixture
def captures(monkeypatch):
    """Count every task-graph recording admission performs."""
    calls: list[JobSpec] = []
    real = repro.analysis.capture_job

    def counting(spec, config):
        calls.append(spec)
        return real(spec, config)

    monkeypatch.setattr(repro.analysis, "capture_job", counting)
    return calls


def counter(svc: FactorService, name: str) -> int:
    return svc.snapshot_metrics()[name]["value"]


def uncached_decision(spec: JobSpec, config: SystemConfig):
    """The admission decision without any cache: record, verify, gate."""
    footprint = estimate_footprint_bytes(spec, config)
    with service(config) as probe:
        job_config = probe.job_config(spec)
    report = verify_program(
        capture_job(spec, job_config), budget_bytes=footprint,
        tolerance=spec.tolerance,
    )
    rules = sorted(f.rule for f in report.findings)
    precision_only = all(r in PRECISION_RULES for r in rules)
    if rules and not (precision_only and spec.options.health.escalating):
        outcome = "plan-rejected"
    else:
        outcome = "admitted"
    return outcome, report.peak_bytes, rules, report.precision_bound


def submitted_decision(svc: FactorService, spec: JobSpec):
    """The service's admission decision for *spec* (same tuple shape)."""
    try:
        handle = svc.submit(spec)
    except AdmissionError as exc:
        report = exc.__cause__.report
        return (
            exc.reason, report.peak_bytes,
            sorted(f.rule for f in report.findings), report.precision_bound,
        )
    handle.result(timeout=60)
    report = svc.verify_job(spec)
    assert handle.charged_bytes == max(report.peak_bytes, 1)
    return (
        "admitted", report.peak_bytes,
        sorted(f.rule for f in report.findings), report.precision_bound,
    )


SWEEP = list(itertools.product(
    ("qr", "lu", "cholesky", "gemm"),
    ("recursive", "blocking"),
    (32, 48),
    (None, 0.5, 1e-9),
    ("monitor", "escalate"),
))


class TestDifferential:
    """The cached service decides exactly what uncached verification does."""

    @pytest.mark.parametrize("kind", ("qr", "lu", "cholesky", "gemm"))
    def test_sweep_matches_uncached(self, kind, captures):
        config = tc_config()
        cases = [c for c in SWEEP if c[0] == kind]
        seen = set()
        with service(config) as svc:
            for _kind, method, n, tol, mode in cases:
                opts = replace(OPTS, health=HealthOptions(mode=mode))
                spec = make_spec(
                    kind, n, method, options=opts, tolerance=tol,
                )
                expected = uncached_decision(spec, config)
                before = len(captures)
                # first submit of this identity misses, the second hits
                first = submitted_decision(svc, spec)
                second = submitted_decision(svc, spec)
                assert first == expected, (method, n, tol, mode)
                assert second == expected, (method, n, tol, mode)
                # the service recorded this identity exactly once
                assert len(captures) - before == 1
                seen.add(expected[0])
        assert "admitted" in seen

    def test_sweep_covers_every_decision(self):
        config = tc_config()
        outcomes = set()
        for kind, method, n, tol, mode in SWEEP:
            if kind != "qr" or n != 32:
                continue
            opts = replace(OPTS, health=HealthOptions(mode=mode))
            spec = make_spec(kind, n, method, options=opts, tolerance=tol)
            outcome, _peak, rules, _bound = uncached_decision(spec, config)
            outcomes.add((outcome, bool(rules)))
        # clean, waived (findings but admitted) and rejected all occur
        assert outcomes == {
            ("admitted", False), ("admitted", True), ("plan-rejected", True),
        }


def key_variants() -> dict[str, tuple[JobSpec, JobSpec]]:
    """(base, variant) spec pairs differing in exactly one key field."""
    base = make_spec("qr", 32)
    option_changes = {
        "blocksize": 8,
        "outer_blocksize": 8,
        "tile_blocksize": 8,
        "n_buffers": 3,
        "pipelined": False,
        "qr_level_overlap": False,
        "reuse_inner_result": False,
        "staging_buffer": False,
        "gradual_blocksize": True,
        "health": HealthOptions(mode="monitor"),
    }
    pairs = {
        f"options.{name}": (base, replace(base, options=replace(OPTS, **{name: v})))
        for name, v in option_changes.items()
    }
    monitor = replace(OPTS, health=HealthOptions(mode="monitor"))
    pairs["health-mode"] = (
        replace(base, options=monitor),
        replace(base, options=replace(OPTS, health=HealthOptions(mode="escalate"))),
    )
    pairs["tolerance"] = (base, replace(base, tolerance=0.5))
    pairs["tolerance-value"] = (
        replace(base, tolerance=0.5), replace(base, tolerance=0.25),
    )
    gemm = make_spec("gemm", 32)
    pairs["trans_a"] = (
        gemm,
        replace(gemm, operands=(gemm.operands[0].T.copy(), gemm.operands[1]),
                trans_a=False),
    )
    pairs["shape"] = (base, make_spec("qr", 48))
    pairs["method"] = (base, replace(base, method="blocking"))
    pairs["kind"] = (make_spec("lu", 32), make_spec("cholesky", 32))
    pairs["mode"] = (base, replace(base, mode="sim", operands=((48, 32),)))
    footprint = estimate_footprint_bytes(base, tc_config())
    pairs["device_memory"] = (base, replace(base, device_memory=footprint + 4096))
    return pairs


class TestKey:
    def test_every_options_field_is_exercised(self):
        tested = {
            name.split(".", 1)[1] for name in key_variants()
            if name.startswith("options.")
        }
        assert tested == {f.name for f in fields(QrOptions)}

    @pytest.mark.parametrize("field_name", sorted(key_variants()))
    def test_changing_one_field_misses(self, field_name, captures):
        base, variant = key_variants()[field_name]
        with service() as svc:
            svc.verify_job(base)
            svc.verify_job(base)
            assert len(captures) == 1  # the repeat was a lookup
            svc.verify_job(variant)
            assert len(captures) == 2, field_name
            svc.verify_job(variant)
            assert len(captures) == 2
            assert counter(svc, "plan_cache_hits") == 2

    def test_data_and_labels_do_not_key(self, captures):
        base = make_spec("qr", 32)
        other = replace(
            base, operands=(np.ones((48, 32), np.float32),), name="renamed",
            priority=5,
        )
        with service() as svc:
            assert svc.verify_job(base) is svc.verify_job(other)
        assert len(captures) == 1


class TestHitPath:
    def test_one_recording_per_identity(self, captures):
        specs = [make_spec(k, 32) for k in ("qr", "gemm", "lu", "cholesky")]
        with service() as svc:
            handles = [svc.submit(s) for s in specs * 3]
            for h in handles:
                h.result(timeout=60)
            snap = svc.snapshot_metrics()
        assert [s.kind for s in captures] == ["qr", "gemm", "lu", "cholesky"]
        assert snap["plan_cache_hits"]["value"] == 8
        # counters still move once per job
        assert snap["plans_verified"]["value"] == 12
        assert snap["jobs_submitted"]["value"] == 12
        first = handles[:4]
        for i, h in enumerate(handles[4:]):
            assert h.charged_bytes == first[i % 4].charged_bytes

    def test_verify_span_marks_cached(self):
        rec = SpanRecorder()
        spec = make_spec("qr", 32)
        with service(obs=rec) as svc:
            for _ in range(2):
                svc.submit(spec).result(timeout=60)
            svc.drain(timeout=60)
        verify = [s for s in rec.spans() if s.name == "verify"]
        assert [s.attrs["cached"] for s in verify] == [False, True]

    def test_result_cache_hit_gates_through_the_plan_cache(self, captures):
        config = SystemConfig(
            gpu=make_tiny_spec(mem_bytes=1 << 20), precision=Precision.FP32
        )
        a = np.random.default_rng(3).standard_normal((48, 32)).astype(np.float32)
        spec = JobSpec("qr", (a,), options=OPTS, tolerance=0.5)
        with FactorService(config) as svc:
            first = svc.submit(spec).result(timeout=60)
            again = svc.submit(spec)
            assert again.cache_hit
            snap = svc.snapshot_metrics()
        assert np.array_equal(again.result().arrays["q"], first.arrays["q"])
        assert len(captures) == 1
        assert snap["plan_cache_hits"]["value"] == 1
        assert snap["plans_verified"]["value"] == 2

    def test_concurrent_submits_agree(self, captures):
        spec = make_spec("qr", 48)
        bad = make_spec("qr", 48, tolerance=1e-9,
                        options=replace(OPTS, health=HealthOptions(mode="monitor")))
        expected = uncached_decision(spec, tc_config())
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        outcomes: list = []
        lock = threading.Lock()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the submitters finely
        try:
            with service(queue_limit=4 * n_threads) as svc:

                def go(i: int) -> None:
                    barrier.wait(timeout=60)
                    s = spec if i % 2 == 0 else bad
                    try:
                        h = svc.submit(s)
                        got = ("admitted", h.charged_bytes)
                    except AdmissionError as exc:
                        got = (exc.reason, None)
                    with lock:
                        outcomes.append((i % 2, got))

                threads = [
                    threading.Thread(target=go, args=(i,)) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                assert svc.drain(timeout=60)
                snap = svc.snapshot_metrics()
                assert len(svc._plan_cache) == 2
        finally:
            sys.setswitchinterval(switch)
        assert len(outcomes) == n_threads
        for parity, got in outcomes:
            if parity == 0:
                assert got == ("admitted", max(expected[1], 1))
            else:
                assert got == ("plan-rejected", None)
        assert snap["plans_verified"]["value"] == n_threads // 2
        assert snap["plans_rejected"]["value"] == n_threads // 2
        assert 2 <= len(captures) <= n_threads


class TestBoundAndRejections:
    def test_lru_bound_holds(self, monkeypatch, captures):
        monkeypatch.setattr(service_mod, "PLAN_CACHE_ENTRIES", 2)
        a, b, c = (make_spec("qr", n) for n in (16, 32, 48))
        with service() as svc:
            for spec in (a, b, c):
                svc.verify_job(spec)
            assert len(svc._plan_cache) == 2
            svc.verify_job(c)          # still cached
            assert len(captures) == 3
            svc.verify_job(a)          # evicted: recorded again
            assert len(captures) == 4
            assert len(svc._plan_cache) == 2

    def test_plan_rejected_replays_fresh(self, captures):
        spec = make_spec(
            "qr", 32, tolerance=1e-9,
            options=replace(OPTS, health=HealthOptions(mode="monitor")),
        )
        errors = []
        with service() as svc:
            for _ in range(2):
                with pytest.raises(AdmissionError) as exc:
                    svc.submit(spec)
                errors.append(exc.value)
            snap = svc.snapshot_metrics()
        first, second = errors
        assert first is not second
        assert first.__cause__ is not second.__cause__
        assert first.reason == second.reason == "plan-rejected"
        assert str(first) == str(second)
        assert isinstance(second.__cause__, PrecisionViolation)
        assert len(captures) == 1
        assert snap["plans_rejected"]["value"] == 2
        assert snap["jobs_rejected"]["value"] == 2
        assert snap["plan_cache_hits"]["value"] == 1

    def test_unplannable_replays_fresh(self, monkeypatch):
        calls = []

        def unplannable(spec, config):
            calls.append(spec)
            raise PlanError("no tiling fits")

        monkeypatch.setattr(repro.analysis, "capture_job", unplannable)
        spec = make_spec("qr", 32)
        errors = []
        with service() as svc:
            for _ in range(2):
                with pytest.raises(AdmissionError) as exc:
                    svc.submit(spec)
                errors.append(exc.value)
            with pytest.raises(AdmissionError):
                svc.verify_job(spec)
            snap = svc.snapshot_metrics()
        first, second = errors
        assert first is not second
        assert first.reason == second.reason == "job-unplannable"
        assert str(first) == str(second)
        assert isinstance(second.__cause__, PlanError)
        assert second.__cause__ is not first.__cause__
        assert "no tiling fits" in str(second)
        assert len(calls) == 1
        assert snap["jobs_rejected"]["value"] == 2
        assert snap["plan_cache_hits"]["value"] == 2

    def test_recorded_graph_is_not_kept(self, monkeypatch):
        refs = []
        real = repro.analysis.capture_job

        def tracking(spec, config):
            graph = real(spec, config)
            refs.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(repro.analysis, "capture_job", tracking)
        with service() as svc:
            handle = svc.submit(make_spec("qr", 32))
            gc.collect()
            assert len(refs) == 1
            assert refs[0]() is None
            handle.result(timeout=60)
