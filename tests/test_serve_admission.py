"""Admission control: footprint estimation soundness and budget bookkeeping.

The critical property: the footprint charged for a job is also the
allocator capacity it runs under, so an admitted job must always succeed
with exactly its grant — the estimator can never under-price a job.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis import capture_job, exact_peak_bytes
from repro.bench.concurrency import bench_spec
from repro.config import SystemConfig
from repro.errors import AdmissionError
from repro.execution import SimExecutor
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.serve import (
    AdmissionController,
    JobSpec,
    estimate_footprint_bytes,
    run_job,
)
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.util.rng import default_rng

from tests.conftest import make_tiny_spec


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)


def _capped(config: SystemConfig, footprint: int) -> SystemConfig:
    from dataclasses import replace

    return replace(
        config,
        gpu=config.gpu.with_memory(footprint, suffix="job"),
        mem_reserve_fraction=0.0,
    )


class TestEstimator:
    @pytest.mark.parametrize("kind,shape,blocksize", [
        ("qr", (96, 48), 16),
        ("qr", (64, 64), 32),
        ("lu", (80, 80), 16),
        ("cholesky", (64, 64), 16),
        ("gemm", (96, 48), 16),
    ])
    def test_grant_suffices_to_run(self, config, kind, shape, blocksize):
        """An admitted job always completes inside its own grant — the
        enforced-budget invariant rests on this."""
        rng = default_rng(11)
        opts = QrOptions(blocksize=blocksize)
        m, n = shape
        if kind == "qr":
            ops = (rng.standard_normal(shape).astype(np.float32),)
        elif kind == "gemm":
            ops = (
                rng.standard_normal(shape).astype(np.float32),
                rng.standard_normal((m, n // 2)).astype(np.float32),
            )
        elif kind == "lu":
            ops = (diagonally_dominant(m, n, seed=1),)
        else:
            ops = (spd_matrix(n, seed=1),)
        spec = JobSpec(kind, ops, options=opts)
        footprint = estimate_footprint_bytes(spec, config)
        assert 0 < footprint <= config.usable_device_bytes
        # must run to completion with the grant as the hard allocator cap
        result = run_job(spec, _capped(config, footprint), "serial")
        assert result.arrays

    def test_explicit_request_wins_but_is_clamped(self, config):
        a = default_rng(0).standard_normal((32, 16)).astype(np.float32)
        spec = JobSpec("qr", (a,), options=QrOptions(blocksize=8),
                       device_memory=48 << 10)
        assert estimate_footprint_bytes(spec, config) == 48 << 10
        huge = JobSpec("qr", (a,), options=QrOptions(blocksize=8),
                       device_memory=1 << 40)
        assert estimate_footprint_bytes(huge, config) == \
            config.usable_device_bytes

    def test_bigger_jobs_cost_more(self, config):
        opts = QrOptions(blocksize=16)
        small = JobSpec("qr", ((256, 128),), mode="sim", options=opts)
        large = JobSpec("qr", ((1024, 512),), mode="sim", options=opts)
        assert estimate_footprint_bytes(small, config) < \
            estimate_footprint_bytes(large, config)

    def test_unplannable_gemm_rejected(self, config):
        # a GEMM whose C panel exceeds the whole device under any split
        spec = JobSpec("gemm", ((4096, 1 << 18), (4096, 4096)),
                       mode="sim", options=QrOptions(blocksize=4096))
        with pytest.raises(AdmissionError) as ei:
            estimate_footprint_bytes(spec, config)
        assert ei.value.reason == "job-unplannable"


_DRIVERS = {
    ("qr", "recursive"): ooc_recursive_qr,
    ("qr", "blocking"): ooc_blocking_qr,
    ("lu", "recursive"): ooc_recursive_lu,
    ("lu", "blocking"): ooc_blocking_lu,
    ("cholesky", "recursive"): ooc_recursive_cholesky,
    ("cholesky", "blocking"): ooc_blocking_cholesky,
}


def _direct_peak(kind: str, method: str, n: int, opts: QrOptions,
                 config: SystemConfig) -> int:
    """Allocator peak of the driver run directly on the whole device."""
    ex = SimExecutor(config)
    a = HostMatrix.shape_only(n, n, config.element_bytes, name="A")
    if kind == "qr":
        r = HostMatrix.shape_only(n, n, config.element_bytes, name="R")
        _DRIVERS[kind, method](ex, a, r, opts)
    else:
        _DRIVERS[kind, method](ex, a, opts)
    return ex.allocator.peak


class TestChargesTheStreamedChunk:
    """The factor charge sizes its streamed buffers with the chunk the
    drivers stream, so a job granted its charge plans exactly as a direct
    run on the whole device (a smaller grant would halve the chunks back)."""

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    @pytest.mark.parametrize("kind", ["qr", "lu", "cholesky"])
    @pytest.mark.parametrize("n,blocksize", [
        (512, 128), (768, 128), (1024, 128),
        # small panels: the chunk is several times b
        (512, 32), (1024, 32),
    ])
    def test_charge_covers_direct_peak(self, kind, method, n, blocksize):
        config = SystemConfig(gpu=bench_spec(64 << 20), precision=Precision.TC_FP16)
        opts = QrOptions(blocksize=blocksize)
        spec = JobSpec(kind, ((n, n),), method=method, mode="sim", options=opts)
        charged = estimate_footprint_bytes(spec, config)
        assert charged >= _direct_peak(kind, method, n, opts, config)


def _bench_config() -> SystemConfig:
    """The 64 MiB TC fp16 device the serve benchmark runs on."""
    return SystemConfig(gpu=bench_spec(64 << 20), precision=Precision.TC_FP16)


class TestFloorGrant:
    """A ``device_memory`` request below the floor is raised to it, and the
    floor is enough for the engines' fully shrunk plans: admission records
    the job's graph (which raises on an allocation past the grant) and the
    job runs inside it."""

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_shrunk_inner_product_runs_at_the_floor(self, method):
        # the panel inner product streams C through n_buffers blocks; at
        # this grant its plan fits only when it counts every one of them
        config = _bench_config()
        spec = JobSpec("qr", ((1024, 256),), method=method, mode="sim",
                       options=QrOptions(blocksize=128), device_memory=1)
        grant = estimate_footprint_bytes(spec, config)
        assert grant == 624_640
        job_config = _capped(config, grant)
        assert exact_peak_bytes(capture_job(spec, job_config)) <= grant
        assert run_job(spec, job_config, "serial").makespan > 0

    def test_floor_grants_record_every_graph(self):
        config = _bench_config()
        cases = [
            ("qr", shape, b) for shape in ((256, 64), (300, 70), (1024, 256))
            for b in (16, 64, 128)
        ] + [
            (kind, (n, n), b) for kind in ("lu", "cholesky")
            for n in (128, 200) for b in (16, 64, 128)
        ]
        for (kind, shape, b), method in itertools.product(
            cases, ("recursive", "blocking")
        ):
            spec = JobSpec(kind, (shape,), method=method, mode="sim",
                           options=QrOptions(blocksize=b), device_memory=1)
            grant = estimate_footprint_bytes(spec, config)
            graph = capture_job(spec, _capped(config, grant))
            assert exact_peak_bytes(graph) <= grant, (kind, shape, b, method)


class TestController:
    def test_budget_accounting(self):
        ctl = AdmissionController(budget_bytes=100, max_pending=4)
        ctl.enqueue(); ctl.enqueue()
        assert ctl.fits(60) and ctl.fits(100)
        ctl.acquire(1, 60)
        assert not ctl.fits(60)
        assert ctl.fits(40)
        ctl.acquire(2, 40)
        assert ctl.in_use_bytes == 100
        assert ctl.peak_in_use == 100
        ctl.release(1)
        assert ctl.in_use_bytes == 40
        assert ctl.peak_in_use == 100          # high-water mark sticks
        ctl.release(2)
        assert ctl.in_use_bytes == 0
        assert ctl.pending == 0

    def test_over_admission_raises(self):
        ctl = AdmissionController(budget_bytes=100)
        ctl.enqueue()
        ctl.acquire(1, 90)
        ctl.enqueue()
        with pytest.raises(AdmissionError) as ei:
            ctl.acquire(2, 20)
        assert ei.value.reason == "over-admission"

    def test_check_submittable_reasons(self):
        ctl = AdmissionController(budget_bytes=100, max_pending=1)
        with pytest.raises(AdmissionError) as ei:
            ctl.check_submittable(101, "too-big")
        assert ei.value.reason == "footprint-over-budget"
        assert "too-big" in str(ei.value)
        ctl.enqueue()
        with pytest.raises(AdmissionError) as ei:
            ctl.check_submittable(10)
        assert ei.value.reason == "queue-saturated"

    def test_release_unknown_job_raises(self):
        ctl = AdmissionController(budget_bytes=100)
        with pytest.raises(AdmissionError) as ei:
            ctl.release(99)
        assert ei.value.reason == "unknown-job"

    def test_invalid_construction(self):
        with pytest.raises(AdmissionError):
            AdmissionController(budget_bytes=0)
        with pytest.raises(AdmissionError):
            AdmissionController(budget_bytes=10, max_pending=0)
