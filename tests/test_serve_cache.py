"""Result-cache key correctness (ISSUE satellite: cache-key coverage).

Identical operands + options must hit; any change to shape, dtype, an
option field, or the data itself (e.g. a different RNG seed) must miss;
and cached results must be bitwise-equal to fresh runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.qr.options import QrOptions
from repro.serve import FactorService, JobSpec, ResultCache, job_cache_key
from repro.serve.job import JobResult
from repro.util.rng import default_rng

from tests.conftest import make_tiny_spec


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)


OPTS = QrOptions(blocksize=16)
FOOTPRINT = 64 << 10


def qr_spec(a, **kw) -> JobSpec:
    return JobSpec("qr", (a,), options=kw.pop("options", OPTS), **kw)


class TestKeySensitivity:
    def test_identical_submissions_same_key(self, config):
        # content-addressed: equal bytes hash equal, object identity
        # irrelevant — regenerating from the same seed still matches
        a1 = default_rng(42).standard_normal((48, 24)).astype(np.float32)
        a2 = default_rng(42).standard_normal((48, 24)).astype(np.float32)
        assert a1 is not a2
        k1 = job_cache_key(qr_spec(a1), config, FOOTPRINT)
        k2 = job_cache_key(qr_spec(a2), config, FOOTPRINT)
        assert k1 == k2

    def test_different_seed_misses(self, config):
        a1 = default_rng(42).standard_normal((48, 24)).astype(np.float32)
        a2 = default_rng(43).standard_normal((48, 24)).astype(np.float32)
        assert job_cache_key(qr_spec(a1), config, FOOTPRINT) != \
            job_cache_key(qr_spec(a2), config, FOOTPRINT)

    def test_single_element_change_misses(self, config):
        a = default_rng(0).standard_normal((48, 24)).astype(np.float32)
        b = a.copy()
        b[17, 3] += 1.0
        assert job_cache_key(qr_spec(a), config, FOOTPRINT) != \
            job_cache_key(qr_spec(b), config, FOOTPRINT)

    def test_shape_change_misses(self, config):
        rng = default_rng(0)
        a = rng.standard_normal((48, 24)).astype(np.float32)
        # same bytes, different shape must not collide
        b = a.reshape(24, 48)
        assert job_cache_key(qr_spec(a), config, FOOTPRINT) != \
            job_cache_key(qr_spec(b), config, FOOTPRINT)

    def test_dtype_change_misses(self, config):
        a = default_rng(0).standard_normal((48, 24)).astype(np.float32)
        b = a.astype(np.float64)
        assert job_cache_key(qr_spec(a), config, FOOTPRINT) != \
            job_cache_key(qr_spec(b), config, FOOTPRINT)

    def test_every_option_field_matters(self, config):
        a = default_rng(0).standard_normal((48, 24)).astype(np.float32)
        base = job_cache_key(qr_spec(a), config, FOOTPRINT)
        for change in (
            {"blocksize": 32},
            {"n_buffers": 3},
            {"pipelined": False},
            {"qr_level_overlap": False},
            {"reuse_inner_result": False},
            {"staging_buffer": False},
            {"gradual_blocksize": True},
        ):
            tweaked = qr_spec(a, options=replace(OPTS, **change))
            assert job_cache_key(tweaked, config, FOOTPRINT) != base, change

    def test_kind_method_footprint_matter(self, config):
        a = default_rng(0).standard_normal((48, 48)).astype(np.float32)
        base = job_cache_key(qr_spec(a), config, FOOTPRINT)
        assert job_cache_key(
            JobSpec("lu", (a,), options=OPTS), config, FOOTPRINT
        ) != base
        assert job_cache_key(
            qr_spec(a, method="blocking"), config, FOOTPRINT
        ) != base
        # tiling depends on the device cap, so the footprint is part of
        # the result's identity
        assert job_cache_key(qr_spec(a), config, FOOTPRINT * 2) != base

    def test_precision_matters(self, config):
        a = default_rng(0).standard_normal((48, 24)).astype(np.float32)
        fp16 = replace(config, precision=Precision.TC_FP16)
        assert job_cache_key(qr_spec(a), config, FOOTPRINT) != \
            job_cache_key(qr_spec(a), fp16, FOOTPRINT)

    def test_noncontiguous_operand_hashes_by_content(self, config):
        rng = default_rng(0)
        big = rng.standard_normal((96, 48)).astype(np.float32)
        view = big[::2, ::2]                      # non-contiguous view
        dense = np.ascontiguousarray(view)
        assert job_cache_key(qr_spec(view), config, FOOTPRINT) == \
            job_cache_key(qr_spec(dense), config, FOOTPRINT)


class TestCachedResults:
    def test_hit_bitwise_equal_fresh(self, config):
        """A cache hit returns exactly what a fresh run would produce."""
        a = default_rng(5).standard_normal((64, 32)).astype(np.float32)
        with FactorService(config) as svc:
            fresh = svc.submit(qr_spec(a)).result(timeout=60)
            assert not fresh.cache_hit
            # same content from a fresh generator draw: must hit
            a_again = default_rng(5).standard_normal((64, 32)).astype(np.float32)
            h = svc.submit(qr_spec(a_again))
            hit = h.result(timeout=60)
            assert hit.cache_hit and h.cache_hit
            for name in fresh.arrays:
                assert np.array_equal(fresh.arrays[name], hit.arrays[name])
            snap = svc.snapshot_metrics()
            assert snap["cache_hits"]["value"] == 1
            assert snap["cache_misses"]["value"] == 1
            # the hit never touched the queue
            assert snap["queue_wait_s"]["count"] == 1

    def test_cached_arrays_read_only(self, config):
        a = default_rng(6).standard_normal((48, 24)).astype(np.float32)
        with FactorService(config) as svc:
            svc.submit(qr_spec(a)).result(timeout=60)
            hit = svc.submit(qr_spec(a)).result(timeout=60)
            with pytest.raises(ValueError):
                hit.arrays["q"][0, 0] = 99.0

    def test_sim_jobs_not_cached(self, config):
        spec = JobSpec("qr", ((1024, 512),), mode="sim",
                       options=QrOptions(blocksize=64))
        with FactorService(config) as svc:
            svc.submit(spec).result(timeout=60)
            again = svc.submit(spec).result(timeout=60)
            assert not again.cache_hit

    def test_cache_disabled(self, config):
        a = default_rng(7).standard_normal((48, 24)).astype(np.float32)
        with FactorService(config, cache=None) as svc:
            svc.submit(qr_spec(a)).result(timeout=60)
            again = svc.submit(qr_spec(a)).result(timeout=60)
            assert not again.cache_hit


class TestKeyDigest:
    """The digest is pinned: hashing the operand buffer in place must not
    move any key (a moved key would orphan every cached result)."""

    A = (np.arange(48 * 24, dtype=np.float32).reshape(48, 24) / 7).astype(
        np.float32
    )
    B = np.arange(48 * 8, dtype=np.float64).reshape(48, 8) - 100.5

    def test_pinned_hex_keys(self):
        from repro.config import PAPER_SYSTEM

        opts = QrOptions(blocksize=16)
        assert job_cache_key(
            JobSpec("qr", (self.A,), options=opts), PAPER_SYSTEM, 1 << 20
        ) == "bcc2f34d70f42046f71b66d04642f3b6b0f3621195fbe2d00a3ab5be865fac2a"
        assert job_cache_key(
            JobSpec("gemm", (self.A, self.B), options=opts), PAPER_SYSTEM,
            1 << 20,
        ) == "7bd66925fdec31196ea0a4d0d91b04106477e8ab4c8e03f5440972b4d48d0c1d"

    def test_layout_does_not_key(self, config):
        wide = np.arange(96 * 24, dtype=np.float32).reshape(96, 24)
        strided = wide[::2]
        assert not strided.flags.c_contiguous
        fortran = np.asfortranarray(self.A)
        assert not fortran.flags.c_contiguous
        for arr in (fortran, strided):
            c_order = np.ascontiguousarray(arr)
            assert job_cache_key(qr_spec(arr), config, FOOTPRINT) == \
                job_cache_key(qr_spec(c_order), config, FOOTPRINT)


class TestResultCacheLru:
    def _result(self, tag: float) -> JobResult:
        return JobResult(kind="qr", arrays={"q": np.full((2, 2), tag)})

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._result(1.0))
        cache.put("b", self._result(2.0))
        assert cache.get("a") is not None      # refresh a; b is now LRU
        cache.put("c", self._result(3.0))      # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_hit_rate(self):
        cache = ResultCache()
        cache.put("k", self._result(1.0))
        assert cache.get("k") is not None
        assert cache.get("missing") is None
        assert cache.hit_rate == 0.5

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
