"""Tests for the public ooc_gemm entry point."""

import numpy as np
import pytest

from repro.bench.studies import column_split_gemm
from repro.config import SystemConfig
from repro.errors import PlanError, ShapeError, ValidationError
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from tests.conftest import make_tiny_spec


@pytest.fixture
def config():
    return SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestInnerForm:
    def test_matches_numpy(self, config, rng):
        a = rng.standard_normal((300, 64)).astype(np.float32)
        b = rng.standard_normal((300, 80)).astype(np.float32)
        res = ooc_gemm(a, b, trans_a=True, config=config, blocksize=64)
        assert res.strategy == "ksplit-inner"
        np.testing.assert_allclose(res.c, a.T @ b, rtol=1e-4, atol=1e-4)
        assert res.movement.h2d_bytes >= (a.nbytes + b.nbytes)

    def test_simulated(self, config):
        res = ooc_gemm((2048, 128), (2048, 96), trans_a=True,
                       config=config, blocksize=256)
        assert res.c is None
        assert res.makespan > 0
        assert res.achieved_tflops > 0

    def test_alpha_beta_restricted(self, config):
        with pytest.raises(ValidationError):
            ooc_gemm((8, 4), (8, 4), trans_a=True, alpha=2.0, config=config)

    def test_k_mismatch(self, config):
        with pytest.raises(ShapeError):
            ooc_gemm((8, 4), (9, 4), trans_a=True, config=config)


class TestOuterForm:
    def test_update_matches_numpy(self, config, rng):
        a = rng.standard_normal((120, 24)).astype(np.float32)
        b = rng.standard_normal((24, 40)).astype(np.float32)
        c = rng.standard_normal((120, 40)).astype(np.float32)
        expected = c - a @ b
        res = ooc_gemm(a, b, alpha=-1.0, beta=1.0, c=c.copy(),
                       config=config, blocksize=32)
        assert res.strategy == "rowstream-outer"
        np.testing.assert_allclose(res.c, expected, rtol=1e-4, atol=1e-4)

    def test_plain_product(self, config, rng):
        a = rng.standard_normal((96, 16)).astype(np.float32)
        b = rng.standard_normal((16, 48)).astype(np.float32)
        res = ooc_gemm(a, b, config=config, blocksize=32)
        np.testing.assert_allclose(res.c, a @ b, rtol=1e-4, atol=1e-4)

    def test_update_requires_c(self, config):
        with pytest.raises(ValidationError, match="requires the C"):
            ooc_gemm((8, 4), (4, 8), alpha=-1.0, beta=1.0, config=config)

    def test_simulated_paper_scale(self):
        # Table 2's recursive outer product shape, via the public API
        res = ooc_gemm((131072, 65536), (65536, 65536), alpha=-1.0, beta=1.0,
                       c=(131072, 65536), blocksize=8192)
        assert res.makespan == pytest.approx(12.0, rel=0.25)

    def test_inner_dims_checked(self, config):
        with pytest.raises(ShapeError):
            ooc_gemm((8, 4), (5, 8), config=config)


class TestValidation:
    def test_mixed_backing_rejected(self, config, rng):
        a = rng.standard_normal((8, 4)).astype(np.float32)
        with pytest.raises(ValidationError):
            ooc_gemm(a, (4, 8), config=config)

    def test_numeric_mode_on_shapes_rejected(self, config):
        with pytest.raises(ValidationError):
            ooc_gemm((8, 4), (4, 8), mode="numeric", config=config)

    def test_device_memory_cap(self, rng):
        a = rng.standard_normal((256, 64)).astype(np.float32)
        b = rng.standard_normal((256, 64)).astype(np.float32)
        res = ooc_gemm(a, b, trans_a=True, blocksize=32,
                       device_memory=256 << 10)
        assert res.config.gpu.mem_bytes == 256 << 10
        # default precision is fp16 TensorCore emulation: loose check
        np.testing.assert_allclose(res.c, a.T @ b, rtol=5e-2, atol=5e-2)


class TestColumnSplit:
    """S13's multi-device GEMM: C's columns split across devices, one
    ``ooc_gemm`` per slice on the topology's per-device config."""

    SHAPE = dict(M=512, N=1024, K=2048, blocksize=256)

    @pytest.fixture
    def split(self):
        config = SystemConfig(gpu=make_tiny_spec(4 << 20), precision=Precision.FP32)
        return lambda n_devices, shared=False: column_split_gemm(
            config, n_devices, shared_host_link=shared, **self.SHAPE
        )

    @pytest.mark.parametrize("n_devices", [1, 3, 4])
    def test_flops_conserved_across_splits(self, split, n_devices):
        runs = split(n_devices)
        assert len(runs) == n_devices
        assert sum(r.stats.gemm_flops for r in runs) == 2 * 512 * 1024 * 2048

    def test_shared_operand_reread_grows_h2d(self, split):
        """Each device reads all of A: total traffic grows with the count."""
        a_bytes = 2048 * 512 * 4
        assert sum(r.stats.h2d_bytes for r in split(4)) >= (
            split(1)[0].stats.h2d_bytes + 2 * a_bytes
        )

    @staticmethod
    def makespan(runs):
        return max(r.makespan for r in runs)

    def test_independent_links_speed_up(self, split):
        speedup = self.makespan(split(1)) / self.makespan(split(2))
        assert speedup > 1.2
        assert 0 < speedup / 2 <= 1.0

    def test_shared_link_scales_worse(self, split):
        own = self.makespan(split(2))
        assert self.makespan(split(2, shared=True)) > own

    def test_too_many_devices_rejected(self, config):
        with pytest.raises(PlanError):
            column_split_gemm(config, 8, M=8, N=4, K=8, blocksize=4)
