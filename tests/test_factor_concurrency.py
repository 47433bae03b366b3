"""LU/Cholesky with ``concurrency='threads'`` (ISSUE satellite: plumb the
executor choice through the §6 extension factorizations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.factor.api import ooc_cholesky, ooc_lu
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.hw.gemm import Precision
from repro.obs import SpanRecorder, run_summary
from repro.qr.options import QrOptions

from tests.conftest import make_tiny_spec


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)


OPTS = QrOptions(blocksize=16)


class TestThreadedFactorizations:
    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_lu_threads_bitwise_equal_serial(self, config, method):
        a = diagonally_dominant(96, 96, seed=3)
        serial = ooc_lu(a.copy(), method=method, config=config, options=OPTS)
        rec = SpanRecorder()
        threads = ooc_lu(a.copy(), method=method, config=config, options=OPTS,
                         concurrency="threads", obs=rec)
        assert np.array_equal(serial.packed, threads.packed)
        # no simulated trace: the makespan is the measured wall time and
        # the measured schedule is the recorded span list
        assert threads.trace is None
        assert threads.makespan == threads.stats.wall_s > 0.0
        assert run_summary(rec.spans()).makespan_s > 0.0

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_cholesky_threads_bitwise_equal_serial(self, config, method):
        a = spd_matrix(80, seed=4)
        serial = ooc_cholesky(a.copy(), method=method, config=config,
                              options=OPTS)
        rec = SpanRecorder()
        threads = ooc_cholesky(a.copy(), method=method, config=config,
                               options=OPTS, concurrency="threads", obs=rec)
        assert np.array_equal(serial.packed, threads.packed)
        assert threads.trace is None
        assert set(run_summary(rec.spans()).lane_busy_s) >= {"h2d", "compute", "d2h"}

    def test_serial_numeric_reports_wall_makespan(self, config):
        res = ooc_lu(diagonally_dominant(64, 64, seed=5), config=config,
                     options=OPTS)
        assert res.trace is None
        assert res.makespan > 0.0              # falls back to measured wall

    def test_threads_requires_numeric(self, config):
        with pytest.raises(ValidationError, match="numeric"):
            ooc_lu((4096, 4096), mode="sim", config=config, options=OPTS,
                   concurrency="threads")
        with pytest.raises(ValidationError, match="numeric"):
            ooc_cholesky((4096, 4096), mode="sim", config=config,
                         options=OPTS, concurrency="threads")

    def test_invalid_concurrency_rejected(self, config):
        with pytest.raises(ValidationError):
            ooc_lu(diagonally_dominant(32, 32, seed=6), config=config,
                   options=OPTS, concurrency="processes")
