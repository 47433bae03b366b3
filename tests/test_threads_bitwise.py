"""Threaded runs are bitwise serial runs, with every option.

``concurrency="threads"`` records each run as a task DAG and runs it on
the work-stealing scheduler at every ``synchronize()``. For each
factorization (QR with the recursive, blocking and TSQR panels; LU and
Cholesky, recursive and blocking), plain, with a checkpoint after every
step, and with the health sentinel in ``monitor`` and ``escalate`` mode
on κ-sweep inputs, the threaded factors and the threaded
:class:`~repro.health.report.HealthReport` must equal the serial ones
field by field, also when a GEMM overflow escalates mid-run. Each
threaded run is repeated: a race shows as a difference in some repeat,
not necessarily the first.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.workloads import conditioned, random_tall
from repro.ckpt import CheckpointConfig, CheckpointPolicy
from repro.config import SystemConfig
from repro.factor.api import ooc_cholesky, ooc_lu
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.health import HealthOptions
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions

from tests.conftest import make_tiny_spec

M, N, B = 512, 128, 32
REPEATS = 3
#: Run options on top of the plain run.
EXTRAS = ("plain", "ckpt", "monitor", "escalate")
#: name -> (entry point, method, panel algorithm)
FACTORIZATIONS = {
    "qr-recursive": (ooc_qr, "recursive", None),
    "qr-blocking": (ooc_qr, "blocking", None),
    "qr-tsqr": (ooc_qr, "recursive", "tsqr"),
    "lu-recursive": (ooc_lu, "recursive", None),
    "lu-blocking": (ooc_lu, "blocking", None),
    "chol-recursive": (ooc_cholesky, "recursive", None),
    "chol-blocking": (ooc_cholesky, "blocking", None),
}
#: The κ sweep the QR cases run (LU and Cholesky take their own inputs).
KAPPAS = (1.0, 1e6)


def _config(panel_algorithm: str | None) -> SystemConfig:
    cfg = SystemConfig(gpu=make_tiny_spec(1 << 18), precision=Precision.TC_FP16)
    if panel_algorithm is not None:
        cfg = replace(cfg, panel_algorithm=panel_algorithm)
    return cfg


def _input(name: str, kappa: float) -> np.ndarray:
    if name.startswith("lu"):
        return diagonally_dominant(N, N, seed=21)
    if name.startswith("chol"):
        return spd_matrix(N, seed=22)
    return conditioned(M, N, kappa, seed=23)


def _factors(res) -> tuple[np.ndarray, ...]:
    if hasattr(res, "q"):
        return res.q, res.r
    return (res.packed,)


def _run(name, extra, concurrency, kappa, tmp_path, attempt):
    fn, method, panel = FACTORIZATIONS[name]
    health = HealthOptions(mode=extra) if extra in ("monitor", "escalate") else None
    options = QrOptions(blocksize=B)
    if health is not None:
        options = replace(options, health=health)
    checkpoint = None
    if extra == "ckpt":
        checkpoint = CheckpointConfig(
            str(tmp_path / f"{concurrency}-{attempt}"),
            policy=CheckpointPolicy(every_steps=1),
        )
    return fn(
        _input(name, kappa), method=method, config=_config(panel),
        options=options, concurrency=concurrency, checkpoint=checkpoint,
    )


def _cases():
    for name in FACTORIZATIONS:
        for extra in EXTRAS:
            for kappa in KAPPAS if name.startswith("qr") else (1.0,):
                yield name, extra, kappa


@pytest.mark.parametrize("name,extra,kappa", list(_cases()))
def test_threads_equal_serial(name, extra, kappa, tmp_path):
    serial = _run(name, extra, "serial", kappa, tmp_path, 0)
    for attempt in range(1, REPEATS + 1):
        threads = _run(name, extra, "threads", kappa, tmp_path, attempt)
        for s, t in zip(_factors(serial), _factors(threads)):
            np.testing.assert_array_equal(s, t)
        assert threads.info.health == serial.info.health
        if extra == "ckpt":
            assert threads.ckpt.checkpoints_written == serial.ckpt.checkpoints_written
            assert threads.ckpt.checkpoint_bytes == serial.ckpt.checkpoint_bytes


def test_escalation_inputs_escalate():
    """The κ = 1e6 QR input really walks the escalation ladder, so the
    escalate cases above compare non-empty escalation lists."""
    res = _run("qr-recursive", "escalate", "serial", 1e6, None, 0)
    assert res.info.health.escalations


def _overflowing_qr(method: str, concurrency: str):
    """Escalate-mode QR of an input whose fp16 GEMMs overflow."""
    a = random_tall(M, N, seed=24)
    a[:, N // 2:] *= np.float32(1e5)       # beyond the fp16 range
    cfg = SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.TC_FP16)
    options = QrOptions(blocksize=B, health=HealthOptions(mode="escalate"))
    return ooc_qr(
        a, method=method, config=cfg, options=options, concurrency=concurrency
    )


@pytest.mark.parametrize("method", ["recursive", "blocking"])
@pytest.mark.parametrize("concurrency", ["serial", "threads"])
def test_gemm_overflow_raises_under_caller_errstate(method, concurrency):
    """numpy keeps the floating-point error state per thread; the DAG
    workers run under the caller's, so the overflow's NaNs raise on a
    threaded run exactly as on a serial one."""
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            _overflowing_qr(method, concurrency)


@pytest.mark.parametrize("method", ["recursive", "blocking"])
def test_gemm_overflow_escalation_threads_equal_serial(method):
    """A GEMM whose fp16 inputs overflow switches every later GEMM to
    fp32 (escalate mode). GEMMs issued before it may be independent of
    it in the graph; they must still run at fp16, as in the serial run."""
    # the overflow's NaNs are expected: the suite's errstate would raise
    with np.errstate(invalid="ignore"):
        serial = _overflowing_qr(method, "serial")
    assert any(
        e.trigger == "non-finite-gemm" for e in serial.info.health.escalations
    )
    for _ in range(2 * REPEATS):
        with np.errstate(invalid="ignore"):
            threads = _overflowing_qr(method, "threads")
        np.testing.assert_array_equal(serial.q, threads.q)
        np.testing.assert_array_equal(serial.r, threads.r)
        assert threads.info.health == serial.info.health
