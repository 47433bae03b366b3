"""Crash-recovery acceptance tests for the checkpoint subsystem.

The fault-injection wrappers from tests/test_fault_injection.py kill a
checkpointed run at every (or a spread of) operation index(es); a second
run pointed at the same checkpoint directory must restore state, skip the
completed prefix, and produce output *bitwise identical* to an
uninterrupted run — under both the serial executor and the threaded
task-DAG executor. Also covered: the two-level OOC case (memmap-backed HostMatrix
resumed in-place from disk), the service's retry-with-resume path, and
typed refusals surfacing through the public API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointSession,
    run_fingerprint,
)
from repro.ckpt.manager import MANIFEST_NAME
from repro.errors import CheckpointError, ValidationError
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.qr.api import ooc_qr
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from tests.test_fault_injection import (
    FaultyExecutor,
    InjectedFault,
    WorkerFaultyExecutor,
    _config,
)

N = 64
OPTS = QrOptions(blocksize=16)
A_QR = np.random.default_rng(11).standard_normal((N, N)).astype(np.float32)

QR_DRIVERS = [ooc_recursive_qr, ooc_blocking_qr]
QR_IDS = [d.__name__ for d in QR_DRIVERS]


def _session(ex, ckdir, mats, fingerprint):
    mgr = CheckpointManager(CheckpointConfig(ckdir), fingerprint=fingerprint)
    return CheckpointSession(mgr, ex, mats)


def _qr_attempt(driver, ex, ckdir=None):
    """One QR run (fresh host matrices each attempt, as after a crash)."""
    a = HostMatrix.from_array(A_QR.copy())
    r = HostMatrix.zeros(N, N)
    session = None
    if ckdir is not None:
        session = _session(ex, ckdir, {"a": a, "r": r}, driver.__name__)
    driver(ex, a, r, OPTS, checkpoint=session)
    return a, r, session


@pytest.mark.parametrize("driver", QR_DRIVERS, ids=QR_IDS)
class TestKillAtEveryOpSerial:
    """ISSUE acceptance: kill at every op index, resume, bitwise equal."""

    def test_resume_is_bitwise_identical(self, driver, tmp_path):
        ref_ex = FaultyExecutor(_config())
        q_ref, r_ref, _ = _qr_attempt(driver, ref_ex)
        total = ref_ex.op_counter
        assert total > 10

        any_skipped = False
        for fail_at in range(1, total + 1):
            ckdir = tmp_path / f"ck-{fail_at}"
            ex = FaultyExecutor(_config(), fail_at=fail_at)
            with pytest.raises(InjectedFault):
                _qr_attempt(driver, ex, ckdir)
            ex.allocator.check_balanced()

            resumed = FaultyExecutor(_config())
            q, r, session = _qr_attempt(driver, resumed, ckdir)
            resumed.allocator.check_balanced()
            np.testing.assert_array_equal(q.data, q_ref.data)
            np.testing.assert_array_equal(r.data, r_ref.data)
            any_skipped = any_skipped or session.stats.steps_skipped > 0
            if fail_at == total:
                # everything but the uncommitted final step was skipped
                assert session.stats.resumes == 1
                assert session.stats.steps_skipped >= 1
        assert any_skipped


@pytest.mark.parametrize("driver", QR_DRIVERS, ids=QR_IDS)
class TestKillAtEveryOpThreads:
    """Same sweep with faults inside the task-DAG scheduler's worker
    threads; the resumed result must stay bitwise equal to *serial*."""

    def test_resume_is_bitwise_identical(self, driver, tmp_path):
        serial_ex = FaultyExecutor(_config())
        q_ref, r_ref, _ = _qr_attempt(driver, serial_ex)

        probe = WorkerFaultyExecutor(_config())
        try:
            q_t, r_t, _ = _qr_attempt(driver, probe)
            probe.synchronize()
            total = probe.op_counter
            # cross-executor identity of the uninterrupted run
            np.testing.assert_array_equal(q_t.data, q_ref.data)
            np.testing.assert_array_equal(r_t.data, r_ref.data)
        finally:
            probe.close()
        assert total > 10

        any_skipped = False
        for fail_at in range(1, total + 1):
            ckdir = tmp_path / f"ck-{fail_at}"
            ex = WorkerFaultyExecutor(_config(), fail_at=fail_at)
            try:
                with pytest.raises(InjectedFault):
                    _qr_attempt(driver, ex, ckdir)
                    # late faults may only surface at the drain
                    ex.synchronize()
                ex.allocator.check_balanced()
            finally:
                ex.close()

            resumed = WorkerFaultyExecutor(_config())
            try:
                q, r, session = _qr_attempt(driver, resumed, ckdir)
                resumed.synchronize()
                resumed.allocator.check_balanced()
                np.testing.assert_array_equal(q.data, q_ref.data)
                np.testing.assert_array_equal(r.data, r_ref.data)
                any_skipped = any_skipped or session.stats.steps_skipped > 0
            finally:
                resumed.close()
        assert any_skipped


FACTOR_DRIVERS = [
    ooc_blocking_lu,
    ooc_recursive_lu,
    ooc_blocking_cholesky,
    ooc_recursive_cholesky,
]


def _factor_input(driver):
    if driver in (ooc_blocking_lu, ooc_recursive_lu):
        from repro.factor.incore import diagonally_dominant

        return diagonally_dominant(N, N, seed=5)
    from repro.factor.incore import spd_matrix

    return spd_matrix(N, seed=5)


@pytest.mark.parametrize("driver", FACTOR_DRIVERS,
                         ids=[d.__name__ for d in FACTOR_DRIVERS])
class TestFactorResume:
    """LU / Cholesky: fail at a spread of points, resume bitwise."""

    def test_resume_is_bitwise_identical(self, driver, tmp_path):
        a_np = _factor_input(driver)

        def attempt(ex, ckdir=None):
            a = HostMatrix.from_array(a_np.copy())
            session = None
            if ckdir is not None:
                session = _session(ex, ckdir, {"a": a}, driver.__name__)
            driver(ex, a, OPTS, checkpoint=session)
            return a, session

        ref_ex = FaultyExecutor(_config())
        a_ref, _ = attempt(ref_ex)
        total = ref_ex.op_counter
        assert total > 10

        points = sorted({total // 4, total // 2, 3 * total // 4, total})
        for fail_at in points:
            ckdir = tmp_path / f"ck-{fail_at}"
            ex = FaultyExecutor(_config(), fail_at=fail_at)
            with pytest.raises(InjectedFault):
                attempt(ex, ckdir)
            ex.allocator.check_balanced()

            resumed = FaultyExecutor(_config())
            a, session = attempt(resumed, ckdir)
            np.testing.assert_array_equal(a.data, a_ref.data)
        # the last point faulted on the very last op: everything but the
        # final step must have been skipped on its resume
        assert session.stats.resumes == 1
        assert session.stats.steps_skipped >= 1


class TestMemmapResume:
    """ISSUE satellite: two-level OOC — a memmap-backed HostMatrix killed
    mid-run resumes from its own on-disk file (in-place mode: only the
    mutable tail is in the checkpoint payload)."""

    def test_crash_and_resume_from_disk(self, tmp_path):
        from repro.execution.numeric import NumericExecutor

        ref = HostMatrix.from_array(A_QR.copy())
        r_ref = HostMatrix.zeros(N, N)
        ooc_recursive_qr(NumericExecutor(_config()), ref, r_ref, OPTS)

        probe = FaultyExecutor(_config())
        _qr_attempt(ooc_recursive_qr, probe)
        fail_at = 2 * probe.op_counter // 3

        a_path = tmp_path / "a.dat"
        mat = HostMatrix.memmap(a_path, N, N)
        mat.data[:] = A_QR
        mat.data.flush()

        ckdir = tmp_path / "ck"
        ex = FaultyExecutor(_config(), fail_at=fail_at)
        r1 = HostMatrix.zeros(N, N)
        session = _session(ex, ckdir, {"a": mat, "r": r1}, "memmap-qr")
        with pytest.raises(InjectedFault):
            ooc_recursive_qr(ex, mat, r1, OPTS, checkpoint=session)
        ex.allocator.check_balanced()

        manifest = CheckpointManager(
            CheckpointConfig(ckdir), fingerprint="memmap-qr"
        ).load_manifest()
        assert manifest is not None
        assert manifest["matrices"]["a"]["mode"] == "inplace"
        assert manifest["matrices"]["r"]["mode"] == "copy"

        # "restart the process": drop the mapping, reopen the file
        del mat
        reopened = HostMatrix.memmap(a_path, N, N, mode="r+")
        r2 = HostMatrix.zeros(N, N)
        resumed = FaultyExecutor(_config())
        session2 = _session(resumed, ckdir, {"a": reopened, "r": r2},
                            "memmap-qr")
        ooc_recursive_qr(resumed, reopened, r2, OPTS, checkpoint=session2)
        assert session2.stats.resumes == 1
        assert session2.stats.steps_skipped >= 1
        np.testing.assert_array_equal(np.asarray(reopened.data), ref.data)
        np.testing.assert_array_equal(r2.data, r_ref.data)


class TestServeRetryResume:
    """ISSUE acceptance: a service retry of a checkpointed job resumes
    instead of recomputing — ≥1 step skipped, nonzero resume metrics."""

    def test_retry_resumes_from_checkpoint(self, tmp_path):
        from repro.serve.job import JobSpec
        from repro.serve.service import FactorService, run_job

        spec = JobSpec(
            "qr", (A_QR.copy(),), options=OPTS,
            checkpoint_dir=str(tmp_path / "ck"), name="ckpt-qr",
        )
        calls = {"n": 0}

        def crash_once_runner(job_spec, config, concurrency):
            calls["n"] += 1
            if calls["n"] > 1:
                return run_job(job_spec, config, concurrency)
            # attempt 1: checkpoint under the job's capped config (same
            # fingerprint run_job derives), then die ~2/3 through
            probe = FaultyExecutor(config)
            pa = HostMatrix.from_array(A_QR.copy())
            pr = HostMatrix.zeros(N, N)
            ooc_recursive_qr(probe, pa, pr, job_spec.options)

            a = HostMatrix.from_array(
                np.array(job_spec.operands[0], dtype=np.float32, order="C",
                         copy=True)
            )
            r = HostMatrix.zeros(a.cols, a.cols)
            ex = FaultyExecutor(config, fail_at=2 * probe.op_counter // 3)
            fp = run_fingerprint(
                "qr", job_spec.method, a.rows, a.cols, config,
                job_spec.options,
            )
            session = CheckpointSession(
                CheckpointManager(
                    CheckpointConfig(job_spec.checkpoint_dir), fingerprint=fp
                ),
                ex, {"a": a, "r": r},
            )
            ooc_recursive_qr(ex, a, r, job_spec.options, checkpoint=session)
            raise AssertionError("injected fault did not fire")

        svc = FactorService(
            _config(), n_workers=1, cache=None, max_retries=2,
            backoff_base_s=0.001, runner=crash_once_runner,
        )
        try:
            job_cfg = svc.job_config(spec)
            handle = svc.submit(spec)
            result = handle.result(timeout=120)
            snap = svc.snapshot_metrics()
        finally:
            svc.close()

        assert handle.attempts == 2
        assert result.ckpt is not None
        assert result.ckpt.resumes == 1
        assert result.ckpt.steps_skipped >= 1
        assert snap["job_retries"]["value"] == 1
        assert snap["resumes"]["value"] >= 1
        assert snap["steps_skipped_on_resume"]["value"] >= 1
        assert snap["checkpoints_written"]["value"] >= 1

        # the resumed job's output matches a direct uncheckpointed run
        # under the identical capped config, bit for bit
        direct = ooc_qr(
            A_QR.copy(), method=spec.method, config=job_cfg, options=OPTS
        )
        np.testing.assert_array_equal(result.arrays["q"], direct.q)
        np.testing.assert_array_equal(result.arrays["r"], direct.r)


class TestApiRefusals:
    """Typed checkpoint errors surface through the public entry points."""

    def test_ooc_qr_full_roundtrip_and_config_mismatch(self, tmp_path):
        ck = CheckpointConfig(tmp_path)
        first = ooc_qr(A_QR, config=_config(), options=OPTS, checkpoint=ck)
        assert first.ckpt is not None
        assert first.ckpt.checkpoints_written > 0

        # rerunning against the completed checkpoint skips every step
        second = ooc_qr(A_QR, config=_config(), options=OPTS, checkpoint=ck)
        assert second.ckpt.resumes == 1
        assert second.ckpt.steps_skipped >= first.ckpt.checkpoints_written
        np.testing.assert_array_equal(second.q, first.q)
        np.testing.assert_array_equal(second.r, first.r)

        # a different blocksize is a different run: typed refusal
        with pytest.raises(CheckpointError) as exc:
            ooc_qr(A_QR, config=_config(),
                   options=QrOptions(blocksize=32), checkpoint=ck)
        assert exc.value.reason == "config-mismatch"

    def test_ooc_qr_corrupt_manifest(self, tmp_path):
        ck = CheckpointConfig(tmp_path)
        ooc_qr(A_QR, config=_config(), options=OPTS, checkpoint=ck)
        (tmp_path / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(CheckpointError) as exc:
            ooc_qr(A_QR, config=_config(), options=OPTS, checkpoint=ck)
        assert exc.value.reason == "corrupt-manifest"

    def test_checkpoint_requires_numeric_mode(self, tmp_path):
        with pytest.raises(ValidationError):
            ooc_qr((256, 256), mode="sim", config=_config(),
                   checkpoint=CheckpointConfig(tmp_path))
