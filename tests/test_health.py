"""Numerical-health sentinel: probes, escalation, quarantine, checkpoint.

Covers the ISSUE acceptance criteria end to end:

* the kappa sweep — monitor-mode drift reporting tracks conditioning
  (quiet on benign matrices, loud where CGS degrades) and escalate mode
  restores ``orthogonality_error(Q)`` to near the Householder fp32
  baseline on kappa >= 1e8 under emulated fp16 GEMMs, while the default
  run measurably exceeds it and the report records the escalations;
* a NaN injected mid-run at *every* op index raises a typed
  :class:`~repro.errors.NumericalError` under both serial and concurrent
  execution with the allocator left balanced;
* the service quarantines poison jobs (one attempt, report attached,
  ``jobs_quarantined`` incremented, never retried);
* a checkpointed health run resumes bitwise identically with the
  sentinel's escalation state restored, and a health-config change is
  refused with the existing config-mismatch ``CheckpointError``;
* refinement stops and reports divergence on non-finite residuals;
* the CGS norm guard raises the typed taxonomy.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import CheckpointConfig, CheckpointManager, CheckpointSession, run_fingerprint
from repro.config import SystemConfig
from repro.errors import (
    BreakdownError,
    CheckpointError,
    EscalationExhaustedError,
    NonFiniteError,
    NumericalError,
    ValidationError,
)
from repro.execution.numeric import NumericExecutor
from repro.health import HealthOptions, HealthReport, HealthSentinel
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.cgs import cgs2_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.runtime import GraphBuilder
from repro.serve import FactorService, JobSpec, JobState
from repro.util.rng import default_rng

from tests.conftest import make_tiny_spec

M, N, B = 192, 64, 16
OPTS = QrOptions(blocksize=B)


def fp16_config() -> SystemConfig:
    return SystemConfig(
        gpu=make_tiny_spec(1 << 20), precision=Precision.TC_FP16
    )


def fp32_config() -> SystemConfig:
    return SystemConfig(
        gpu=make_tiny_spec(1 << 20), precision=Precision.FP32
    )


def conditioned_matrix(kappa: float, m: int = M, n: int = N, seed: int = 0) -> np.ndarray:
    """Random matrix with logspaced singular values 1 .. 1/kappa."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.logspace(0, -np.log10(kappa), n)
    return ((u * sv) @ v.T).astype(np.float32)


def orthogonality_error(q: np.ndarray) -> float:
    q64 = q.astype(np.float64)
    return float(np.linalg.norm(q64.T @ q64 - np.eye(q64.shape[1])))


def health_opts(mode: str, **kw) -> QrOptions:
    return replace(OPTS, health=HealthOptions(mode=mode, **kw))


# ---------------------------------------------------------------------------
# options and report plumbing


class TestOptions:
    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            HealthOptions(mode="frantic")
        with pytest.raises(ValidationError):
            HealthOptions(stride=0)
        with pytest.raises(ValidationError):
            HealthOptions(drift_threshold=0.0)
        with pytest.raises(ValidationError):
            HealthOptions(breakdown_tol=-1.0)

    def test_mode_properties(self):
        assert not HealthOptions().enabled
        assert HealthOptions(mode="monitor").enabled
        assert not HealthOptions(mode="monitor").escalating
        assert HealthOptions(mode="escalate").escalating

    def test_health_requires_numeric_mode(self):
        with pytest.raises(ValidationError, match="numeric"):
            ooc_qr((256, 128), mode="sim", options=health_opts("monitor"))

    def test_report_rides_on_results(self):
        a = default_rng(3).standard_normal((64, 32)).astype(np.float32)
        res = ooc_qr(a, config=fp32_config(), options=health_opts("monitor"))
        assert isinstance(res.health, HealthReport)
        assert res.health.probes_run > 0
        assert res.health.panel_probes > 0
        assert "health[monitor]" in res.health.summary()
        assert res.health.to_dict()["n_escalations"] == 0
        # off mode: no report
        off = ooc_qr(a, config=fp32_config(), options=OPTS)
        assert off.health is None

    def test_stride_reduces_probe_count(self):
        a = default_rng(3).standard_normal((96, 48)).astype(np.float32)
        dense = ooc_qr(a, config=fp32_config(), options=health_opts("monitor"))
        sparse = ooc_qr(
            a, config=fp32_config(), options=health_opts("monitor", stride=4)
        )
        assert 0 < sparse.health.probes_run < dense.health.probes_run
        # sampling must not change the numbers
        np.testing.assert_array_equal(dense.q, sparse.q)

    def test_options_in_cache_key_and_fingerprint(self):
        cfg = fp32_config()
        base = run_fingerprint("qr", "recursive", M, N, cfg, OPTS)
        mon = run_fingerprint("qr", "recursive", M, N, cfg, health_opts("monitor"))
        esc = run_fingerprint("qr", "recursive", M, N, cfg, health_opts("escalate"))
        assert len({base, mon, esc}) == 3


# ---------------------------------------------------------------------------
# kappa sweep: monitoring tracks conditioning, escalation repairs it


class TestKappaSweep:
    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_monitor_tracks_conditioning(self, method):
        quiet = ooc_qr(
            conditioned_matrix(10.0), method=method, config=fp16_config(),
            options=health_opts("monitor"),
        )
        assert quiet.health.drift_events == 0
        loud = ooc_qr(
            conditioned_matrix(1e8), method=method, config=fp16_config(),
            options=health_opts("monitor"),
        )
        assert loud.health.drift_events >= 1
        assert loud.health.worst_drift > quiet.health.worst_drift

    def test_monitor_never_changes_results(self):
        a = conditioned_matrix(1e8)
        plain = ooc_qr(a, config=fp16_config(), options=OPTS)
        mon = ooc_qr(a, config=fp16_config(), options=health_opts("monitor"))
        np.testing.assert_array_equal(plain.q, mon.q)
        np.testing.assert_array_equal(plain.r, mon.r)
        assert mon.health.n_escalations == 0

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_escalate_restores_orthogonality_at_kappa_1e8(self, method):
        """The ISSUE acceptance check: kappa >= 1e8 + emulated fp16 GEMMs."""
        a = conditioned_matrix(1e8)
        baseline = orthogonality_error(np.linalg.qr(a.astype(np.float32))[0])

        plain = ooc_qr(a, method=method, config=fp16_config(), options=OPTS)
        esc = ooc_qr(
            a, method=method, config=fp16_config(),
            options=health_opts("escalate"),
        )
        err_plain = orthogonality_error(plain.q)
        err_esc = orthogonality_error(esc.q)
        assert err_esc <= 10 * max(baseline, 1e-7)
        assert err_plain > 10 * err_esc  # the default measurably exceeds it
        assert esc.health.n_escalations >= 1
        triggers = {e.trigger for e in esc.health.escalations}
        assert "cross-drift" in triggers
        assert esc.health.gemm_format_override == "fp32"
        # the repair preserves the factorization itself
        resid = np.linalg.norm(
            esc.q.astype(np.float64) @ esc.r.astype(np.float64)
            - a.astype(np.float64)
        ) / np.linalg.norm(a)
        assert resid < 1e-2

    def test_escalate_threads_bitwise_identical_to_serial(self):
        a = conditioned_matrix(1e8)
        serial = ooc_qr(
            a, config=fp16_config(), options=health_opts("escalate")
        )
        threads = ooc_qr(
            a, config=fp16_config(), options=health_opts("escalate"),
            concurrency="threads",
        )
        np.testing.assert_array_equal(serial.q, threads.q)
        np.testing.assert_array_equal(serial.r, threads.r)
        assert (
            threads.health.n_escalations == serial.health.n_escalations
        )

    def test_escalate_is_noop_on_benign_matrices(self):
        a = default_rng(1).standard_normal((M, N)).astype(np.float32)
        plain = ooc_qr(a, config=fp16_config(), options=OPTS)
        esc = ooc_qr(a, config=fp16_config(), options=health_opts("escalate"))
        np.testing.assert_array_equal(plain.q, esc.q)
        assert esc.health.n_escalations == 0

    @settings(max_examples=6, deadline=None)
    @given(
        exponent=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_escalate_bounds_drift_for_any_kappa(self, exponent, seed):
        """Property: in escalate mode every panel either stayed under the
        drift threshold or was reorthogonalized, so the final loss of
        orthogonality is bounded by ~n * threshold regardless of kappa."""
        a = conditioned_matrix(10.0 ** exponent, seed=seed)
        opts = health_opts("escalate")
        res = ooc_qr(a, config=fp16_config(), options=opts)
        assert orthogonality_error(res.q) <= 4 * N * opts.health.drift_threshold
        resid = np.linalg.norm(
            res.q.astype(np.float64) @ res.r.astype(np.float64)
            - a.astype(np.float64)
        ) / np.linalg.norm(a)
        assert resid < 1e-2

    def test_fp16_overflow_underflow_counted(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((96, 32)).astype(np.float32)
        a[0, :] = 1e6          # above fp16 max: rounds to inf on input
        a[1, :] = 1e-24        # below fp16 tiny: rounds to zero
        # overflowed inputs poison the GEMM outputs -> typed refusal, but
        # the attached report still carries the quantization tallies
        with pytest.raises(NumericalError) as exc:
            ooc_qr(a, config=fp16_config(), options=health_opts("monitor"))
        report = exc.value.report
        assert report is not None and report.overflow_count > 0
        # a sprinkling of sub-fp16-tiny entries underflows to zero on input
        # rounding without collapsing any column norm
        b = rng.standard_normal((96, 32)).astype(np.float32)
        b[::5, :] *= np.float32(1e-30)
        res = ooc_qr(b, config=fp16_config(), options=health_opts("monitor"))
        assert res.health.underflow_count > 0


# ---------------------------------------------------------------------------
# sentinel unit behaviour


class TestSentinelUnit:
    def test_cross_panel_reorth_preserves_qr(self):
        """probe_host_panel's triangular bookkeeping keeps A = Q R."""
        rng = np.random.default_rng(2)
        m, n, b = 64, 32, 16
        a_np = rng.standard_normal((m, n)).astype(np.float32)
        q, r = np.linalg.qr(a_np.astype(np.float64))
        q = q.astype(np.float32)
        r = r.astype(np.float32)
        # wreck the second panel's orthogonality against the first
        q[:, b:] += 0.3 * q[:, :b] @ rng.standard_normal((b, n - b)).astype(np.float32)
        a_host = HostMatrix.from_array(q.copy())
        r_host = HostMatrix.from_array(r.copy())
        recon_before = q.astype(np.float64) @ r.astype(np.float64)

        sent = HealthSentinel(HealthOptions(mode="escalate"))
        modified = sent.probe_host_panel(a_host, r_host, 1, b, n)
        assert modified
        assert sent.report.drift_events == 1
        assert sent.report.escalations[0].action == "block-reorth"
        q2 = a_host.data.astype(np.float64)
        recon_after = q2 @ r_host.data.astype(np.float64)
        np.testing.assert_allclose(recon_after, recon_before, atol=1e-4)
        cross = q2[:, :b].T @ q2[:, b:]
        assert np.abs(cross).max() < 1e-6

    def test_monitor_probe_records_but_does_not_modify(self):
        rng = np.random.default_rng(2)
        q = np.linalg.qr(rng.standard_normal((64, 32)))[0].astype(np.float32)
        q[:, 16:] += 0.3 * q[:, :16]
        a_host = HostMatrix.from_array(q.copy())
        r_host = HostMatrix.from_array(np.eye(32, dtype=np.float32))
        sent = HealthSentinel(HealthOptions(mode="monitor"))
        assert not sent.probe_host_panel(a_host, r_host, 1, 16, 32)
        assert sent.report.drift_events == 1
        np.testing.assert_array_equal(a_host.data, q)

    def test_state_dict_roundtrip(self):
        sent = HealthSentinel(HealthOptions(mode="escalate"), base_format="fp16")
        sent._raise_gemm_precision("drift")
        sent._reorth_sticky = True
        sent.report.probes_run = 7
        sent.report.worst_drift = 0.25
        state = sent.state_dict()

        fresh = HealthSentinel(HealthOptions(mode="escalate"), base_format="fp16")
        fresh.load_state(state)
        assert fresh.gemm_format("fp16") == "fp32"
        assert fresh._reorth_sticky
        assert fresh.report.probes_run == 7
        assert fresh.report.worst_drift == 0.25
        assert [e.action for e in fresh.report.escalations] == ["gemm-fp32"]

    def test_escalation_exhausted_is_typed(self):
        """A panel that stays unhealthy after the whole ladder refuses."""
        sent = HealthSentinel(HealthOptions(mode="escalate"))
        orig = np.ones((8, 2), dtype=np.float32)  # two identical columns

        def refactor(panel):
            return panel.copy(), np.eye(2, dtype=np.float32)

        q = np.ones((8, 2), dtype=np.float32)
        r = np.eye(2, dtype=np.float32)
        with pytest.raises((BreakdownError, EscalationExhaustedError)) as exc:
            sent.after_panel(orig, q, r, refactor)
        assert isinstance(exc.value, NumericalError)
        assert exc.value.report is not None


# ---------------------------------------------------------------------------
# NaN injection: every op index raises typed, allocator balanced


class PoisonMixin:
    """Executor mixin that writes NaN into the Nth op's input at the
    moment its body runs (so pipelined executors poison post-dependency,
    exactly like real corruption would appear)."""

    def __init__(self, config, poison_at=None):
        super().__init__(config)
        self.poison_at = poison_at
        self.op_counter = 0
        self._pending_poison = None

    def _issue(self, stream, *, body, **kwargs):
        poison = self._pending_poison
        self._pending_poison = None
        if poison is not None:
            inner = body

            def body():
                poison()
                inner()

        super()._issue(stream, body=body, **kwargs)

    def _arm(self, poison) -> None:
        self.op_counter += 1
        if self.op_counter == self.poison_at:
            self._pending_poison = poison

    def h2d(self, dst, src, stream):
        self._arm(lambda: src.array.__setitem__((0, 0), np.nan))
        return super().h2d(dst, src, stream)

    def d2h(self, dst, src, stream):
        self._arm(lambda: self._data(src).__setitem__((0, 0), np.nan))
        return super().d2h(dst, src, stream)

    def gemm(self, c, a, b, stream, **kw):
        from repro.execution.base import as_view

        av = as_view(a)
        self._arm(lambda: self._data(av).__setitem__((0, 0), np.nan))
        return super().gemm(c, a, b, stream, **kw)

    def panel_qr(self, panel, r_out, stream, **kw):
        pv = as_view_local(panel)
        self._arm(lambda: self._data(pv).__setitem__((0, 0), np.nan))
        return super().panel_qr(panel, r_out, stream, **kw)


def as_view_local(buf):
    from repro.execution.base import as_view

    return as_view(buf)


class PoisonSerial(PoisonMixin, NumericExecutor):
    pass


class PoisonThreads(PoisonMixin, GraphBuilder):
    pass


def _poisoned_qr(driver, ex):
    a = HostMatrix.from_array(
        default_rng(4).standard_normal((96, 48)).astype(np.float32)
    )
    r = HostMatrix.zeros(48, 48)
    try:
        driver(ex, a, r, QrOptions(blocksize=16))
        ex.synchronize()
    finally:
        ex.close()


@pytest.mark.parametrize("driver", [ooc_recursive_qr, ooc_blocking_qr],
                         ids=["recursive", "blocking"])
class TestNanInjection:
    def _make(self, cls, poison_at=None):
        ex = cls(fp32_config(), poison_at=poison_at)
        ex.health = HealthSentinel(HealthOptions(mode="monitor"))
        return ex

    def test_every_op_index_raises_typed_serial(self, driver):
        probe = self._make(PoisonSerial)
        _poisoned_qr(driver, probe)
        total = probe.op_counter
        assert total > 10

        for poison_at in range(1, total + 1):
            ex = self._make(PoisonSerial, poison_at=poison_at)
            with pytest.raises(NumericalError):
                _poisoned_qr(driver, ex)
            ex.allocator.check_balanced()

    def test_op_index_spread_raises_typed_concurrent(self, driver):
        probe = self._make(PoisonSerial)
        _poisoned_qr(driver, probe)
        total = probe.op_counter

        for poison_at in {1, 2, total // 3, total // 2, total - 1, total}:
            if poison_at < 1:
                continue
            ex = self._make(PoisonThreads, poison_at=poison_at)
            with pytest.raises(NumericalError):
                _poisoned_qr(driver, ex)
            ex.allocator.check_balanced()

    def test_escalate_mode_also_refuses_nan(self, driver):
        ex = self._make(PoisonSerial)
        ex.health = HealthSentinel(HealthOptions(mode="escalate"))
        _poisoned_qr(driver, ex)  # clean run counts ops
        ex2 = PoisonSerial(fp32_config(), poison_at=ex.op_counter // 2)
        ex2.health = HealthSentinel(HealthOptions(mode="escalate"))
        with pytest.raises(NumericalError):
            _poisoned_qr(driver, ex2)
        ex2.allocator.check_balanced()


class TestNanThroughPublicApi:
    def test_nan_input_refused_with_report(self):
        a = default_rng(0).standard_normal((64, 32)).astype(np.float32)
        a[10, 3] = np.nan
        for concurrency in ("serial", "threads"):
            with pytest.raises(NonFiniteError) as exc:
                ooc_qr(
                    a, config=fp32_config(), options=health_opts("monitor"),
                    concurrency=concurrency,
                )
            assert exc.value.report is not None
            assert exc.value.report.probes_run > 0

    def test_without_sentinel_guard_still_typed_but_no_report(self):
        """Documents the contract: the CGS norm guard is always armed (it
        costs nothing), but probe reports only exist when health is on."""
        a = default_rng(0).standard_normal((64, 32)).astype(np.float32)
        a[10, 3] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            ooc_qr(a, config=fp32_config(), options=OPTS)
        assert exc.value.report is None


# ---------------------------------------------------------------------------
# serve: poison-job quarantine


class TestQuarantine:
    def test_poison_job_fails_once_with_report(self):
        cfg = fp32_config()
        a = default_rng(0).standard_normal((64, 32)).astype(np.float32)
        a[5, 5] = np.nan
        svc = FactorService(cfg, n_workers=1, max_retries=3,
                           backoff_base_s=0.001)
        try:
            h = svc.submit(
                JobSpec("qr", (a,), options=health_opts("monitor"),
                        name="poison")
            )
            with pytest.raises(NumericalError):
                h.result(timeout=60)
            assert h.state is JobState.FAILED
            assert h.attempts == 1          # quarantined: never retried
            assert h.exception().report is not None
            snap = svc.snapshot_metrics()
            assert snap["jobs_quarantined"]["value"] == 1
            assert snap["jobs_failed"]["value"] == 1
            assert snap["job_retries"]["value"] == 0
        finally:
            svc.close()

    def test_healthy_jobs_unaffected_and_escalations_counted(self):
        cfg = SystemConfig(
            gpu=make_tiny_spec(1 << 20), precision=Precision.TC_FP16
        )
        svc = FactorService(cfg, n_workers=1, cache=False)
        try:
            good = svc.submit(
                JobSpec(
                    "qr",
                    (default_rng(1).standard_normal((64, 32)).astype(np.float32),),
                    options=health_opts("monitor"), name="good",
                )
            )
            res = good.result(timeout=60)
            assert res.health is not None
            bad = svc.submit(
                JobSpec("qr", (conditioned_matrix(1e8),),
                        options=health_opts("escalate"), name="ill")
            )
            res_bad = bad.result(timeout=60)
            assert res_bad.health.n_escalations >= 1
            snap = svc.snapshot_metrics()
            assert snap["escalations_total"]["value"] >= 1
            assert snap["jobs_quarantined"]["value"] == 0
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# checkpoint: resumed escalation state, config-mismatch refusal


class TestCheckpointIntegration:
    def _run(self, ex, a_np, ckdir, opts):
        a = HostMatrix.from_array(a_np.copy())
        r = HostMatrix.zeros(N, N)
        cfg = ex.config
        fp = run_fingerprint("qr", "recursive", M, N, cfg, opts)
        session = CheckpointSession(
            CheckpointManager(CheckpointConfig(str(ckdir)), fingerprint=fp),
            ex,
            {"a": a, "r": r},
        )
        ooc_recursive_qr(ex, a, r, opts, checkpoint=session)
        ex.synchronize()
        return a, r, session

    def test_resume_restores_escalation_state_bitwise(self, tmp_path):
        from tests.test_fault_injection import FaultyExecutor, InjectedFault

        opts = health_opts("escalate")
        a_np = conditioned_matrix(1e8)
        cfg = fp16_config()

        def make_ex(fail_at=None):
            ex = FaultyExecutor(cfg, fail_at=fail_at)
            ex.health = HealthSentinel(
                opts.health, base_format=cfg.precision.input_format
            )
            return ex

        ref_ex = make_ex()
        q_ref, r_ref, _ = self._run(ref_ex, a_np, tmp_path / "ref", opts)
        total = ref_ex.op_counter
        assert ref_ex.health.finalize().n_escalations >= 1

        # crash after the first escalation already happened, then resume
        for fail_at in (total // 2, 2 * total // 3, total - 1):
            ckdir = tmp_path / f"ck-{fail_at}"
            ex = make_ex(fail_at=fail_at)
            with pytest.raises(InjectedFault):
                self._run(ex, a_np, ckdir, opts)

            resumed = make_ex()
            q, r, session = self._run(resumed, a_np, ckdir, opts)
            assert session.stats.resumes == 1
            np.testing.assert_array_equal(q.data, q_ref.data)
            np.testing.assert_array_equal(r.data, r_ref.data)
            # the resumed sentinel carried the escalation state over
            report = resumed.health.finalize()
            assert report.gemm_format_override == "fp32"

    def test_health_config_mismatch_refused(self, tmp_path):
        cfg = fp16_config()
        a_np = conditioned_matrix(1e8)
        ex = NumericExecutor(cfg)
        opts = health_opts("escalate")
        ex.health = HealthSentinel(
            opts.health, base_format=cfg.precision.input_format
        )
        self._run(ex, a_np, tmp_path, opts)
        ex.close()

        # same directory, different health options -> config mismatch
        ex2 = NumericExecutor(cfg)
        with pytest.raises(CheckpointError) as exc:
            self._run(ex2, a_np, tmp_path, OPTS)
        assert exc.value.reason == "config-mismatch"
        ex2.close()

    def test_public_api_checkpointed_health_run(self, tmp_path):
        a = conditioned_matrix(1e8)
        opts = health_opts("escalate")
        first = ooc_qr(
            a, config=fp16_config(), options=opts,
            checkpoint=CheckpointConfig(str(tmp_path)),
        )
        again = ooc_qr(
            a, config=fp16_config(), options=opts,
            checkpoint=CheckpointConfig(str(tmp_path)),
        )
        assert again.ckpt.resumes == 1
        np.testing.assert_array_equal(first.q, again.q)
        np.testing.assert_array_equal(first.r, again.r)
        assert again.health.gemm_format_override == "fp32"


# ---------------------------------------------------------------------------
# refinement divergence + CGS guard taxonomy


class TestRefineDivergence:
    def test_lstsq_stops_on_nonfinite_residual(self):
        from repro.solve.refine import lstsq_ooc

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 32)).astype(np.float32)
        b = rng.standard_normal(64)
        b[7] = np.nan
        res = lstsq_ooc(a, b, config=fp32_config(), blocksize=16, max_iters=5)
        assert res.diverged and not res.converged
        assert len(res.residual_history) == 1  # stopped immediately

    def test_spd_solver_stops_on_nonfinite_residual(self):
        from repro.factor.incore import spd_matrix
        from repro.solve.refine import solve_spd_ooc

        a = spd_matrix(48, seed=2)
        b = np.ones(48)
        b[0] = np.inf
        res = solve_spd_ooc(a, b, config=fp32_config(), blocksize=16)
        assert res.diverged and not res.converged

    def test_healthy_solves_do_not_report_divergence(self):
        from repro.factor.incore import spd_matrix
        from repro.solve.refine import solve_spd_ooc

        a = spd_matrix(48, seed=2)
        res = solve_spd_ooc(a, np.ones(48), config=fp32_config(), blocksize=16)
        assert res.converged and not res.diverged


class TestCgsGuardTaxonomy:
    def test_nonfinite_norm_is_typed(self):
        a = np.ones((16, 4), dtype=np.float32)
        a[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            cgs2_qr(a)

    def test_dependent_columns_still_match_legacy_message(self):
        a = np.ones((16, 3), dtype=np.float32)
        with pytest.raises(BreakdownError, match="dependent") as exc:
            cgs2_qr(a)
        # compatibility: BreakdownError is both taxonomies
        assert isinstance(exc.value, NumericalError)
        assert isinstance(exc.value, ValidationError)


# ---------------------------------------------------------------------------
# CLI surface


class TestCli:
    def test_health_flag_prints_summary(self, capsys):
        from repro.cli import main

        rc = main([
            "qr", "-m", "64", "-n", "32", "-b", "16", "--mode", "numeric",
            "--method", "recursive", "--health", "monitor",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "health[monitor]:" in out

    def test_health_requires_numeric(self, capsys):
        from repro.cli import main

        rc = main(["qr", "-m", "64", "-n", "32", "--health", "monitor"])
        assert rc == 2
        assert "numeric" in capsys.readouterr().err
