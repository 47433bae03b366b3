"""CholQR2 panel: its acceptance rule and the stability contract.

The default panel (``panel_algorithm="cholqr2"``) runs CholQR2 and falls
back, per panel, to the paper's recursive-CGS panel whenever the rule in
:func:`repro.qr.incore.cholqr2` rejects the input. These tests pin what
that promises:

* well-conditioned panels (κ ≤ 1e3) take the CholQR2 rung and reach
  ``‖QᵀQ − I‖ ≤ 1e-5``;
* ill-conditioned panels (κ ≥ 1e5) fall back, emit exactly one
  ``panel-fallback`` event per panel, and are bitwise equal to the
  explicit recursive-CGS panel;
* breakdown and non-finite inputs still raise the typed errors, and the
  health ladder walks as it does under the recursive-CGS panel;
* a checkpoint written under the other panel is refused, and the serve
  cache keys the two panels apart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import conditioned, random_tall
from repro.ckpt import CheckpointConfig
from repro.config import SystemConfig
from repro.errors import (
    BreakdownError,
    CheckpointError,
    NonFiniteError,
    PanelRejected,
)
from repro.health import HealthOptions
from repro.hw.gemm import Precision
from repro.obs import SpanRecorder
from repro.qr.api import ooc_qr
from repro.qr.cgs import factorization_error, orthogonality_error
from repro.qr.incore import CHOLQR2_MAX_CORRECTION, cholqr2, incore_recursive_qr
from repro.qr.options import QrOptions
from repro.serve import JobSpec
from repro.serve.cache import job_cache_key
from tests.conftest import make_tiny_spec

M, B = 1024, 32


def cfg(panel_algorithm: str = "cholqr2") -> SystemConfig:
    return SystemConfig(
        gpu=make_tiny_spec(2 << 20),
        precision=Precision.TC_FP16,
        panel_algorithm=panel_algorithm,
    )


def fallbacks(obs: SpanRecorder) -> list:
    return [s for s in obs.spans() if s.name == "panel-fallback"]


def ill_panels(kappa: float, m: int = M, b: int = B) -> np.ndarray:
    """Four side-by-side independent κ-conditioned blocks: every b-wide
    panel stays ill-conditioned after projection against its
    predecessors."""
    return np.hstack([conditioned(m, b, kappa, seed=70 + i) for i in range(4)])


class TestCholQR2Kernel:
    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e3])
    def test_accepts_well_conditioned_panels(self, kappa):
        a = conditioned(M, 64, kappa, seed=71)
        q, r = cholqr2(a)
        assert q.dtype == r.dtype == np.float32
        assert orthogonality_error(q) <= 1e-5
        assert factorization_error(a, q, r) <= 1e-5
        np.testing.assert_array_equal(r, np.triu(r))

    @pytest.mark.parametrize("kappa", [1e5, 1e7])
    def test_rejects_ill_conditioned_panels(self, kappa):
        a = conditioned(M, 64, kappa, seed=71).astype(np.float32)
        before = a.copy()
        with pytest.raises(PanelRejected) as exc:
            cholqr2(a)
        assert exc.value.reason == "cholesky-failed"
        np.testing.assert_array_equal(a, before)  # input untouched

    def test_correction_bound_rejects_before_cholesky_fails(self):
        """Between κ≈5e3 and the Gram's loss of definiteness, the pass-2
        test is what rejects: ‖R2 − I‖_F exceeds the bound."""
        a = conditioned(16384, 64, 1e4, seed=0).astype(np.float32)
        before = a.copy()
        with pytest.raises(PanelRejected) as exc:
            cholqr2(a)
        assert exc.value.reason == "ill-conditioned"
        np.testing.assert_array_equal(a, before)  # the fallback's input
        measured = float(str(exc.value).rsplit("=", 1)[1])
        assert measured > CHOLQR2_MAX_CORRECTION

    def test_duplicated_column_rejected(self):
        """An exact duplicate either breaks the Cholesky or leaves a pivot
        the dependence test catches (which one depends on the Gram's
        last-bit rounding, so a spread of seeds exercises both)."""
        reasons = set()
        for seed in range(10):
            a = random_tall(M, 8, seed=seed)
            a[:, 3] = a[:, 1]
            with pytest.raises(PanelRejected) as exc:
                cholqr2(a)
            reasons.add(exc.value.reason)
        assert reasons == {"dependent-column", "cholesky-failed"}

    def test_non_finite_input_rejected(self):
        a = random_tall(M, 8, seed=73)
        a[5, 2] = np.nan
        with pytest.raises(PanelRejected):
            cholqr2(a)


class TestStabilityContract:
    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e3])
    def test_well_conditioned_takes_the_cholqr2_rung(self, kappa):
        a = conditioned(M, 64, kappa, seed=74)
        obs = SpanRecorder()
        res = ooc_qr(a, config=cfg(), blocksize=64, obs=obs)
        assert fallbacks(obs) == []
        assert orthogonality_error(res.q) <= 1e-5
        # one panel: the run's Q is the kernel's Q
        np.testing.assert_array_equal(res.q, cholqr2(a)[0])

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    @pytest.mark.parametrize("kappa", [1e5, 1e6, 1e7])
    def test_ill_conditioned_falls_back_bitwise(self, kappa, method):
        a = ill_panels(kappa)
        obs = SpanRecorder()
        res = ooc_qr(a, method=method, config=cfg(), blocksize=B, obs=obs)
        events = fallbacks(obs)
        assert len(events) == a.shape[1] // B  # exactly one per panel
        assert all(e.cat == "panel" and e.is_event for e in events)
        assert {e.attrs["shape"] for e in events} == {(M, B)}
        assert {e.attrs["reason"] for e in events} <= {
            "cholesky-failed", "ill-conditioned", "dependent-column",
            "non-finite",
        }
        ref = ooc_qr(a, method=method, config=cfg("recursive-cgs"), blocksize=B)
        np.testing.assert_array_equal(res.q, ref.q)
        np.testing.assert_array_equal(res.r, ref.r)

    def test_fallback_panel_is_the_recursive_cgs_panel(self):
        a = conditioned(M, 64, 1e6, seed=75)
        obs = SpanRecorder()
        res = ooc_qr(a, config=cfg(), blocksize=64, obs=obs)
        assert len(fallbacks(obs)) == 1
        q, r = incore_recursive_qr(a, input_format="fp16")
        np.testing.assert_array_equal(res.q, q)
        np.testing.assert_array_equal(res.r, r)

    def test_zero_column_raises_breakdown(self):
        a = random_tall(M, 64, seed=76)
        a[:, 40] = 0.0
        with pytest.raises(BreakdownError):
            ooc_qr(a, config=cfg(), blocksize=B)

    def test_nan_input_raises_non_finite(self):
        a = random_tall(M, 64, seed=77)
        a[100, 3] = np.nan
        with pytest.raises(NonFiniteError):
            ooc_qr(a, config=cfg(), blocksize=B)

    @pytest.mark.parametrize(
        "build, n_fallbacks",
        [
            # graded spectrum: each 16-wide panel is well enough
            # conditioned for CholQR2, the matrix is not
            (lambda: conditioned(192, 64, 1e8, seed=0), 0),
            # every panel ill-conditioned: all four fall back
            (lambda: ill_panels(1e6, m=192, b=16), 4),
        ],
        ids=["cholqr2-panels", "fallback-panels"],
    )
    def test_escalate_walks_the_same_ladder(self, build, n_fallbacks):
        """health=escalate on an ill-conditioned input records the same
        escalations, panel by panel, under both panel algorithms."""
        a = build()
        opts = QrOptions(blocksize=16, health=HealthOptions(mode="escalate"))
        obs = SpanRecorder()
        runs = {
            "cholqr2": ooc_qr(a, config=cfg(), options=opts, obs=obs),
            "recursive-cgs": ooc_qr(
                a, config=cfg("recursive-cgs"), options=opts
            ),
        }
        assert len(fallbacks(obs)) == n_fallbacks
        ladders = {
            algo: [(e.panel, e.trigger, e.action) for e in res.health.escalations]
            for algo, res in runs.items()
        }
        assert ladders["cholqr2"] == ladders["recursive-cgs"]
        assert ("cross-drift", "gemm-fp32") in {
            (trigger, action) for _, trigger, action in ladders["cholqr2"]
        }
        if n_fallbacks:
            np.testing.assert_array_equal(
                runs["cholqr2"].q, runs["recursive-cgs"].q
            )


class TestIdentity:
    def test_checkpoint_of_the_other_panel_is_refused(self, tmp_path):
        a = random_tall(256, 64, seed=78)
        ckpt = CheckpointConfig(str(tmp_path))
        ooc_qr(a, config=cfg("recursive-cgs"), blocksize=B, checkpoint=ckpt)
        with pytest.raises(CheckpointError) as exc:
            ooc_qr(a, config=cfg(), blocksize=B, checkpoint=ckpt)
        assert exc.value.reason == "config-mismatch"
        spec = JobSpec("qr", (a,))
        assert job_cache_key(spec, cfg(), 1 << 20) != job_cache_key(
            spec, cfg("recursive-cgs"), 1 << 20
        )
