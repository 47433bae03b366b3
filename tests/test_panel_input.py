"""The panel-input contract the health sentinel's panel probe relies on.

``NumericExecutor``'s ``panel_qr`` body hands the device panel itself to
:meth:`~repro.health.sentinel.HealthSentinel.after_panel`, not a copy: the
probe reads the input's column norms from it and the escalation ladder's
TSQR rung refactors from it. That is sound only because every panel
algorithm returns new arrays and leaves its input untouched — CholQR2
also when its acceptance rule rejects the panel and the recursive-CGS
panel factors it instead — and because the body overwrites the panel only
after the probe returns. These tests pin both halves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import conditioned
from repro.config import SystemConfig
from repro.execution.numeric import NumericExecutor
from repro.health import HealthOptions, HealthSentinel
from repro.hw.gemm import Precision
from repro.obs import SpanRecorder
from repro.qr.tsqr import tsqr
from tests.conftest import make_tiny_spec

M, B = 1024, 32


def _executor(panel_algorithm: str) -> NumericExecutor:
    ex = NumericExecutor(
        SystemConfig(
            gpu=make_tiny_spec(2 << 20),
            precision=Precision.TC_FP16,
            panel_algorithm=panel_algorithm,
        )
    )
    ex.obs = SpanRecorder()
    return ex


def _panels() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((M, 3 * B)).astype(np.float32)
    return {
        "gaussian": rng.standard_normal((M, B)).astype(np.float32),
        "fortran-order": np.asfortranarray(
            rng.standard_normal((M, B)).astype(np.float32)
        ),
        # a column slice of a wider buffer, as device views are
        "column-view": wide[:, B : 2 * B],
        # CholQR2 rejects it: the recursive-CGS fallback factors it
        "ill-conditioned": conditioned(M, B, 1e7, seed=3).astype(np.float32),
    }


@pytest.mark.parametrize("panel", sorted(_panels()))
@pytest.mark.parametrize("algo", SystemConfig.PANEL_ALGORITHMS)
def test_factorize_panel_leaves_input_untouched(algo, panel):
    a = _panels()[panel]
    base = a.base if a.base is not None else a
    before = base.copy()
    ex = _executor(algo)
    q, r = ex._factorize_panel(a)
    assert q.shape == a.shape and r.shape == (B, B)
    assert not np.shares_memory(q, base) and not np.shares_memory(r, base)
    np.testing.assert_array_equal(base.view(np.uint32), before.view(np.uint32))
    fell_back = [s for s in ex.obs.spans() if s.name == "panel-fallback"]
    assert len(fell_back) == (algo == "cholqr2" and panel == "ill-conditioned")


def test_escalate_tsqr_rung_refactors_the_original_panel(monkeypatch):
    """A panel that stays drifted through the reorthogonalization rung is
    refactored by TSQR from the panel as it was before ``panel_qr``."""
    ex = _executor("cholqr2")
    ex.health = HealthSentinel(HealthOptions(mode="escalate"), base_format="fp32")
    a = _panels()["gaussian"]

    def drifted(x):  # "Q" = the input's columns reversed: far from orthonormal
        return x[:, ::-1].copy(), np.eye(x.shape[1], dtype=np.float32)

    monkeypatch.setattr(ex, "_factorize_panel", drifted)
    panel, r_out = ex.alloc(M, B, "panel"), ex.alloc(B, B, "r")
    panel.payload["data"][...] = a
    ex.panel_qr(panel, r_out, ex.stream("compute"))

    assert [e.action for e in ex.health.report.escalations] == [
        "cgs2-reorth", "tsqr-panel",
    ]
    q3, r3 = tsqr(a.astype(np.float64))
    np.testing.assert_array_equal(panel.payload["data"], q3.astype(np.float32))
    np.testing.assert_array_equal(r_out.payload["data"], r3.astype(np.float32))
