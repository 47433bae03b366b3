"""Pinned health reports of fp16 out-of-core QR runs.

Each case factors a 4096×128 matrix with logspaced singular values
(κ ∈ {1, 1e4, 1e8}) in 32-column panels on a 1 MiB ``bench_spec`` device
with emulated fp16 TensorCore GEMMs, under the monitor or escalate
sentinel and the recursive or blocking driver, and compares its
:class:`~repro.health.report.HealthReport` against a pinned value: the
probe tallies, the quantization overflow/underflow counts, every
escalation's ``(panel, trigger, action)`` and the GEMM format override
exactly; ``worst_drift`` and the escalation values to a relative 1e-12
(a probe may sum its fp64 terms in another order without changing a
decision).

The reports depend on BLAS summation order like the Q/R digests, so the
tests run only in the environment of :mod:`tests.test_qr_golden`
(``PINNED_ENV``) and skip elsewhere. Run this file as a script to print
the current reports for a deliberate re-pin::

    PYTHONPATH=src python -m tests.test_health_pin
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.concurrency import bench_spec
from repro.config import SystemConfig
from repro.health import HealthOptions
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.util.rng import stable_seed
from tests.test_qr_golden import PINNED_ENV, _environment

SHAPE = (4096, 128)
BLOCK = 32
KAPPAS = (1.0, 1e4, 1e8)
MODES = ("monitor", "escalate")
METHODS = ("recursive", "blocking")


def _matrix(kappa: float) -> np.ndarray:
    """Random matrix with logspaced singular values 1 .. 1/kappa."""
    m, n = SHAPE
    rng = np.random.default_rng(stable_seed("health-pin", kappa))
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.logspace(0, -np.log10(kappa), n)
    return ((u * sv) @ v.T).astype(np.float32)


def _report(kappa: float, mode: str, method: str) -> dict:
    cfg = SystemConfig(gpu=bench_spec(1 << 20), precision=Precision.TC_FP16)
    res = ooc_qr(
        _matrix(kappa),
        config=cfg,
        method=method,
        options=QrOptions(blocksize=BLOCK, health=HealthOptions(mode=mode)),
    )
    h = res.health
    return {
        "drift_events": h.drift_events,
        "probes_run": h.probes_run,
        "panel_probes": h.panel_probes,
        "overflow": h.overflow_count,
        "underflow": h.underflow_count,
        "escalations": [(e.panel, e.trigger, e.action) for e in h.escalations],
        "gemm_format_override": h.gemm_format_override,
        "worst_drift": h.worst_drift,
        "values": [e.value for e in h.escalations],
    }


def _case(kappa: float, mode: str, method: str) -> str:
    return f"kappa={kappa:g} {mode} {method}"


CASES = {
    _case(k, mode, method): (k, mode, method)
    for k in KAPPAS
    for mode in MODES
    for method in METHODS
}

#: case -> report (see ``_report``)
PINNED: dict[str, dict] = {
    'kappa=1 escalate blocking': {'drift_events': 0, 'probes_run': 168, 'panel_probes': 7, 'overflow': 0, 'underflow': 36, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 1.9193485031182567e-05, 'values': []},
    'kappa=1 escalate recursive': {'drift_events': 0, 'probes_run': 173, 'panel_probes': 7, 'overflow': 0, 'underflow': 37, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 1.8715646165736247e-05, 'values': []},
    'kappa=1 monitor blocking': {'drift_events': 0, 'probes_run': 168, 'panel_probes': 7, 'overflow': 0, 'underflow': 36, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 1.9193485031182567e-05, 'values': []},
    'kappa=1 monitor recursive': {'drift_events': 0, 'probes_run': 173, 'panel_probes': 7, 'overflow': 0, 'underflow': 37, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 1.8715646165736247e-05, 'values': []},
    'kappa=10000 escalate blocking': {'drift_events': 2, 'probes_run': 168, 'panel_probes': 7, 'overflow': 0, 'underflow': 29, 'escalations': [(2, 'cross-drift', 'block-reorth'), (2, 'cross-drift', 'gemm-fp32'), (3, 'cross-drift', 'block-reorth')], 'gemm_format_override': 'fp32', 'worst_drift': 0.1427460339595584, 'values': [0.038109118044893704, 0.0, 0.1427460339595584]},
    'kappa=10000 escalate recursive': {'drift_events': 2, 'probes_run': 174, 'panel_probes': 7, 'overflow': 0, 'underflow': 3, 'escalations': [(2, 'cross-drift', 'block-reorth'), (2, 'cross-drift', 'gemm-fp32'), (3, 'cross-drift', 'block-reorth')], 'gemm_format_override': 'fp32', 'worst_drift': 0.39609056133364867, 'values': [0.33368006073308176, 0.0, 0.39609056133364867]},
    'kappa=10000 monitor blocking': {'drift_events': 2, 'probes_run': 168, 'panel_probes': 7, 'overflow': 0, 'underflow': 29, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 0.1427460339595584, 'values': []},
    'kappa=10000 monitor recursive': {'drift_events': 2, 'probes_run': 173, 'panel_probes': 7, 'overflow': 0, 'underflow': 27, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 0.3363556582733721, 'values': []},
    'kappa=1e+08 escalate blocking': {'drift_events': 3, 'probes_run': 168, 'panel_probes': 7, 'overflow': 0, 'underflow': 80, 'escalations': [(1, 'cross-drift', 'block-reorth'), (1, 'cross-drift', 'gemm-fp32'), (2, 'cross-drift', 'block-reorth'), (3, 'cross-drift', 'block-reorth')], 'gemm_format_override': 'fp32', 'worst_drift': 0.410160688580017, 'values': [0.3680060791104995, 0.0, 0.410160688580017, 0.4036376271014234]},
    'kappa=1e+08 escalate recursive': {'drift_events': 2, 'probes_run': 174, 'panel_probes': 7, 'overflow': 0, 'underflow': 1, 'escalations': [(1, 'cross-drift', 'block-reorth'), (1, 'cross-drift', 'gemm-fp32'), (2, 'reorth-sticky', 'block-reorth'), (3, 'cross-drift', 'block-reorth')], 'gemm_format_override': 'fp32', 'worst_drift': 0.3680060791104995, 'values': [0.3680060791104995, 0.0, 0.002026181979471264, 0.027196345247431253]},
    'kappa=1e+08 monitor blocking': {'drift_events': 3, 'probes_run': 168, 'panel_probes': 7, 'overflow': 0, 'underflow': 1512, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 0.410160688580017, 'values': []},
    'kappa=1e+08 monitor recursive': {'drift_events': 3, 'probes_run': 173, 'panel_probes': 7, 'overflow': 0, 'underflow': 10, 'escalations': [], 'gemm_format_override': None, 'worst_drift': 0.6293031612962512, 'values': []},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_health_report_pinned(case):
    env = _environment()
    if env != PINNED_ENV:
        pytest.skip(
            f"reports were pinned in {PINNED_ENV}, this is {env}; print a "
            "re-pin with `PYTHONPATH=src python -m tests.test_health_pin`"
        )
    got = _report(*CASES[case])
    want = PINNED[case]
    exact = ("drift_events", "probes_run", "panel_probes", "overflow",
             "underflow", "escalations", "gemm_format_override")
    assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
    assert got["worst_drift"] == pytest.approx(want["worst_drift"], rel=1e-12)
    assert got["values"] == pytest.approx(want["values"], rel=1e-12)


if __name__ == "__main__":
    print(f"PINNED_ENV = {_environment()!r}")
    print("PINNED: dict[str, dict] = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {_report(*CASES[name])!r},")
    print("}")
