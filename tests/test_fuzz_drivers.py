"""Seeded fuzzing of all six OOC drivers in simulation mode.

For random (shape, blocksize, memory budget) configurations, every driver
must either produce a structurally valid, race-free simulated run with
sane traffic accounting — or fail *cleanly* with a library error (never a
wrong result, never a leak, never an engine/causality violation).

Each case's configuration is drawn from a generator seeded with
:func:`repro.util.rng.stable_seed` over the (driver, case-index) values —
*not* from pytest collection order or hypothesis test-id entropy — so the
``runtime`` parametrization axis (legacy sim executor vs DAG runtime +
simulated backend) replays the *same* configurations on both paths, and
adding further axes cannot reshuffle existing cases.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.execution.sim import SimExecutor
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.obs.derive import run_summary
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.sim.race import assert_race_free
from repro.util.rng import default_rng, stable_seed
from tests.conftest import make_tiny_spec

DRIVERS = {
    "qr-recursive": ("qr", ooc_recursive_qr),
    "qr-blocking": ("qr", ooc_blocking_qr),
    "lu-recursive": ("lu", ooc_recursive_lu),
    "lu-blocking": ("lu", ooc_blocking_lu),
    "chol-recursive": ("chol", ooc_recursive_cholesky),
    "chol-blocking": ("chol", ooc_blocking_cholesky),
}

N_CASES = 8
RUNTIMES = ["legacy", "dag"]


def case_config(name: str, case: int) -> dict:
    """The fuzz configuration for (driver, case) — a pure function of the
    two values (the runtime axis deliberately does not enter the seed, so
    both runtimes replay identical configurations)."""
    rng = default_rng(stable_seed("fuzz-drivers", name, case))
    return {
        "n": int(rng.choice([64, 96, 128, 192, 256])),
        "extra_rows": int(rng.choice([0, 32, 128])),
        "b": int(rng.choice([16, 32, 48, 64])),
        "mem_kib": int(rng.choice([192, 384, 1024, 4096])),
        "pipelined": bool(rng.integers(0, 2)),
        "overlap": bool(rng.integers(0, 2)),
        "reuse": bool(rng.integers(0, 2)),
        "staging": bool(rng.integers(0, 2)),
    }


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("case", range(N_CASES))
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_fuzz_driver(name, case, runtime):
    kind, driver = DRIVERS[name]
    cfg = case_config(name, case)
    n = cfg["n"]
    m = n if kind == "chol" else n + cfg["extra_rows"]
    b = min(cfg["b"], n)
    system = SystemConfig(
        gpu=make_tiny_spec(cfg["mem_kib"] << 10, name="fuzz"),
        precision=Precision.FP32,
    )
    options = QrOptions(
        blocksize=b,
        pipelined=cfg["pipelined"],
        qr_level_overlap=cfg["overlap"],
        reuse_inner_result=cfg["reuse"],
        staging_buffer=cfg["staging"],
    )
    if runtime == "legacy":
        ex = SimExecutor(system)
    else:
        from repro.runtime import GraphBuilder

        ex = GraphBuilder(
            system, label=f"fuzz-{name}-{case}", materialize=False
        )
    a = HostMatrix.shape_only(m, n, system.element_bytes, name="A")

    try:
        if kind == "qr":
            r = HostMatrix.shape_only(n, n, system.element_bytes, name="R")
            driver(ex, a, r, options)
        else:
            driver(ex, a, options)
    except ReproError:
        # clean refusal (e.g. the panel cannot fit) is acceptable; leaks
        # of completed allocations are not checked on this path because
        # the driver aborted mid-flight
        return

    if runtime == "legacy":
        trace = ex.finish()
    else:
        from repro.runtime import SimGraphBackend

        trace = SimGraphBackend(system).run(ex.graph)
    ex.allocator.check_balanced()
    trace.check_engine_serial()
    trace.check_causality()
    assert_race_free(trace)

    # traffic sanity: the referenced part of the matrix must be read at
    # least once and the factors written back. Cholesky only touches the
    # panels of the lower trapezoid plus the trailing squares (~half the
    # matrix for wide blocksizes); QR and LU stream everything.
    matrix_bytes = m * n * system.element_bytes
    floor = matrix_bytes // 3 if kind == "chol" else matrix_bytes
    assert ex.stats.h2d_bytes >= floor
    assert ex.stats.d2h_bytes >= floor // 2
    # compute sanity: panels ran, and the makespan is bounded below by the
    # busiest engine
    assert ex.stats.n_panels >= 1
    busiest = max(run_summary(trace.spans()).lane_busy_s.values(), default=0.0)
    assert trace.makespan >= busiest - 1e-12


def test_case_configs_are_stable():
    # the anchor property of the seeding scheme: known (driver, case)
    # pairs map to fixed configurations forever — reordering tests or
    # adding parametrization axes cannot change them
    assert case_config("qr-recursive", 0) == case_config("qr-recursive", 0)
    assert case_config("qr-recursive", 0) != case_config("qr-blocking", 0)
    seen = {
        (name, case): tuple(sorted(case_config(name, case).items()))
        for name in DRIVERS
        for case in range(N_CASES)
    }
    # at least half the grid must be distinct configurations
    assert len(set(seen.values())) > len(seen) // 2
