"""Differential harness: serial numeric vs. threaded task DAG vs. simulator.

The contract under test:

* the eager serial executor and the threaded task-DAG executor
  (:class:`~repro.runtime.GraphBuilder`) produce **bitwise identical**
  Q/R/C outputs for the same plan — thread scheduling must not change a
  single ULP;
* the task graph the threaded run executes is **node-for-node** the
  simulator's program (same ops, same issue order), and every dataflow
  edge it derives agrees with the simulator's happens-before closure —
  the threaded scheduler honours the semantics the simulator (and race
  detector) reason about.

The simulator runs on the same backed matrices (it never touches data), so
one set of inputs drives all three backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.execution import NumericExecutor, SimExecutor
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer
from repro.ooc.inner import run_ksplit_inner
from repro.ooc.outer import run_rowstream_outer
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.runtime import GraphBuilder, edges_consistent, node_signature

from conftest import make_tiny_spec


def _config(mem_bytes: int = 1 << 20) -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(mem_bytes), precision=Precision.FP32)


def _qr_executors(config):
    return (
        NumericExecutor(config),
        GraphBuilder(config),
        SimExecutor(config),
    )


def _ops_of(ex) -> list:
    """The recorded op stream: the threaded run's task graph, or the
    simulator's stream program (the eager executor records none)."""
    if isinstance(ex, SimExecutor):
        return ex.sim.ops
    if isinstance(ex, GraphBuilder):
        return ex.graph.ops
    return []


def check_graph_matches_sim(ops: list) -> None:
    """The threaded run's graph (``ops[1]``) is node-for-node the
    simulator's program (``ops[2]``), with consistent edges."""
    graph_ops, sim_ops = ops[1], ops[2]
    assert node_signature(graph_ops) == node_signature(sim_ops)
    assert edges_consistent(graph_ops, sim_ops), "threads vs simulator graph"


QR_GRID = [
    # (rows, cols, options)
    (96, 64, QrOptions(blocksize=32)),
    (128, 64, QrOptions(blocksize=16)),
    (64, 64, QrOptions(blocksize=32, pipelined=False)),
    (96, 64, QrOptions(blocksize=32, staging_buffer=False)),
    (128, 32, QrOptions(blocksize=32, reuse_inner_result=False)),
    (96, 48, QrOptions(blocksize=16, qr_level_overlap=False)),
]


class TestQrDifferential:
    """Both QR drivers, across the shape/options grid."""

    @pytest.mark.parametrize("driver", [ooc_recursive_qr, ooc_blocking_qr])
    @pytest.mark.parametrize("rows,cols,options", QR_GRID)
    def test_three_executors_agree(self, driver, rows, cols, options, rng):
        config = _config()
        a0 = rng.standard_normal((rows, cols)).astype(np.float32)
        outputs, ops = [], []
        for ex in _qr_executors(config):
            a = HostMatrix.from_array(a0.copy(), name="A")
            r = HostMatrix.zeros(cols, cols, name="R")
            try:
                driver(ex, a, r, options)
                ex.synchronize()
            finally:
                ex.close()
            ops.append(_ops_of(ex))
            if not isinstance(ex, SimExecutor):
                outputs.append((a.data.copy(), r.data.copy()))

        serial, threaded = outputs
        assert np.array_equal(serial[0], threaded[0]), "Q differs"
        assert np.array_equal(serial[1], threaded[1]), "R differs"
        check_graph_matches_sim(ops)


class TestGemmDifferential:
    """Both OOC GEMM engines, serial vs. threads vs. sim."""

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_ksplit_inner(self, pipelined, rng):
        config = _config()
        a0 = rng.standard_normal((128, 64)).astype(np.float32)
        b0 = rng.standard_normal((128, 48)).astype(np.float32)
        budget = None
        outputs, ops = [], []
        for ex in _qr_executors(config):
            a = HostMatrix.from_array(a0.copy(), name="A")
            b = HostMatrix.from_array(b0.copy(), name="B")
            c = HostMatrix.zeros(64, 48, name="C")
            if budget is None:
                budget = ex.allocator.free_bytes // config.element_bytes
            plan = plan_ksplit_inner(128, 64, 48, 32, budget)
            try:
                run_ksplit_inner(
                    ex, a.full(), b.full(), c.full(), plan, pipelined=pipelined
                )
                ex.synchronize()
            finally:
                ex.close()
            ops.append(_ops_of(ex))
            if not isinstance(ex, SimExecutor):
                outputs.append(c.data.copy())

        assert np.array_equal(outputs[0], outputs[1])
        check_graph_matches_sim(ops)

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_rowstream_outer(self, pipelined, rng):
        config = _config()
        a0 = rng.standard_normal((96, 32)).astype(np.float32)
        b0 = rng.standard_normal((32, 48)).astype(np.float32)
        c0 = rng.standard_normal((96, 48)).astype(np.float32)
        budget = None
        outputs, ops = [], []
        for ex in _qr_executors(config):
            a = HostMatrix.from_array(a0.copy(), name="A")
            b = HostMatrix.from_array(b0.copy(), name="B")
            c = HostMatrix.from_array(c0.copy(), name="C")
            if budget is None:
                budget = ex.allocator.free_bytes // config.element_bytes
            plan = plan_rowstream_outer(96, 32, 48, 32, budget)
            try:
                run_rowstream_outer(
                    ex, c.full(), a.full(), b.full(), plan, pipelined=pipelined
                )
                ex.synchronize()
            finally:
                ex.close()
            ops.append(_ops_of(ex))
            if not isinstance(ex, SimExecutor):
                outputs.append(c.data.copy())

        assert np.array_equal(outputs[0], outputs[1])
        check_graph_matches_sim(ops)

    def test_api_serial_vs_threads_bitwise(self, rng):
        config = _config()
        a = rng.standard_normal((256, 96)).astype(np.float32)
        b = rng.standard_normal((256, 64)).astype(np.float32)
        serial = ooc_gemm(a, b, trans_a=True, config=config, blocksize=32)
        threads = ooc_gemm(
            a, b, trans_a=True, config=config, blocksize=32,
            concurrency="threads",
        )
        assert np.array_equal(serial.c, threads.c)
        # numeric runs carry no simulated trace; makespan is measured wall
        assert serial.trace is None and threads.trace is None
        assert threads.makespan == threads.stats.wall_s > 0.0


class TestNumericTimingRegression:
    """Regression (ISSUE satellite 4): numeric-mode results used to report
    makespan/achieved_tflops as silently 0.0."""

    def test_gemm_wall_clock_figures(self, rng):
        from repro.qr.api import ooc_qr

        config = _config()
        a = rng.standard_normal((128, 64)).astype(np.float32)
        b = rng.standard_normal((128, 48)).astype(np.float32)
        for concurrency in ("serial", "threads"):
            res = ooc_gemm(
                a, b, trans_a=True, config=config, blocksize=32,
                concurrency=concurrency,
            )
            assert res.makespan > 0.0
            assert res.achieved_tflops > 0.0
            assert res.stats.wall_s > 0.0
        qr = ooc_qr(a, config=config, blocksize=32)
        assert qr.makespan > 0.0 and qr.achieved_tflops > 0.0
