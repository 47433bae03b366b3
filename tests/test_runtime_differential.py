"""Differential equivalence: the task DAG vs the eager serial executor.

Every engine (blocking, recursive and TSQR-panel QR, both OOC GEMM
engines, LU and Cholesky) runs the same problem eagerly and as a task
graph — replayed serially in emission order, and on the work-stealing
threads of ``concurrency="threads"``, on power-of-two and ragged shapes —
and the results must be *bitwise* identical. On top of the numeric
identity, recorded programs must be node-for-node comparable: the task
graph emits exactly the ops the simulator's stream program records, in
the same order, and every dataflow edge the graph derives is ordered the
same way by the stream program's happens-before closure.

Finally, ``verify_program`` must accept the task graphs —
race-free, leak-free, exact peak within budget, §3.2 transfer volume.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import ENGINE_BINDINGS, verify_engine, verify_program
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ValidationError
from repro.execution import SimExecutor
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.qr.api import ooc_qr
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.runtime import (
    GRAPH_BUILDERS,
    DagScheduler,
    GraphBuilder,
    SimGraphBackend,
    build_engine_graph,
    edges_consistent,
    node_signature,
)
from repro.sim.trace import Trace
from repro.util.rng import default_rng, stable_seed
from tests.conftest import make_tiny_spec

#: (tag, m, n) QR shapes: power-of-two and ragged (non-multiple of b).
QR_SHAPES = [("pow2", 128, 64), ("ragged", 150, 70)]
#: (tag, m, n, k) GEMM shapes.
GEMM_SHAPES = [("pow2", 64, 64, 128), ("ragged", 90, 70, 130)]
BLOCK = 16
#: How the task graph is scheduled: replayed in emission order, or on the
#: work-stealing threads.
CONCURRENCY = ["serial", "threads"]
#: Registry engines by kind (together, the whole registry).
QR_GEMM_ENGINES = ["qr-blocking", "qr-recursive", "qr-tsqr", "gemm-inner",
                   "gemm-outer"]
FACTOR_ENGINES = ["lu-blocking", "lu-recursive", "chol-blocking",
                  "chol-recursive"]


def _config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)


def _matrix(*parts, shape) -> np.ndarray:
    rng = default_rng(stable_seed("runtime-differential", *parts))
    return rng.standard_normal(shape).astype(np.float32)


def _simulated_ops(name, cfg, dims, b):
    """The simulator's stream program for registry binding *name*."""
    ex = SimExecutor(cfg)
    ENGINE_BINDINGS[name].run(ex, dims, b)
    ex.finish()
    return ex.sim.ops


def _on_dag(monkeypatch, concurrency, fn, *args, **kwargs):
    """*fn* with ``concurrency="threads"``: its task graph runs on worker
    threads, or (``concurrency="serial"``) replays in emission order."""
    if concurrency == "serial":
        monkeypatch.setattr(DagScheduler, "run_threaded", DagScheduler.run_serial)
    return fn(*args, concurrency="threads", **kwargs)


class TestQrBitwise:
    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_bitwise_identical(
        self, method, tag, m, n, concurrency, monkeypatch
    ):
        cfg = _config()
        a = _matrix("qr", method, tag, shape=(m, n))
        legacy = ooc_qr(a, method=method, config=cfg, blocksize=BLOCK)
        dag = _on_dag(
            monkeypatch, concurrency, ooc_qr,
            a, method=method, config=cfg, blocksize=BLOCK,
        )
        assert np.array_equal(legacy.q, dag.q)
        assert np.array_equal(legacy.r, dag.r)
        # identical movement accounting, not merely identical numbers
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes
        assert legacy.stats.n_panels == dag.stats.n_panels
        assert legacy.stats.n_gemms == dag.stats.n_gemms

    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_threads_trace_recorded(self, method):
        """The threaded scheduler stamps every graph op with its wall-clock
        start/end, and that measured schedule respects every dataflow edge."""
        cfg = _config()
        a = _matrix("qr-trace", method, shape=(128, 64))
        host_a = HostMatrix.from_array(a.copy(), name="A")
        host_r = HostMatrix.zeros(64, 64, name="R")
        builder = GraphBuilder(cfg, label=f"qr-{method}")
        driver = ooc_recursive_qr if method == "recursive" else ooc_blocking_qr
        # the driver's own synchronize() runs the graph on the threads
        driver(builder, host_a, host_r, QrOptions(blocksize=BLOCK))
        ops = builder.graph.ops
        assert ops and all(op.scheduled for op in ops)
        trace = Trace(ops)
        assert trace.makespan > 0.0
        trace.check_causality()
        legacy = ooc_qr(a, method=method, config=cfg, blocksize=BLOCK)
        assert np.array_equal(host_a.data, legacy.q)


class TestGemmBitwise:
    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n,k", GEMM_SHAPES)
    def test_inner_bitwise_identical(
        self, tag, m, n, k, concurrency, monkeypatch
    ):
        cfg = _config()
        a = _matrix("gemm-inner", tag, "a", shape=(k, m))
        b = _matrix("gemm-inner", tag, "b", shape=(k, n))
        legacy = ooc_gemm(a, b, trans_a=True, config=cfg, blocksize=32)
        dag = _on_dag(
            monkeypatch, concurrency, ooc_gemm,
            a, b, trans_a=True, config=cfg, blocksize=32,
        )
        assert np.array_equal(legacy.c, dag.c)
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes

    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n,k", GEMM_SHAPES)
    def test_outer_bitwise_identical(
        self, tag, m, n, k, concurrency, monkeypatch
    ):
        cfg = _config()
        a = _matrix("gemm-outer", tag, "a", shape=(m, k))
        b = _matrix("gemm-outer", tag, "b", shape=(k, n))
        c = _matrix("gemm-outer", tag, "c", shape=(m, n))
        legacy = ooc_gemm(
            a, b, alpha=-1.0, beta=1.0, c=c, config=cfg, blocksize=32
        )
        dag = _on_dag(
            monkeypatch, concurrency, ooc_gemm,
            a, b, alpha=-1.0, beta=1.0, c=c, config=cfg, blocksize=32,
        )
        assert np.array_equal(legacy.c, dag.c)
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes


class TestProgramEquivalence:
    """The graph is node-for-node the legacy program."""

    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_node_for_node(self, method, tag, m, n):
        cfg = _config()
        graph = build_engine_graph(f"qr-{method}", cfg, (m, n), BLOCK)
        stream_ops = _simulated_ops(f"qr-{method}", cfg, (m, n), BLOCK)
        assert node_signature(graph.ops) == node_signature(stream_ops)
        assert edges_consistent(graph.ops, stream_ops)

    @pytest.mark.parametrize("kind", ["inner", "outer"])
    def test_gemm_node_for_node(self, kind):
        cfg = _config()
        graph = build_engine_graph(f"gemm-{kind}", cfg, (64, 64, 128), 32)
        stream_ops = _simulated_ops(f"gemm-{kind}", cfg, (64, 64, 128), 32)
        assert node_signature(graph.ops) == node_signature(stream_ops)
        assert edges_consistent(graph.ops, stream_ops)

    def test_sim_mode_matches_legacy_accounting(self):
        """The simulated graph moves what the simulated eager run does."""
        cfg = _config()
        legacy = ooc_qr((1024, 256), method="recursive", config=cfg,
                        blocksize=64)
        graph = build_engine_graph("qr-recursive", cfg, (1024, 256), 64)
        trace = SimGraphBackend(cfg).run(graph)
        assert graph.stats.h2d_bytes == legacy.stats.h2d_bytes
        assert graph.stats.d2h_bytes == legacy.stats.d2h_bytes
        assert trace.makespan > 0.0


class TestSimPrediction:
    """SimGraphBackend's prediction keeps the orderings the threaded
    executor enforces, allocator tasks included."""

    @pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("m,n,b", [(96, 64, 16), (128, 64, 8)])
    def test_no_op_starts_before_the_frees_ahead_of_its_buffer(
        self, name, m, n, b
    ):
        """A buffer's allocation waits for every free recorded before it,
        and each free for the last touches of its buffer: no op on the
        buffer may start before those touches end."""
        graph = GRAPH_BUILDERS[name](PAPER_SYSTEM, m, n, b)
        trace = SimGraphBackend(PAPER_SYSTEM).run(graph)
        timed = dict(zip(map(id, graph.ops), trace.ops))
        touched: dict[int, float] = {}  # buffer -> end of its last touch
        freed = 0.0    # latest end of a touch of an already-freed buffer
        gate: dict[int, float] = {}     # buffer -> `freed` at its alloc
        for task in graph.tasks:
            if task.mem:
                handle = task.buffer.payload["allocation"].handle
                if task.mem == "alloc":
                    gate[handle] = freed
                else:
                    freed = max(freed, touched.get(handle, 0.0))
                continue
            op = timed[id(task.op)]
            for handle in {access[0] for access in task.accesses}:
                assert op.start >= gate[handle], (op.name, handle)
                touched[handle] = max(touched.get(handle, 0.0), op.end)


class TestGraphVerification:
    """verify_program consumes the DAG directly."""

    @pytest.mark.parametrize("name", QR_GEMM_ENGINES)
    def test_migrated_engine_graphs_verify_clean(self, name):
        report = verify_engine(name, _config())
        assert report.ok, [str(f) for f in report.findings]

    @pytest.mark.parametrize("name", FACTOR_ENGINES)
    def test_adapter_engine_graphs_verify_clean(self, name):
        # the LU/Cholesky graphs threaded runs execute
        report = verify_engine(name, _config())
        assert report.ok, [str(f) for f in report.findings]

    def test_registry_covers_status_map(self):
        """The two verify sweeps above cover the whole registry."""
        assert set(GRAPH_BUILDERS) == set(QR_GEMM_ENGINES) | set(FACTOR_ENGINES)

    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    def test_qr_graph_verifies_directly(self, tag, m, n):
        cfg = _config()
        graph = build_engine_graph("qr-recursive", cfg, (m, n), BLOCK)
        report = verify_program(graph, input_floor_words=m * n)
        assert report.ok, [str(f) for f in report.findings]
        assert report.peak_bytes > 0
        assert report.peak_bytes <= cfg.usable_device_bytes


class TestTsqrMigration:
    """TSQR panels on the task DAG (the ``repro.dist`` sharded numeric
    backend's bitwise chain ends at this path)."""

    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    def test_tsqr_bitwise_identical(self, tag, m, n, concurrency, monkeypatch):
        cfg = replace(_config(), panel_algorithm="tsqr")
        a = _matrix("qr-tsqr", tag, shape=(m, n))
        legacy = ooc_qr(a, method="recursive", config=cfg, blocksize=BLOCK)
        dag = _on_dag(
            monkeypatch, concurrency, ooc_qr,
            a, method="recursive", config=cfg, blocksize=BLOCK,
        )
        assert np.array_equal(legacy.q, dag.q)
        assert np.array_equal(legacy.r, dag.r)
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes


class TestRuntimeGates:
    def test_dag_rejects_hybrid(self):
        """The task DAG runs numeric work only: a hybrid run's numeric
        pass is eager, so threads + hybrid is refused."""
        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), mode="hybrid",
                config=_config(), blocksize=16, concurrency="threads",
            )

    def test_unknown_runtime_rejected(self):
        """The retired ``runtime=`` keyword is not silently accepted."""
        with pytest.raises(TypeError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), config=_config(),
                blocksize=16, runtime="speculative",
            )
