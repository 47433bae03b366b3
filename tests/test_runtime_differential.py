"""Differential equivalence: DAG runtime vs legacy executors.

For every engine migrated to the DAG runtime (blocking QR, recursive QR,
both OOC GEMM engines), the same problem is run on the legacy imperative
path and on ``runtime="dag"`` — serial and concurrent, power-of-two and
ragged shapes — and the results must be *bitwise* identical. On top of
the numeric identity, recorded programs must be node-for-node comparable:
the task graph emits exactly the ops a capture of the legacy run records,
in the same order, and every dataflow edge the graph derives is ordered
the same way by the legacy program's happens-before closure.

Finally, ``verify_program`` must accept the task graphs *directly* —
race-free, leak-free, exact peak within budget, §3.2 transfer volume —
with no capture pass (the tentpole's acceptance criterion).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import verify_program
from repro.analysis.engines import capture_engine
from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.qr.api import ooc_qr
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.runtime import (
    ENGINE_RUNTIME_STATUS,
    GRAPH_BUILDERS,
    DagScheduler,
    GraphBuilder,
    NumericGraphBackend,
    build_engine_graph,
    edges_consistent,
    node_signature,
    verify_engine_graph,
)
from repro.sim.trace import Trace
from repro.util.rng import default_rng, stable_seed
from tests.conftest import make_tiny_spec

#: (tag, m, n) QR shapes: power-of-two and ragged (non-multiple of b).
QR_SHAPES = [("pow2", 128, 64), ("ragged", 150, 70)]
#: (tag, m, n, k) GEMM shapes.
GEMM_SHAPES = [("pow2", 64, 64, 128), ("ragged", 90, 70, 130)]
BLOCK = 16
CONCURRENCY = ["serial", "threads"]


def _config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)


def _matrix(*parts, shape) -> np.ndarray:
    rng = default_rng(stable_seed("runtime-differential", *parts))
    return rng.standard_normal(shape).astype(np.float32)


class TestQrBitwise:
    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_bitwise_identical(self, method, tag, m, n, concurrency):
        cfg = _config()
        a = _matrix("qr", method, tag, shape=(m, n))
        legacy = ooc_qr(a, method=method, config=cfg, blocksize=BLOCK)
        dag = ooc_qr(
            a, method=method, config=cfg, blocksize=BLOCK,
            runtime="dag", concurrency=concurrency,
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
        driver(builder, host_a, host_r, QrOptions(blocksize=BLOCK))
        DagScheduler(builder.graph).run_threaded(NumericGraphBackend(cfg))
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
    def test_inner_bitwise_identical(self, tag, m, n, k, concurrency):
        cfg = _config()
        a = _matrix("gemm-inner", tag, "a", shape=(k, m))
        b = _matrix("gemm-inner", tag, "b", shape=(k, n))
        legacy = ooc_gemm(a, b, trans_a=True, config=cfg, blocksize=32)
        dag = ooc_gemm(
            a, b, trans_a=True, config=cfg, blocksize=32,
            runtime="dag", concurrency=concurrency,
        )
        assert np.array_equal(legacy.c, dag.c)
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes

    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n,k", GEMM_SHAPES)
    def test_outer_bitwise_identical(self, tag, m, n, k, concurrency):
        cfg = _config()
        a = _matrix("gemm-outer", tag, "a", shape=(m, k))
        b = _matrix("gemm-outer", tag, "b", shape=(k, n))
        c = _matrix("gemm-outer", tag, "c", shape=(m, n))
        legacy = ooc_gemm(
            a, b, alpha=-1.0, beta=1.0, c=c, config=cfg, blocksize=32
        )
        dag = ooc_gemm(
            a, b, alpha=-1.0, beta=1.0, c=c, config=cfg, blocksize=32,
            runtime="dag", concurrency=concurrency,
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
        capture = capture_engine(f"qr-{method}", cfg, (m, n), BLOCK)
        assert node_signature(graph.ops) == node_signature(capture.ops)
        assert edges_consistent(graph.ops, capture.ops)
        # allocator logs line up event-for-event too
        assert [
            (e.kind, e.name, e.nbytes, e.position) for e in graph.mem_events
        ] == [
            (e.kind, e.name, e.nbytes, e.position) for e in capture.mem_events
        ]

    @pytest.mark.parametrize("kind", ["inner", "outer"])
    def test_gemm_node_for_node(self, kind):
        cfg = _config()
        graph = build_engine_graph(f"gemm-{kind}", cfg, (64, 64, 128), 32)
        capture = capture_engine(f"gemm-{kind}", cfg, (64, 64, 128), 32)
        assert node_signature(graph.ops) == node_signature(capture.ops)
        assert edges_consistent(graph.ops, capture.ops)

    def test_sim_mode_matches_legacy_accounting(self):
        cfg = _config()
        legacy = ooc_qr((1024, 256), method="recursive", config=cfg,
                        blocksize=64)
        dag = ooc_qr((1024, 256), method="recursive", config=cfg,
                     blocksize=64, runtime="dag")
        assert dag.stats.h2d_bytes == legacy.stats.h2d_bytes
        assert dag.stats.d2h_bytes == legacy.stats.d2h_bytes
        assert dag.trace is not None and dag.trace.makespan > 0.0


class TestGraphVerification:
    """verify_program consumes the DAG directly (no capture pass)."""

    @pytest.mark.parametrize(
        "name",
        [n for n, status in ENGINE_RUNTIME_STATUS.items() if status == "dag"],
    )
    def test_migrated_engine_graphs_verify_clean(self, name):
        report = verify_engine_graph(name, _config())
        assert report.ok, [str(f) for f in report.findings]

    @pytest.mark.parametrize(
        "name",
        [n for n, s in ENGINE_RUNTIME_STATUS.items() if s == "graph-adapter"],
    )
    def test_adapter_engine_graphs_verify_clean(self, name):
        # LU/Cholesky stay on the legacy execution path, but their
        # registered graph adapters must already verify for the follow-up
        report = verify_engine_graph(name, _config())
        assert report.ok, [str(f) for f in report.findings]

    def test_registry_covers_status_map(self):
        assert set(GRAPH_BUILDERS) == set(ENGINE_RUNTIME_STATUS)

    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    def test_qr_graph_verifies_directly(self, tag, m, n):
        cfg = _config()
        graph = build_engine_graph("qr-recursive", cfg, (m, n), BLOCK)
        report = verify_program(graph, input_floor_words=m * n)
        assert report.ok, [str(f) for f in report.findings]
        assert report.peak_bytes > 0
        assert report.peak_bytes <= cfg.usable_device_bytes


class TestTsqrMigration:
    """TSQR panels execute through ``runtime="dag"`` (migrated with the
    ``repro.dist`` PR — the sharded numeric backend's bitwise chain ends
    at this path)."""

    def test_tsqr_status_is_dag(self):
        assert ENGINE_RUNTIME_STATUS["qr-tsqr"] == "dag"

    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    def test_tsqr_bitwise_identical(self, tag, m, n, concurrency):
        cfg = replace(_config(), panel_algorithm="tsqr")
        a = _matrix("qr-tsqr", tag, shape=(m, n))
        legacy = ooc_qr(a, method="recursive", config=cfg, blocksize=BLOCK)
        dag = ooc_qr(
            a, method="recursive", config=cfg, blocksize=BLOCK,
            runtime="dag", concurrency=concurrency,
        )
        assert np.array_equal(legacy.q, dag.q)
        assert np.array_equal(legacy.r, dag.r)
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes


class TestRuntimeGates:
    def test_dag_rejects_hybrid(self):
        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), mode="hybrid",
                config=_config(), blocksize=16, runtime="dag",
            )

    def test_dag_rejects_checkpoint(self, tmp_path):
        from repro.ckpt import CheckpointConfig

        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), config=_config(),
                blocksize=16, runtime="dag",
                checkpoint=CheckpointConfig(str(tmp_path)),
            )

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), config=_config(),
                blocksize=16, runtime="speculative",
            )
