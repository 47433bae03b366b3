"""Graph-build scaling guard for the live-frontier wiring.

Counts edges, not seconds: the qr-tall shape (recursive QR, 16384x256,
b=64, shape-only, 8 MiB device) must keep a handful of edges per task.
All-pairs wiring, which links each task to every earlier conflicting
access, gave it 343 edges per task and a multi-second build.
"""

from __future__ import annotations

from repro.bench.concurrency import bench_spec
from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.runtime import build_engine_graph


def test_qr_tall_graph_has_linear_edge_count():
    cfg = SystemConfig(gpu=bench_spec(8 << 20), precision=Precision.TC_FP16)
    graph = build_engine_graph("qr-recursive", cfg, (16384, 256), 64)
    edges = sum(len(task.deps) for task in graph.tasks)
    assert graph.n_tasks > 5000
    assert edges <= 8 * graph.n_tasks, (edges, graph.n_tasks)
