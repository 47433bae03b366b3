"""Graph-build scaling guard for the live-frontier wiring.

Counts edges, not seconds: the qr-tall shape (recursive QR, 16384x256,
b=64, shape-only, 8 MiB device) must keep a handful of edges per task.
All-pairs wiring, which links each task to every earlier conflicting
access, gave it 343 edges per task and a multi-second build.

With the device's per-op latency zeroed, every plan streams the driver's
own chunk (b or b/2 rows) and the graph has thousands of tasks, which is
the shape that exercises the wiring. On the default device the
latency-amortized chunks cut the same graph to a few hundred tasks.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.concurrency import bench_spec
from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.runtime import build_engine_graph


def _qr_tall_graph(gpu):
    cfg = SystemConfig(gpu=gpu, precision=Precision.TC_FP16)
    graph = build_engine_graph("qr-recursive", cfg, (16384, 256), 64)
    edges = sum(len(task.deps) for task in graph.tasks)
    return graph, edges


def test_qr_tall_graph_has_linear_edge_count():
    gpu = replace(bench_spec(8 << 20), pcie_latency_s=0.0, kernel_launch_s=0.0)
    graph, edges = _qr_tall_graph(gpu)
    assert graph.n_tasks > 5000
    assert edges <= 8 * graph.n_tasks, (edges, graph.n_tasks)


def test_qr_tall_graph_on_latency_amortized_chunks():
    graph, edges = _qr_tall_graph(bench_spec(8 << 20))
    assert graph.n_tasks <= 300
    assert edges <= 8 * graph.n_tasks, (edges, graph.n_tasks)
