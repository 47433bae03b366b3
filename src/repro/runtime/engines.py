"""Graph registry: every shipped OOC engine recorded as a task graph.

The engines and their shape-only operands come from the one binding table,
:data:`repro.analysis.engines.ENGINE_BINDINGS` — the same runs the capture
registry records, here driven through a
:class:`~repro.runtime.builder.GraphBuilder` so each yields a first-class
:class:`~repro.runtime.task.TaskGraph`. :data:`GRAPH_BUILDERS` is the
registry the CLI ``analyze --what graphs`` sweep and the CI
``runtime-dag`` leg iterate.

Migration status lives in :data:`ENGINE_RUNTIME_STATUS`: engines marked
``"dag"`` also *execute* through ``runtime="dag"`` on the public APIs
(blocking QR, recursive QR, TSQR panels, both OOC GEMM engines); the
rest (LU/Cholesky) stay on the legacy execution path but register graph
adapters here so the verifier sweep covers their DAGs ahead of the
follow-up migration. TSQR's migration is also what anchors the
``repro.dist`` bitwise chain: sharded numeric QR == single-device TSQR
== the dag-executed OOC path.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.analysis.engines import (
    ENGINE_BINDINGS,
    engine_label,
    verify_registry_entry,
)
from repro.analysis.verify import AnalysisReport
from repro.config import SystemConfig
from repro.qr.options import QrOptions
from repro.runtime.builder import GraphBuilder
from repro.runtime.task import TaskGraph


def build_engine_graph(
    name: str,
    config: SystemConfig,
    dims: tuple[int, ...],
    b: int,
    *,
    options: QrOptions | None = None,
) -> TaskGraph:
    """Record one engine binding's run at *dims* as a task graph."""
    binding = ENGINE_BINDINGS[name]
    ex = GraphBuilder(
        binding.configure(config),
        label=engine_label(f"{name}[dag]", dims, b),
        materialize=False,
    )
    volume_hint = binding.run(ex, dims, b, options)
    ex.allocator.check_balanced()
    ex.graph.volume_hint = volume_hint
    return ex.graph


def _registry_graph(
    name: str, config: SystemConfig, m: int, n: int, b: int
) -> TaskGraph:
    return build_engine_graph(name, config, ENGINE_BINDINGS[name].dims(m, n), b)


#: Graph registry for the sweep: name -> builder(config, m, n, b), with
#: the exact argument conventions of ``ENGINE_CAPTURES``.
GRAPH_BUILDERS: dict[
    str, Callable[[SystemConfig, int, int, int], TaskGraph]
] = {name: partial(_registry_graph, name) for name in ENGINE_BINDINGS}

#: Per-engine migration status: "dag" = executable via ``runtime="dag"``
#: on the public APIs; "graph-adapter" = DAG built and verified here,
#: execution still on the legacy path (follow-up migration).
ENGINE_RUNTIME_STATUS: dict[str, str] = {
    "qr-blocking": "dag",
    "qr-recursive": "dag",
    "qr-tsqr": "dag",
    "lu-blocking": "graph-adapter",
    "lu-recursive": "graph-adapter",
    "chol-blocking": "graph-adapter",
    "chol-recursive": "graph-adapter",
    "gemm-inner": "dag",
    "gemm-outer": "dag",
}


def verify_engine_graph(
    name: str,
    config: SystemConfig | None = None,
    *,
    m: int = 96,
    n: int = 64,
    b: int = 16,
    tolerance: float | None = None,
    precision=None,
) -> AnalysisReport:
    """Build one registry engine's task graph and verify it directly —
    no capture pass; ``verify_program`` consumes the DAG itself.
    ``tolerance`` / ``precision`` flow through to the precision pass."""
    return verify_registry_entry(
        GRAPH_BUILDERS, name, config, m=m, n=n, b=b,
        tolerance=tolerance, precision=precision,
    )


def verify_all_engine_graphs(
    config: SystemConfig | None = None,
    *,
    m: int = 96,
    n: int = 64,
    b: int = 16,
) -> dict[str, AnalysisReport]:
    """Verify every registry engine's task graph at one (small) shape."""
    return {
        name: verify_engine_graph(name, config, m=m, n=n, b=b)
        for name in GRAPH_BUILDERS
    }


__all__ = [
    "ENGINE_RUNTIME_STATUS",
    "GRAPH_BUILDERS",
    "build_engine_graph",
    "verify_all_engine_graphs",
    "verify_engine_graph",
]
