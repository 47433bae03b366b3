"""Tile-task DAG dataflow runtime (ROADMAP item 1).

Engines emit :class:`TaskGraph` objects — tasks carrying engine class
(h2d/compute/d2h), tile read/write sets, and the simulator's duration
as a cost hint — via
:class:`GraphBuilder`; :class:`DagScheduler` executes them with dynamic
dataflow scheduling (lookahead, work stealing) on either the numeric
backend or the discrete-event simulator; and
:func:`repro.analysis.verify_program` checks the graphs directly. See
``docs/runtime.md`` for the task model, scheduler semantics, and the
per-engine migration status.
"""

from repro.runtime.backends import (
    NumericGraphBackend,
    RecordingBackend,
    SimGraphBackend,
)
from repro.runtime.builder import GraphBuilder
from repro.runtime.engines import (
    ENGINE_RUNTIME_STATUS,
    GRAPH_BUILDERS,
    build_engine_graph,
    verify_all_engine_graphs,
    verify_engine_graph,
)
from repro.runtime.scheduler import DagScheduler, GraphBackend
from repro.runtime.task import (
    TaskGraph,
    TileTask,
    edges_consistent,
    node_signature,
)

__all__ = [
    "ENGINE_RUNTIME_STATUS",
    "GRAPH_BUILDERS",
    "DagScheduler",
    "GraphBackend",
    "GraphBuilder",
    "NumericGraphBackend",
    "RecordingBackend",
    "SimGraphBackend",
    "TaskGraph",
    "TileTask",
    "build_engine_graph",
    "edges_consistent",
    "node_signature",
    "verify_all_engine_graphs",
    "verify_engine_graph",
]
