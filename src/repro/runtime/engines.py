"""Graph registry: every shipped OOC engine recorded as a task graph.

The engines and their shape-only operands come from the one binding table,
:data:`repro.analysis.engines.ENGINE_BINDINGS`, driven here through a
:class:`~repro.runtime.builder.GraphBuilder` with ``materialize=False`` so
each yields a :class:`~repro.runtime.task.TaskGraph`: the one program the
verifier (:func:`repro.analysis.verify_engine`, serve admission's
:func:`repro.analysis.capture_job`) checks. :data:`GRAPH_BUILDERS` is
the registry the CLI ``analyze --what plans`` sweep and CI iterate. Every
engine here also *executes* as a task graph: ``concurrency="threads"`` on
the public entry points runs the same recording on the threaded
scheduler.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.analysis.engines import ENGINE_BINDINGS, engine_label
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
        label=engine_label(name, dims, b),
        materialize=False,
    )
    ex.graph.volume_hint = binding.run(ex, dims, b, options)
    return ex.graph


def _registry_graph(
    name: str, config: SystemConfig, m: int, n: int, b: int
) -> TaskGraph:
    return build_engine_graph(name, config, ENGINE_BINDINGS[name].dims(m, n), b)


#: Graph registry for the sweep: name -> builder(config, m, n, b), with
#: ``(m, n)`` mapped onto each engine's dims by its binding.
GRAPH_BUILDERS: dict[
    str, Callable[[SystemConfig, int, int, int], TaskGraph]
] = {name: partial(_registry_graph, name) for name in ENGINE_BINDINGS}


__all__ = [
    "GRAPH_BUILDERS",
    "build_engine_graph",
]
