"""Shared op vocabulary helpers: device-access records and op names.

Every recorder of an engine run — the simulator's stream program
(:class:`~repro.sim.simulator.GpuSimulator`) and the task graph
(:mod:`repro.runtime`) — describes an op the same way: the device
accesses it makes (:data:`DeviceAccess`, compared by
:func:`accesses_conflict`, the hazard both the race detector and the DAG
runtime order) and a canonical name. So a simulated trace and a task
graph can be compared node-for-node
(:func:`repro.runtime.node_signature`), and their edges checked against
each other (:func:`repro.runtime.edges_consistent`).
"""

from __future__ import annotations

from typing import Any

from repro.util.regions import rects_overlap

#: Device access record every op carries in ``tags["accesses"]``:
#: ``(buffer_handle, row0, row1, col0, col1, is_write)``.
DeviceAccess = tuple[int, int, int, int, int, bool]


def accesses_conflict(a: DeviceAccess, b: DeviceAccess) -> bool:
    """Whether two accesses touch overlapping elements of one buffer with
    at least one writer — the hazard the race detector reports and the
    DAG runtime orders."""
    if a[0] != b[0] or not (a[5] or b[5]):
        return False
    return rects_overlap((a[1], a[2]), (a[3], a[4]), (b[1], b[2]), (b[3], b[4]))


def device_access(view: Any, write: bool) -> DeviceAccess:
    """Race-detector access record for a device view.

    The buffer is identified by its allocation handle (unique per executor
    run), the region by absolute element coordinates.
    """
    handle = view.buffer.payload["allocation"].handle
    return (handle, view.row0, view.row1, view.col0, view.col1, write)


def copy_name(prefix: str, src: Any, dst: Any) -> str:
    """Canonical op name for a copy: ``"h2d A[0:8,0:8]->buf[0:8,0:8]"``.

    *src*/*dst* are device views or host regions — anything with a
    ``label()`` method. Both executors use this, so op names are
    comparable across backends.
    """
    return f"{prefix} {src.label()}->{dst.label()}"


def gemm_name(tag: str, m: int, n: int, k: int) -> str:
    """Canonical op name for a GEMM (shape-suffixed tag)."""
    return f"{tag} {m}x{n}x{k}"


def panel_name(tag: str, m: int, b: int) -> str:
    """Canonical op name for a panel factorization / TRSM-style op."""
    return f"{tag} {m}x{b}"
