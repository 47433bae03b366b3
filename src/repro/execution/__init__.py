"""Executor layer: one device-programming interface, two backends (eager
numeric, simulated) plus the threaded task-DAG builder in
:mod:`repro.runtime`; :mod:`repro.execution.run` is the one run path the
public entry points share."""

from repro.execution.base import DeviceBuffer, DeviceView, Executor, RunStats, as_view
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor

__all__ = [
    "DeviceBuffer",
    "DeviceView",
    "Executor",
    "NumericExecutor",
    "RunStats",
    "SimExecutor",
    "as_view",
]
