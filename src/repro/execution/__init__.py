"""Executor layer: one device-programming interface, three backends
(numeric serial, numeric concurrent, simulated); :mod:`repro.execution.run`
is the one run path the public entry points share."""

from repro.execution.base import DeviceBuffer, DeviceView, Executor, RunStats, as_view
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor

__all__ = [
    "ConcurrentNumericExecutor",
    "DeviceBuffer",
    "DeviceView",
    "Executor",
    "NumericExecutor",
    "RunStats",
    "SimExecutor",
    "as_view",
]
