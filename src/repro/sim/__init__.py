"""Discrete-event CPU-GPU simulator: streams, events, engines, allocator
and the scheduled trace (whose ``spans()`` feed every timeline view in
:mod:`repro.obs`)."""

from repro.sim.memory import Allocation, DeviceAllocator
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.race import Race, assert_race_free, detect_races
from repro.sim.simulator import GpuSimulator
from repro.sim.stream import Event, Stream
from repro.sim.trace import Trace

__all__ = [
    "Allocation",
    "DeviceAllocator",
    "EngineKind",
    "Event",
    "GpuSimulator",
    "OpKind",
    "Race",
    "SimOp",
    "Stream",
    "Trace",
    "assert_race_free",
    "detect_races",
]
