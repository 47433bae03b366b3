"""Operation descriptors for the discrete-event GPU simulator.

A :class:`SimOp` is one unit of work bound to one hardware *engine*. The
V100 (like every modern discrete GPU) exposes three engines that operate
concurrently — one DMA engine per PCIe direction plus the compute engine —
which is exactly the concurrency the paper's pipelines exploit (§4.1.1:
"we need at least three streams to make these three assignments run in
parallel").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.util.validation import nonnegative_float, nonnegative_int


class EngineKind(str, Enum):
    """The three concurrent hardware engines of the simulated GPU."""

    H2D = "h2d"       # host-to-device DMA
    D2H = "d2h"       # device-to-host DMA
    COMPUTE = "compute"  # SMs: GEMMs, panel factorizations, D2D staging


class OpKind(str, Enum):
    """Semantic label of an op (drives accounting and timeline glyphs)."""

    COPY_H2D = "copy_h2d"
    COPY_D2H = "copy_d2h"
    COPY_D2D = "copy_d2d"
    GEMM = "gemm"
    PANEL = "panel"
    SMALL = "small"   # vector scales, norms, triangular fixes


_op_counter = itertools.count()


@dataclass(eq=False)
class SimOp:
    """One simulated operation.

    Identity semantics (``eq=False``): two ops are the same only if they are
    the same object, which lets dependency sets hold them directly. An op
    with no engine (and no kind) is an allocator marker that
    :func:`~repro.sim.simulator.schedule` times without a resource.
    """

    name: str
    engine: EngineKind | None
    kind: OpKind | None
    duration: float
    stream: "Any" = None          # repro.sim.stream.Stream, set at enqueue
    nbytes: int = 0
    flops: int = 0
    tags: dict[str, Any] = field(default_factory=dict)
    # -- filled in by the simulator -----------------------------------------
    op_id: int = field(default_factory=lambda: next(_op_counter))
    deps: set["SimOp"] = field(default_factory=set)
    start: float | None = None
    end: float | None = None

    def __post_init__(self) -> None:
        self.duration = nonnegative_float(self.duration, "duration")
        self.nbytes = nonnegative_int(self.nbytes, "nbytes")
        self.flops = nonnegative_int(self.flops, "flops")

    @property
    def scheduled(self) -> bool:
        """Whether the simulator has assigned this op a start/end time."""
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = (
            f"[{self.start:.4f}, {self.end:.4f}]" if self.scheduled else "(pending)"
        )
        return f"SimOp({self.name!r}, {self.engine.value}, {when})"
