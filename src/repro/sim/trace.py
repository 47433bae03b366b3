"""Execution traces: the simulator's output and the source of every
"figure" (timeline) and accounting number the benchmark harness reports."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import SimulationError
from repro.sim.ops import EngineKind, OpKind, SimOp


@dataclass
class Trace:
    """An ordered collection of completed (scheduled) ops."""

    ops: list[SimOp] = field(default_factory=list)

    def __iter__(self) -> Iterator[SimOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def add(self, op: SimOp) -> None:
        """Append a scheduled op to the trace."""
        if not op.scheduled:
            raise SimulationError(f"cannot trace unscheduled op {op.name!r}")
        self.ops.append(op)

    def extend(self, ops: Iterable[SimOp]) -> None:
        """Append many scheduled ops."""
        for op in ops:
            self.add(op)

    # -- time queries --------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End of the last op (total simulated execution time)."""
        return max((op.end for op in self.ops), default=0.0)

    def by_engine(self, engine: EngineKind) -> list[SimOp]:
        """Ops on *engine*, sorted by start time."""
        return sorted(
            (op for op in self.ops if op.engine == engine),
            key=lambda op: (op.start, op.op_id),
        )

    def busy_time(self, engine: EngineKind) -> float:
        """Total time *engine* spent executing ops."""
        return sum(op.end - op.start for op in self.ops if op.engine == engine)

    def select(self, pred: Callable[[SimOp], bool]) -> list[SimOp]:
        """Ops satisfying *pred*, in schedule order."""
        return sorted(
            (op for op in self.ops if pred(op)), key=lambda op: (op.start, op.op_id)
        )

    # -- volume / rate queries ------------------------------------------------

    def bytes_moved(self, kind: OpKind) -> int:
        """Total bytes moved by ops of copy kind *kind*."""
        return sum(op.nbytes for op in self.ops if op.kind == kind)

    @property
    def h2d_bytes(self) -> int:
        """Total host-to-device traffic in bytes."""
        return self.bytes_moved(OpKind.COPY_H2D)

    @property
    def d2h_bytes(self) -> int:
        """Total device-to-host traffic in bytes."""
        return self.bytes_moved(OpKind.COPY_D2H)

    @property
    def total_flops(self) -> int:
        """Total flops across compute ops."""
        return sum(op.flops for op in self.ops)

    @property
    def achieved_flops_rate(self) -> float:
        """End-to-end flops/s (total flops over makespan)."""
        span = self.makespan
        return self.total_flops / span if span > 0 else 0.0

    def compute_time(self) -> float:
        """Busy time of the compute engine."""
        return self.busy_time(EngineKind.COMPUTE)

    def compute_time_by_tag(self) -> dict[str, float]:
        """Compute-engine busy time grouped by the op's ``tag`` (phase).

        QR drivers tag their ops ``panel`` / ``inner`` / ``outer``, so this
        is the source of the paper's Table 4 GEMMs-vs-panel split.
        """
        times: dict[str, float] = defaultdict(float)
        for op in self.ops:
            if op.engine == EngineKind.COMPUTE:
                tag = op.tags.get("tag", op.kind.value)
                times[tag] += op.end - op.start
        return dict(times)

    def transfer_time(self) -> float:
        """Busy time of both DMA engines combined."""
        return self.busy_time(EngineKind.H2D) + self.busy_time(EngineKind.D2H)

    def overlap_ratio(self) -> float:
        """Fraction of DMA busy time hidden under other engines' work.

        1.0 means every byte moved while something else ran (the paper's
        "perfectly overlapped"); 0.0 means fully serialized. Defined as
        ``1 - exposed_transfer / transfer_busy`` where *exposed* transfer
        time is the part of the timeline where only DMA engines are active.
        """
        transfer = self.transfer_time()
        if transfer == 0:
            return 1.0
        exposed = self._exposed_transfer_time()
        return max(0.0, 1.0 - exposed / transfer)

    def _exposed_transfer_time(self) -> float:
        """Timeline length where a DMA engine is busy but compute is idle."""
        compute_iv = merge_intervals(
            (op.start, op.end) for op in self.ops if op.engine == EngineKind.COMPUTE
        )
        dma_iv = merge_intervals(
            (op.start, op.end) for op in self.ops if op.engine != EngineKind.COMPUTE
        )
        return interval_length(interval_difference(dma_iv, compute_iv))

    # -- structural checks (used by tests and the simulator itself) ----------

    def check_engine_serial(self) -> None:
        """Raise unless no engine ever runs two ops at once."""
        for engine in EngineKind:
            prev_end = 0.0
            for op in self.by_engine(engine):
                if op.start < prev_end - 1e-12:
                    raise SimulationError(
                        f"engine {engine.value} overlap at op {op.name!r}"
                    )
                prev_end = op.end

    def check_causality(self) -> None:
        """Raise unless every op starts at or after all its dependencies end."""
        for op in self.ops:
            for dep in op.deps:
                if not dep.scheduled or op.start < dep.end - 1e-12:
                    raise SimulationError(
                        f"op {op.name!r} starts before its dependency "
                        f"{dep.name!r} ends"
                    )


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (start, end) intervals as a sorted, disjoint list.

    Shared by the sim's overlap accounting and the measured-span summary
    in :mod:`repro.obs.derive`, so both layers define "busy time" and
    "exposed transfer" identically.
    """
    ivs = sorted((s, e) for s, e in intervals if e > s)
    merged: list[tuple[float, float]] = []
    for s, e in ivs:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def interval_difference(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Parts of intervals *a* not covered by intervals *b* (both merged)."""
    result: list[tuple[float, float]] = []
    j = 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            bs, be = b[k]
            if bs > cur:
                result.append((cur, min(bs, e)))
            cur = max(cur, be)
            if cur >= e:
                break
            k += 1
        if cur < e:
            result.append((cur, e))
    return result


def interval_length(intervals: list[tuple[float, float]]) -> float:
    """Total covered length of a disjoint interval list."""
    return sum(e - s for s, e in intervals)
