"""Execution traces: the simulator's schedule.

A :class:`Trace` holds the scheduled ops with their dependency edges and
answers what only the schedule knows (makespan, byte and flop totals,
causality and engine-serial checks). Every timeline view — the Gantt
charts, summaries, Chrome export and busy/overlap accounting — reads the
span list :meth:`Trace.spans` produces, the same type a measured run's
:class:`~repro.obs.span.SpanRecorder` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import SimulationError
from repro.sim.ops import EngineKind, OpKind, SimOp

if TYPE_CHECKING:
    from repro.obs.span import Span


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

    @property
    def makespan(self) -> float:
        """End of the last op (total simulated execution time)."""
        return max((op.end for op in self.ops), default=0.0)

    # -- volume totals ---------------------------------------------------------

    @property
    def h2d_bytes(self) -> int:
        """Total host-to-device traffic in bytes."""
        return sum(op.nbytes for op in self.ops if op.kind == OpKind.COPY_H2D)

    @property
    def d2h_bytes(self) -> int:
        """Total device-to-host traffic in bytes."""
        return sum(op.nbytes for op in self.ops if op.kind == OpKind.COPY_D2H)

    @property
    def total_flops(self) -> int:
        """Total flops across compute ops."""
        return sum(op.flops for op in self.ops)

    # -- timeline view ---------------------------------------------------------

    def spans(self) -> list[Span]:
        """The schedule as a span list: one span per op on its engine lane.

        ``cat`` is the op kind; ``nbytes``/``flops``/``tag``/``stream``
        become attrs when set. Spans are sorted by (start, op id), the
        order a :class:`~repro.obs.span.SpanRecorder` drains in, so every
        timeline view (Gantt, summary, Chrome export, overlap accounting)
        reads a simulated schedule exactly as it reads a measured one.
        """
        from repro.obs.span import Span

        spans = []
        for op in sorted(self.ops, key=lambda op: (op.start, op.op_id)):
            attrs: dict[str, Any] = {}
            if op.nbytes:
                attrs["nbytes"] = op.nbytes
            if op.flops:
                attrs["flops"] = op.flops
            if "tag" in op.tags:
                attrs["tag"] = op.tags["tag"]
            stream = getattr(op.stream, "name", "")
            if stream:
                attrs["stream"] = stream
            spans.append(
                Span(
                    span_id=op.op_id, parent_id=None, name=op.name,
                    cat=op.kind.value, lane=op.engine.value,
                    start_s=op.start, end_s=op.end, attrs=attrs,
                )
            )
        return spans

    # -- structural checks (used by tests and the simulator itself) ----------

    def check_engine_serial(self) -> None:
        """Raise unless no engine ever runs two ops at once."""
        for engine in EngineKind:
            prev_end = 0.0
            on_engine = (op for op in self.ops if op.engine == engine)
            for op in sorted(on_engine, key=lambda op: (op.start, op.op_id)):
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

    The interval arithmetic behind :func:`repro.obs.derive.run_summary`,
    the one busy/exposed-transfer/overlap implementation.
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
