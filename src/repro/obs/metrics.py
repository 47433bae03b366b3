"""Shared metrics core: counters, gauges and histograms.

This is the registry every subsystem records its operational numbers
into — serve's scheduling counters and latency histograms, the load
generator's turnaround distribution, anything a scrape endpoint would
export. It grew up as ``repro.serve.metrics`` and moved here when
observability became a first-class subsystem; :mod:`repro.serve`
re-exports these names unchanged, and :meth:`MetricsRegistry.snapshot`
keeps the exact JSON shape the serve snapshot API has always produced.

Instruments are thread-safe and cheap: a counter is one locked add; a
histogram keeps exact count/sum/min/max plus a bounded reservoir of recent
observations for percentile estimates, so a long-running service never
accumulates unbounded state.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from typing import Any

from repro.errors import ValidationError


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValidationError(f"counter {self.name} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Instantaneous value, with its observed peak (high-water mark)."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            if self._value > self._max:
                self._max = self._value

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        """Largest value ever held (peak queue depth, peak admitted bytes)."""
        return self._max

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self._value, "max": self._max}


class Histogram:
    """Latency-style distribution: exact aggregates + percentile estimates.

    ``count``/``sum``/``min``/``max`` are exact over all observations; the
    percentiles come from a bounded reservoir of the most recent
    ``reservoir`` observations (exact until the reservoir overflows).
    """

    def __init__(self, name: str, help: str = "", reservoir: int = 4096):
        if reservoir < 1:
            raise ValidationError(f"reservoir must be >= 1, got {reservoir}")
        self.name = name
        self.help = help
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._recent: deque[float] = deque(maxlen=reservoir)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            self._recent.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100) of the reservoir, 0 when empty.

        Nearest-rank on the sorted recent observations — the standard
        p50/p99 reading for service latencies.
        """
        if not (0.0 <= q <= 100.0):
            raise ValidationError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            data = sorted(self._recent)
        if not data:
            return 0.0
        rank = max(0, math.ceil(q / 100.0 * len(data)) - 1)
        return data[rank]

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics and a JSON snapshot."""

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, help, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", reservoir: int = 4096
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, reservoir=reservoir)

    def snapshot(self) -> dict[str, Any]:
        """All instruments as one plain dict (stable key order)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    def to_json(self, indent: int | None = None) -> str:
        """The snapshot serialized to JSON (what a /metrics endpoint serves)."""
        return json.dumps(self.snapshot(), indent=indent)
