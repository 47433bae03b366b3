"""Metrics registry: instrument semantics and the JSON snapshot."""

from __future__ import annotations

import json
import threading

import pytest

from repro.serve import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = Counter("jobs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_thread_safety(self):
        c = Counter("hits")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_tracks_peak(self):
        g = Gauge("depth")
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2
        assert g.max == 7
        g.add(10)
        assert g.value == 12
        assert g.max == 12


class TestHistogram:
    def test_aggregates_and_percentiles(self):
        h = Histogram("latency")
        for v in range(1, 101):               # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == pytest.approx(5050.0)
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == 50.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0

    def test_empty(self):
        h = Histogram("latency")
        assert h.percentile(50) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_reservoir_bounded(self):
        h = Histogram("latency", reservoir=10)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000                # exact aggregates survive
        assert h.percentile(50) >= 990.0      # percentiles use recent window

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("x", reservoir=0)
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("jobs")
        c2 = reg.counter("jobs")
        assert c1 is c2
        with pytest.raises(ValueError):
            reg.gauge("jobs")                 # name taken by a counter

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(0.25)
        snap = json.loads(reg.to_json())
        assert snap["a"] == {"type": "counter", "value": 3}
        assert snap["b"]["value"] == 1.5
        assert snap["c"]["count"] == 1
        assert snap["c"]["p50"] == 0.25
        assert list(snap) == sorted(snap)     # stable key order


class TestObsCoreShim:
    """The registry lives in repro.obs.metrics; repro.serve re-exports it.

    Both names must resolve to the *same* classes, so isinstance checks
    and registries compose across the subsystems (e.g. the loadgen
    reading a service's histograms).
    """

    def test_package_level_reexports_agree(self):
        import repro.obs
        import repro.serve

        assert repro.serve.MetricsRegistry is repro.obs.MetricsRegistry

    def test_snapshot_shape_unchanged(self):
        # the byte-level contract BENCH_serve.json's metrics block relies on
        reg = MetricsRegistry()
        reg.histogram("turnaround_s").observe(0.5)
        snap = reg.snapshot()["turnaround_s"]
        assert list(snap) == [
            "type", "count", "sum", "min", "max", "mean", "p50", "p90", "p99",
        ]
