"""Tests for repro.obs: span recorder core + executor instrumentation.

Covers the observability subsystem's contracts: deterministic span trees
under an injected clock, thread-safety of the per-thread buffers on the
concurrent and DAG paths, span-derived run figures agreeing with the
legacy RunStats wall clock, and — the load-bearing one — obs-off runs
staying bitwise identical to obs-on runs.
"""

from __future__ import annotations

import contextlib
import threading
from unittest import mock

import numpy as np
import pytest

from repro.bench.workloads import random_tall
from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.obs import (
    ENGINE_LANES,
    NULL_RECORDER,
    NullRecorder,
    SpanRecorder,
    run_summary,
)
from repro.qr.api import ooc_qr
from repro.qr.cgs import factorization_error
from repro.runtime import DagScheduler
from tests.conftest import make_tiny_spec


@pytest.fixture
def config():
    return SystemConfig(gpu=make_tiny_spec(4 << 20), precision=Precision.FP32)


class FakeClock:
    """Deterministic clock: advances by a fixed tick on every read."""

    def __init__(self, tick: float = 1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.t += self.tick
        return self.t


class TestSpanRecorder:
    def test_record_allocates_increasing_ids(self):
        rec = SpanRecorder(clock=FakeClock())
        ids = [rec.record(f"op{i}", 0.0, 1.0) for i in range(4)]
        assert ids == sorted(ids) and len(set(ids)) == 4

    def test_spans_sorted_by_start_then_id(self):
        rec = SpanRecorder(clock=FakeClock())
        rec.record("late", 5.0, 6.0)
        rec.record("early", 1.0, 2.0)
        assert [s.name for s in rec.spans()] == ["early", "late"]

    def test_attrs_are_copied_per_span(self):
        rec = SpanRecorder(clock=FakeClock())
        attrs = {"nbytes": 4}
        rec.record("op", 0.0, 1.0, attrs=attrs)
        attrs["nbytes"] = 99
        assert rec.spans()[0].attrs == {"nbytes": 4}

    def test_nested_spans_parent_automatically(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer") as outer_id:
            with rec.span("inner") as inner_id:
                leaf_id = rec.record("leaf", 0.0, 1.0)
        by_id = {s.span_id: s for s in rec.spans()}
        assert by_id[inner_id].parent_id == outer_id
        assert by_id[leaf_id].parent_id == inner_id
        assert by_id[outer_id].parent_id is None

    def test_event_is_instant(self):
        rec = SpanRecorder(clock=FakeClock())
        rec.event("cache.put", cat="serve")
        (span,) = rec.spans()
        assert span.is_event and span.duration_s == 0.0

    def test_allocate_id_reserves_before_completion(self):
        rec = SpanRecorder(clock=FakeClock())
        rid = rec.allocate_id()
        child = rec.record("child", 1.0, 2.0, parent_id=rid)
        rec.record("root", 0.0, 3.0, span_id=rid)
        by_id = {s.span_id: s for s in rec.spans()}
        assert by_id[child].parent_id == rid
        assert by_id[rid].name == "root"

    def test_injected_clock_drives_timestamps(self):
        rec = SpanRecorder(clock=FakeClock(tick=1.0))
        # origin read consumed t=1; span start reads t=2, end t=3
        with rec.span("work"):
            pass
        (span,) = rec.spans()
        assert (span.start_s, span.end_s) == (1.0, 2.0)

    def test_cross_thread_buffers_merge(self):
        rec = SpanRecorder(clock=FakeClock())
        n_threads, per_thread = 8, 50

        def work(k: int) -> None:
            for i in range(per_thread):
                rec.record(f"t{k}.{i}", float(i), float(i) + 0.5, lane="compute")

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = rec.spans()
        assert len(spans) == n_threads * per_thread == len(rec)
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)  # no duplicate ids across buffers


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.record("x", 0.0, 1.0) == 0
        assert NULL_RECORDER.event("x") == 0
        with NULL_RECORDER.span("x") as sid:
            assert sid is None
        assert NULL_RECORDER.spans() == [] and len(NULL_RECORDER) == 0

    def test_shared_instance_is_a_null_recorder(self):
        assert isinstance(NULL_RECORDER, NullRecorder)


def qr_spans(config, *, obs, concurrency="serial", runtime="legacy",
             m=96, n=48, b=16):
    """One QR run. ``runtime="legacy"`` runs it as the entry point does
    (eager serial, or the task DAG on threads); ``"dag"`` runs a serial
    run as a task DAG too, replayed in emission order."""
    a = random_tall(m, n, seed=7)
    with contextlib.ExitStack() as stack:
        if runtime == "dag" and concurrency == "serial":
            stack.enter_context(mock.patch.object(
                DagScheduler, "run_threaded", DagScheduler.run_serial
            ))
            concurrency = "threads"
        res = ooc_qr(
            a, method="recursive", config=config, blocksize=b,
            concurrency=concurrency, obs=obs,
        )
    return a, res


class TestExecutorInstrumentation:
    def test_serial_span_tree_is_deterministic(self, config):
        """Golden determinism: two serial runs under identical fake clocks
        record identical span lists — names, lanes, parents, timestamps."""
        runs = []
        for _ in range(2):
            rec = SpanRecorder(clock=FakeClock())
            qr_spans(config, obs=rec)
            runs.append(rec.spans())
        assert runs[0] == runs[1]

    def test_serial_tree_shape(self, config):
        rec = SpanRecorder(clock=FakeClock())
        qr_spans(config, obs=rec)
        spans = rec.spans()
        roots = [s for s in spans if s.parent_id is None]
        assert [r.cat for r in roots] == ["run"]
        assert roots[0].name == "ooc_qr[recursive]"
        assert roots[0].attrs["m"] == 96
        assert roots[0].attrs["concurrency"] == "serial"
        ids = {s.span_id for s in spans}
        root_id = roots[0].span_id
        ops = [s for s in spans if s.lane in ENGINE_LANES]
        assert ops, "no engine-lane op spans recorded"
        assert all(s.parent_id == root_id for s in ops)
        assert all(s.parent_id in ids or s.parent_id is None for s in spans)
        assert {s.lane for s in ops} == set(ENGINE_LANES)

    @pytest.mark.parametrize("concurrency,runtime", [
        ("threads", "legacy"), ("serial", "dag"), ("threads", "dag"),
    ])
    def test_no_lost_dup_or_negative_spans(self, config, concurrency, runtime):
        """Stress the per-thread buffers: op counts match the serial run,
        ids are unique, durations non-negative, parents resolve."""
        serial = SpanRecorder()
        qr_spans(config, obs=serial)
        n_serial_ops = sum(1 for s in serial.spans() if s.lane in ENGINE_LANES)

        rec = SpanRecorder()
        qr_spans(config, obs=rec, concurrency=concurrency, runtime=runtime)
        spans = rec.spans()
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)
        assert all(s.duration_s >= 0.0 for s in spans)
        id_set = set(ids)
        assert all(
            s.parent_id is None or s.parent_id in id_set for s in spans
        )
        ops = [s for s in spans if s.lane in ENGINE_LANES and not s.is_event]
        assert len(ops) == n_serial_ops

    def test_dag_op_spans_carry_dep_edges(self, config):
        rec = SpanRecorder()
        qr_spans(config, obs=rec, runtime="dag")
        spans = rec.spans()
        ops = [s for s in spans if s.lane in ENGINE_LANES]
        assert ops and all("deps" in s.attrs and "task" in s.attrs for s in ops)
        # dep edges may point at alloc tasks too (recorded as mem events)
        tasks = {s.attrs["task"] for s in spans if "task" in s.attrs}
        for s in ops:
            assert set(s.attrs["deps"]) <= tasks

    def test_span_makespan_matches_runstats_wall(self, config):
        """Satellite: the span-derived makespan is the single source the
        legacy RunStats figure must agree with on the serial path."""
        rec = SpanRecorder()
        _, res = qr_spans(config, obs=rec)
        summary = run_summary(rec.spans())
        wall = res.stats.wall_s
        # engine-op extent can't exceed the first-issue -> synchronize
        # window, and on the serial path nothing else contributes
        assert summary.makespan_s <= wall + 1e-6
        assert wall - summary.makespan_s < 0.25

    @pytest.mark.parametrize("concurrency,runtime", [
        ("serial", "legacy"), ("threads", "legacy"),
        ("serial", "dag"), ("threads", "dag"),
    ])
    def test_obs_off_is_bitwise_identical(self, config, concurrency, runtime):
        """The acceptance gate: instrumentation must not perturb numerics.
        Same inputs with and without a recorder produce identical bits."""
        a, res_on = qr_spans(
            config, obs=SpanRecorder(), concurrency=concurrency,
            runtime=runtime,
        )
        _, res_off = qr_spans(
            config, obs=None, concurrency=concurrency, runtime=runtime,
        )
        np.testing.assert_array_equal(res_on.q, res_off.q)
        np.testing.assert_array_equal(res_on.r, res_off.r)
        assert factorization_error(a, res_on.q, res_on.r) < 1e-4
