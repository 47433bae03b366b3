"""Unit and race-freedom tests for the concurrent numeric executor.

Covers (ISSUE satellites 2 and acceptance): executor-level semantics
(ordering, free-waits-pending, reuse after synchronize, idempotent close),
race-freedom of every OOC engine and both QR drivers under the threaded
scheduler (the real `sim/race.py` detector runs over the recorded access
log), and the wall-clock speedup benchmark (smoke always; the ≥1.2x
assertion is gated behind REPRO_PERF on multi-core runners so tier-1 stays
deterministic on small CI boxes).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.execution import ConcurrentNumericExecutor, NumericExecutor
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.inner import run_ksplit_inner, run_panel_inner
from repro.ooc.outer import run_rowstream_outer, run_tile_outer
from repro.ooc.plan import (
    plan_ksplit_inner,
    plan_panel_inner,
    plan_rowstream_outer,
    plan_tile_outer,
)
from repro.ooc.trsm import plan_ooc_trsm, run_ooc_trsm
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.sim import Trace, assert_race_free

from conftest import make_tiny_spec


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)


@pytest.fixture
def cex(config):
    ex = ConcurrentNumericExecutor(config)
    yield ex
    ex.close()


def budget(ex) -> int:
    """Free device elements available to a plan."""
    return ex.allocator.free_bytes // ex.config.element_bytes


def check_schedule(ex: ConcurrentNumericExecutor) -> None:
    """The recorded schedule (the program's ops with their wall-clock
    stamps) must be causal, engine-serial and race-free."""
    trace = Trace([op for op in ex.program.ops if op.scheduled])
    trace.check_causality()
    trace.check_engine_serial()
    assert_race_free(trace)


class TestExecutorSemantics:
    def test_h2d_d2h_roundtrip(self, cex, rng):
        a = rng.standard_normal((16, 12)).astype(np.float32)
        host = HostMatrix.from_array(a.copy(), name="A")
        out = HostMatrix.zeros(16, 12, name="out")
        buf = cex.alloc(16, 12, "buf")
        s = cex.stream("s")
        cex.h2d(buf, host.full(), s)
        cex.d2h(out.full(), buf, s)
        cex.synchronize()
        assert np.array_equal(out.data, a)
        cex.free(buf)
        cex.allocator.check_balanced()

    def test_event_orders_cross_stream_work(self, cex, rng):
        # writer stream fills the buffer; reader stream waits on the event
        # before copying out — without the edge this would race.
        a = rng.standard_normal((32, 32)).astype(np.float32)
        host = HostMatrix.from_array(a.copy(), name="A")
        out = HostMatrix.zeros(32, 32, name="out")
        buf = cex.alloc(32, 32, "buf")
        s_in, s_out = cex.stream("in"), cex.stream("out")
        cex.h2d(buf, host.full(), s_in)
        ready = cex.record_event(s_in)
        cex.wait_event(s_out, ready)
        cex.d2h(out.full(), buf, s_out)
        cex.synchronize()
        assert np.array_equal(out.data, a)
        check_schedule(cex)
        cex.free(buf)

    def test_free_waits_for_inflight_work(self, cex, rng):
        # freeing immediately after issuing must not pull the buffer out
        # from under the queued ops.
        a = rng.standard_normal((64, 64)).astype(np.float32)
        host = HostMatrix.from_array(a.copy(), name="A")
        out = HostMatrix.zeros(64, 64, name="out")
        for _ in range(10):
            buf = cex.alloc(64, 64, "buf")
            s = cex.stream("s")
            cex.h2d(buf, host.full(), s)
            cex.d2h(out.full(), buf, s)
            cex.free(buf)
        cex.synchronize()
        assert np.array_equal(out.data, a)
        cex.allocator.check_balanced()

    def test_reusable_after_synchronize(self, cex, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        host = HostMatrix.from_array(a.copy(), name="A")
        out = HostMatrix.zeros(8, 8, name="out")
        for _ in range(3):
            buf = cex.alloc(8, 8, "buf")
            s = cex.stream("s")
            cex.h2d(buf, host.full(), s)
            cex.d2h(out.full(), buf, s)
            cex.synchronize()
            assert np.array_equal(out.data, a)
            cex.free(buf)
        cex.allocator.check_balanced()

    def test_close_is_idempotent(self, config):
        ex = ConcurrentNumericExecutor(config)
        ex.close()
        ex.close()
        for worker in ex._workers:
            worker.join(5.0)
            assert not worker.is_alive()

    def test_host_coherence_serializes_rmw(self, cex, rng):
        # back-to-back read-modify-write rounds through the same host block
        # on fresh streams: only the host-coherence edges order round i+1's
        # h2d after round i's d2h.
        # small entries keep the iterated quadratic map finite
        a = (0.05 * rng.standard_normal((16, 16))).astype(np.float32)
        host = HostMatrix.from_array(a.copy(), name="A")
        for i in range(8):
            buf = cex.alloc(16, 16, f"buf{i}")
            s = cex.stream(f"s{i}")
            cex.h2d(buf, host.full(), s)
            cex.gemm(buf, buf, buf, s, beta=1.0)  # A <- A A + A
            cex.d2h(host.full(), buf, s)
            cex.free(buf)
        cex.synchronize()
        sex = NumericExecutor(cex.config)
        ref = HostMatrix.from_array(a.copy(), name="A")
        for i in range(8):
            buf = sex.alloc(16, 16, f"buf{i}")
            s = sex.stream(f"s{i}")
            sex.h2d(buf, ref.full(), s)
            sex.gemm(buf, buf, buf, s, beta=1.0)
            sex.d2h(ref.full(), buf, s)
            sex.free(buf)
        assert np.array_equal(host.data, ref.data)


class TestEnginesRaceFree:
    """Every OOC engine, run threaded: bitwise-correct and race-free."""

    def test_ksplit_inner(self, cex, rng):
        K, M, N = 128, 48, 40
        a = rng.standard_normal((K, M)).astype(np.float32)
        b = rng.standard_normal((K, N)).astype(np.float32)
        c = HostMatrix.zeros(M, N, name="C")
        plan = plan_ksplit_inner(K, M, N, 32, budget(cex))
        run_ksplit_inner(
            cex,
            HostMatrix.from_array(a).full(),
            HostMatrix.from_array(b).full(),
            c.full(),
            plan,
        )
        cex.synchronize()
        check_schedule(cex)
        np.testing.assert_allclose(c.data, a.T @ b, rtol=1e-4, atol=1e-4)
        cex.allocator.check_balanced()

    def test_panel_inner(self, cex, rng):
        K, M, N = 80, 8, 44
        q = rng.standard_normal((K, M)).astype(np.float32)
        b = rng.standard_normal((K, N)).astype(np.float32)
        c = HostMatrix.zeros(M, N, name="C")
        panel = cex.alloc(K, M, "panel")
        load = cex.stream("load")
        cex.h2d(panel, HostMatrix.from_array(q).full(), load)
        loaded = cex.record_event(load)
        plan = plan_panel_inner(K, M, N, 16, budget(cex), prefer_keep_c=False)
        run_panel_inner(
            cex, panel, HostMatrix.from_array(b).full(), c.full(), plan,
            after=loaded,
        )
        cex.synchronize()
        check_schedule(cex)
        np.testing.assert_allclose(c.data, q.T @ b, rtol=1e-4, atol=1e-4)
        cex.free(panel)
        cex.allocator.check_balanced()

    def test_rowstream_outer(self, cex, rng):
        M, K, N = 96, 16, 40
        a = rng.standard_normal((M, K)).astype(np.float32)
        b = rng.standard_normal((K, N)).astype(np.float32)
        c0 = rng.standard_normal((M, N)).astype(np.float32)
        c = HostMatrix.from_array(c0.copy(), name="C")
        plan = plan_rowstream_outer(M, K, N, 32, budget(cex))
        run_rowstream_outer(
            cex,
            c.full(),
            HostMatrix.from_array(a).full(),
            HostMatrix.from_array(b).full(),
            plan,
        )
        cex.synchronize()
        check_schedule(cex)
        np.testing.assert_allclose(c.data, c0 - a @ b, rtol=1e-4, atol=1e-4)
        cex.allocator.check_balanced()

    def test_tile_outer(self, cex, rng):
        M, K, N = 48, 8, 40
        a = rng.standard_normal((M, K)).astype(np.float32)
        b = rng.standard_normal((K, N)).astype(np.float32)
        c0 = rng.standard_normal((M, N)).astype(np.float32)
        c = HostMatrix.from_array(c0.copy(), name="C")
        a_dev = cex.alloc(M, K, "A")
        b_dev = cex.alloc(K, N, "B")
        s = cex.stream("load")
        cex.h2d(a_dev, HostMatrix.from_array(a).full(), s)
        cex.h2d(b_dev, HostMatrix.from_array(b).full(), s)
        loaded = cex.record_event(s)
        plan = plan_tile_outer(M, K, N, 16, budget(cex))
        run_tile_outer(cex, c.full(), a_dev, b_dev, plan, after=loaded)
        cex.synchronize()
        check_schedule(cex)
        np.testing.assert_allclose(c.data, c0 - a @ b, rtol=1e-4, atol=1e-4)
        cex.free(a_dev)
        cex.free(b_dev)
        cex.allocator.check_balanced()

    def test_ooc_trsm(self, cex, rng):
        K, N = 48, 40
        # well-conditioned unit-lower triangle (random ones explode)
        l = np.eye(K, dtype=np.float32) + 0.5 * np.tril(
            rng.standard_normal((K, K)).astype(np.float32), -1
        ) / np.sqrt(K)
        b = rng.standard_normal((K, N)).astype(np.float32)
        x = HostMatrix.zeros(K, N, name="X")
        plan = plan_ooc_trsm(K, N, 16, budget(cex))
        run_ooc_trsm(
            cex,
            HostMatrix.from_array(l).full(),
            HostMatrix.from_array(b).full(),
            x.full(),
            plan,
        )
        cex.synchronize()
        check_schedule(cex)
        np.testing.assert_allclose(l @ x.data, b, rtol=1e-3, atol=1e-3)
        cex.allocator.check_balanced()


class TestQrDriversRaceFree:
    @pytest.mark.parametrize("driver", [ooc_recursive_qr, ooc_blocking_qr])
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_driver_race_free_and_correct(self, cex, rng, driver, pipelined):
        a0 = rng.standard_normal((96, 64)).astype(np.float32)
        a = HostMatrix.from_array(a0.copy(), name="A")
        r = HostMatrix.zeros(64, 64, name="R")
        driver(cex, a, r, QrOptions(blocksize=32, pipelined=pipelined))
        cex.synchronize()
        check_schedule(cex)
        np.testing.assert_allclose(
            a.data @ r.data, a0, rtol=1e-3, atol=1e-3
        )
        cex.allocator.check_balanced()


class TestSpeedup:
    def test_benchmark_smoke(self):
        # always runs: validates the benchmark path and bitwise equality at
        # a size small enough for any CI box.
        from repro.bench.concurrency import bench_gemm_concurrency

        res = bench_gemm_concurrency(256, 256, 1024, blocksize=128, repeats=1)
        assert res.identical
        assert res.serial_s > 0 and res.threads_s > 0

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PERF") or (os.cpu_count() or 1) < 4,
        reason="perf assertion needs REPRO_PERF=1 and >=4 cores",
    )
    def test_threads_beat_serial(self):
        # the ISSUE acceptance criterion: >=1.2x on a 4-core runner.
        from repro.bench.concurrency import bench_gemm_concurrency

        res = bench_gemm_concurrency()
        assert res.identical
        assert res.speedup >= 1.2, res.render()
