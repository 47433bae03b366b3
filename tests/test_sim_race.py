"""Race-detector tests: catches deliberately racy programs and certifies
every OOC engine's event wiring race-free.

The simulator's stream program is the one recording whose edges come
from streams and events (a task graph derives its edges from data
accesses), so these runs are what check the engines' stream discipline.
"""

import pytest

from repro.analysis import ENGINE_BINDINGS
from repro.config import SystemConfig
from repro.execution.sim import SimExecutor
from repro.host.tiled import HostMatrix
from repro.hw.specs import V100_32GB
from repro.sim.race import assert_race_free, detect_races

#: The small ``repro analyze`` shapes CI verifies: (m, n, b, device cap in
#: bytes or None) on the analyzer's default V100-32GB.
CI_SHAPES = {
    "96x64b16": (96, 64, 16, None),
    "128x64b8": (128, 64, 8, None),
    "96x48b16": (96, 48, 16, None),
    "96x64b16-1mib": (96, 64, 16, int(0.001 * (1 << 30))),
}


class TestDetection:
    def test_unordered_write_read_is_a_race(self, sim_ex):
        host = HostMatrix.shape_only(64, 64)
        buf = sim_ex.alloc(64, 64)
        c = sim_ex.alloc(64, 64)
        s1, s2 = sim_ex.stream("w"), sim_ex.stream("r")
        sim_ex.h2d(buf, host.full(), s1)             # writes buf
        sim_ex.gemm(c, buf, buf, s2)                 # reads buf, no event!
        trace = sim_ex.finish()
        races = detect_races(trace)
        assert len(races) >= 1
        with pytest.raises(AssertionError, match="race"):
            assert_race_free(trace)

    def test_event_ordering_clears_the_race(self, sim_ex):
        host = HostMatrix.shape_only(64, 64)
        buf = sim_ex.alloc(64, 64)
        c = sim_ex.alloc(64, 64)
        s1, s2 = sim_ex.stream("w"), sim_ex.stream("r")
        sim_ex.h2d(buf, host.full(), s1)
        ev = sim_ex.record_event(s1)
        sim_ex.wait_event(s2, ev)
        sim_ex.gemm(c, buf, buf, s2)
        assert detect_races(sim_ex.finish()) == []

    def test_same_stream_is_ordered(self, sim_ex):
        host = HostMatrix.shape_only(32, 32)
        buf = sim_ex.alloc(32, 32)
        s = sim_ex.stream("s")
        sim_ex.h2d(buf, host.full(), s)
        sim_ex.h2d(buf, host.full(), s)              # rewrite, FIFO-ordered
        assert detect_races(sim_ex.finish()) == []

    def test_disjoint_regions_do_not_conflict(self, sim_ex):
        host = HostMatrix.shape_only(64, 64)
        buf = sim_ex.alloc(64, 64)
        s1, s2 = sim_ex.stream("a"), sim_ex.stream("b")
        sim_ex.h2d(buf.view(0, 32, 0, 64), host.region(0, 32, 0, 64), s1)
        sim_ex.h2d(buf.view(32, 64, 0, 64), host.region(32, 64, 0, 64), s2)
        assert detect_races(sim_ex.finish()) == []

    def test_concurrent_reads_are_fine(self, sim_ex):
        host = HostMatrix.shape_only(32, 32)
        buf = sim_ex.alloc(32, 32)
        out1 = HostMatrix.shape_only(32, 32)
        out2 = HostMatrix.shape_only(32, 32)
        s0, s1, s2 = sim_ex.stream("w"), sim_ex.stream("r1"), sim_ex.stream("r2")
        sim_ex.h2d(buf, host.full(), s0)
        ev = sim_ex.record_event(s0)
        sim_ex.wait_event(s1, ev)
        sim_ex.wait_event(s2, ev)
        sim_ex.d2h(out1.full(), buf, s1)
        sim_ex.d2h(out2.full(), buf, s2)
        assert detect_races(sim_ex.finish()) == []

    def test_transitive_ordering(self, sim_ex):
        """A -> B -> C ordering across three streams clears A-vs-C."""
        host = HostMatrix.shape_only(16, 16)
        buf = sim_ex.alloc(16, 16)
        out = HostMatrix.shape_only(16, 16)
        s1, s2, s3 = (sim_ex.stream(n) for n in "abc")
        sim_ex.h2d(buf, host.full(), s1)          # write
        ev1 = sim_ex.record_event(s1)
        sim_ex.wait_event(s2, ev1)
        sim_ex.d2h(out.full(), buf, s2)           # read
        ev2 = sim_ex.record_event(s2)
        sim_ex.wait_event(s3, ev2)
        sim_ex.h2d(buf, host.full(), s3)          # rewrite after the read
        assert detect_races(sim_ex.finish()) == []


class TestEnginesAreRaceFree:
    """The real payoff: every OOC engine's pipeline wiring is certified."""

    @pytest.mark.parametrize("shape", sorted(CI_SHAPES))
    @pytest.mark.parametrize("name", sorted(ENGINE_BINDINGS))
    def test_engine_binding(self, name, shape):
        m, n, b, cap = CI_SHAPES[shape]
        gpu = V100_32GB
        if cap is not None:
            gpu = gpu.with_memory(cap, suffix="capped")
        binding = ENGINE_BINDINGS[name]
        ex = SimExecutor(binding.configure(SystemConfig(gpu=gpu)))
        binding.run(ex, binding.dims(m, n), b)
        assert_race_free(ex.finish())

    def test_ksplit_inner(self, sim_ex):
        from repro.ooc.inner import run_ksplit_inner
        from repro.ooc.plan import plan_ksplit_inner

        K, M, N = 2048, 64, 96
        plan = plan_ksplit_inner(K, M, N, 256, sim_ex.allocator.free_bytes // 4)
        run_ksplit_inner(
            sim_ex,
            HostMatrix.shape_only(K, M).full(),
            HostMatrix.shape_only(K, N).full(),
            HostMatrix.shape_only(M, N).full(),
            plan,
        )
        assert_race_free(sim_ex.finish())

    def test_panel_inner(self, sim_ex):
        from repro.ooc.inner import run_panel_inner
        from repro.ooc.plan import plan_panel_inner

        K, M, N = 1024, 32, 256
        panel = sim_ex.alloc(K, M, "panel")
        plan = plan_panel_inner(K, M, N, 64, sim_ex.allocator.free_bytes // 4,
                                prefer_keep_c=False)
        run_panel_inner(
            sim_ex, panel,
            HostMatrix.shape_only(K, N).full(),
            HostMatrix.shape_only(M, N).full(),
            plan,
        )
        assert_race_free(sim_ex.finish())
        sim_ex.free(panel)

    @pytest.mark.parametrize("staging", [True, False])
    def test_rowstream_outer(self, sim_ex, staging):
        from repro.ooc.outer import run_rowstream_outer
        from repro.ooc.plan import plan_rowstream_outer

        M, K, N = 1024, 64, 96
        plan = plan_rowstream_outer(M, K, N, 128, sim_ex.allocator.free_bytes // 4,
                                    staging=staging)
        run_rowstream_outer(
            sim_ex,
            HostMatrix.shape_only(M, N).full(),
            HostMatrix.shape_only(M, K).full(),
            HostMatrix.shape_only(K, N).full(),
            plan,
        )
        assert_race_free(sim_ex.finish())

    @pytest.mark.parametrize("staging", [True, False])
    def test_tile_outer(self, sim_ex, staging):
        from repro.ooc.outer import run_tile_outer
        from repro.ooc.plan import plan_tile_outer

        M, K, N = 256, 32, 256
        a_dev = sim_ex.alloc(M, K, "A")
        b_dev = sim_ex.alloc(K, N, "B")
        plan = plan_tile_outer(M, K, N, 64, sim_ex.allocator.free_bytes // 4,
                               staging=staging)
        run_tile_outer(
            sim_ex, HostMatrix.shape_only(M, N).full(), a_dev, b_dev, plan
        )
        assert_race_free(sim_ex.finish())
        sim_ex.free(a_dev)
        sim_ex.free(b_dev)

    def test_ooc_trsm(self, sim_ex):
        from repro.ooc.trsm import plan_ooc_trsm, run_ooc_trsm

        plan = plan_ooc_trsm(512, 96, 64, sim_ex.allocator.free_bytes // 4)
        run_ooc_trsm(
            sim_ex,
            HostMatrix.shape_only(512, 512).full(),
            HostMatrix.shape_only(512, 96).full(),
            HostMatrix.shape_only(512, 96).full(),
            plan,
        )
        assert_race_free(sim_ex.finish())

    def test_full_recursive_qr(self, tiny_config):
        from repro.execution.sim import SimExecutor
        from repro.host.tiled import HostMatrix
        from repro.qr.options import QrOptions
        from repro.qr.recursive import ooc_recursive_qr

        ex = SimExecutor(tiny_config)
        ooc_recursive_qr(
            ex,
            HostMatrix.shape_only(512, 256),
            HostMatrix.shape_only(256, 256),
            QrOptions(blocksize=64),
        )
        assert_race_free(ex.finish())

    def test_full_blocking_qr(self, tiny_config):
        from repro.execution.sim import SimExecutor
        from repro.qr.blocking import ooc_blocking_qr
        from repro.qr.options import QrOptions

        ex = SimExecutor(tiny_config)
        ooc_blocking_qr(
            ex,
            HostMatrix.shape_only(512, 256),
            HostMatrix.shape_only(256, 256),
            QrOptions(blocksize=64),
        )
        assert_race_free(ex.finish())

    def test_full_recursive_lu(self, tiny_config):
        from repro.execution.sim import SimExecutor
        from repro.factor.lu import ooc_recursive_lu
        from repro.qr.options import QrOptions

        ex = SimExecutor(tiny_config)
        ooc_recursive_lu(
            ex, HostMatrix.shape_only(512, 256), QrOptions(blocksize=64)
        )
        assert_race_free(ex.finish())

    def test_full_blocking_cholesky(self, tiny_config):
        from repro.execution.sim import SimExecutor
        from repro.factor.cholesky import ooc_blocking_cholesky
        from repro.qr.options import QrOptions

        ex = SimExecutor(tiny_config)
        ooc_blocking_cholesky(
            ex, HostMatrix.shape_only(256, 256), QrOptions(blocksize=64)
        )
        assert_race_free(ex.finish())

    def test_full_recursive_cholesky(self, tiny_config):
        from repro.execution.sim import SimExecutor
        from repro.factor.cholesky import ooc_recursive_cholesky
        from repro.qr.options import QrOptions

        ex = SimExecutor(tiny_config)
        ooc_recursive_cholesky(
            ex, HostMatrix.shape_only(256, 256), QrOptions(blocksize=64)
        )
        assert_race_free(ex.finish())

    def test_full_blocking_lu(self, tiny_config):
        from repro.execution.sim import SimExecutor
        from repro.factor.lu import ooc_blocking_lu
        from repro.qr.options import QrOptions

        ex = SimExecutor(tiny_config)
        ooc_blocking_lu(
            ex, HostMatrix.shape_only(512, 256), QrOptions(blocksize=64)
        )
        assert_race_free(ex.finish())
