"""Property-based tests (hypothesis) for core data structures and
invariants: schedules, tiling plans, the allocator, the event scheduler,
interval arithmetic, the movement closed forms, and Gram-Schmidt.

The two random-*program* suites (simulator scheduling, concurrent vs
serial executor) draw their programs from generators seeded with
:func:`repro.util.rng.stable_seed` over explicit case indices rather than
hypothesis test-id entropy, so each case is a fixed program independent
of pytest collection order and of any parametrization axes added later
(e.g. the DAG-runtime axis in the differential suites)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import PlanError
from repro.hw.gemm import GemmModel, Precision
from repro.hw.specs import V100_32GB
from repro.models.movement import (
    blocking_d2h_exact,
    blocking_d2h_words,
    blocking_h2d_exact,
    blocking_h2d_words,
)
from repro.obs.derive import run_summary
from repro.ooc.gradual import gradual_schedule, uniform_schedule
from repro.ooc.plan import (
    plan_ksplit_inner,
    plan_rowstream_outer,
    plan_tile_outer,
    split_even,
    streamed_chunk,
)
from repro.qr.cgs import cgs2_qr, factorization_error, orthogonality_error
from repro.qr.options import QrOptions
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.simulator import GpuSimulator
from repro.sim.trace import Trace, interval_difference, interval_length, merge_intervals
from repro.util.rng import default_rng, stable_seed
from tests.conftest import make_tiny_spec

dims = st.integers(min_value=1, max_value=5000)
blocks = st.integers(min_value=1, max_value=512)


class TestScheduleProperties:
    @given(extent=dims, block=blocks)
    def test_uniform_partitions_exactly(self, extent, block):
        sched = uniform_schedule(extent, block)
        pos = 0
        for off, size in sched:
            assert off == pos and size >= 1
            pos += size
        assert pos == extent
        assert all(size <= block for _, size in sched)

    @given(extent=dims, block=blocks, ramp=st.integers(1, 8))
    def test_gradual_partitions_exactly(self, extent, block, ramp):
        sched = gradual_schedule(extent, block, ramp=ramp)
        pos = 0
        for off, size in sched:
            assert off == pos and size >= 1
            pos += size
        assert pos == extent
        assert all(size <= max(block, extent) for _, size in sched)

    @given(extent=st.integers(1, 10000), parts=st.integers(1, 64))
    def test_split_even_balanced(self, extent, parts):
        if parts > extent:
            return
        ranges = split_even(extent, parts)
        sizes = [s for _, s in ranges]
        assert sum(sizes) == extent
        assert max(sizes) - min(sizes) <= 1


class TestPlanProperties:
    @given(
        K=st.integers(8, 4096),
        M=st.integers(1, 256),
        N=st.integers(1, 256),
        b=st.integers(1, 512),
    )
    @settings(max_examples=60)
    def test_ksplit_within_budget_and_exact_cover(self, K, M, N, b):
        budget = M * N + 2 * min(b, K) * (M + N) + 16
        plan = plan_ksplit_inner(K, M, N, b, budget)
        assert plan.working_set_elements() <= budget
        assert sum(h for _, h in plan.chunks) == K
        assert sum(w for _, w in plan.panels) == N
        # H2D never less than reading each operand once
        assert plan.h2d_elements() >= K * (M + N)

    @given(
        M=st.integers(8, 4096),
        K=st.integers(1, 256),
        N=st.integers(1, 256),
        b=st.integers(1, 512),
        staging=st.booleans(),
    )
    @settings(max_examples=60)
    def test_rowstream_within_budget(self, M, K, N, b, staging):
        budget = K * N + 2 * min(b, M) * (K + N) + min(b, M) * N + 16
        plan = plan_rowstream_outer(M, K, N, b, budget, staging=staging)
        assert plan.working_set_elements() <= budget
        assert sum(h for _, h in plan.blocks) == M
        assert sum(w for _, w in plan.panels) == N

    @given(
        M=st.integers(1, 2048),
        N=st.integers(1, 2048),
        K=st.integers(1, 128),
        b=st.integers(1, 256),
    )
    @settings(max_examples=60)
    def test_tile_outer_grid_covers_c(self, M, N, K, b):
        budget = 3 * min(b, M) * min(b, N) + 4
        plan = plan_tile_outer(M, K, N, b, budget)
        assert sum(h for _, h in plan.row_blocks) == M
        assert sum(w for _, w in plan.col_blocks) == N
        assert plan.working_set_elements() <= budget


def _latency_config(latency_s: float) -> SystemConfig:
    """The tiny device with *latency_s* split over transfer and launch."""
    gpu = replace(
        make_tiny_spec(), pcie_latency_s=latency_s / 2, kernel_launch_s=latency_s / 2
    )
    return SystemConfig(gpu=gpu)


latencies = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)


class TestStreamedChunkProperties:
    """:func:`streamed_chunk`: ``max(floor, h*)`` with h* a power of two
    clamped to the extent, and zero latency leaving every plan as the
    driver's own chunk makes it."""

    @given(
        floor=st.integers(1, 512),
        extent=st.integers(1, 1 << 18),
        row=st.integers(1, 4096),
        latency=latencies,
    )
    @settings(max_examples=200)
    def test_between_floor_and_extent(self, floor, extent, row, latency):
        chunk = streamed_chunk(floor, extent, row, _latency_config(latency))
        assert chunk >= floor
        assert chunk <= max(floor, extent)
        # a power of two, or exactly the floor, or the whole extent
        pow2 = chunk & (chunk - 1) == 0
        assert pow2 or chunk in (floor, extent)

    @given(
        floor=st.integers(1, 512),
        extent=st.integers(1, 1 << 18),
        row=st.integers(1, 4096),
        lo=latencies,
        hi=latencies,
    )
    @settings(max_examples=200)
    def test_monotone_in_latency(self, floor, extent, row, lo, hi):
        lo, hi = sorted((lo, hi))
        assert streamed_chunk(floor, extent, row, _latency_config(lo)) <= (
            streamed_chunk(floor, extent, row, _latency_config(hi))
        )

    @given(
        K=st.integers(8, 1 << 16),
        M=st.integers(1, 256),
        N=st.integers(1, 256),
        b=st.integers(1, 512),
        slack=st.integers(0, 1 << 16),
        latency=latencies,
    )
    @settings(max_examples=100)
    def test_plans_still_fit_the_budget(self, K, M, N, b, slack, latency):
        cfg = _latency_config(latency)
        budget = M * N + 2 * min(b, K) * (M + N) + min(b, K) * N + 16 + slack
        kplan = plan_ksplit_inner(K, M, N, streamed_chunk(b, K, M + N, cfg), budget)
        assert kplan.working_set_elements() <= budget
        assert sum(h for _, h in kplan.chunks) == K
        oplan = plan_rowstream_outer(K, M, N, streamed_chunk(b, K, M + N, cfg), budget)
        assert oplan.working_set_elements() <= budget
        assert sum(h for _, h in oplan.blocks) == K
        tbudget = 3 * min(b, K) * min(b, N) + slack
        tplan = plan_tile_outer(K, M, N, streamed_chunk(b, K, N, cfg), tbudget)
        assert tplan.working_set_elements() <= tbudget
        assert sum(h for _, h in tplan.row_blocks) == K

    @given(
        K=st.integers(8, 1 << 16),
        M=st.integers(1, 256),
        N=st.integers(1, 256),
        b=st.integers(1, 512),
        budget=st.integers(1 << 10, 1 << 22),
    )
    @settings(max_examples=100)
    def test_zero_latency_plans_are_the_floor_plans(self, K, M, N, b, budget):
        # each plan with the chunk its driver asks for equals the plan with
        # the driver's own chunk (b, b/2 and the tile edge b); the plans
        # take the streamed extent first, so (K, M, N) maps onto each
        cfg = _latency_config(0.0)
        opts = QrOptions(blocksize=b)
        cases = (
            (plan_ksplit_inner, streamed_chunk(b, K, M + N, cfg), b),
            (plan_rowstream_outer, opts.outer_chunk(cfg, K, M + N), max(1, b // 2)),
            (plan_tile_outer, opts.tile_chunk(cfg, K, N), b),
        )
        for plan, chunk, floor in cases:
            assert chunk == floor
            try:
                today = plan(K, M, N, floor, budget)
            except PlanError:
                continue
            assert plan(K, M, N, chunk, budget) == today

    @given(
        outer=st.integers(1, 4096),
        tile=st.integers(1, 4096),
        extent=st.integers(1, 1 << 18),
        row=st.integers(1, 4096),
        latency=latencies,
    )
    @settings(max_examples=100)
    def test_explicit_overrides_are_exact(self, outer, tile, extent, row, latency):
        cfg = _latency_config(latency)
        opts = QrOptions(blocksize=64, outer_blocksize=outer, tile_blocksize=tile)
        assert opts.outer_chunk(cfg, extent, row) == outer
        assert opts.tile_chunk(cfg, extent, row) == tile


class TestAllocatorProperties:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 1000)), min_size=1, max_size=60
        )
    )
    def test_never_exceeds_capacity_and_balances(self, ops):
        from repro.errors import OutOfDeviceMemoryError

        alloc = DeviceAllocator(capacity=4096)
        live = []
        for do_alloc, size in ops:
            if do_alloc or not live:
                try:
                    live.append(alloc.alloc(size))
                except OutOfDeviceMemoryError:
                    pass
            else:
                alloc.free(live.pop())
            assert 0 <= alloc.used <= alloc.capacity
            assert alloc.used == sum(a.nbytes for a in live)
        for a in live:
            alloc.free(a)
        alloc.check_balanced()


class TestSimulatorProperties:
    @pytest.mark.parametrize("case", range(40))
    def test_random_programs_schedule_validly(self, case):
        """Any program of stream-ordered ops + recorded-event waits yields
        a causal, engine-serial schedule whose makespan is bounded by the
        serial sum and at least the busiest engine. Case *case* is a fixed
        program derived from stable_seed, not collection order."""
        rng = default_rng(stable_seed("properties-simulator", case))
        config = SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)
        sim = GpuSimulator(config)
        n_streams = int(rng.integers(1, 5))
        streams = [sim.stream(f"s{i}") for i in range(n_streams)]
        engines = list(EngineKind)
        events = []
        n_ops = int(rng.integers(1, 31))
        for i in range(n_ops):
            s = streams[int(rng.integers(0, n_streams))]
            if events and rng.integers(0, 2):
                sim.wait_event(s, events[int(rng.integers(0, len(events)))])
            engine = engines[int(rng.integers(0, len(engines)))]
            kind = {
                EngineKind.H2D: OpKind.COPY_H2D,
                EngineKind.D2H: OpKind.COPY_D2H,
                EngineKind.COMPUTE: OpKind.GEMM,
            }[engine]
            dur = float(rng.uniform(0.0, 2.0))
            sim.enqueue(SimOp(name=f"o{i}", engine=engine, kind=kind, duration=dur), s)
            if rng.integers(0, 2):
                events.append(sim.record_event(s))
        trace = sim.run()
        trace.check_engine_serial()
        trace.check_causality()
        serial = sum(op.duration for op in trace.ops)
        busiest = max(run_summary(trace.spans()).lane_busy_s.values(), default=0.0)
        assert busiest - 1e-9 <= trace.makespan <= serial + 1e-9


class TestIntervalProperties:
    intervals = st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False))
        .map(lambda t: (min(t), max(t))),
        max_size=20,
    )

    @given(a=intervals)
    def test_merge_idempotent_and_disjoint(self, a):
        merged = merge_intervals(a)
        assert merged == merge_intervals(merged)
        for (_s1, e1), (s2, _e2) in zip(merged, merged[1:]):
            assert e1 < s2  # strictly disjoint and sorted

    @given(a=intervals, b=intervals)
    def test_difference_length_bounds(self, a, b):
        am, bm = merge_intervals(a), merge_intervals(b)
        diff = interval_difference(am, bm)
        len_a = interval_length(am)
        len_diff = interval_length(diff)
        assert -1e-9 <= len_diff <= len_a + 1e-9
        # difference is disjoint from b
        for s, e in diff:
            for bs, be in bm:
                assert e <= bs + 1e-9 or s >= be - 1e-9


class TestMovementFormulaProperties:
    @given(
        m=st.integers(1, 10**6),
        k=st.integers(1, 64),
        b=st.integers(1, 4096),
    )
    def test_blocking_closed_forms_equal_brute_force(self, m, k, b):
        n = k * b
        assert blocking_h2d_words(m, n, b) == blocking_h2d_exact(m, n, b)
        assert blocking_d2h_words(m, n, b) == blocking_d2h_exact(m, n, b)


class TestGemmModelProperties:
    model = GemmModel(V100_32GB)

    @given(
        m=st.integers(1, 10**5),
        n=st.integers(1, 10**5),
        k=st.integers(1, 10**5),
    )
    @settings(max_examples=80)
    def test_rate_bounded_by_peak_and_positive(self, m, n, k):
        rate = self.model.rate(m, n, k)
        assert 0 < rate < V100_32GB.tc_peak_flops

    @given(
        m=st.integers(1, 10**4),
        n=st.integers(1, 10**4),
        k=st.integers(1, 10**4),
    )
    @settings(max_examples=50)
    def test_transpose_symmetric_in_m_n(self, m, n, k):
        assert self.model.rate(m, n, k) == pytest.approx(self.model.rate(n, m, k))


class TestGramSchmidtProperties:
    @given(
        m=st.integers(2, 40),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_cgs2_factorizes_random_matrices(self, m, n, seed):
        if m < n:
            m, n = n, m
        if m == n == 1:
            return
        a = np.random.default_rng(seed).standard_normal((max(m, n), min(m, n)))
        q, r = cgs2_qr(a)
        assert orthogonality_error(q) < 1e-10
        assert factorization_error(a, q, r) < 1e-10
        assert np.allclose(r, np.triu(r))


class TestConcurrentExecutorProperties:
    """Random stream/event programs of *real* numeric ops, replayed on the
    eager serial executor and on the threaded task DAG: the threaded
    schedule must be causal, race-free and serial on each copy engine, and
    the host-visible results bitwise equal to the eager run's. The DAG
    derives its edges from the declared accesses, not from the program's
    events, so this holds even for programs whose events leave device
    data races: the DAG runs them in issue order, like the eager run."""

    N_BUFS = 3
    SIDE = 8

    def _replay(self, ex, program, hosts):
        from repro.host.tiled import HostMatrix

        mats = [
            HostMatrix.from_array(h.copy(), name=f"H{i}")
            for i, h in enumerate(hosts)
        ]
        bufs = [
            ex.alloc(self.SIDE, self.SIDE, f"buf{i}") for i in range(self.N_BUFS)
        ]
        streams = {}
        events = []
        try:
            for instr in program:
                op, args = instr[0], instr[1:]
                if op == "wait":
                    stream_id, event_id = args
                    ex.wait_event(
                        streams.setdefault(
                            stream_id, ex.stream(f"s{stream_id}")
                        ),
                        events[event_id],
                    )
                    continue
                stream = streams.setdefault(args[-1], ex.stream(f"s{args[-1]}"))
                if op == "h2d":
                    ex.h2d(bufs[args[0]], mats[args[1]].full(), stream)
                elif op == "d2h":
                    ex.d2h(mats[args[1]].full(), bufs[args[0]], stream)
                elif op == "d2d":
                    ex.d2d(bufs[args[0]], bufs[args[1]], stream)
                elif op == "gemm":
                    ex.gemm(
                        bufs[args[0]], bufs[args[1]], bufs[args[2]], stream,
                        beta=float(args[3]),
                    )
                elif op == "record":
                    events.append(ex.record_event(stream))
            ex.synchronize()
        finally:
            for buf in bufs:
                ex.free(buf)
            ex.close()
        ex.allocator.check_balanced()
        return [m.data.copy() for m in mats]

    @pytest.mark.parametrize("case", range(25))
    def test_concurrent_matches_serial_recording(self, case):
        from repro.execution import NumericExecutor
        from repro.runtime import GraphBuilder
        from repro.sim import detect_races
        from repro.sim.ops import EngineKind

        rng = default_rng(stable_seed("properties-concurrent", case))
        hosts = [
            (0.1 * rng.standard_normal((self.SIDE, self.SIDE)))
            .astype(np.float32)
            for _ in range(2)
        ]
        n_streams = int(rng.integers(1, 4))
        program = []
        n_events = 0
        for _ in range(int(rng.integers(1, 21))):
            stream_id = int(rng.integers(0, n_streams))
            if n_events and rng.integers(0, 2):
                program.append(
                    ("wait", stream_id, int(rng.integers(0, n_events)))
                )
            op = ["h2d", "d2h", "d2d", "gemm"][int(rng.integers(0, 4))]
            if op in ("h2d", "d2h"):
                program.append(
                    (op, int(rng.integers(0, self.N_BUFS)),
                     int(rng.integers(0, 2)), stream_id)
                )
            elif op == "d2d":
                program.append(
                    (op, int(rng.integers(0, self.N_BUFS)),
                     int(rng.integers(0, self.N_BUFS)), stream_id)
                )
            else:
                program.append(
                    (op, int(rng.integers(0, self.N_BUFS)),
                     int(rng.integers(0, self.N_BUFS)),
                     int(rng.integers(0, self.N_BUFS)),
                     int(rng.integers(0, 2)), stream_id)
                )
            if rng.integers(0, 2):
                program.append(("record", stream_id))
                n_events += 1

        config = SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)
        serial_ex = NumericExecutor(config)
        serial_out = self._replay(serial_ex, program, hosts)
        conc_ex = GraphBuilder(config)
        conc_out = self._replay(conc_ex, program, hosts)

        trace = Trace([op for op in conc_ex.graph.ops if op.scheduled])
        assert len(trace.ops) == len(conc_ex.graph.ops)
        trace.check_causality()
        Trace(
            [op for op in trace.ops if op.engine is not EngineKind.COMPUTE]
        ).check_engine_serial()
        assert not detect_races(trace)
        for s, c in zip(serial_out, conc_out):
            assert np.array_equal(s, c, equal_nan=True)
