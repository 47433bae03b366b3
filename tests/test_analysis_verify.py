"""Mutation tests for the static plan verifier.

Every shipped engine must verify clean; to prove that clean verdict is
falsifiable, graph-builder subclasses seed one deliberate bug each into a
real engine recording — a skipped free, a duplicated H2D, a trailing
block reloaded every step — and the verifier must flag exactly the seeded
defect class, naming the offending op or buffer. A dropped cross-stream
wait changes only the simulator's stream program (a task graph's edges
come from data accesses), so that mutation runs on the simulator and the
race detector.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis import (
    DEFAULT_TOLERANCE,
    ENGINE_BINDINGS,
    PrecisionPlan,
    check_precision,
    verify_all_engines,
    verify_engine,
    verify_program,
)
from repro.config import PAPER_SYSTEM
from repro.dist.sim import dist_precision_report
from repro.execution import SimExecutor
from repro.runtime import GRAPH_BUILDERS, GraphBuilder, build_engine_graph
from repro.sim.race import detect_races

M, N, B = 96, 64, 16
EB = PAPER_SYSTEM.element_bytes


def symbolic(builder_cls=GraphBuilder):
    """A symbolic (``materialize=False``) builder of *builder_cls*."""
    return builder_cls(PAPER_SYSTEM, label="mutation", materialize=False)


def record(ex, name="qr-blocking", dims=(M, N)):
    """Drive registry binding *name* through *ex*; returns its graph."""
    ex.graph.volume_hint = ENGINE_BINDINGS[name].run(ex, dims, B)
    return ex.graph


def rule_counts(report):
    return Counter(f.rule for f in report.findings)


# -- every shipped engine is clean --------------------------------------------------


class TestShippedEnginesClean:
    @pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS))
    def test_engine_verifies_clean(self, name):
        report = verify_engine(name)
        assert report.ok, report.summary() + "\n" + "\n".join(
            str(f) for f in report.findings
        )
        assert report.n_ops > 0
        assert report.peak_bytes > 0
        assert report.peak_bytes <= report.budget_bytes

    def test_sweep_covers_whole_registry(self):
        reports = verify_all_engines()
        assert set(reports) == set(GRAPH_BUILDERS)
        assert all(r.ok for r in reports.values())

    def test_qr_volumes_within_model(self):
        # recorded volume sits at or below the §3.2 no-reuse worst case
        # (x the documented slack) and above the every-element-once floor
        report = verify_engine("qr-blocking")
        assert report.volume_model == "qr-blocking"
        assert 0 < report.h2d_bytes <= 1.25 * report.model_h2d_bytes
        assert report.h2d_bytes >= M * N * EB

    def test_gemm_has_no_volume_model(self):
        report = verify_engine("gemm-inner")
        assert report.ok
        assert report.volume_model == ""
        assert any("no closed-form" in s for s in report.skipped)

    def test_non_power_of_two_recursion_skips_model(self):
        # k = 3 panels: the recursive closed form does not apply; the pass
        # must record a skip, never silently pass or fail
        report = verify_engine("qr-recursive", m=96, n=48, b=16)
        assert report.ok
        assert any("power-of-two" in s for s in report.skipped)


# -- mutation: dropped event (race, on the simulator) ------------------------------


class DropWaits(SimExecutor):
    """Seeded bug: every cross-stream wait is forgotten."""

    def wait_event(self, stream, event):
        pass


def simulate_blocking_qr(executor_cls):
    ex = executor_cls(PAPER_SYSTEM)
    ENGINE_BINDINGS["qr-blocking"].run(ex, (M, N), B)
    return ex.finish()


class TestDroppedEvent:
    def test_flagged_as_race_and_nothing_else(self):
        racy = simulate_blocking_qr(DropWaits)
        clean = simulate_blocking_qr(SimExecutor)
        assert detect_races(racy)
        # the clean twin issues the same ops: the waits alone order them
        assert detect_races(clean) == []
        assert [op.name for op in racy.ops] == [op.name for op in clean.ops]

    def test_finding_names_the_unordered_ops(self):
        first = detect_races(simulate_blocking_qr(DropWaits))[0]
        assert first.op_a.name and first.op_b.name
        # one stream orders its own ops: the pair spans the dropped wait
        assert first.op_a.stream is not first.op_b.stream


# -- mutation: missing free (leak) --------------------------------------------------


class SkipFirstFree(GraphBuilder):
    """Seeded bug: the first freed buffer is never actually freed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.skipped = None

    def free(self, buf):
        if self.skipped is None:
            self.skipped = buf.name
            return
        super().free(buf)


class TestMissingFree:
    def test_flagged_as_exactly_one_leak(self):
        report = verify_program(
            record(symbolic(SkipFirstFree)), input_floor_words=M * N
        )
        counts = rule_counts(report)
        assert counts == Counter({"leak": 1})

    def test_finding_names_the_leaked_buffer(self):
        ex = symbolic(SkipFirstFree)
        report = verify_program(record(ex))
        (finding,) = report.findings
        assert finding.op == ex.skipped
        assert ex.skipped in finding.message


# -- mutation: extra redundant H2D --------------------------------------------------


class DupFirstH2d(GraphBuilder):
    """Seeded bug: the first H2D is issued twice, back to back."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dup_done = False

    def h2d(self, dst, src, stream):
        super().h2d(dst, src, stream)
        if not self._dup_done:
            self._dup_done = True
            super().h2d(dst, src, stream)


class TestRedundantTransfer:
    def test_flagged_as_exactly_one_redundant_h2d(self):
        report = verify_program(
            record(symbolic(DupFirstH2d)), input_floor_words=M * N
        )
        counts = rule_counts(report)
        assert counts == Counter({"redundant-h2d": 1})

    def test_finding_points_at_the_duplicate(self):
        report = verify_program(record(symbolic(DupFirstH2d)))
        (finding,) = report.findings
        assert "re-moves" in finding.message
        assert finding.op.startswith("h2d")


# -- mutation: trailing block read twice per step ---------------------------------


class ReloadTrailing(GraphBuilder):
    """Seeded bug: every trailing-update tile is read from the host twice
    per panel step — once into a throwaway buffer, once into the tile."""

    def h2d(self, dst, src, stream):
        buf = dst if hasattr(dst, "payload") else dst.buffer
        if buf.name.startswith("outer-tile"):
            scratch = self.alloc(*src.shape, name="reload")
            super().h2d(scratch, src, stream)
            self.free(scratch)
        super().h2d(dst, src, stream)


class TestTrailingReload:
    """LU and Cholesky answer to their own laws. The QR law their bound
    used to borrow is ~3.5x looser and let this mutation pass."""

    @pytest.mark.parametrize("name", ["lu-blocking", "chol-blocking"])
    def test_flagged_as_exactly_one_volume_over_model(self, name):
        report = verify_program(record(symbolic(ReloadTrailing), name, (N, N)))
        assert rule_counts(report) == Counter({"volume-over-model": 1})
        (finding,) = report.findings
        assert finding.op == "h2d"
        assert name in finding.message
        assert report.volume_model == name

    @pytest.mark.parametrize("name", ["lu-blocking", "chol-blocking"])
    def test_clean_twin_is_not_flagged(self, name):
        report = verify_program(record(symbolic(), name, (N, N)))
        assert report.ok, report.summary()
        assert report.volume_model == name
        assert 0 < report.h2d_bytes <= report.model_h2d_bytes

    def test_reports_name_each_factorizations_own_law(self):
        for name in ("lu-blocking", "lu-recursive", "chol-blocking",
                     "chol-recursive"):
            assert verify_engine(name).volume_model == name


# -- budget: exact peak vs a tight budget -------------------------------------------


class TestBudget:
    def test_over_budget_names_crossing_allocation(self):
        program = record(symbolic())
        clean = verify_program(program)
        assert clean.ok and clean.peak_bytes > 0
        tight = verify_program(program, budget_bytes=clean.peak_bytes - 1)
        counts = rule_counts(tight)
        assert counts == Counter({"peak-over-budget": 1})
        (finding,) = tight.findings
        assert finding.op  # the allocation that first crossed the budget
        assert str(clean.peak_bytes) in finding.message

    def test_exact_peak_is_a_tight_bound(self):
        # budget == peak must pass: the peak is exact, not padded
        program = record(symbolic())
        clean = verify_program(program)
        at_peak = verify_program(program, budget_bytes=clean.peak_bytes)
        assert at_peak.ok


# -- graph surgery: defects no engine run can record --------------------------------
#
# These mutations edit a recorded graph after the fact — a dropped
# dependency edge, a free moved before the buffer's last use, a duplicated
# H2D — and the verifier must flag exactly the seeded class.


def build_qr_task_graph():
    return build_engine_graph("qr-blocking", PAPER_SYSTEM, (M, N), B)


def _conflicts(op_a, op_b) -> bool:
    from repro.runtime.task import _device_conflict

    return _device_conflict(op_a, op_b)


class TestDagGraphClean:
    def test_real_graph_verifies_clean(self):
        report = verify_program(build_qr_task_graph(), input_floor_words=M * N)
        assert report.ok, "\n".join(str(f) for f in report.findings)
        assert report.n_ops > 0
        assert report.peak_bytes > 0


class TestDagDroppedDependencyEdge:
    def test_flagged_as_race_and_nothing_else(self):
        graph = build_qr_task_graph()
        # drop the first dataflow edge whose removal leaves a conflicting
        # pair with no other happens-before path
        for op in graph.ops:
            for dep in sorted(op.deps, key=lambda d: d.op_id):
                if not _conflicts(op, dep):
                    continue
                op.deps.discard(dep)
                report = verify_program(graph, input_floor_words=M * N)
                if not report.ok:
                    counts = rule_counts(report)
                    assert set(counts) == {"race"}, counts
                    assert any(
                        "unordered" in f.message for f in report.findings
                    )
                    return
                op.deps.add(dep)  # removal was covered transitively; retry
        pytest.fail("no dataflow edge in the graph was load-bearing")


class TestDagPrematureTileFree:
    def test_flagged_as_use_after_free_and_nothing_else(self):
        from dataclasses import replace

        graph = build_qr_task_graph()
        # pick a freed buffer with device-op touches, then rewrite its
        # free event to a position before its last toucher
        touched = {}
        for i, op in enumerate(graph.ops):
            for access in op.tags.get("accesses", ()):
                touched.setdefault(access[0], []).append(i)
        for idx, event in enumerate(graph.mem_events):
            if event.kind != "free" or event.handle not in touched:
                continue
            last = max(touched[event.handle])
            if event.position > last:
                graph.mem_events[idx] = replace(event, position=last)
                break
        else:
            pytest.fail("no free event with a device toucher found")
        report = verify_program(graph, input_floor_words=M * N)
        counts = rule_counts(report)
        assert set(counts) == {"use-after-free"}, counts
        assert all(event.name in f.message for f in report.findings)


class TestDagDuplicatedH2d:
    def test_flagged_as_exactly_one_redundant_h2d(self):
        from dataclasses import replace

        from repro.sim.ops import SimOp

        graph = build_qr_task_graph()
        i, original = next(
            (i, op) for i, op in enumerate(graph.ops)
            if op.kind.value == "copy_h2d"
        )
        clone = SimOp(
            name=original.name, engine=original.engine, kind=original.kind,
            duration=0.0, nbytes=original.nbytes, tags=dict(original.tags),
        )
        # a faithfully ordered but useless reload: dependent on the
        # original, and ordered before every later conflicting op — the
        # defect is the dead transfer itself, not a race
        clone.deps.add(original)
        graph.ops.insert(i + 1, clone)
        for later in graph.ops[i + 2:]:
            if _conflicts(later, clone):
                later.deps.add(clone)
        graph.mem_events[:] = [
            replace(e, position=e.position + 1) if e.position > i else e
            for e in graph.mem_events
        ]
        report = verify_program(graph, input_floor_words=M * N)
        counts = rule_counts(report)
        assert counts == Counter({"redundant-h2d": 1}), counts
        (finding,) = report.findings
        assert "re-moves" in finding.message
        assert finding.op.startswith("h2d")


# -- precision mutations: seeded plan defects through the error-flow pass ----------
#
# Same falsifiability contract as the scheduling mutations above, for the
# static precision pass (repro.analysis.precision): a dropped upcast, an
# fp16 leaf feeding a deep flat reduction tree, and a plainly
# tolerance-violating plan must each surface exactly one finding of the
# expected rule — and the clean twin of each mutation must verify clean.


def record_recursive_qr(config=PAPER_SYSTEM):
    return build_engine_graph("qr-recursive", config, (M, N), B)


class TestPrecisionMutations:
    def test_dropped_upcast_flagged_once(self):
        # the shipped plan splits inputs to fp16x4; the mutation runs the
        # raw fp16 quantizer instead (an upcast dropped from the TC
        # pipeline) against a tolerance only the split format can meet
        program = record_recursive_qr()
        report = verify_program(
            program,
            tolerance=1e-4,
            precision=PrecisionPlan(storage="fp32", gemm_input="fp16"),
        )
        counts = rule_counts(report)
        assert counts == Counter({"unsafe-downcast": 1}), counts
        (finding,) = report.findings
        assert "fp16" in finding.message
        assert finding.op  # anchored at the first GEMM-kind op

    def test_restored_upcast_is_clean(self):
        report = verify_program(
            record_recursive_qr(),
            tolerance=1e-4,
            precision=PrecisionPlan(storage="fp32", gemm_input="fp16x4"),
        )
        assert report.ok, report.summary()
        assert 0 < report.precision_bound <= 1e-4

    def test_fp16_leaf_in_deep_flat_tree_flagged_once(self):
        # identical plan and tolerance; only the reduction-tree shape
        # differs — the flat tree's P-1 serial merges blow the bound the
        # binomial tree's log2(P) depth keeps
        report = dist_precision_report(
            PAPER_SYSTEM, m=64 * 16, n=16, n_devices=16, tree="flat",
            tolerance=1e-2,
        )
        counts = rule_counts(report)
        assert counts == Counter({"tolerance-exceeded": 1}), counts
        (finding,) = report.findings
        assert "tolerance" in finding.message

    def test_binomial_twin_of_the_flat_mutation_is_clean(self):
        report = dist_precision_report(
            PAPER_SYSTEM, m=64 * 16, n=16, n_devices=16, tree="binomial",
            tolerance=1e-2,
        )
        assert report.ok, report.summary()

    def test_tolerance_violating_plan_flagged_once(self):
        # plain-fp16 recursive QR against the default tolerance: the
        # propagated bound (not any single downcast) is the root cause
        report = verify_program(
            record_recursive_qr(), tolerance=DEFAULT_TOLERANCE
        )
        counts = rule_counts(report)
        assert counts == Counter({"tolerance-exceeded": 1}), counts
        (finding,) = report.findings
        assert f"{report.precision_bound:.2e}" in finding.message
        assert report.precision_plan in finding.message

    def test_split_plan_meets_the_same_tolerance(self):
        from dataclasses import replace

        from repro.hw.gemm import Precision

        config = replace(PAPER_SYSTEM, precision=Precision.TC_FP16_SPLIT4)
        report = verify_program(
            record_recursive_qr(config), tolerance=DEFAULT_TOLERANCE
        )
        assert report.ok, report.summary()
        assert 0 < report.precision_bound <= DEFAULT_TOLERANCE


# -- precision properties: the bound is monotone in depth and k --------------------


class TestPrecisionProperties:
    def test_bound_monotone_in_flat_tree_depth(self):
        bounds = [
            dist_precision_report(
                PAPER_SYSTEM, m=64 * p, n=16, n_devices=p, tree="flat"
            ).precision_bound
            for p in (2, 4, 8, 16)
        ]
        assert all(b > 0 for b in bounds)
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), bounds

    def test_bound_monotone_in_binomial_tree_depth(self):
        bounds = [
            dist_precision_report(
                PAPER_SYSTEM, m=64 * p, n=16, n_devices=p, tree="binomial"
            ).precision_bound
            for p in (2, 4, 8, 16)
        ]
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), bounds

    def test_binomial_depth_beats_flat_at_every_width(self):
        # log2(P) vs P-1 merge contributions: equal at P=2, then the flat
        # bound pulls away — the separation is what the CI negative
        # control (repro analyze --what precision) leans on
        for p, strictly in ((2, False), (4, True), (16, True)):
            flat = dist_precision_report(
                PAPER_SYSTEM, m=64 * p, n=16, n_devices=p, tree="flat"
            ).precision_bound
            bino = dist_precision_report(
                PAPER_SYSTEM, m=64 * p, n=16, n_devices=p, tree="binomial"
            ).precision_bound
            if strictly:
                assert bino < flat, (p, bino, flat)
            else:
                assert bino <= flat, (p, bino, flat)

    def test_bound_monotone_in_k(self):
        # deeper accumulation chains in the k-split inner GEMM engine:
        # more k-chunks accumulated into the same C tile must never
        # cheapen the predicted error
        bounds = []
        for k in (64, 128, 256):
            flow, findings = check_precision(
                build_engine_graph("gemm-inner", PAPER_SYSTEM, (32, 32, k), 16)
            )
            assert findings == []
            bounds.append(flow.bound)
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), bounds

    def test_max_k_tracks_the_deepest_chain(self):
        flow, _ = check_precision(
            build_engine_graph("gemm-inner", PAPER_SYSTEM, (32, 32, 128), 16)
        )
        assert flow.n_gemms > 0
        assert flow.max_k >= 16  # at least one full k-chunk GEMM
