"""Reduction trees, CAQR communication bounds, and the simulated
device-pool pipeline (`repro.dist.tree` / `repro.dist.sim`)."""

from __future__ import annotations

import math

import pytest

from repro.config import PAPER_SYSTEM
from repro.dist.api import dist_qr
from repro.dist.sim import dist_scaling_sweep, dist_trace_spans, simulate_dist_qr
from repro.dist.tree import (
    CAQR_SLACK,
    build_tree,
    caqr_lower_bound_words,
    triangle_words,
)
from repro.errors import ValidationError


class TestReductionTree:
    def test_binomial_depth_and_messages(self):
        for p in (2, 4, 8, 16, 64):
            tree = build_tree("binomial", p)
            assert tree.depth == int(math.log2(p))
            assert tree.n_messages == p - 1

    def test_binomial_odd_leaf_counts(self):
        tree = build_tree("binomial", 5)
        assert tree.depth == 3
        assert tree.n_messages == 4
        groups = tree.group_schedule()
        assert groups[0] == {g: (g,) for g in range(5)}

    def test_flat_is_one_round_to_root(self):
        tree = build_tree("flat", 8)
        assert tree.depth == 1
        assert tree.rounds[0] == tuple((0, src) for src in range(1, 8))

    def test_single_device_is_trivial(self):
        assert build_tree("binomial", 1).rounds == ()
        assert build_tree("flat", 1).rounds == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            build_tree("fibonacci", 4)

    def test_group_schedule_absorbs_merged_groups(self):
        tree = build_tree("binomial", 4)
        groups = tree.group_schedule()
        assert groups[1] == {0: (0, 1), 2: (2, 3)}


class TestCaqrBound:
    """The comm-volume assertions of the ISSUE: measured tree traffic
    against the Demmel et al. per-processor lower bound
    ``W >= (b^2 / 2) log2 P``, with the documented packed-triangle slack
    (b(b+1)/2 words per transfer instead of b^2/2 — a (b+1)/b factor,
    below CAQR_SLACK = 1.25 for every b >= 4)."""

    def test_lower_bound_formula(self):
        assert caqr_lower_bound_words(64, 1) == 0.0
        assert caqr_lower_bound_words(64, 8) == pytest.approx(
            (64 * 64 / 2) * 3
        )
        assert triangle_words(64) == 64 * 65 // 2

    @pytest.mark.parametrize("p", [2, 4, 8, 16, 64])
    @pytest.mark.parametrize("b", [8, 64, 256])
    def test_binomial_meets_bound_at_every_scale(self, p, b):
        report = build_tree("binomial", p).comm_report(b)
        assert report.meets_bound, (p, b, report.caqr_ratio)
        # the slack is exactly the packed-triangle factor, no hidden fat
        assert report.caqr_ratio == pytest.approx((b + 1) / b)

    @pytest.mark.parametrize("p", [8, 16, 64])
    def test_flat_tree_violates_bound(self, p):
        """Negative control: the root of a flat tree receives P-1
        triangles against a log2(P) bound."""
        report = build_tree("flat", p).comm_report(64)
        assert not report.meets_bound, (p, report.caqr_ratio)
        assert report.caqr_ratio > CAQR_SLACK

    def test_flat_tree_sneaks_under_at_tiny_scale(self):
        # (P-1) triangles vs log2(P) squares/2: equal work at P = 2
        assert build_tree("flat", 2).comm_report(64).meets_bound

    def test_per_device_accounting_sums(self):
        tree = build_tree("binomial", 8)
        report = tree.comm_report(16)
        tri = triangle_words(16)
        assert report.total_up_words == tree.n_messages * tri
        assert sum(report.up_recv_words) == tree.n_messages * tri
        # the bound constrains the busiest device: the final root sends
        # nothing but receives one triangle per round
        assert report.max_up_words == tree.depth * tri


SIM_SHAPE = dict(m=262_144, n=256)


@pytest.fixture(scope="module")
def sweep():
    return dist_scaling_sweep(
        PAPER_SYSTEM, device_counts=(1, 2, 8), **SIM_SHAPE
    )


class TestSimulatedPipeline:
    def test_every_device_program_verifies(self, sweep):
        for result in sweep.values():
            assert result.all_verified, [
                str(r) for r in result.reports if not r.ok
            ]
            assert len(result.reports) == result.n_devices

    def test_speedup_scales_with_devices(self, sweep):
        base = sweep[1]
        assert sweep[2].speedup_over(base) > 1.5
        assert sweep[8].speedup_over(base) >= 6.0
        assert sweep[8].makespan < sweep[2].makespan < base.makespan

    def test_per_device_peak_shrinks(self, sweep):
        assert sweep[8].peak_bytes < sweep[1].peak_bytes

    def test_single_device_moves_nothing(self, sweep):
        assert sweep[1].transfer_bytes == 0
        assert sweep[8].transfer_bytes > 0

    def test_comm_report_within_slack(self, sweep):
        assert sweep[8].comm.meets_bound
        assert sweep[8].comm.caqr_ratio <= CAQR_SLACK

    def test_flat_tree_simulates_but_violates_bound(self):
        result = simulate_dist_qr(
            PAPER_SYSTEM, n_devices=8, tree="flat", **SIM_SHAPE
        )
        assert result.all_verified
        assert not result.comm.meets_bound

    def test_too_many_devices_for_shape_rejected(self):
        with pytest.raises(ValidationError):
            simulate_dist_qr(PAPER_SYSTEM, m=256, n=64, n_devices=8)

    @pytest.mark.parametrize(
        "n,lo,hi", [(1024, 2.5, 4.0), (8192, 1.0, 2.0)], ids=["skinny", "fat"]
    )
    def test_panel_width_regimes(self, n, lo, hi):
        """Skinny panels scale on 4 devices; at the paper's fat b = 8192
        the (2b x b) reduction merges eat the gain."""
        sweep = dist_scaling_sweep(
            PAPER_SYSTEM, m=131_072, n=n, device_counts=(1, 4)
        )
        assert lo < sweep[4].speedup_over(sweep[1]) < hi
        assert sweep[4].all_verified

    def test_shared_host_link_hurts(self):
        contended = simulate_dist_qr(
            PAPER_SYSTEM, n_devices=8, shared_host_link=True, **SIM_SHAPE
        )
        assert contended.makespan > simulate_dist_qr(
            PAPER_SYSTEM, n_devices=8, **SIM_SHAPE
        ).makespan


class TestTraceSpans:
    def test_one_lane_per_device_plus_tree(self, sweep):
        spans = dist_trace_spans(sweep[8])
        lanes = {s.lane for s in spans}
        assert lanes == {f"dev{d}" for d in range(8)} | {"tree"}
        assert len([s for s in spans if s.lane == "tree"]) == 3  # log2(8)

    def test_spans_carry_device_attrs(self, sweep):
        spans = dist_trace_spans(sweep[2])
        devs = {s.attrs["device"] for s in spans if s.lane.startswith("dev")}
        assert devs == {0, 1}
        assert all(s.end_s >= s.start_s for s in spans)

    def test_device_lanes_end_at_the_makespan(self, sweep):
        """The lanes come from the one schedule that gives the makespan,
        waits across the reduction tree included: none ends after it,
        and the latest ends exactly at it."""
        for result in sweep.values():
            lane_end: dict[str, float] = {}
            for s in dist_trace_spans(result):
                if s.lane.startswith("dev"):
                    lane_end[s.lane] = max(lane_end.get(s.lane, 0.0), s.end_s)
            assert len(lane_end) == result.n_devices
            assert all(end <= result.makespan for end in lane_end.values())
            assert max(lane_end.values()) == result.makespan

    def test_tree_instants_mark_each_rounds_first_merge(self, sweep):
        """Each ``tree round k`` instant sits at the start of round k's
        earliest ``tsqr-merge`` op, so the three rounds on 8 devices
        strictly increase instead of stacking at the makespan."""
        result = sweep[8]
        spans = dist_trace_spans(result)
        rounds = sorted(
            (s for s in spans if s.lane == "tree"), key=lambda s: s.attrs["round"]
        )
        times = [s.start_s for s in rounds]
        assert len(times) == 3 and times[0] < times[1] < times[2]
        assert all(s.end_s == s.start_s for s in rounds)
        # the trace keeps emission order: round k's merges follow round k-1's
        per_round = [len(m) for m in result.tree.rounds]
        starts = [
            op.start for op in result.trace if op.tags.get("tag") == "tsqr-merge"
        ]
        assert len(starts) == sum(per_round)
        for k, t in enumerate(times):
            lo = sum(per_round[:k])
            assert min(starts[lo : lo + per_round[k]]) == t

    def test_fault_instants_sit_where_they_fire(self):
        """A fault with a round sits at that round's tree instant; one
        without sits at its device's first op, or at 0 for a lost device
        — never stacked at the makespan."""
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec("transfer_timeout", device=3, round_index=1,
                      site="transfer-up"),
            FaultSpec("worker_crash", device=5, site="pushdown"),
            FaultSpec("device_loss", device=2, site="leaf"),
        ))
        result = simulate_dist_qr(
            PAPER_SYSTEM, n_devices=8, faults=plan, **SIM_SHAPE
        )
        spans = dist_trace_spans(result)
        tree = {s.attrs["round"]: s.start_s for s in spans if s.lane == "tree"}
        faults = {s.attrs["kind"]: s.start_s for s in spans if s.lane == "faults"}
        first_on_5 = min(op.start for op in result.trace
                         if op.tags["device"] == 5)
        assert faults == {
            "transfer_timeout": tree[1],
            "worker_crash": first_on_5,
            "device_loss": 0.0,
        }
        assert all(t < result.makespan for t in faults.values())

    def test_exports_as_chrome_trace(self, sweep, tmp_path):
        import json

        from repro.obs import spans_to_chrome_trace

        path = spans_to_chrome_trace(
            dist_trace_spans(sweep[2]), tmp_path / "dist.json"
        )
        doc = json.loads(path.read_text())
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        assert events


class TestDistApiDispatch:
    def test_shape_input_routes_to_sim(self):
        result = dist_qr(m=65_536, n=128, n_devices=4)
        assert result.all_verified
        assert result.n_devices == 4

    def test_array_input_routes_to_numeric(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 16))
        result = dist_qr(a, n_devices=2, processes=0)
        assert np.allclose(result.q @ result.r, a)

    def test_conflicting_or_missing_inputs_rejected(self):
        with pytest.raises(ValidationError):
            dist_qr(n_devices=2)  # no array, no shape
        with pytest.raises(ValidationError):
            dist_qr(m=128, n=16, n_devices=2, mode="numeric")
