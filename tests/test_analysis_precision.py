"""Static precision / error-flow verifier (`repro.analysis.precision`).

Covers the ISSUE acceptance criteria end to end:

* lattice and plan plumbing — format ranking follows decreasing unit
  roundoff, `PrecisionPlan.from_config` derives storage/input formats
  from a `SystemConfig`, unknown formats raise the typed taxonomy;
* exact error-flow arithmetic on a hand-built one-GEMM program, plus the
  staging-reset and region-join semantics on synthetic op streams;
* every structural rule fires on its seeded plan defect and stays quiet
  on the clean twin, with the documented precedence (structural findings
  suppress tolerance rules; unsafe-downcast suppresses
  tolerance-exceeded);
* report plumbing — per-rule counts and the predicted bound render in
  `AnalysisReport.summary()`, `assert_precision_ok` raises
  `PrecisionViolation`;
* serve admission gating — a tolerance-violating plan is rejected with
  `PrecisionViolation` as the cause, waived (and counted) under the
  health=escalate runtime fallback, and a cached result cannot bypass
  the gate;
* the differential suite — across the kappa sweep and the shipped
  precision configs, the static bound upper-bounds the measured
  relative residual on every case: zero false "safe" verdicts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import (
    DEFAULT_TOLERANCE,
    PRECISION_LEVELS,
    PRECISION_RULES,
    PrecisionPlan,
    assert_precision_ok,
    check_precision,
    propagate,
    verify_program,
)
from repro.analysis.precision import (
    SPLIT_FORMATS,
    STORAGE_FORMATS,
    TC_INPUT_FORMATS,
    WASTE_FACTOR,
    rank,
    roundoff,
)
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.dist.sim import dist_precision_report
from repro.errors import (
    AdmissionError,
    AnalysisError,
    PrecisionError,
    PrecisionViolation,
    ReproError,
    ValidationError,
)
from repro.health import HealthOptions
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.runtime import GraphBuilder, build_engine_graph
from repro.serve import FactorService, JobSpec
from repro.tc.precision import UNIT_ROUNDOFF

M, N, B = 96, 64, 16
OPTS = QrOptions(blocksize=B)


def config_with(
    precision: Precision,
    element_bytes: int = 4,
    panel_algorithm: str = "cholqr2",
) -> SystemConfig:
    return replace(
        PAPER_SYSTEM,
        precision=precision,
        element_bytes=element_bytes,
        panel_algorithm=panel_algorithm,
    )


def recursive_program(config: SystemConfig = PAPER_SYSTEM):
    return build_engine_graph("qr-recursive", config, (M, N), B)


def rule_counts(findings) -> Counter:
    return Counter(f.rule for f in findings)


# ---------------------------------------------------------------------------
# lattice and plan plumbing


class TestLattice:
    def test_levels_ordered_by_decreasing_roundoff(self):
        us = [roundoff(fmt) for fmt in PRECISION_LEVELS]
        assert all(hi >= lo for hi, lo in zip(us, us[1:]))

    def test_rank_is_the_lattice_position(self):
        assert rank("bf16") < rank("fp16") < rank("fp16x3")
        assert rank("fp16x4") < rank("fp32") < rank("fp64")
        # documented tie-breaks: tf32 above fp16, fp32 above fp16x4
        assert roundoff("tf32") == roundoff("fp16")
        assert rank("tf32") > rank("fp16")
        assert roundoff("fp32") == roundoff("fp16x4")
        assert rank("fp32") > rank("fp16x4")

    def test_every_level_has_a_seeded_roundoff(self):
        for fmt in PRECISION_LEVELS:
            assert roundoff(fmt) == UNIT_ROUNDOFF[fmt] > 0

    def test_unknown_format_raises_typed(self):
        with pytest.raises(ValidationError, match="fp8"):
            roundoff("fp8")
        with pytest.raises(ValidationError):
            rank("posit16")

    def test_split_and_tc_sets_are_lattice_subsets(self):
        assert SPLIT_FORMATS <= TC_INPUT_FORMATS <= set(PRECISION_LEVELS)


class TestPrecisionPlan:
    def test_from_config_maps_storage_and_input(self):
        plan = PrecisionPlan.from_config(
            config_with(Precision.TC_FP16_SPLIT3)
        )
        assert plan == PrecisionPlan(
            storage="fp32", gemm_input="fp16x3", accumulate="fp32"
        )

    @pytest.mark.parametrize("eb,fmt", sorted(STORAGE_FORMATS.items()))
    def test_element_bytes_pick_the_storage_format(self, eb, fmt):
        plan = PrecisionPlan.from_config(
            config_with(Precision.TC_FP16, element_bytes=eb)
        )
        assert plan.storage == fmt

    def test_describe_is_the_summary_tag(self):
        assert PrecisionPlan().describe() == "fp32->fp16/fp32"


# ---------------------------------------------------------------------------
# exact error-flow arithmetic on synthetic programs


def one_gemm_program(k: int = 64):
    """h2d A, h2d B, C = A B, d2h C — one GEMM, one k-chain."""
    ex = GraphBuilder(PAPER_SYSTEM, label="one-gemm", materialize=False)
    s = ex.stream("compute")
    eb = PAPER_SYSTEM.element_bytes
    ha = HostMatrix.shape_only(32, k, eb, name="hA")
    hb = HostMatrix.shape_only(k, 16, eb, name="hB")
    hc = HostMatrix.shape_only(32, 16, eb, name="hC")
    a, b, c = ex.alloc(32, k, "A"), ex.alloc(k, 16, "B"), ex.alloc(32, 16, "C")
    ex.h2d(a, ha.full(), s)
    ex.h2d(b, hb.full(), s)
    ex.gemm(c, a, b, s)
    ex.d2h(hc.full(), c, s)
    return ex.graph


class TestPropagate:
    def test_one_gemm_bound_is_exact(self):
        # u(store) in, + 2 u(in) + k u(acc) for the GEMM, + u(store) out
        k = 64
        flow = propagate(one_gemm_program(k))
        u_store = roundoff("fp32")
        expected = 2 * u_store + 2 * roundoff("fp16") + k * roundoff("fp32")
        assert flow.bound == pytest.approx(expected, rel=1e-12)
        assert flow.n_gemms == 1
        assert flow.max_k == k
        assert flow.first_gemm.startswith("gemm")

    def test_k_is_recovered_from_flops(self):
        assert propagate(one_gemm_program(32)).max_k == 32
        assert propagate(one_gemm_program(128)).max_k == 128

    def test_plan_override_beats_the_config_plan(self):
        program = one_gemm_program()
        fp16 = propagate(program)
        split = propagate(
            program, PrecisionPlan(storage="fp32", gemm_input="fp16x4")
        )
        assert split.bound < fp16.bound

    def test_invalid_plan_propagates_to_infinity(self):
        flow = propagate(one_gemm_program(), PrecisionPlan(gemm_input="fp8"))
        assert flow.bound == float("inf")

    def test_finer_input_formats_never_raise_the_bound(self):
        program = recursive_program()
        bounds = [
            propagate(
                program, PrecisionPlan(storage="fp32", gemm_input=fmt)
            ).bound
            for fmt in ("fp16", "fp16x3", "fp16x4")
        ]
        assert all(hi >= lo for hi, lo in zip(bounds, bounds[1:])), bounds


# ---------------------------------------------------------------------------
# rules, precedence, and report plumbing


class TestStructuralRules:
    def test_non_fp32_accumulator_breaks_tc_invariant(self):
        _, findings = check_precision(
            one_gemm_program(),
            plan=PrecisionPlan(gemm_input="fp16", accumulate="fp16"),
        )
        assert rule_counts(findings) == Counter({"tc-format-invariant": 1})
        assert "fp32" in findings[0].message

    def test_unknown_format_is_a_structural_finding(self):
        _, findings = check_precision(
            one_gemm_program(), plan=PrecisionPlan(gemm_input="fp8")
        )
        assert rule_counts(findings) == Counter({"tc-format-invariant": 1})
        assert "fp8" in findings[0].message

    def test_split_input_on_fp16_storage_is_wasted(self):
        # fp16 storage already rounded to 2^-11; the fp16x3 split terms
        # (2^-22) reconstruct bits that no longer exist — 3x TC work for
        # nothing
        _, findings = check_precision(
            one_gemm_program(),
            plan=PrecisionPlan(storage="fp16", gemm_input="fp16x3"),
        )
        assert rule_counts(findings) == Counter({"wasted-upcast": 1})
        assert roundoff("fp16x3") * WASTE_FACTOR < roundoff("fp16")

    def test_split_input_on_fp32_storage_is_not_wasted(self):
        for fmt in sorted(SPLIT_FORMATS):
            _, findings = check_precision(
                one_gemm_program(),
                plan=PrecisionPlan(storage="fp32", gemm_input=fmt),
            )
            assert findings == [], fmt

    def test_fp16_capture_config_is_wasted_upcast_end_to_end(self):
        # a real recording under element_bytes=2 + split inputs: the config
        # itself implies the defective plan
        config = config_with(Precision.TC_FP16_SPLIT3, element_bytes=2)
        report = verify_program(recursive_program(config))
        assert rule_counts(report.findings) == Counter({"wasted-upcast": 1})


class TestPrecedence:
    def test_structural_finding_suppresses_tolerance_rules(self):
        # the wasted upcast is the root cause; the blown tolerance is a
        # symptom and must not add a second finding
        _, findings = check_precision(
            one_gemm_program(),
            plan=PrecisionPlan(storage="fp16", gemm_input="fp16x3"),
            tolerance=1e-9,
        )
        assert rule_counts(findings) == Counter({"wasted-upcast": 1})

    def test_unsafe_downcast_suppresses_tolerance_exceeded(self):
        # fp16 quantization alone (2^-11) blows a 1e-5 tolerance: the
        # downcast is the root cause, not the accumulated bound
        _, findings = check_precision(
            one_gemm_program(),
            plan=PrecisionPlan(storage="fp32", gemm_input="fp16"),
            tolerance=1e-5,
        )
        assert rule_counts(findings) == Counter({"unsafe-downcast": 1})

    def test_tolerance_exceeded_when_no_single_downcast_explains(self):
        # every single rounding step fits 1e-4; only the accumulated
        # chain crosses it
        flow, findings = check_precision(
            recursive_program(config_with(Precision.TC_FP16_SPLIT4)),
            tolerance=flow_bound_just_below(),
        )
        assert rule_counts(findings) == Counter({"tolerance-exceeded": 1})
        assert flow.bound > 0

    def test_non_positive_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            check_precision(one_gemm_program(), tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # a NaN or infinite tolerance compares so that no bound is ever
        # judged over it: the gate would pass every plan
        program = build_engine_graph("qr-recursive", PAPER_SYSTEM, (512, 256), 64)
        _flow, findings = check_precision(program, tolerance=1e-9)
        assert rule_counts(findings) == Counter({"unsafe-downcast": 1})
        with pytest.raises(ValidationError, match="finite"):
            check_precision(program, tolerance=tolerance)


def flow_bound_just_below() -> float:
    """A tolerance slightly under the fp16x4 recursive-QR bound."""
    flow, _ = check_precision(
        recursive_program(config_with(Precision.TC_FP16_SPLIT4))
    )
    return flow.bound * 0.99


class TestReportPlumbing:
    def test_summary_carries_bound_plan_and_rule_counts(self):
        report = verify_program(
            recursive_program(), tolerance=DEFAULT_TOLERANCE
        )
        summary = report.summary()
        assert "tolerance-exceeded=1" in summary
        assert f"err bound {report.precision_bound:.2e}" in summary
        assert f"(tol {DEFAULT_TOLERANCE:.1e})" in summary
        assert "[fp32->fp16/fp32]" in summary

    def test_clean_report_still_reports_the_bound(self):
        report = verify_program(recursive_program())
        assert report.ok
        assert report.precision_bound > 0
        assert report.precision_plan == "fp32->fp16/fp32"

    def test_assert_precision_ok_raises_the_typed_violation(self):
        report = verify_program(
            recursive_program(), tolerance=DEFAULT_TOLERANCE
        )
        with pytest.raises(PrecisionViolation) as exc_info:
            assert_precision_ok(report)
        exc = exc_info.value
        assert isinstance(exc, PrecisionError)
        assert isinstance(exc, AnalysisError)
        assert isinstance(exc, ReproError)
        assert exc.report is report
        assert "precision violation" in str(exc)

    def test_assert_precision_ok_ignores_foreign_findings(self):
        program = recursive_program()
        clean = verify_program(program)
        over = verify_program(program, budget_bytes=clean.peak_bytes - 1)
        assert rule_counts(over.findings) == Counter({"peak-over-budget": 1})
        assert_precision_ok(over)  # not a precision rule: no raise

    def test_precision_rules_registry_matches_emitted_rules(self):
        assert PRECISION_RULES == {
            "tc-format-invariant",
            "wasted-upcast",
            "unsafe-downcast",
            "tolerance-exceeded",
        }


# ---------------------------------------------------------------------------
# serve admission gating


def benign_matrix(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((M, N)).astype(np.float32)


def counter_value(svc: FactorService, name: str) -> int:
    return svc.snapshot_metrics()[name]["value"]


class TestServeGating:
    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tolerance_refused_by_the_spec(self, tolerance):
        with pytest.raises(ValidationError, match="finite"):
            JobSpec(
                kind="qr", operands=(benign_matrix(),), options=OPTS,
                tolerance=tolerance,
            )

    def test_tolerance_violating_plan_rejected_before_running(self):
        spec = JobSpec(
            kind="qr", operands=(benign_matrix(),), options=OPTS,
            tolerance=DEFAULT_TOLERANCE,
        )
        with FactorService(PAPER_SYSTEM) as svc:
            with pytest.raises(AdmissionError, match="plan-rejected"):
                svc.submit(spec)
            assert counter_value(svc, "plans_rejected") == 1
            assert counter_value(svc, "plans_precision_waived") == 0

    def test_rejection_cause_is_the_precision_violation(self):
        spec = JobSpec(
            kind="qr", operands=(benign_matrix(),), options=OPTS,
            tolerance=DEFAULT_TOLERANCE,
        )
        with FactorService(PAPER_SYSTEM) as svc:
            with pytest.raises(AdmissionError) as exc_info:
                svc.submit(spec)
        assert isinstance(exc_info.value.__cause__, PrecisionViolation)

    def test_escalate_fallback_waives_the_gate(self):
        # the runtime escalation ladder can re-run unhealthy panels at
        # higher precision, so the statically-over-tolerance plan is
        # admitted — with the waiver on the books
        spec = JobSpec(
            kind="qr", operands=(benign_matrix(),),
            options=replace(OPTS, health=HealthOptions(mode="escalate")),
            tolerance=DEFAULT_TOLERANCE,
        )
        with FactorService(PAPER_SYSTEM) as svc:
            result = svc.submit(spec).result(timeout=60)
            assert counter_value(svc, "plans_precision_waived") == 1
            assert counter_value(svc, "plans_rejected") == 0
        assert {"q", "r"} <= set(result.arrays)

    def test_plan_within_tolerance_admitted_and_verified(self):
        spec = JobSpec(
            kind="qr", operands=(benign_matrix(),), options=OPTS,
            tolerance=DEFAULT_TOLERANCE,
        )
        config = config_with(Precision.TC_FP16_SPLIT4)
        with FactorService(config) as svc:
            result = svc.submit(spec).result(timeout=60)
            assert counter_value(svc, "plans_verified") == 1
        assert {"q", "r"} <= set(result.arrays)

    def test_cached_result_cannot_bypass_the_gate(self):
        # the tolerance is an admission predicate, not part of the result
        # identity: the no-tolerance submit populates the cache, and the
        # tolerance-carrying resubmit of the same bits must still be
        # judged — and rejected — instead of served from cache
        a = benign_matrix()
        with FactorService(PAPER_SYSTEM) as svc:
            svc.submit(
                JobSpec(kind="qr", operands=(a,), options=OPTS)
            ).result(timeout=60)
            with pytest.raises(AdmissionError, match="plan-rejected"):
                svc.submit(
                    JobSpec(
                        kind="qr", operands=(a,), options=OPTS,
                        tolerance=DEFAULT_TOLERANCE,
                    )
                )

    def test_multi_device_gate_prices_the_tree(self):
        # sim-mode placement across 16 devices: the flat tree's deep
        # reduction chain is rejected where the binomial tree passes
        def spec(tolerance=None):
            return JobSpec(
                kind="qr", operands=((64 * 16, 16),), mode="sim",
                options=OPTS, devices=16, tolerance=tolerance,
            )

        report = dist_precision_report(
            PAPER_SYSTEM, m=64 * 16, n=16, n_devices=16, tree="flat",
            tolerance=1e-2,
        )
        assert not report.ok
        with FactorService(PAPER_SYSTEM) as svc:
            # the service's dist runner uses the binomial tree: admitted
            result = svc.submit(spec(tolerance=1e-2)).result(timeout=60)
            assert result.makespan > 0


# ---------------------------------------------------------------------------
# differential suite: static bound vs measured residual over the kappa sweep


def conditioned_matrix(kappa: float, seed: int = 0) -> np.ndarray:
    """Random matrix with logspaced singular values 1 .. 1/kappa."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((M, N)))
    v, _ = np.linalg.qr(rng.standard_normal((N, N)))
    sv = np.logspace(0, -np.log10(kappa), N)
    return ((u * sv) @ v.T).astype(np.float32)


KAPPAS = (1e2, 1e4, 1e6)
SWEEP_PRECISIONS = (
    Precision.TC_FP16, Precision.TC_FP16_SPLIT3, Precision.FP32
)


def measured_residual(a: np.ndarray, config: SystemConfig) -> float:
    result = ooc_qr(a, method="recursive", config=config, options=OPTS)
    num = np.linalg.norm(a - result.q @ result.r)
    return float(num / np.linalg.norm(a))


class TestDifferentialKappaSweep:
    @staticmethod
    def assert_not_false_safe(precision, kappa, panel_algorithm):
        # zero false "safe" verdicts: on every sweep case the residual a
        # real run measures sits under the bound the verifier predicted
        config = config_with(precision, panel_algorithm=panel_algorithm)
        flow, findings = check_precision(recursive_program(config))
        assert findings == []
        residual = measured_residual(conditioned_matrix(kappa), config)
        assert residual <= flow.bound, (
            f"false-safe verdict: measured {residual:.3e} above the "
            f"static bound {flow.bound:.3e} for {flow.plan.describe()} "
            f"with the {panel_algorithm} panel at kappa={kappa:.0e}"
        )

    @pytest.mark.parametrize(
        "precision", SWEEP_PRECISIONS, ids=lambda p: p.value
    )
    @pytest.mark.parametrize("kappa", KAPPAS, ids=lambda k: f"kappa{k:.0e}")
    def test_static_bound_upper_bounds_measured_residual(
        self, precision, kappa
    ):
        # the default panel: CholQR2, falling back to recursive CGS
        self.assert_not_false_safe(precision, kappa, "cholqr2")

    @pytest.mark.parametrize(
        "precision", SWEEP_PRECISIONS, ids=lambda p: p.value
    )
    @pytest.mark.parametrize("kappa", KAPPAS, ids=lambda k: f"kappa{k:.0e}")
    def test_static_bound_covers_the_recursive_cgs_panel(
        self, precision, kappa
    ):
        self.assert_not_false_safe(precision, kappa, "recursive-cgs")

    @pytest.mark.parametrize(
        "precision", SWEEP_PRECISIONS, ids=lambda p: p.value
    )
    def test_panel_step_prices_the_worst_rung(self, precision):
        # the PANEL step's price does not depend on the panel algorithm:
        # it prices the recursive-CGS fallback, which bounds CholQR2 too
        bounds = {
            algo: check_precision(
                recursive_program(config_with(precision, panel_algorithm=algo))
            )[0].bound
            for algo in ("cholqr2", "recursive-cgs")
        }
        assert bounds["cholqr2"] == bounds["recursive-cgs"]

    def test_bound_ordering_matches_residual_ordering(self):
        # the bound is not just safe but discriminating: ranking plans by
        # predicted bound ranks them by measured residual too
        a = conditioned_matrix(1e4)
        bounds, residuals = [], []
        for precision in SWEEP_PRECISIONS:
            config = config_with(precision)
            flow, _ = check_precision(recursive_program(config))
            bounds.append(flow.bound)
            residuals.append(measured_residual(a, config))
        assert bounds[0] > bounds[1] >= bounds[2]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_split_margin_is_not_vacuous(self):
        # the fp16x3 bound must sit within a few orders of magnitude of
        # the measurement (a 1e10 slack would make "safe" meaningless)
        config = config_with(Precision.TC_FP16_SPLIT3)
        flow, _ = check_precision(recursive_program(config))
        residual = measured_residual(conditioned_matrix(1e4), config)
        assert residual <= flow.bound <= 1e4 * residual
