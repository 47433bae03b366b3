"""Tests for the AST repo lint pack (`repro.analysis.lint`)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.lint import lint_source, lint_tree

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def rules(source: str, parts: tuple[str, ...] = ("serve", "x.py")) -> list[str]:
    src = textwrap.dedent(source)
    return [f.rule for f in lint_source(src, "x.py", parts)]


class TestReproErrorRaises:
    def test_builtin_raise_flagged(self):
        assert rules("raise ValueError('bad shape')") == ["reproerror-raises"]
        assert rules("raise KeyError(name)") == ["reproerror-raises"]

    def test_repro_error_subclass_clean(self):
        assert rules("raise ValidationError('bad shape')") == []
        assert rules("raise PlanViolation(report)") == []

    def test_control_flow_builtins_allowed(self):
        assert rules("raise NotImplementedError") == []
        assert rules("raise StopIteration") == []
        assert rules("raise SystemExit(2)") == []

    def test_bare_reraise_allowed(self):
        src = """
        try:
            f()
        except Exception:
            raise
        """
        assert rules(src) == []

    def test_finding_suggests_the_fix(self):
        (finding,) = lint_source("raise TypeError('x')", "x.py", ("serve",))
        assert "ReproError" in finding.message
        assert finding.line == 1


class TestPrecisionOutsideTc:
    def test_half_precision_flagged_outside_tc(self):
        assert rules("x = np.float16(1.0)") == ["precision-outside-tc"]
        assert rules("dt = ml_dtypes.bfloat16") == ["precision-outside-tc"]

    def test_allowed_inside_tc(self):
        assert rules("x = np.float16(1.0)", parts=("tc", "precision.py")) == []

    def test_full_precision_clean(self):
        assert rules("x = np.float32(1.0); y = np.float64(2.0)") == []


class TestRawDtypeCast:
    def test_astype_to_half_string_flagged(self):
        assert rules('y = x.astype("float16")') == ["raw-dtype-cast"]
        assert rules('y = x.astype("bfloat16")') == ["raw-dtype-cast"]
        # numpy's fp16 typecodes dodge no review either
        assert rules('y = x.astype("e")') == ["raw-dtype-cast"]
        assert rules('y = x.astype("<f2")') == ["raw-dtype-cast"]

    def test_astype_attribute_target_trips_both_rules(self):
        # np.float16 is itself a half-precision attribute reference, so
        # the cast draws the attribute rule and the cast rule
        assert sorted(rules("y = x.astype(np.float16)")) == [
            "precision-outside-tc", "raw-dtype-cast",
        ]

    def test_dtype_keyword_flagged(self):
        assert rules('z = np.zeros(8, dtype="float16")') == ["raw-dtype-cast"]
        assert rules('z = np.empty(n, dtype="f2")') == ["raw-dtype-cast"]
        assert rules('arr = make(dtype="half")') == ["raw-dtype-cast"]

    def test_bare_constructor_call_flagged(self):
        assert rules("v = float16(1.0)") == ["raw-dtype-cast"]
        assert rules("v = bfloat16(x)") == ["raw-dtype-cast"]

    def test_full_precision_casts_clean(self):
        assert rules('y = x.astype("float32")') == []
        assert rules("y = x.astype(np.float64)") == []
        assert rules('z = np.zeros(8, dtype="float64")') == []

    def test_allowed_inside_tc(self):
        for src in (
            'y = x.astype("float16")',
            'z = np.zeros(8, dtype="f2")',
            "v = float16(1.0)",
        ):
            assert rules(src, parts=("tc", "precision.py")) == [], src

    def test_waiver_suppresses(self):
        src = 'y = x.astype("float16")  # lint: allow[raw-dtype-cast]'
        assert rules(src) == []

    def test_message_points_to_the_quantizer(self):
        (finding,) = lint_source(
            'y = x.astype("float16")', "x.py", ("serve", "x.py")
        )
        assert "repro.tc" in finding.message


class TestWallclockInStepLogic:
    def test_wallclock_flagged_everywhere_outside_obs(self):
        for parts in (
            ("qr", "x.py"), ("factor", "x.py"), ("ckpt", "x.py"),
            ("serve", "x.py"), ("bench", "x.py"), ("execution", "x.py"),
        ):
            assert rules("t = time.time()", parts=parts) == [
                "wallclock-in-step-logic"
            ], parts
        assert rules("ts = datetime.now()", parts=("qr", "x.py")) == [
            "wallclock-in-step-logic"
        ]

    def test_measurement_clocks_also_flagged(self):
        # perf_counter/monotonic used to be sanctioned anywhere; the span
        # recorder made repro.obs.clock the single timebase
        assert rules("t = time.perf_counter()", parts=("qr", "x.py")) == [
            "wallclock-in-step-logic"
        ]
        assert rules("t = time.monotonic()", parts=("serve", "x.py")) == [
            "wallclock-in-step-logic"
        ]
        assert rules("t = time.monotonic_ns()", parts=("bench", "x.py")) == [
            "wallclock-in-step-logic"
        ]

    def test_from_import_cannot_dodge_the_rule(self):
        assert rules("from time import perf_counter", parts=("qr", "x.py")) == [
            "wallclock-in-step-logic"
        ]
        assert rules("from time import time as now", parts=("serve", "x.py")) == [
            "wallclock-in-step-logic"
        ]

    def test_obs_owns_clock_access(self):
        assert rules("t = time.perf_counter()", parts=("obs", "clock.py")) == []
        assert rules("t = time.time()", parts=("obs", "clock.py")) == []
        assert rules("from time import perf_counter", parts=("obs", "x.py")) == []

    def test_sleep_is_a_wallclock_call_too(self):
        # backoff and pacing sleeps must route through repro.obs.clock
        # so tests can fake them; a raw time.sleep dodges injection
        assert rules("time.sleep(0.1)", parts=("serve", "x.py")) == [
            "wallclock-in-step-logic"
        ]
        assert rules("from time import sleep", parts=("bench", "x.py")) == [
            "wallclock-in-step-logic"
        ]
        assert rules("time.sleep(0.1)", parts=("obs", "clock.py")) == []

    def test_message_points_to_the_sanctioned_source(self):
        (finding,) = lint_source(
            "t = time.perf_counter()", "x.py", ("serve", "x.py")
        )
        assert "repro.obs.clock" in finding.message


class TestSchedulerBypass:
    def test_issue_call_flagged_outside_scheduler_dirs(self):
        assert rules("ex._issue(op)") == ["scheduler-bypass"]

    def test_deps_mutation_flagged(self):
        assert rules("op.deps = []") == ["scheduler-bypass"]
        assert rules("del op.deps") == ["scheduler-bypass"]

    def test_deps_read_clean(self):
        assert rules("for d in op.deps: visit(d)") == []

    def test_scheduler_dirs_exempt(self):
        for parts in (("execution", "x.py"), ("sim", "x.py"), ("analysis", "x.py")):
            assert rules("ex._issue(op)", parts=parts) == [], parts
            assert rules("op.deps = []", parts=parts) == [], parts


class TestOpVocabulary:
    def test_op_redefined_on_an_executor_flagged(self):
        src = """
        class FastExecutor(NumericExecutor):
            def gemm(self, c, a, b, stream, **kw):
                pass

            trsm = None
        """
        assert rules(src, parts=("execution", "fast.py")) == [
            "op-vocabulary", "op-vocabulary",
        ]

    def test_waived_member_clean(self):
        src = """
        class Config:
            @property
            def gemm(self):  # lint: allow[op-vocabulary]
                return Model()
        """
        assert rules(src, parts=("config.py",)) == []

    def test_base_module_and_other_names_clean(self):
        src = """
        class Executor:
            def gemm(self, c, a, b, stream):
                self._issue(stream)
        """
        assert rules(src, parts=("execution", "base.py")) == []
        assert rules("class X:\n    def _gemm_body(self): pass") == []
        # a dataclass field named like an op is data (StreamBundle.h2d)
        assert rules("class Streams:\n    h2d: Any\n    d2h: Any") == []
        assert rules("def gemm(a, b): return a @ b") == []


class TestLayeringImports:
    def test_dist_may_not_import_serve(self):
        assert rules(
            "from repro.serve.service import FactorService",
            parts=("dist", "placement.py"),
        ) == ["layering-imports"]
        assert rules(
            "import repro.serve", parts=("dist", "api.py")
        ) == ["layering-imports"]
        assert rules(
            "from repro.serve import job", parts=("dist", "api.py")
        ) == ["layering-imports"]

    def test_prefix_match_not_substring(self):
        # repro.server (hypothetical) is not repro.serve
        assert rules(
            "import repro.server_tools", parts=("dist", "x.py")
        ) == []

    def test_serve_may_import_dist(self):
        assert rules(
            "from repro.dist.numeric import dist_qr_numeric",
            parts=("serve", "service.py"),
        ) == []

    def test_other_layers_unconstrained(self):
        assert rules(
            "from repro.serve.job import JobSpec", parts=("bench", "x.py")
        ) == []

    def test_faults_may_not_import_its_consumers(self):
        # the injection plane sits below everything it injects into
        for target in ("repro.serve", "repro.dist", "repro.runtime"):
            assert rules(
                f"import {target}", parts=("faults", "plan.py")
            ) == ["layering-imports"], target
        assert rules(
            "from repro.dist.numeric import dist_qr_numeric",
            parts=("faults", "inject.py"),
        ) == ["layering-imports"]

    def test_engines_may_not_choose_an_executor(self):
        for layer in ("qr", "factor", "ooc"):
            for target in (
                "repro.execution.numeric", "repro.execution.sim",
                "repro.runtime",
            ):
                assert rules(
                    f"from {target} import x", parts=(layer, "api.py")
                ) == ["layering-imports"], (layer, target)

    def test_engines_may_use_the_run_harness(self):
        for layer in ("qr", "factor", "ooc"):
            assert rules(
                "from repro.execution.run import execute\n"
                "from repro.execution.base import Executor",
                parts=(layer, "api.py"),
            ) == [], layer

    def test_faults_may_import_errors_and_util(self):
        assert rules(
            "from repro.errors import FaultError", parts=("faults", "x.py")
        ) == []
        assert rules(
            "from repro.util.rng import default_rng", parts=("faults", "x.py")
        ) == []

    def test_consumers_may_import_faults(self):
        assert rules(
            "from repro.faults import as_injector",
            parts=("serve", "service.py"),
        ) == []
        assert rules(
            "from repro.faults import FaultPlan", parts=("dist", "numeric.py")
        ) == []

    def test_message_names_the_edge(self):
        (finding,) = lint_source(
            "import repro.serve", "x.py", ("dist", "x.py")
        )
        assert "repro.serve" in finding.message
        assert "dist" in finding.message


class TestWaivers:
    def test_same_line_waiver_suppresses(self):
        src = "raise ValueError('x')  # lint: allow[reproerror-raises]"
        assert rules(src) == []

    def test_waiver_is_rule_specific(self):
        src = "raise ValueError('x')  # lint: allow[precision-outside-tc]"
        assert rules(src) == ["reproerror-raises"]

    def test_waiver_on_other_line_does_not_apply(self):
        src = "# lint: allow[reproerror-raises]\nraise ValueError('x')"
        assert rules(src) == ["reproerror-raises"]


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:", "x.py", ("serve",))
        assert [f.rule for f in findings] == ["parse"]

    def test_finding_str_is_clickable(self):
        (finding,) = lint_source("raise ValueError('x')", "mod.py", ("serve",))
        assert str(finding).startswith("mod.py:1: reproerror-raises:")

    def test_whole_repo_is_lint_clean(self):
        # the invariant CI enforces: src/repro carries zero findings
        findings = lint_tree(SRC_ROOT)
        assert findings == [], "\n".join(str(f) for f in findings)


class TestLintTool:
    """tools/lint_repro.py: output formats and exit codes."""

    @staticmethod
    def load_tool():
        import importlib.util

        path = SRC_ROOT.parent.parent / "tools" / "lint_repro.py"
        spec = importlib.util.spec_from_file_location("lint_repro", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def sample_findings():
        return lint_source(
            'y = x.astype("float16")\nraise ValueError("a,b")',
            "pkg/mod.py",
            ("serve", "mod.py"),
        )

    def test_json_format_roundtrips(self):
        import json

        tool = self.load_tool()
        (blob,) = tool.render(self.sample_findings(), "json")
        decoded = sorted(json.loads(blob), key=lambda d: d["line"])
        assert [d["rule"] for d in decoded] == [
            "raw-dtype-cast", "reproerror-raises",
        ]
        assert decoded[0]["path"] == "pkg/mod.py"
        assert decoded[0]["line"] == 1
        assert decoded[1]["line"] == 2

    def test_gha_format_annotates_and_escapes(self):
        tool = self.load_tool()
        lines = tool.render(self.sample_findings(), "gha")
        assert all(line.startswith("::error file=pkg/mod.py,") for line in lines)
        assert any("title=raw-dtype-cast" in line for line in lines)
        # commas inside properties would split the annotation: verify the
        # escape hook is wired by pushing a % through it
        (esc,) = tool.render(
            [type(self.sample_findings()[0])("p.py", 1, "r", "50% done")],
            "gha",
        )
        assert "50%25 done" in esc

    def test_text_format_matches_str(self):
        tool = self.load_tool()
        findings = self.sample_findings()
        assert tool.render(findings, "text") == [str(f) for f in findings]

    def test_exit_codes(self, tmp_path):
        tool = self.load_tool()
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        assert tool.main([str(clean)]) == 0
        (clean / "bad.py").write_text('y = x.astype("float16")\n')
        assert tool.main([str(clean), "--format", "json"]) == 1
        assert tool.main([str(tmp_path / "missing")]) == 2
