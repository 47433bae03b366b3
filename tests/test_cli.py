"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestGpus:
    def test_lists_specs(self, capsys):
        assert main(["gpus"]) == 0
        out = capsys.readouterr().out
        assert "V100-PCIe-32GB" in out
        assert "A100" in out
        assert "overlap m*" in out


class TestFactorizations:
    def test_qr_both_methods(self, capsys):
        rc = main(["qr", "-m", "16384", "-n", "16384", "-b", "2048"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recursive" in out and "blocking" in out
        assert "speedup" in out

    def test_qr_single_method_with_timeline(self, capsys):
        rc = main([
            "qr", "-m", "16384", "-n", "16384", "-b", "2048",
            "--method", "recursive", "--timeline",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "H2D copy" in out
        assert "legend:" in out
        assert "blocking" not in out

    def test_memory_cap(self, capsys):
        rc = main([
            "qr", "-m", "16384", "-n", "16384", "-b", "2048",
            "--memory-gib", "1", "--method", "recursive",
        ])
        assert rc == 0
        assert "capped" in capsys.readouterr().out

    def test_lu_and_chol(self, capsys):
        for cmd in ("lu", "chol"):
            rc = main([cmd, "-m", "8192", "-n", "8192", "-b", "1024",
                       "--method", "recursive"])
            assert rc == 0
        assert "TFLOPS" in capsys.readouterr().out

    def test_chol_rejects_rectangular(self, capsys):
        rc = main(["chol", "-m", "8192", "-n", "4096"])
        assert rc == 2

    def test_sync_and_no_opts_flags(self, capsys):
        rc = main([
            "qr", "-m", "8192", "-n", "8192", "-b", "1024",
            "--method", "recursive", "--sync", "--no-opts",
        ])
        assert rc == 0

    def test_unknown_gpu_maps_to_exit_code(self, capsys):
        # domain errors surface as one-line messages, not tracebacks
        rc = main(["qr", "--gpu", "H100-SXM"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "H100-SXM" in err

    def test_numeric_lu_and_chol(self, capsys):
        for cmd in ("lu", "chol"):
            rc = main([cmd, "-m", "64", "-n", "64", "-b", "16",
                       "--mode", "numeric", "--method", "recursive",
                       "--concurrency", "threads"])
            assert rc == 0
        assert "measured" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["qr", "-m", "128", "-n", "64", "-b", "16", "--method", "recursive"],
        ["gemm", "-M", "64", "-N", "64", "-K", "128", "-b", "32"],
    ])
    def test_numeric_timeline_is_the_recorded_run(self, capsys, argv):
        # serial numeric runs have no simulated trace: the chart comes from
        # the spans the run records
        rc = main(argv + ["--mode", "numeric", "--timeline",
                          "--memory-gib", "0.0005"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "H2D copy" in out and "achieved rate" in out

    def test_numeric_lu_rejects_rectangular(self, capsys):
        rc = main(["lu", "-m", "128", "-n", "64", "--mode", "numeric"])
        assert rc == 2
        assert "square" in capsys.readouterr().err


class TestGemm:
    def test_inner_and_outer(self, capsys):
        assert main(["gemm", "--kind", "inner", "-M", "8192", "-N", "8192",
                     "-K", "16384", "-b", "2048"]) == 0
        assert main(["gemm", "--kind", "outer", "-M", "16384", "-N", "8192",
                     "-K", "8192", "-b", "2048", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "ksplit-inner" in out
        assert "rowstream-outer" in out
        assert "legend:" in out


class TestTrace:
    @pytest.mark.parametrize("runtime", ["legacy", "dag"])
    def test_compare_sim_simulates_the_measured_runtime(self, capsys, runtime):
        """Measured on the eager executor ("legacy") or on the threaded
        task DAG ("dag"), the comparison row holds the one simulation of
        the same run."""
        from repro.config import SystemConfig
        from repro.hw.specs import V100_32GB
        from repro.qr.api import ooc_qr

        concurrency = {"legacy": "serial", "dag": "threads"}[runtime]
        rc = main(["trace", "--compare-sim", "--concurrency", concurrency])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"measured ({concurrency})" in out
        row = next(line for line in out.splitlines() if "makespan_s" in line)
        simulated = ooc_qr(
            (256, 128), mode="sim", config=SystemConfig(gpu=V100_32GB),
            blocksize=32,
        ).makespan
        assert f"{simulated:.6f}" in row

    def test_out_has_engine_lanes_and_a_scaled_rate(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--concurrency", "threads", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "H2D copy" in out and "Compute" in out
        rate = next(line for line in out.splitlines() if "achieved rate" in line)
        assert "0.0 TFLOPS" not in rate
        lanes = {
            e["args"]["name"]
            for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] == "M"
        }
        assert {"h2d", "compute", "d2h"} <= lanes


class TestLoadgen:
    def test_inject_prints_provenance(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "BENCH_serve.json"
        rc = main(["loadgen", "--jobs", "4", "--size", "48", "-b", "16",
                   "--workers", "2", "--inject", "worker_crash",
                   "--out", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "2 attempt(s)" in out and "worker_crash" in out
        doc = json.loads(out_json.read_text())
        assert doc["metrics"]["faults_injected"]["value"] > 0
        assert doc["metrics"]["job_retries"]["value"] > 0
        assert doc["jobs"]["failed"] == 0


class TestExperiments:
    def test_selected_experiment(self, capsys):
        rc = main(["experiments", "S5", "--no-artifacts"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S5" in out
        assert "0 failed shape checks" in out

    def test_unknown_id(self, capsys):
        rc = main(["experiments", "T99"])
        assert rc == 2
        assert "unknown ids" in capsys.readouterr().err

    def test_figure_experiment_with_artifact(self, capsys):
        rc = main(["experiments", "F8"])
        assert rc == 0
        assert "legend:" in capsys.readouterr().out

    def test_dist_scaling_is_reachable(self, capsys):
        rc = main(["experiments", "S15", "--no-artifacts"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S15" in out
        assert "1 experiments, 0 failed shape checks" in out

    def test_table_appends_s15(self):
        from repro.bench import EXPERIMENTS

        assert list(EXPERIMENTS)[-1] == "S15"
        assert len(EXPERIMENTS) == 28


class TestDist:
    def _rows(self, path):
        import json

        doc = json.loads(path.read_text())
        return doc["params"], {r["n_devices"]: r for r in doc["rows"]}

    def test_bench_out_writes_the_printed_shared_link_sweep(
        self, capsys, tmp_path
    ):
        out = tmp_path / "bench.json"
        rc = main([
            "dist", "--devices", "1", "4", "-m", "262144", "-n", "256",
            "--shared-link", "--bench-out", str(out),
        ])
        assert rc == 0
        params, rows = self._rows(out)
        assert params["shared_host_link"] is True
        speedup = rows[4]["speedup"]
        assert speedup < 1.2
        assert f"{speedup:.2f}x" in capsys.readouterr().out

    def test_bench_out_keeps_injected_fault_recovery(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "dist", "--devices", "4", "8", "-m", "262144", "-n", "256",
            "--inject", "device_loss:1", "--bench-out", str(out),
        ])
        assert rc == 0
        params, rows = self._rows(out)
        assert "shared_host_link" not in params
        printed = capsys.readouterr().out
        for row in rows.values():
            assert f"{row['makespan_s'] * 1e3:.1f} ms" in printed


class TestAnalyze:
    def test_full_sweep_clean(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out
        # every registry engine reports a clean one-liner
        for name in ("qr-blocking", "qr-recursive", "qr-tsqr", "lu-blocking",
                     "chol-recursive", "gemm-inner", "gemm-outer"):
            assert name in out
        assert "violation" not in out

    def test_single_engine_custom_shape(self, capsys):
        rc = main(["analyze", "--what", "plans", "--engine", "qr-recursive",
                   "-m", "128", "-n", "64", "-b", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "qr-recursive 128x64 b=8: clean" in out
        assert "lint:" not in out  # --what plans skips the lint pack

    def test_lint_only(self, capsys):
        assert main(["analyze", "--what", "lint"]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out
        assert "peak" not in out

    def test_memory_cap_still_verifies(self, capsys):
        rc = main(["analyze", "--what", "plans", "--engine", "qr-blocking",
                   "--memory-gib", "0.001"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_engine_exits_2(self, capsys):
        rc = main(["analyze", "--what", "plans", "--engine", "qr-quantum"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "qr-blocking" in err  # lists what is available
