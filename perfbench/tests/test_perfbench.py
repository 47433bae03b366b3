"""The benchmark's own tests: tiny smoke runs of every workload, exact
counts that repeat, layer bypass, and the contract's failure modes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import spec  # noqa: E402
from perfbench.probe import LayerProbe  # noqa: E402
from perfbench.workloads import entry_kwargs  # noqa: E402

WORKLOADS = [name for name, _ in spec.WORKLOADS]
BATCH = ["qr-tall", "square-dag", "qr-tall-ckpt"]

#: Per-layer counts that must repeat exactly for one seed.
EXACT = [
    "execution.h2d_bytes", "execution.d2h_bytes", "execution.gemm_flops",
    "execution.panel_flops", "execution.device_peak_bytes", "tc.gemm_calls",
    "runtime.tasks", "ckpt.bytes", "ckpt.commits", "health.probes",
]


def _run(workload: str, trace: int, out: Path, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    cache: dict[tuple, dict] = {}

    def get(workload: str, trace: int, repeat: int = 0) -> dict:
        key = (workload, trace, repeat)
        if key not in cache:
            out = tmp_path_factory.mktemp(f"{workload}-{trace}-{repeat}")
            cache[key] = _run(workload, trace, out)
        return cache[key]

    return get


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(results, workload):
    res = results(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_per_layer_metric(results, workload):
    res = results(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec.PER_LAYER_UNITS
    assert 0.0 <= res["metrics"]["obs.unattributed_frac"]["value"] <= 1.0


@pytest.mark.parametrize("workload", BATCH)
def test_exact_counts_repeat_for_one_seed(results, workload):
    first = results(workload, 1)["metrics"]
    second = results(workload, 1, repeat=1)["metrics"]
    assert {k: first[k]["value"] for k in EXACT} == {k: second[k]["value"] for k in EXACT}


def test_qr_tall_bypasses_runtime_analysis_serve_ckpt_health(results):
    metrics = results("qr-tall", 1)["metrics"]
    bypassed = [
        name for name in metrics
        if name.split(".")[0] in ("runtime", "analysis", "serve", "ckpt", "health")
    ]
    assert bypassed and all(metrics[name]["value"] == 0 for name in bypassed)
    assert metrics["execution.h2d_bytes"]["value"] > 0


def test_layers_each_workload_exists_to_exercise_are_measured(results):
    serve = results("serve-mixed", 1)["metrics"]
    assert serve["analysis.calls"]["value"] > 0
    assert serve["serve.cache_hit_frac"]["value"] > 0
    assert serve["dist.comm_words"]["value"] > 0
    dag = results("square-dag", 1)["metrics"]
    assert dag["runtime.tasks"]["value"] > 0 and dag["execution.trsm_s"]["value"] > 0
    ckpt = results("qr-tall-ckpt", 1)["metrics"]
    assert ckpt["ckpt.commits"]["value"] > 0 and ckpt["health.probes"]["value"] > 0


def test_missing_wrapped_function_reads_absent(monkeypatch):
    import repro.analysis
    from repro.obs.span import SpanRecorder

    monkeypatch.delattr(repro.analysis, "capture_job")
    with LayerProbe(SpanRecorder()) as probe:
        assert "repro.analysis.capture_job" in probe.missing
        assert "analysis.capture_s" in probe.absent_metrics()
        assert "analysis.verify_s" not in probe.absent_metrics()
    assert not hasattr(repro.analysis, "capture_job")


def test_probe_restores_every_wrapped_function():
    import repro.execution.numeric as numeric
    from repro.obs.span import SpanRecorder

    before = (numeric.tc_gemm, numeric.NumericExecutor.gemm)
    with LayerProbe(SpanRecorder()):
        assert numeric.tc_gemm is not before[0]
    assert (numeric.tc_gemm, numeric.NumericExecutor.gemm) == before


def test_retired_keyword_arguments_are_not_passed():
    def entry(a, *, config=None):
        return a

    assert entry_kwargs(entry, config=1, runtime="dag", concurrency="threads") == {
        "config": 1
    }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qr-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
