"""The single-device run harness behind ``ooc_qr`` / ``ooc_lu`` /
``ooc_cholesky`` / ``ooc_gemm``: which option combinations run, what a
hybrid run returns, and that threaded runs never leak engine threads."""

from __future__ import annotations

import contextlib
import itertools
import threading
from unittest import mock

import numpy as np
import pytest

import repro.execution.run as run_module
import repro.factor.api as factor_api
import repro.ooc.api as ooc_api
import repro.qr.api as qr_api
from repro.bench.workloads import random_tall
from repro.ckpt import CheckpointConfig
from repro.config import SystemConfig
from repro.errors import (
    CheckpointError,
    ExecutionError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from repro.execution.numeric import NumericExecutor
from repro.execution.run import sim_replay
from repro.execution.sim import SimExecutor
from repro.factor.api import ooc_cholesky, ooc_lu
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.health.options import HealthOptions
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.runtime import DagScheduler, GraphBuilder

from tests.conftest import make_tiny_spec

CONFIG = SystemConfig(gpu=make_tiny_spec(1 << 17), precision=Precision.TC_FP16)
MODES = ("numeric", "sim", "hybrid")
CONCURRENCY = ("serial", "threads")
#: How a numeric run executes its ops: "legacy" as the entry point makes
#: it (eager serial, or the task DAG on threads); "dag" records every
#: numeric run, serial ones too, as a task DAG replayed serially.
RUNTIMES = ("legacy", "dag")
ENTRY_POINTS = ("qr", "lu", "cholesky", "gemm")


@contextlib.contextmanager
def _runtime(runtime: str):
    """Swap the eager executor for the task-graph builder, and the
    threaded scheduler for the serial one, when *runtime* is "dag"."""
    if runtime == "legacy":
        yield
        return
    with mock.patch.object(run_module, "NumericExecutor", GraphBuilder), \
            mock.patch.object(
                DagScheduler, "run_threaded", DagScheduler.run_serial
            ):
        yield


def _call(entry, *, mode="numeric", concurrency="serial", runtime="legacy",
          checkpoint=None, health=False, config=CONFIG):
    """Run one entry point on a small out-of-core input."""
    with _runtime(runtime):
        return _call_entry(entry, mode=mode, concurrency=concurrency,
                           checkpoint=checkpoint, health=health, config=config)


def _call_entry(entry, *, mode, concurrency, checkpoint, health, config):
    kwargs = dict(mode=mode, concurrency=concurrency, config=config)
    if entry == "gemm":
        a, b = random_tall(96, 32, seed=1), random_tall(32, 24, seed=2)
        return ooc_gemm(a, b, blocksize=32, **kwargs)
    options = QrOptions(
        blocksize=16, health=HealthOptions(mode="monitor" if health else "off")
    )
    kwargs.update(options=options, checkpoint=checkpoint)
    if entry == "qr":
        return ooc_qr(random_tall(96, 48, seed=3), **kwargs)
    if entry == "lu":
        return ooc_lu(diagonally_dominant(64, 64, seed=4), **kwargs)
    return ooc_cholesky(spd_matrix(64, seed=5), **kwargs)


def _refused(entry, mode, concurrency, checkpoint, health):
    """Which combinations each entry point refuses, restated independently
    of :data:`repro.execution.run.REFUSALS`. The task DAG refuses
    nothing the eager executor runs."""
    if mode == "hybrid" and entry != "qr":
        return True
    return mode != "numeric" and bool(
        concurrency == "threads" or checkpoint or health
    )


def _combinations():
    for entry, mode, conc, runtime, ckpt, health in itertools.product(
        ENTRY_POINTS, MODES, CONCURRENCY, RUNTIMES, (False, True), (False, True)
    ):
        # options an entry point does not take are left at their default
        if entry == "gemm" and (ckpt or health):
            continue
        yield entry, mode, conc, runtime, ckpt, health


class TestRefusalMatrix:
    @pytest.mark.parametrize(
        "entry,mode,concurrency,runtime,ckpt,health", list(_combinations())
    )
    def test_runs_or_refuses(
        self, tmp_path, entry, mode, concurrency, runtime, ckpt, health
    ):
        before = threading.active_count()
        call = dict(
            mode=mode, concurrency=concurrency, runtime=runtime, health=health,
            checkpoint=CheckpointConfig(str(tmp_path)) if ckpt else None,
        )
        if _refused(entry, mode, concurrency, ckpt, health):
            with pytest.raises(ValidationError):
                _call(entry, **call)
        else:
            res = _call(entry, **call)
            assert res.makespan > 0.0
            assert res.stats.h2d_bytes > 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("entry", ["qr", "lu", "cholesky"])
    @pytest.mark.parametrize("mode", ["numeric", "hybrid"])
    def test_shape_inputs_refuse_data_modes(self, entry, mode):
        fn = {"qr": ooc_qr, "lu": ooc_lu, "cholesky": ooc_cholesky}[entry]
        with pytest.raises(ValidationError):
            fn((64, 64), mode=mode, config=CONFIG, blocksize=16)

    def test_gemm_shape_operands_refuse_numeric(self):
        with pytest.raises(ValidationError, match="shape"):
            ooc_gemm((64, 32), (32, 16), mode="numeric", config=CONFIG)


class TestHybridAnchors:
    """``mode="hybrid"`` = the numeric run plus the sim timeline of the
    same driver; these pin it to the two single-mode runs."""

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_factors_bitwise_equal_numeric(self, method):
        a = random_tall(96, 48, seed=11)
        numeric = ooc_qr(a, method=method, mode="numeric", config=CONFIG,
                         blocksize=16)
        hybrid = ooc_qr(a, method=method, mode="hybrid", config=CONFIG,
                        blocksize=16)
        assert np.array_equal(hybrid.q, numeric.q)
        assert np.array_equal(hybrid.r, numeric.r)

    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_trace_equals_sim(self, method):
        a = random_tall(96, 48, seed=12)
        sim = ooc_qr(a, method=method, mode="sim", config=CONFIG, blocksize=16)
        hybrid = ooc_qr(a, method=method, mode="hybrid", config=CONFIG,
                        blocksize=16)

        def ops(trace):
            return [
                (op.name, op.engine, op.kind, op.start, op.end, op.nbytes,
                 op.flops)
                for op in trace.ops
            ]

        assert ops(hybrid.trace) == ops(sim.trace)
        assert hybrid.makespan == sim.makespan
        assert hybrid.stats.makespan == sim.makespan

    def test_divergent_sim_op_stream_raises(self, monkeypatch):
        panel_qr = SimExecutor.panel_qr

        def panel_qr_twice(self, panel, r_out, stream, *, tag="panel"):
            panel_qr(self, panel, r_out, stream, tag=tag)
            panel_qr(self, panel, r_out, stream, tag=tag)

        monkeypatch.setattr(SimExecutor, "panel_qr", panel_qr_twice)
        with pytest.raises(ExecutionError, match="n_panels"):
            ooc_qr(random_tall(96, 48, seed=13), mode="hybrid", config=CONFIG,
                   blocksize=16)


def _upload(ex, stream, array, name):
    buf = ex.alloc(*array.shape, name)
    ex.h2d(buf, HostMatrix.from_array(array).full(), stream)
    return buf


def _download(ex, stream, buf, out):
    ex.d2h(out.full(), buf, stream)
    ex.free(buf)


def _gemm_views(ex, rng, out):
    """C = A[:, :4] A[:, 4:] on views of one buffer."""
    a_np = rng.standard_normal((4, 8)).astype(np.float32)
    s = ex.stream("s")
    a = _upload(ex, s, a_np, "a")
    c = ex.alloc(4, 4, "c")
    ex.gemm(c, a.view(0, 4, 0, 4), a.view(0, 4, 4, 8), s)
    _download(ex, s, c, out)
    ex.free(a)
    return a_np[:, :4] @ a_np[:, 4:]


def _events(ex, rng, out):
    """Cross-stream ordering through an event."""
    a_np = rng.standard_normal((6, 6)).astype(np.float32)
    load, compute = ex.stream("load"), ex.stream("compute")
    a = _upload(ex, load, a_np, "a")
    ex.wait_event(compute, ex.record_event(load))
    c = ex.alloc(6, 6, "c")
    ex.gemm(c, a, a, compute, trans_a=True)
    ex.wait_event(load, ex.record_event(compute))
    _download(ex, load, c, out)
    ex.free(a)
    return a_np.T @ a_np


def _trsm(ex, rng, out):
    tri = np.tril(rng.uniform(1.0, 2.0, (12, 12))).astype(np.float32)
    rhs = rng.standard_normal((12, 8)).astype(np.float32)
    s = ex.stream("s")
    tri_dev, b = _upload(ex, s, tri, "tri"), _upload(ex, s, rhs, "b")
    ex.trsm(tri_dev, b, s, lower=True)
    _download(ex, s, b, out)
    ex.free(tri_dev)
    return np.linalg.solve(tri.astype(np.float64), rhs)


def _panel_lu(ex, rng, out):
    a_np = diagonally_dominant(32, 8, seed=70)
    s = ex.stream("s")
    panel, u = _upload(ex, s, a_np, "panel"), ex.alloc(8, 8, "u")
    ex.panel_lu(panel, u, s)
    _download(ex, s, panel, out)
    ex.free(u)
    return a_np


def _lu_product(packed):
    """L U of a packed tall panel (unit lower L, square upper U)."""
    b = packed.shape[1]
    return (np.tril(packed, -1) + np.eye(*packed.shape)) @ np.triu(packed[:b])


def _panel_cholesky(ex, rng, out):
    s_np = spd_matrix(24, seed=71)[:, :8].copy()
    s = ex.stream("s")
    panel = _upload(ex, s, s_np, "panel")
    ex.panel_cholesky(panel, s)
    _download(ex, s, panel, out)
    l11 = np.linalg.cholesky(s_np[:8].astype(np.float64))
    below = np.linalg.solve(l11, s_np[8:].astype(np.float64).T).T
    return np.vstack([l11, below])


#: op kind -> (op stream, output shape, map from output to the reference)
_OP_STREAMS = {
    "gemm-views": (_gemm_views, (4, 4), None),
    "events": (_events, (6, 6), None),
    "trsm": (_trsm, (12, 8), None),
    "panel_lu": (_panel_lu, (32, 8), _lu_product),
    "panel_cholesky": (_panel_cholesky, (24, 8), None),
}
FP32 = SystemConfig(gpu=make_tiny_spec(1 << 17), precision=Precision.FP32)


class TestSimReplay:
    """The hybrid cross-check at op level: every op kind accounts the same
    counters on the numeric executor and on its sim replay."""

    @pytest.mark.parametrize("op", list(_OP_STREAMS))
    def test_op_stream_replays(self, op):
        body, shape, post = _OP_STREAMS[op]
        out = HostMatrix.zeros(*shape)

        def driver(ex, _checkpoint):
            return body(ex, np.random.default_rng(5), out)

        ex = NumericExecutor(FP32)
        expected = driver(ex, None)
        ex.allocator.check_balanced()
        trace = sim_replay(driver, FP32, ex.stats)
        actual = post(out.data) if post else out.data
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-4)
        assert trace.makespan > 0.0
        assert ex.stats.makespan == trace.makespan


def _failing_driver(ex, *_args, **_kwargs):
    """Issue real work on the executor, then fail mid-run."""
    stream = ex.stream("fail")
    buf = ex.alloc(8, 8, "fail")
    ex.h2d(buf, HostMatrix.from_array(np.ones((8, 8), np.float32)).full(),
           stream)
    raise NumericalError("driver failed mid-run")


_DRIVERS = {
    "qr": (qr_api, "ooc_recursive_qr"),
    "lu": (factor_api, "ooc_recursive_lu"),
    "cholesky": (factor_api, "ooc_recursive_cholesky"),
    "gemm": (ooc_api, "run_rowstream_outer"),
}


class TestThreadsNeverLeak:
    @pytest.mark.parametrize(
        "entry,runtime",
        [("qr", "legacy"), ("qr", "dag"), ("lu", "legacy"),
         ("cholesky", "legacy"), ("gemm", "legacy"), ("gemm", "dag")],
    )
    def test_driver_raising_mid_run(self, monkeypatch, entry, runtime):
        module, name = _DRIVERS[entry]
        monkeypatch.setattr(module, name, _failing_driver)
        before = threading.active_count()
        with pytest.raises(NumericalError):
            _call(entry, concurrency="threads", runtime=runtime)
        assert threading.active_count() == before

    @pytest.mark.parametrize("entry", ["qr", "lu", "cholesky"])
    def test_refused_factorization(self, entry):
        before = threading.active_count()
        with pytest.raises(ValidationError):
            _call(entry, concurrency="threads", mode="sim")
        assert threading.active_count() == before

    @pytest.mark.parametrize("entry", ["qr", "lu", "cholesky"])
    def test_refused_resume(self, tmp_path, entry):
        """A checkpoint written under other options is refused mid-run,
        after the threaded executor exists."""
        ckpt = CheckpointConfig(str(tmp_path))
        _call(entry, checkpoint=ckpt)
        other = SystemConfig(gpu=make_tiny_spec(1 << 18), precision=Precision.TC_FP16)
        before = threading.active_count()
        with pytest.raises(CheckpointError, match="config-mismatch"):
            _call(entry, checkpoint=ckpt, concurrency="threads", config=other)
        assert threading.active_count() == before

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_refused_gemm_forms(self, runtime):
        a, b = random_tall(64, 32, seed=6), random_tall(64, 16, seed=7)
        before = threading.active_count()
        for _ in range(5):
            with pytest.raises(ValidationError), _runtime(runtime):
                ooc_gemm(a, b, trans_a=True, alpha=2.0, config=CONFIG,
                         concurrency="threads")
        assert threading.active_count() == before

    def test_refused_gemm_shapes(self):
        a, b = random_tall(64, 32, seed=8), random_tall(48, 16, seed=9)
        before = threading.active_count()
        with pytest.raises(ShapeError):
            ooc_gemm(a, b, trans_a=True, config=CONFIG, concurrency="threads")
        assert threading.active_count() == before
