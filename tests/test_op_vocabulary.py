"""One op vocabulary: every executor records the same program.

For every registry engine (QR blocking/recursive/TSQR, LU, Cholesky and
both OOC GEMM engines) the simulator, serve admission's capture of the
matching job (:func:`repro.analysis.capture_job`) and the registry's task
graph must see the same op stream, op for op: engine, kind, canonical
name, bytes, flops, tag, device accesses and (where recorded) the host
region — and they must account the same :class:`RunStats`. The simulated
per-op durations and schedule are pinned to golden digests, so a change
to how ops are priced shows up here, not in a paper table; DAG task costs
are the same durations. Liveness is shared too: every executor refuses an
op on a freed buffer, and a second free.
"""

from __future__ import annotations

from functools import partial

import hashlib
from dataclasses import replace

import pytest

import repro.ooc.plan
from repro.analysis import ENGINE_BINDINGS, capture_job
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ExecutionError
from repro.execution import NumericExecutor, SimExecutor
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.inner import run_ksplit_inner
from repro.ooc.outer import run_rowstream_outer
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.runtime import GRAPH_BUILDERS, GraphBuilder
from repro.serve import JobSpec
from tests.conftest import make_tiny_spec

#: name -> (config, m, n, b) in the registry's argument convention.
CASES = {
    "paper": (PAPER_SYSTEM, 96, 64, 16),
    "tiny": (
        SystemConfig(gpu=make_tiny_spec(1 << 18), precision=Precision.TC_FP16),
        256, 128, 16,
    ),
}

#: sha256 (first 16 hex digits) of every simulated op's name, duration,
#: start and end, in schedule order, on each case's own device: streamed
#: chunks are sized by :func:`repro.ooc.plan.streamed_chunk`.
PINNED_SIM = {
    "paper": {
        "qr-blocking": "b2340142fdcc63a3",
        "qr-recursive": "c8449170d008dd56",
        "qr-tsqr": "c8449170d008dd56",
        "lu-blocking": "52365e302b406942",
        "lu-recursive": "ded48a1f6c7c0828",
        "chol-blocking": "e0829de386778fdd",
        "chol-recursive": "dd3d90c2d4183734",
        "gemm-inner": "0004b314f0ec4ee4",
        "gemm-outer": "54c101b2b6a6f1f1",
    },
    "tiny": {
        "qr-blocking": "15f89ef46c8121b8",
        "qr-recursive": "e426acb2132dd72d",
        "qr-tsqr": "e426acb2132dd72d",
        "lu-blocking": "108c9f7b9602c17f",
        "lu-recursive": "880557c451c4d61f",
        "chol-blocking": "208e5af8cf308633",
        "chol-recursive": "50a0de71aaa709e2",
        "gemm-inner": "d7536b62d227e16e",
        "gemm-outer": "6b5c5d53983baf3f",
    },
}

#: The same digests with the chunk rule's latency term zeroed, so every
#: plan streams the driver's own chunk (b, b/2 or the tile edge) — recorded
#: on the simulator before the op vocabulary was unified and before chunks
#: were latency-amortized. Only the chunk rule separates the two tables.
PINNED_SIM_FLOOR_CHUNKS = {
    "paper": {
        "qr-blocking": "e8d4a85e1f327296",
        "qr-recursive": "a15b58002197b54d",
        "qr-tsqr": "a15b58002197b54d",
        "lu-blocking": "0e468b91157bdf18",
        "lu-recursive": "160fb2f1ac87b81e",
        "chol-blocking": "4119881282719a09",
        "chol-recursive": "b47523494809a82f",
        "gemm-inner": "0004b314f0ec4ee4",
        "gemm-outer": "54c101b2b6a6f1f1",
    },
    "tiny": {
        "qr-blocking": "2c0af6ceccdc149e",
        "qr-recursive": "37683fbac2fec866",
        "qr-tsqr": "37683fbac2fec866",
        "lu-blocking": "b492e61808c4c128",
        "lu-recursive": "d24627f6fa045803",
        "chol-blocking": "584fe5a8809593e3",
        "chol-recursive": "bd281abf181b8576",
        "gemm-inner": "d7536b62d227e16e",
        "gemm-outer": "6b5c5d53983baf3f",
    },
}

STAT_FIELDS = (
    "h2d_bytes", "d2h_bytes", "d2d_bytes", "gemm_flops", "panel_flops",
    "n_gemms", "n_panels",
)


def _simulate(name: str, config: SystemConfig, m: int, n: int, b: int,
              opts: QrOptions | None = None):
    """Drive the engine a registry entry names on a SimExecutor, with the
    registry's argument convention (independent of the registry code)."""
    if name == "qr-tsqr":
        config = replace(config, panel_algorithm="tsqr")
    ex = SimExecutor(config)
    eb = config.element_bytes

    def host(rows, cols, label):
        return HostMatrix.shape_only(rows, cols, eb, name=label)

    opts = opts or QrOptions(blocksize=b)
    family, _, method = name.partition("-")
    if family == "qr":
        driver = ooc_blocking_qr if method == "blocking" else ooc_recursive_qr
        driver(ex, host(m, n, "A"), host(n, n, "R"), opts)
    elif family == "lu":
        driver = ooc_blocking_lu if method == "blocking" else ooc_recursive_lu
        driver(ex, host(n, n, "A"), opts)
    elif family == "chol":
        driver = (
            ooc_blocking_cholesky if method == "blocking"
            else ooc_recursive_cholesky
        )
        driver(ex, host(n, n, "A"), opts)
    elif method == "inner":
        gm, gn, k = n, n, m
        budget = ex.allocator.free_bytes // eb
        plan = plan_ksplit_inner(k, gm, gn, min(b, k), budget)
        run_ksplit_inner(
            ex, host(k, gm, "A").full(), host(k, gn, "B").full(),
            host(gm, gn, "C").full(), plan, pipelined=True,
        )
    else:
        gm, gn, k = m, n, n
        budget = ex.allocator.free_bytes // eb
        plan = plan_rowstream_outer(gm, k, gn, min(b, gm), budget)
        run_rowstream_outer(
            ex, host(gm, gn, "C").full(), host(gm, k, "A").full(),
            host(k, gn, "B").full(), plan, pipelined=True,
        )
    trace = ex.finish()
    ex.allocator.check_balanced()
    return ex, trace


def _capture(name: str, config: SystemConfig, m: int, n: int, b: int):
    """Serve admission's recording of the job that runs registry engine
    *name* at the registry's ``(m, n)``."""
    family, _, method = name.partition("-")
    opts = QrOptions(blocksize=b)
    if family == "gemm":
        if method == "inner":   # C (n x n) = A^T B, reduction m
            spec = JobSpec("gemm", ((m, n), (m, n)), options=opts, mode="sim")
        else:                   # C (m x n) -= A B, reduction n
            spec = JobSpec("gemm", ((m, n), (n, n)), options=opts,
                           trans_a=False, mode="sim")
        return capture_job(spec, config)
    if method == "tsqr":
        config, method = replace(config, panel_algorithm="tsqr"), "recursive"
    kind = {"chol": "cholesky"}.get(family, family)
    shape = (m, n) if family == "qr" else (n, n)
    return capture_job(
        JobSpec(kind, (shape,), method=method, options=opts, mode="sim"),
        config,
    )


def _vocabulary(ops) -> list[tuple]:
    """Executor-independent view of an op stream: allocation handles and
    host matrices renumbered in order of first appearance."""
    handles: dict[int, int] = {}
    rows = []
    for op in ops:
        accesses = tuple(
            (handles.setdefault(acc[0], len(handles)),) + tuple(acc[1:])
            for acc in op.tags.get("accesses", ())
        )
        rows.append((
            op.engine.value, op.kind.value, op.name, op.nbytes, op.flops,
            op.tags.get("tag"), accesses,
        ))
    return rows


def _host_regions(ops) -> list[tuple | None]:
    hosts: dict[int, int] = {}
    out = []
    for op in ops:
        region = op.tags.get("host_region")
        if region is None:
            out.append(None)
            continue
        out.append(
            (hosts.setdefault(region[0], len(hosts)),) + tuple(region[1:])
            + (op.tags.get("host_label"),)
        )
    return out


def _stats(stats) -> tuple[int, ...]:
    return tuple(getattr(stats, f) for f in STAT_FIELDS)


def _schedule_digest(trace) -> str:
    h = hashlib.sha256()
    for op in sorted(trace.ops, key=lambda o: (o.start, o.op_id)):
        h.update(
            f"{op.name}|{op.duration.hex()}|{op.start.hex()}|{op.end.hex()}\n"
            .encode()
        )
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", list(ENGINE_BINDINGS))
class TestOneVocabulary:
    def test_sim_capture_and_graph_record_the_same_ops(self, name, case):
        config, m, n, b = CASES[case]
        sim, _trace = _simulate(name, config, m, n, b)
        capture = _capture(name, config, m, n, b)
        graph = GRAPH_BUILDERS[name](config, m, n, b)
        expected = _vocabulary(sim.sim.ops)
        assert len(expected) > 0
        assert _vocabulary(capture.ops) == expected
        assert _vocabulary(graph.ops) == expected
        assert _host_regions(capture.ops) == _host_regions(graph.ops)
        assert any(r is not None for r in _host_regions(graph.ops))

    def test_run_stats_agree(self, name, case):
        config, m, n, b = CASES[case]
        sim, _trace = _simulate(name, config, m, n, b)
        capture = _capture(name, config, m, n, b)
        graph = GRAPH_BUILDERS[name](config, m, n, b)
        assert _stats(sim.stats) == _stats(capture.stats) == _stats(graph.stats)

    def test_sim_durations_pinned(self, name, case):
        config, m, n, b = CASES[case]
        _sim, trace = _simulate(name, config, m, n, b)
        assert _schedule_digest(trace) == PINNED_SIM[case][name]

    def test_floor_chunk_sim_durations_pinned(self, name, case, monkeypatch):
        monkeypatch.setattr(repro.ooc.plan, "op_latency_s", lambda gpu: 0.0)
        config, m, n, b = CASES[case]
        _sim, trace = _simulate(name, config, m, n, b)
        assert _schedule_digest(trace) == PINNED_SIM_FLOOR_CHUNKS[case][name]

    def test_graph_costs_are_sim_durations(self, name, case):
        # one duration model prices sim ops and DAG tasks alike (trsm and
        # the LU/Cholesky panels included)
        config, m, n, b = CASES[case]
        sim, _trace = _simulate(name, config, m, n, b)
        graph = GRAPH_BUILDERS[name](config, m, n, b)
        costs = [task.cost for task in graph.tasks if task.op is not None]
        assert costs == [op.duration for op in sim.sim.ops]

    def test_sim_ops_carry_host_regions(self, name, case):
        config, m, n, b = CASES[case]
        sim, _trace = _simulate(name, config, m, n, b)
        graph = GRAPH_BUILDERS[name](config, m, n, b)
        assert _host_regions(sim.sim.ops) == _host_regions(graph.ops)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", [
    "qr-blocking", "lu-blocking", "lu-recursive", "chol-blocking",
    "chol-recursive",
])
def test_explicit_chunks_keep_the_floor_pins(name, case):
    # these engines stream only outer-product chunks and b-wide blocks, so
    # naming the old defaults explicitly reproduces the old schedule
    config, m, n, b = CASES[case]
    opts = QrOptions(blocksize=b, outer_blocksize=b // 2, tile_blocksize=b)
    _sim, trace = _simulate(name, config, m, n, b, opts)
    assert _schedule_digest(trace) == PINNED_SIM_FLOOR_CHUNKS[case][name]


def _free_then_use(ex, use: str) -> None:
    """A buggy driver: frees a buffer, then reads it back, GEMMs on it or
    frees it again."""
    s = ex.stream("s")
    host = HostMatrix.zeros(8, 8, name="H")
    a, c = ex.alloc(8, 8, "a"), ex.alloc(8, 8, "c")
    ex.h2d(a, host.full(), s)
    ex.free(a)
    if use == "read":
        ex.d2h(host.full(), a, s)
    elif use == "gemm":
        ex.gemm(c, a, a, s)
    else:
        ex.free(a)
    ex.free(c)


EXECUTORS = {
    "numeric": NumericExecutor,
    "threads": GraphBuilder,
    "sim": SimExecutor,
    "graph": partial(GraphBuilder, materialize=False),
}


#: What each misuse raises, on every executor.
REFUSALS = {
    "read": "use of freed device buffer 'a'",
    "gemm": "use of freed device buffer 'a'",
    "free": "double free of device buffer 'a'",
}


@pytest.mark.parametrize("use", sorted(REFUSALS))
class TestFreedOperand:
    """Every executor shares one liveness rule: an op on a freed buffer,
    or a second free of it, raises when it is issued (so a recorded graph
    never holds one)."""

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_executors_refuse(self, executor, use):
        ex = EXECUTORS[executor](CASES["tiny"][0])
        try:
            with pytest.raises(ExecutionError, match=REFUSALS[use]):
                _free_then_use(ex, use)
        finally:
            ex.close()
