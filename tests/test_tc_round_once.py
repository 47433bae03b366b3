"""Round-once semantics of TensorCore input rounding.

A device buffer keeps the rounded copies of its GEMM-input rects next to
its data (``payload["rounded"]``), so a resident operand is rounded once
per residence. These tests pin the contract:

* every op that writes a buffer between two GEMM reads invalidates the
  copies, on the serial and threaded executors and on the DAG runtime,
  so results are bitwise what rounding on every use gives;
* a resident operand read by several GEMMs is rounded once;
* no copy survives a buffer's free, on the legacy path and on the DAG
  backend's free task.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.tc.gemm as tc_gemm_module
from repro.config import SystemConfig
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.runtime import DagScheduler, GraphBuilder, NumericGraphBackend
from repro.tc.gemm import RoundedCopies, tc_gemm

from conftest import make_tiny_spec

M, K, N = 24, 16, 12
RUNS = ("serial", "threads", "dag-serial", "dag-threads")
WRITERS = ("h2d", "d2d", "gemm", "panel_qr", "panel_lu", "panel_cholesky", "trsm")


@pytest.fixture
def cfg() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(), precision=Precision.TC_FP16)


def _gaussian(rng, rows: int, cols: int) -> np.ndarray:
    # off-grid fp32 values: every rounding differs from the input
    return rng.standard_normal((rows, cols)).astype(np.float32)


def _x_new(writer: str, rng) -> np.ndarray:
    """Host data the writer starts from (its input for panel/trsm ops)."""
    if writer == "panel_lu":
        return diagonally_dominant(K, N, seed=3)
    if writer == "panel_cholesky":
        a = _gaussian(rng, K, N)
        a[:N] = spd_matrix(N, seed=3)
        return a
    return _gaussian(rng, K, N)


def _program(ex, writer: str, host: dict[str, HostMatrix]) -> None:
    """C1 = Y X; <writer writes X>; C2 = Y X; move C1, C2 and X out."""
    s = ex.stream("main")
    y = ex.alloc(M, K, "Y")
    x = ex.alloc(K, N, "X")
    c1 = ex.alloc(M, N, "C1")
    c2 = ex.alloc(M, N, "C2")
    ex.h2d(y, host["y"].region(), s)
    ex.h2d(x, host["x"].region(), s)
    ex.gemm(c1, y, x, s)
    if writer == "h2d":
        ex.h2d(x, host["x_new"].region(), s)
    elif writer == "d2d":
        z = ex.alloc(K, N, "Z")
        ex.h2d(z, host["x_new"].region(), s)
        ex.d2d(x, z, s)
        ex.free(z)
    elif writer == "gemm":
        w = ex.alloc(K, K, "W")
        z = ex.alloc(K, N, "Z")
        ex.h2d(w, host["w"].region(), s)
        ex.h2d(z, host["x_new"].region(), s)
        ex.gemm(x, w, z, s)
        ex.free(w)
        ex.free(z)
    else:
        ex.h2d(x, host["x_new"].region(), s)
        # re-read X so the new data is cached before the writer runs
        ex.gemm(c2, y, x, s)
        if writer in ("panel_qr", "panel_lu"):
            # the triangle output is written too: read it before and after
            tri = ex.alloc(N, N, "R")
            c_tri = ex.alloc(M, N, "Ctri")
            ex.h2d(tri, host["tri"].region(), s)
            ex.gemm(c_tri, y.view(0, M, 0, N), tri, s)
            ex.d2h(host["c_tri1"].region(), c_tri, s)
            if writer == "panel_qr":
                ex.panel_qr(x, tri, s)
            else:
                ex.panel_lu(x, tri, s)
            ex.gemm(c_tri, y.view(0, M, 0, N), tri, s)
            ex.d2h(host["c_tri2"].region(), c_tri, s)
            ex.d2h(host["tri_out"].region(), tri, s)
            ex.free(tri)
            ex.free(c_tri)
        elif writer == "panel_cholesky":
            ex.panel_cholesky(x, s)
        else:
            t = ex.alloc(K, K, "T")
            ex.h2d(t, host["t"].region(), s)
            ex.trsm(t, x, s)
            ex.free(t)
    ex.gemm(c2, y, x, s)
    ex.d2h(host["c1"].region(), c1, s)
    ex.d2h(host["c2"].region(), c2, s)
    ex.d2h(host["x_out"].region(), x, s)
    ex.synchronize()
    for buf in (y, x, c1, c2):
        ex.free(buf)


def _run(run: str, cfg: SystemConfig, writer: str, host) -> None:
    if run.startswith("dag"):
        builder = GraphBuilder(cfg)
        _program(builder, writer, host)
        sched = DagScheduler(builder.graph)
        backend = NumericGraphBackend(cfg)
        if run == "dag-serial":
            sched.run_serial(backend)
        else:
            sched.run_threaded(backend)
        return
    ex = ConcurrentNumericExecutor(cfg) if run == "threads" else NumericExecutor(cfg)
    try:
        _program(ex, writer, host)
    finally:
        ex.close()


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("writer", WRITERS)
def test_writer_invalidates_rounded_copies(cfg, writer, run):
    rng = np.random.default_rng(11)
    y = _gaussian(rng, M, K)
    x = _gaussian(rng, K, N)
    t = np.tril(_gaussian(rng, K, K))
    t[np.diag_indices(K)] += np.float32(K)
    host = {
        "y": HostMatrix.from_array(y),
        "x": HostMatrix.from_array(x),
        "x_new": HostMatrix.from_array(_x_new(writer, rng)),
        "w": HostMatrix.from_array(_gaussian(rng, K, K)),
        "t": HostMatrix.from_array(t),
        "c1": HostMatrix.zeros(M, N),
        "c2": HostMatrix.zeros(M, N),
        "x_out": HostMatrix.zeros(K, N),
        "tri": HostMatrix.from_array(_gaussian(rng, N, N)),
        "c_tri1": HostMatrix.zeros(M, N),
        "c_tri2": HostMatrix.zeros(M, N),
        "tri_out": HostMatrix.zeros(N, N),
    }
    _run(run, cfg, writer, host)
    x_after = host["x_out"].data
    assert not np.array_equal(x_after, x)
    # reference: round on every use, no copies
    np.testing.assert_array_equal(host["c1"].data, tc_gemm(y, x))
    np.testing.assert_array_equal(host["c2"].data, tc_gemm(y, x_after))
    if writer in ("panel_qr", "panel_lu"):
        tri, tri_after = host["tri"].data, host["tri_out"].data
        assert not np.array_equal(tri_after, tri)
        np.testing.assert_array_equal(host["c_tri1"].data, tc_gemm(y[:, :N], tri))
        np.testing.assert_array_equal(
            host["c_tri2"].data, tc_gemm(y[:, :N], tri_after)
        )


def _count_roundings(monkeypatch) -> list[tuple[int, ...]]:
    calls: list[tuple[int, ...]] = []
    original = tc_gemm_module.round_to

    def counting(a, fmt, stats=None):
        calls.append(np.shape(a))
        return original(a, fmt, stats)

    monkeypatch.setattr(tc_gemm_module, "round_to", counting)
    return calls


def test_resident_operand_rounded_once(cfg, monkeypatch):
    """After one GEMM on all of resident A and B, nine GEMMs on their row
    and column blocks slice the copies: each is rounded once."""
    rng = np.random.default_rng(2)
    ex = NumericExecutor(cfg)
    s = ex.stream("main")
    a = ex.alloc(M, K, "A")
    b = ex.alloc(K, N, "B")
    c = ex.alloc(M, N, "C")
    ex.h2d(a, HostMatrix.from_array(_gaussian(rng, M, K)).region(), s)
    ex.h2d(b, HostMatrix.from_array(_gaussian(rng, K, N)).region(), s)
    calls = _count_roundings(monkeypatch)
    ex.gemm(c.view(0, M, 0, N), a, b, s)               # rounds A and B whole
    for col0 in range(0, N, 4):
        for row0 in range(0, M, 8):
            ex.gemm(
                c.view(row0, row0 + 8, col0, col0 + 4),
                a.view(row0, row0 + 8, 0, K),
                b.view(0, K, col0, col0 + 4),
                s,
            )
    assert calls == [(M, K), (K, N)]
    assert len(a.payload["rounded"]) == 1
    ex.free(a)
    ex.free(b)
    ex.free(c)


def test_slices_equal_fresh_rounding(cfg):
    """A GEMM on a sub-rect of a cached operand is bitwise the GEMM on a
    freshly rounded sub-rect, transposed or not."""
    rng = np.random.default_rng(4)
    stored = _gaussian(rng, 40, 24)
    other = _gaussian(rng, 24, 8)
    copies = RoundedCopies()
    tc_gemm(stored, other, a_slot=(copies, (0, 40, 0, 24)))
    sub = stored[8:32, 4:20]
    slot = (copies, (8, 32, 4, 20))
    np.testing.assert_array_equal(
        tc_gemm(sub, other[4:20], a_slot=slot), tc_gemm(sub, other[4:20])
    )
    lhs = _gaussian(rng, 24, 16)
    np.testing.assert_array_equal(
        tc_gemm(sub, lhs, trans_a=True, a_slot=slot),
        tc_gemm(sub, lhs, trans_a=True),
    )


def test_invalidate_drops_only_overlapping_copies():
    copies = RoundedCopies()
    left = np.zeros((4, 4), dtype=np.float32)
    copies.store("fp16", (0, 4, 0, 4), left)
    copies.store("fp16", (0, 4, 4, 8), left)
    copies.store("bf16", (0, 4, 0, 8), np.zeros((4, 8), dtype=np.float32))
    copies.invalidate((0, 4, 6, 7))
    assert copies.lookup("fp16", (1, 3, 0, 2)) is not None
    assert copies.lookup("fp16", (0, 4, 4, 8)) is None
    assert copies.lookup("bf16", (0, 4, 0, 4)) is None
    # a larger store replaces the copies it contains
    copies.store("fp16", (0, 4, 0, 8), np.zeros((4, 8), dtype=np.float32))
    assert len(copies) == 1


def test_no_copy_survives_free_legacy(cfg):
    ex = NumericExecutor(cfg)
    s = ex.stream("main")
    a = ex.alloc(M, K, "A")
    b = ex.alloc(K, N, "B")
    c = ex.alloc(M, N, "C")
    ex.gemm(c, a, b, s)
    assert len(a.payload["rounded"]) == len(b.payload["rounded"]) == 1
    for buf in (a, b, c):
        ex.free(buf)
        assert "rounded" not in buf.payload and "data" not in buf.payload


@pytest.mark.parametrize("threaded", [False, True])
def test_no_copy_survives_free_dag(cfg, threaded):
    """The DAG backend's free *task* drops the copies, not only the
    build-time free."""
    rng = np.random.default_rng(6)
    builder = GraphBuilder(cfg)
    s = builder.stream("main")
    a = builder.alloc(M, K, "A")
    b = builder.alloc(K, N, "B")
    c = builder.alloc(M, N, "C")
    out = HostMatrix.zeros(M, N)
    builder.h2d(a, HostMatrix.from_array(_gaussian(rng, M, K)).region(), s)
    builder.h2d(b, HostMatrix.from_array(_gaussian(rng, K, N)).region(), s)
    builder.gemm(c, a, b, s)
    builder.gemm(c, a, b, s, beta=1.0)
    builder.d2h(out.region(), c, s)
    for buf in (a, b, c):
        builder.free(buf)
    # build time created no data and no copies
    assert all("rounded" not in buf.payload for buf in (a, b, c))
    backend = NumericGraphBackend(cfg)
    sched = DagScheduler(builder.graph)
    if threaded:
        sched.run_threaded(backend)
    else:
        sched.run_serial(backend)
    for buf in (a, b, c):
        assert buf.freed
        assert "rounded" not in buf.payload and "data" not in buf.payload
    assert np.isfinite(out.data).all()


def test_concurrent_writers_never_resurrect_stale_copies():
    """Threads each own one column block of a shared array: write it,
    invalidate it, then round it through the shared copies. Stores and
    invalidations of *other* blocks race on the entry list; a lost update
    would bring back a stale copy of some thread's block."""
    n_threads, width, rows, rounds = 6, 4, 16, 1500
    data = np.zeros((rows, n_threads * width), dtype=np.float32)
    copies = RoundedCopies()
    eye = np.eye(width, dtype=np.float32)
    errors: list[str] = []

    def worker(i: int) -> None:
        rng = np.random.default_rng(100 + i)
        rect = (0, rows, i * width, (i + 1) * width)
        block = data[:, i * width : (i + 1) * width]
        try:
            for _ in range(rounds):
                block[:] = rng.standard_normal(block.shape)
                copies.invalidate(rect)
                got = tc_gemm(block, eye, a_slot=(copies, rect))
                if not np.array_equal(got, tc_gemm(block, eye)):
                    errors.append(f"thread {i} read a stale copy")
                    return
        except Exception as exc:  # surfaced through `errors`
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
