"""Golden pin of the timeline views for one small fixed simulated QR.

The paper's Figures 7-15 are rendered by ``render_timeline`` /
``render_summary`` and exported as Chrome traces; this test pins the
exact text and the exported event list of a 221-op recursive QR so any
change to how a timeline is read, bucketed, summed or exported shows up
as a diff here, not only in ``benchmarks/results``.

The same run with the streamed-chunk rule's latency term zeroed (every
plan streams the driver's own chunk: 365 ops) is pinned too, to the
values recorded before chunks were latency-amortized; only the chunk
rule separates the two sets of pins.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.ooc.plan
from repro.obs import render_summary, render_timeline, spans_to_chrome_trace
from repro.qr.api import ooc_qr

TIMELINE = """\
golden qr
H2D copy |>>>>>     >>>>>>>>>>>>>>>>     >>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>     >>>>>>>>>>>>>>>>     |  73.0% busy
Compute  |    PPP     ## ######    PP     ################## ##=################   PPP     #########    PP    |  15.3% busy
D2H copy |      <<<<<  < <<<<<<<    <<<<<<                 <<<<<<<<<<<<<<<<<<<<<     <<<<<  < <<<<<<<    <<<<<|  35.2% busy
         0                                                                                             126 ms
legend: > h2d   < d2h   # gemm   P panel   = d2d stage   . small"""

SUMMARY = """\
golden qr
  makespan        : 126 ms
  compute busy    : 19 ms
  H2D traffic     : 1.07 GB (92 ms)
  D2H traffic     : 578.81 MB (44 ms)
  overlap ratio   : 0.218
  achieved rate   : 4.4 TFLOPS"""

#: Engine rows of the Chrome export, then the op count and a digest of
#: every complete event's (tid, ts, dur, name, cat), sorted.
CHROME_LANES = [(0, "h2d"), (1, "compute"), (2, "d2h")]
CHROME_OPS = 221
CHROME_DIGEST = "a4df8618d7aa6349f5efd9235dec278db0e1ccba1c07dd8e10f1c5d25f633cbd"

FLOOR_CHUNK_TIMELINE = """\
golden qr
H2D copy |>>>>>     >>>>>>>>>>>>>>>>     >>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>     >>>>>>>>>>>>>>>>     |  73.2% busy
Compute  |    PPP     #########    PP     ################## ###################   PPP     #########    PP    |  16.1% busy
D2H copy |      <<<<<  < <<<<<<     <<<<<<                 <<<<<<<<<<<<<<<<<<<<<     <<<<<  < <<<<<<     <<<<<|  35.4% busy
         0                                                                                             126 ms
legend: > h2d   < d2h   # gemm   P panel   = d2d stage   . small"""

FLOOR_CHUNK_SUMMARY = """\
golden qr
  makespan        : 126 ms
  compute busy    : 20 ms
  H2D traffic     : 1.07 GB (92 ms)
  D2H traffic     : 578.81 MB (45 ms)
  overlap ratio   : 0.227
  achieved rate   : 4.4 TFLOPS"""

FLOOR_CHUNK_OPS = 365
FLOOR_CHUNK_DIGEST = "a794c5592a8e404d1b6105777febaa07296f1a425f02f4b26120e5bfa47bd6fb"


def _golden_qr():
    return ooc_qr(
        (16384, 4096), method="recursive", mode="sim", blocksize=1024,
        device_memory=192 << 20,
    )


@pytest.fixture(scope="module")
def golden():
    return _golden_qr()


@pytest.fixture(scope="module")
def floor_chunk_golden():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.ooc.plan, "op_latency_s", lambda gpu: 0.0)
        return _golden_qr()


def chrome_events(result, tmp_path) -> list[dict]:
    path = spans_to_chrome_trace(result.trace.spans(), tmp_path / "golden.json")
    return json.loads(path.read_text())["traceEvents"]


def check_chrome_events(result, tmp_path, n_ops: int, digest: str) -> None:
    events = chrome_events(result, tmp_path)
    lanes = sorted((e["tid"], e["args"]["name"]) for e in events if e["ph"] == "M")
    ops = sorted(
        (e["tid"], e["ts"], e["dur"], e["name"], e["cat"])
        for e in events if e["ph"] == "X"
    )
    assert lanes == CHROME_LANES
    assert len(ops) == n_ops
    assert hashlib.sha256(json.dumps([lanes, ops]).encode()).hexdigest() == digest


def test_timeline_text(golden):
    text = render_timeline(golden.trace.spans(), width=100, title="golden qr")
    assert text == TIMELINE


def test_summary_text(golden):
    assert render_summary(golden.trace.spans(), title="golden qr") == SUMMARY


def test_chrome_events(golden, tmp_path):
    check_chrome_events(golden, tmp_path, CHROME_OPS, CHROME_DIGEST)


def test_floor_chunk_timeline_text(floor_chunk_golden):
    text = render_timeline(
        floor_chunk_golden.trace.spans(), width=100, title="golden qr"
    )
    assert text == FLOOR_CHUNK_TIMELINE


def test_floor_chunk_summary_text(floor_chunk_golden):
    summary = render_summary(floor_chunk_golden.trace.spans(), title="golden qr")
    assert summary == FLOOR_CHUNK_SUMMARY


def test_floor_chunk_chrome_events(floor_chunk_golden, tmp_path):
    check_chrome_events(
        floor_chunk_golden, tmp_path, FLOOR_CHUNK_OPS, FLOOR_CHUNK_DIGEST
    )
