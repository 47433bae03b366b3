"""Golden pin of the timeline views for one small fixed simulated QR.

The paper's Figures 7-15 are rendered by ``render_timeline`` /
``render_summary`` and exported as Chrome traces; this test pins the
exact text and the exported event list of a 365-op recursive QR so any
change to how a timeline is read, bucketed, summed or exported shows up
as a diff here, not only in ``benchmarks/results``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs import render_summary, render_timeline, spans_to_chrome_trace
from repro.qr.api import ooc_qr

TIMELINE = """\
golden qr
H2D copy |>>>>>     >>>>>>>>>>>>>>>>     >>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>     >>>>>>>>>>>>>>>>     |  73.2% busy
Compute  |    PPP     #########    PP     ################## ###################   PPP     #########    PP    |  16.1% busy
D2H copy |      <<<<<  < <<<<<<     <<<<<<                 <<<<<<<<<<<<<<<<<<<<<     <<<<<  < <<<<<<     <<<<<|  35.4% busy
         0                                                                                             126 ms
legend: > h2d   < d2h   # gemm   P panel   = d2d stage   . small"""

SUMMARY = """\
golden qr
  makespan        : 126 ms
  compute busy    : 20 ms
  H2D traffic     : 1.07 GB (92 ms)
  D2H traffic     : 578.81 MB (45 ms)
  overlap ratio   : 0.227
  achieved rate   : 4.4 TFLOPS"""

#: Engine rows of the Chrome export, then the op count and a digest of
#: every complete event's (tid, ts, dur, name, cat), sorted.
CHROME_LANES = [(0, "h2d"), (1, "compute"), (2, "d2h")]
CHROME_OPS = 365
CHROME_DIGEST = "a794c5592a8e404d1b6105777febaa07296f1a425f02f4b26120e5bfa47bd6fb"


@pytest.fixture(scope="module")
def golden():
    return ooc_qr(
        (16384, 4096), method="recursive", mode="sim", blocksize=1024,
        device_memory=192 << 20,
    )


def chrome_events(result, tmp_path) -> list[dict]:
    path = spans_to_chrome_trace(result.trace.spans(), tmp_path / "golden.json")
    return json.loads(path.read_text())["traceEvents"]


def test_timeline_text(golden):
    text = render_timeline(golden.trace.spans(), width=100, title="golden qr")
    assert text == TIMELINE


def test_summary_text(golden):
    assert render_summary(golden.trace.spans(), title="golden qr") == SUMMARY


def test_chrome_events(golden, tmp_path):
    events = chrome_events(golden, tmp_path)
    lanes = sorted((e["tid"], e["args"]["name"]) for e in events if e["ph"] == "M")
    ops = sorted(
        (e["tid"], e["ts"], e["dur"], e["name"], e["cat"])
        for e in events if e["ph"] == "X"
    )
    assert lanes == CHROME_LANES
    assert len(ops) == CHROME_OPS
    digest = hashlib.sha256(json.dumps([lanes, ops]).encode()).hexdigest()
    assert digest == CHROME_DIGEST
