"""Exporting a simulated schedule: ``Trace.spans()`` feeds the one Chrome
exporter, the same path a measured run's recorded spans take."""

import json

import pytest

from repro.host.tiled import HostMatrix
from repro.obs import spans_to_chrome_trace


@pytest.fixture
def trace(sim_ex):
    host = HostMatrix.shape_only(64, 64)
    buf = sim_ex.alloc(64, 64)
    c = sim_ex.alloc(64, 64)
    s1, s2 = sim_ex.stream("copy"), sim_ex.stream("go")
    sim_ex.h2d(buf, host.full(), s1)
    ev = sim_ex.record_event(s1)
    sim_ex.wait_event(s2, ev)
    sim_ex.gemm(c, buf, buf, s2, tag="inner")
    sim_ex.d2h(host.full(), c, s2)
    return sim_ex.finish()


class TestRows:
    def test_schedule_ordered_and_complete(self, trace):
        spans = trace.spans()
        assert len(spans) == 3
        starts = [s.start_s for s in spans]
        assert starts == sorted(starts)
        assert [s.lane for s in spans] == ["h2d", "compute", "d2h"]
        gemm = spans[1]
        assert gemm.cat == "gemm"
        assert gemm.attrs["tag"] == "inner"
        assert gemm.attrs["stream"] == "go"
        assert gemm.attrs["flops"] > 0
        assert spans[0].attrs["nbytes"] == 64 * 64 * 4
        assert spans[-1].end_s == pytest.approx(trace.makespan)


class TestChromeTrace:
    def test_format(self, trace, tmp_path):
        payload = json.loads(
            spans_to_chrome_trace(trace.spans(), tmp_path / "t.json").read_text()
        )
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert [m["args"]["name"] for m in metas] == ["h2d", "compute", "d2h"]
        assert len(spans) == 3
        gemm = next(e for e in spans if e["cat"] == "gemm")
        assert gemm["dur"] > 0
        assert gemm["args"]["stream"] == "go"
