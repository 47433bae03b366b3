"""Pinned structure of the recorded task graphs.

Each case records a task graph and hashes, task by task in emission
order, ``(name, engine, mem, sorted dependency ids, cost.hex())``, plus
the :class:`~repro.runtime.backends.SimGraphBackend` makespan as
``float.hex()``. The cases are every ``GRAPH_BUILDERS`` engine at the
shapes CI's ``repro analyze`` steps sweep, and the square-dag benchmark's
threaded QR call (recursive 1024², b=128, 2 MiB ``bench_spec`` device,
TC fp16), whose graph is taken from the builder of a real numeric run.

A change to recording or scheduling must leave every task, every edge
and every cost hint where it was. The cost hints and the makespan are
floating-point sums, so the tests run only in the environment of
:mod:`tests.test_qr_golden` (``PINNED_ENV``) and skip elsewhere. Run this
file as a script to print the current digests for a deliberate re-pin::

    PYTHONPATH=src python -m tests.test_graph_pin
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.runtime
from repro.bench.concurrency import bench_spec
from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.hw.specs import V100_32GB
from repro.qr.api import ooc_qr
from repro.runtime import GRAPH_BUILDERS, GraphBuilder, SimGraphBackend
from repro.runtime.task import TaskGraph
from tests.test_qr_golden import PINNED_ENV, _environment

#: ``repro analyze`` sweep points in CI: (m, n, b, memory GiB cap or None)
#: on the analyzer's default V100-32GB.
SHAPES = {
    "96x64b16": (96, 64, 16, None),
    "128x64b8": (128, 64, 8, None),
    "96x48b16": (96, 48, 16, None),
    "96x64b16-1gib3": (96, 64, 16, 0.001),
    "1024x1024b128-1gib3": (1024, 1024, 128, 0.001),
}


def _sweep_config(gib: float | None) -> SystemConfig:
    gpu = V100_32GB
    if gib is not None:
        gpu = gpu.with_memory(int(gib * (1 << 30)), suffix="capped")
    return SystemConfig(gpu=gpu)


def _square_dag_qr_graph() -> TaskGraph:
    """The graph a threaded square-dag QR call records and runs."""
    builders: list[GraphBuilder] = []

    class Keep(GraphBuilder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            builders.append(self)

    n, b = 1024, 128
    a = np.random.default_rng(29).standard_normal((n, n), dtype=np.float32)
    a[np.diag_indices(n)] += np.float32(2.0 * np.sqrt(n))
    cfg = SystemConfig(gpu=bench_spec(2 << 20), precision=Precision.TC_FP16)
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(repro.runtime, "GraphBuilder", Keep)
        ooc_qr(a, method="recursive", config=cfg, blocksize=b,
               concurrency="threads")
    finally:
        mp.undo()
    (builder,) = builders
    return builder.graph


def _cases() -> dict[str, callable]:
    cases = {"square-dag-qr": _square_dag_qr_graph}
    for engine, build in GRAPH_BUILDERS.items():
        for shape, (m, n, b, gib) in SHAPES.items():
            cases[f"{engine}@{shape}"] = (
                lambda build=build, m=m, n=n, b=b, gib=gib:
                build(_sweep_config(gib), m, n, b)
            )
    return cases


CASES = _cases()


def graph_digest(graph: TaskGraph) -> str:
    """sha256 over every task's identity, edges and cost hint, then the
    simulated makespan."""
    h = hashlib.sha256()
    for task in graph.tasks:
        engine = task.engine.value if task.engine is not None else "-"
        deps = ",".join(map(str, sorted(dep.task_id for dep in task.deps)))
        h.update(
            f"{task.task_id}|{task.name}|{engine}|{task.mem}|{deps}|"
            f"{float(task.cost).hex()}\n".encode()
        )
    graph.validate()
    makespan = SimGraphBackend(graph.config).run(graph).makespan
    h.update(f"makespan|{float(makespan).hex()}".encode())
    return h.hexdigest()


#: sha256 of :func:`graph_digest` per case.
PINNED = {
    "chol-blocking@1024x1024b128-1gib3": (
        "42b0fc5e9ef6b055a782e6af41a3bddb6466ef643553f1abccdcf49f213202ca"
    ),
    "chol-blocking@128x64b8": (
        "2e128b5e25ad98a6eb160420a43920d9025fa8014a7768ef9819ec8253d5d92b"
    ),
    "chol-blocking@96x48b16": (
        "ed060663faf9dc21c52c47189cec947254053e219a931d57d72de85db9624505"
    ),
    "chol-blocking@96x64b16": (
        "4540dc4b7cb11cca029e2964fd445adcee869437dd5f6d602cacdd762e36f61e"
    ),
    "chol-blocking@96x64b16-1gib3": (
        "4540dc4b7cb11cca029e2964fd445adcee869437dd5f6d602cacdd762e36f61e"
    ),
    "chol-recursive@1024x1024b128-1gib3": (
        "fa4f8bccb0d82589b4f90c6939d4e003f10980a92685577f1e58bb4b5cd6cee1"
    ),
    "chol-recursive@128x64b8": (
        "c5d3366d595317881724d2157b3e9d5973818d00190ddbb401f3cf74cf2db360"
    ),
    "chol-recursive@96x48b16": (
        "62866d99c0b6a57b28b15b2c6d7444bd6bf24f4e47ac9207c9ce698c832a5223"
    ),
    "chol-recursive@96x64b16": (
        "72b9ed3be8c6c438ac059538c6aff0030821ac51e980fe81ff8b196abb5b9938"
    ),
    "chol-recursive@96x64b16-1gib3": (
        "72b9ed3be8c6c438ac059538c6aff0030821ac51e980fe81ff8b196abb5b9938"
    ),
    "gemm-inner@1024x1024b128-1gib3": (
        "0dff4816d1b274d1aabf9a00b6c2ee0ea71cf10944bd5ca96bda017ba80db112"
    ),
    "gemm-inner@128x64b8": (
        "d2f1c929a25fed48704f6350ac0e3d47eb29c2d3fa0fb60d413c7085ea468f36"
    ),
    "gemm-inner@96x48b16": (
        "35116e105912254773785ddc40ba3b6bfa0d7b3d1dae6dc9a3e721bf656cd1e0"
    ),
    "gemm-inner@96x64b16": (
        "e84369d25e971ac5cededcc2fbed682b27ea74b8eccc49338eaee15cdaf562f0"
    ),
    "gemm-inner@96x64b16-1gib3": (
        "e84369d25e971ac5cededcc2fbed682b27ea74b8eccc49338eaee15cdaf562f0"
    ),
    "gemm-outer@1024x1024b128-1gib3": (
        "8fcc45e19e03e7c3ff1dc881d854b651ce10667ebf6349699db662ada291a30f"
    ),
    "gemm-outer@128x64b8": (
        "a8fcaccc16d315a8d1f74b7fb7617ab41ba53573d40ec52988f1727acbe08e0f"
    ),
    "gemm-outer@96x48b16": (
        "f3ced78e60acffb4b517cce2687c6f49ee24eefb2b758783e797d5cc02ec4a04"
    ),
    "gemm-outer@96x64b16": (
        "9e3773cb15819b603e618cc07f83b7890640ec3a73a7de67f7b443d2e2ccc992"
    ),
    "gemm-outer@96x64b16-1gib3": (
        "9e3773cb15819b603e618cc07f83b7890640ec3a73a7de67f7b443d2e2ccc992"
    ),
    "lu-blocking@1024x1024b128-1gib3": (
        "c95828f6b6f399695cfa1ce91ae7e7e6fdd4300f2b2edf30258597f74ba63d0b"
    ),
    "lu-blocking@128x64b8": (
        "cdcee438a65e455f721e455ea77ea3bfa6b1e12f012a2e17896dedd3197fbb7d"
    ),
    "lu-blocking@96x48b16": (
        "598b03e1fd1138b0207ec9d40573f913b4bb41d501a9d52f527c86f230405c06"
    ),
    "lu-blocking@96x64b16": (
        "4e76329ef540b715e6c1d131496cf757a341419459ea195f38d7834b331e31d5"
    ),
    "lu-blocking@96x64b16-1gib3": (
        "4e76329ef540b715e6c1d131496cf757a341419459ea195f38d7834b331e31d5"
    ),
    "lu-recursive@1024x1024b128-1gib3": (
        "50567b648c8fa2fe647aac54a9844c3121a5e061644da4b9a78271c73fe12a9a"
    ),
    "lu-recursive@128x64b8": (
        "d62a09fe9adaa99700cd0293a62a069ddfbebb72362bbbba80bb9f8d52f416f0"
    ),
    "lu-recursive@96x48b16": (
        "2ae14bb15c5eeacb22db7015478d090b129da65930a9c072defe7f2e806dfcf7"
    ),
    "lu-recursive@96x64b16": (
        "34dd166c3f2dbf27801c97bc683d1e154f83044d490d87c505d560ca7b463d48"
    ),
    "lu-recursive@96x64b16-1gib3": (
        "34dd166c3f2dbf27801c97bc683d1e154f83044d490d87c505d560ca7b463d48"
    ),
    "qr-blocking@1024x1024b128-1gib3": (
        "183ab643c297784410d6893c9ae09bd91798a1c15ea0e6ba703c09a90f436eaf"
    ),
    "qr-blocking@128x64b8": (
        "d6bc6c0037d7d0d31d546c23c87feb94a7c71bf6c2a56796d2e243372af571e3"
    ),
    "qr-blocking@96x48b16": (
        "7b37416764417bba3d065d8555d7c5e410a44839f22e6c13f4ebaef5936e459a"
    ),
    "qr-blocking@96x64b16": (
        "3084d13ca8d77c2cc1c40a297dfeaa634f26b8edeff6976a1b0ffbb13752a264"
    ),
    "qr-blocking@96x64b16-1gib3": (
        "3084d13ca8d77c2cc1c40a297dfeaa634f26b8edeff6976a1b0ffbb13752a264"
    ),
    "qr-recursive@1024x1024b128-1gib3": (
        "1be7414a83c8d895c0cd345df5841f2123cf6f0f594ae9b7570cf7867fc9e965"
    ),
    "qr-recursive@128x64b8": (
        "b07d51f01a25c658515ecf1640acf035c930dc23a49412895feecfc9d9fb543d"
    ),
    "qr-recursive@96x48b16": (
        "812b8b7f144ca0ea254508387110cee9bd1d32a5f2ff5584650b22f94565c216"
    ),
    "qr-recursive@96x64b16": (
        "505d4f64d31bb8ef0674c5ef9a19290892bc64347bd8fe19530310eea4a6df91"
    ),
    "qr-recursive@96x64b16-1gib3": (
        "505d4f64d31bb8ef0674c5ef9a19290892bc64347bd8fe19530310eea4a6df91"
    ),
    "qr-tsqr@1024x1024b128-1gib3": (
        "1be7414a83c8d895c0cd345df5841f2123cf6f0f594ae9b7570cf7867fc9e965"
    ),
    "qr-tsqr@128x64b8": (
        "b07d51f01a25c658515ecf1640acf035c930dc23a49412895feecfc9d9fb543d"
    ),
    "qr-tsqr@96x48b16": (
        "812b8b7f144ca0ea254508387110cee9bd1d32a5f2ff5584650b22f94565c216"
    ),
    "qr-tsqr@96x64b16": (
        "505d4f64d31bb8ef0674c5ef9a19290892bc64347bd8fe19530310eea4a6df91"
    ),
    "qr-tsqr@96x64b16-1gib3": (
        "505d4f64d31bb8ef0674c5ef9a19290892bc64347bd8fe19530310eea4a6df91"
    ),
    "square-dag-qr": (
        "7ad035aaf06d478c4bce5b89ee2cd5137ed5f24c6a310a5b373354761e1849cd"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_digest(case):
    env = _environment()
    if env != PINNED_ENV:
        pytest.skip(
            f"digests were pinned in {PINNED_ENV}, this is {env}; print a "
            "re-pin with `PYTHONPATH=src python -m tests.test_graph_pin`"
        )
    assert graph_digest(CASES[case]()) == PINNED[case]


def test_square_dag_qr_task_count():
    """The benchmark's ``runtime.tasks`` for this call (607)."""
    assert len(_square_dag_qr_graph().tasks) == 607


if __name__ == "__main__":
    print("PINNED = {")
    for name in sorted(CASES):
        print(f'    "{name}": (\n        "{graph_digest(CASES[name]())}"\n    ),')
    print("}")
