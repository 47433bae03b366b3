"""Pinned simulated time of stream programs.

Every op of a :class:`~repro.execution.sim.SimExecutor` run is digested as
``(name, engine, start, end)`` — times as exact float hex — for the nine
registry engines at two small shapes on the 1 MiB test device, and for
the four paper QR timelines of Figures 12-15. Any change to how the
simulator assigns start and end times to a stream program shows up here
as a named digest change. The digests hold on any host: simulated time is
plain float arithmetic.

Run this file as a script to print the current digests::

    PYTHONPATH=src python -m tests.test_sim_time_pin
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.engines import ENGINE_BINDINGS
from repro.bench.workloads import PAPER_MAIN_SHAPE
from repro.config import PAPER_SYSTEM, PAPER_SYSTEM_16GB, SystemConfig
from repro.execution import SimExecutor
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.sim.trace import Trace
from tests.conftest import make_tiny_spec

#: (m, n, b) registry shapes: power-of-two and ragged.
ENGINE_SHAPES = [(128, 64, 16), (150, 70, 16)]

#: Figures 12-15: (method, config, blocksize) on the paper's main shape.
FIGURES = {
    "F12": ("blocking", PAPER_SYSTEM, 16384),
    "F13": ("recursive", PAPER_SYSTEM, 16384),
    "F14": ("blocking", PAPER_SYSTEM_16GB, 8192),
    "F15": ("recursive", PAPER_SYSTEM_16GB, 8192),
}

#: case -> (op count, sha256 of the sorted (name, engine, start, end) rows)
PINNED = {
    'F12': (1033, '1287a8f458d0bad781b0b106a4cfc41b7d82d83833dba35f45c834440b6d3c02'),
    'F13': (639, '6cd0d8e6ddc70e2baf782ba37a6532deb22bcc65f602942332d732807ca20815'),
    'F14': (8191, '057c60c0da9a7075dd1c1e09ba20387d540f518f850e289a506e12e1a8eda24d'),
    'F15': (2690, '981ac3f27b040cafa94d80963d25c73e359162a8e2550a452726d904acc596a3'),
    'chol-blocking 128x64 b=16': (24, '1d3afbb5c77e8f01d093c5ed452f9d84b50664eb8359f6da43b11f478baa47c6'),
    'chol-blocking 150x70 b=16': (31, 'b21c3c3684e6d917ffdd6ec78be86d37a498324e70b91a8359107896dfdcf94c'),
    'chol-recursive 128x64 b=16': (30, '3479e3bdd43bb9768fdab3d605785efffa105b71c07efc053e07c4a79af478ea'),
    'chol-recursive 150x70 b=16': (66, '3e16b17c03a27fd29de117d86fd84851c7b6799bbe34952fcf1c90b5359693e2'),
    'gemm-inner 128x64 b=16': (25, 'f4de0a5c0c4ca626ad7163561797ac84462e108ad37d52598f9c469f2f7002c1'),
    'gemm-inner 150x70 b=16': (31, '45b0a053f243c3c5ab530bc58e1766ab58523fc12dae6c03e27d2a4104fae734'),
    'gemm-outer 128x64 b=16': (41, '83b9104a0c0dc4108bd1c0fcbb4e9d02b332a2e6693331d6ae085847707608f2'),
    'gemm-outer 150x70 b=16': (51, 'aa41bd656934a439cf9f118b478f059ed8798e07fe45668cec0492335b481d2c'),
    'lu-blocking 128x64 b=16': (42, '986cb95414b45bbbbec3c9efd6eed8252077e33b99443697e4f02dd797afb30a'),
    'lu-blocking 150x70 b=16': (61, 'd5f6aec691c86069f5b4e887557bb9ba7de2efeb348ae04a159e32c250d08878'),
    'lu-recursive 128x64 b=16': (44, 'd29ffe9fd6e945777a5a1bf6cd6425cb6ddd374da8b2599eaef8bb8880fdf968'),
    'lu-recursive 150x70 b=16': (107, 'cd28f51be260f6eea81ad7f9f1926894c41689959ff6442a8e199972aa6dfe51'),
    'qr-blocking 128x64 b=16': (46, '50ba811b1a969ca19c630c7da051ddf434b8c13f05329a402529b13f0fb6c2af'),
    'qr-blocking 150x70 b=16': (66, 'a14d2bca36fbe7f76cfd6a85d4e989b50466f7c4291db10266a707ebd70eb7b3'),
    'qr-recursive 128x64 b=16': (39, '9c2cc4d6b6512b8ab979ae1743d610adf2fa417a2e284aeaea622cd4bbdf1406'),
    'qr-recursive 150x70 b=16': (95, '5db11a9fde6d87606dd90a31350abce3079a3bbf17077eb5881bc3dbedd9a591'),
    'qr-tsqr 128x64 b=16': (39, '9c2cc4d6b6512b8ab979ae1743d610adf2fa417a2e284aeaea622cd4bbdf1406'),
    'qr-tsqr 150x70 b=16': (95, '5db11a9fde6d87606dd90a31350abce3079a3bbf17077eb5881bc3dbedd9a591'),
}


def digest(trace: Trace) -> tuple[int, str]:
    """Op count and digest of *trace*'s timed ops, independent of the
    order the trace lists them in."""
    rows = sorted(
        f"{op.name}|{op.engine.value}|{op.start.hex()}|{op.end.hex()}"
        for op in trace.ops
    )
    return len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()


def engine_trace(name: str, m: int, n: int, b: int) -> Trace:
    binding = ENGINE_BINDINGS[name]
    config = SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)
    ex = SimExecutor(binding.configure(config))
    binding.run(ex, binding.dims(m, n), b, None)
    return ex.finish()


def figure_trace(fig: str) -> Trace:
    method, config, b = FIGURES[fig]
    return ooc_qr(
        PAPER_MAIN_SHAPE, method=method, mode="sim", config=config,
        options=QrOptions(blocksize=b),
    ).trace


def _cases() -> dict[str, object]:
    cases = {
        f"{name} {m}x{n} b={b}": (engine_trace, name, m, n, b)
        for name in ENGINE_BINDINGS
        for m, n, b in ENGINE_SHAPES
    }
    cases.update({fig: (figure_trace, fig) for fig in FIGURES})
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_time_is_pinned(case):
    fn, *args = CASES[case]
    assert digest(fn(*args)) == PINNED[case]


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    for case in sorted(CASES):
        fn, *args = CASES[case]
        print(f"    {case!r}: {digest(fn(*args))!r},")
