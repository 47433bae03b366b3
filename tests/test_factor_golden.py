"""Golden packed-factor digests of the numeric LU and Cholesky paths.

The LU/Cholesky counterpart of :mod:`tests.test_qr_golden`: each case
factors a fixed 512×512 input (1 MiB of fp32, so it does not fit the
1 MiB tiny device beside its workspace) in 64-wide panels with emulated
fp16 TensorCore GEMMs, and compares the sha256 of the packed factor's
C-order bytes against a pinned value. Blocking and recursive drivers run
under the serial executor and the threaded task DAG; the two must agree
bitwise, so each pair shares one digest.

Digests depend on BLAS summation order, so the tests run only in the
environment of :mod:`tests.test_qr_golden` (``PINNED_ENV``) and skip
elsewhere. A change that alters them on purpose replaces them in the
same commit and records old → new in CHANGES.md. Run this file as a
script to print the current digests for a deliberate re-pin::

    PYTHONPATH=src python -m tests.test_factor_golden
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.factor import diagonally_dominant, ooc_cholesky, ooc_lu, spd_matrix
from repro.hw.gemm import Precision
from tests.conftest import make_tiny_spec
from tests.test_qr_golden import PINNED_ENV, _environment

N = 512
BLOCK = 64
KINDS = {
    "lu": (ooc_lu, lambda: diagonally_dominant(N, N, seed=2701)),
    "cholesky": (ooc_cholesky, lambda: spd_matrix(N, seed=2702)),
}
METHODS = ("blocking", "recursive")
CONCURRENCY = ("serial", "threads")

#: sha256 of the packed factor (float32, C order) per (kind, method).
PINNED = {
    ("cholesky", "blocking"): (
        "c7e4ff12595d95d15e608341e79ba43effcbcff5c6cf8a62e5ddcc07a7f94e55"
    ),
    ("cholesky", "recursive"): (
        "65d1a1eb5b3c18fa31ce363446d079e73c161f780187dd3575f79f66fd0ae452"
    ),
    ("lu", "blocking"): (
        "35940b86587c195a62be0df7f65f1b7489ef6d00c34df85dcfd0d10d7bc10ef5"
    ),
    ("lu", "recursive"): (
        "5715dae857149fdc3d1d0f880e08736e97cb55124a5214428a3bcbc31f78307f"
    ),
}


def _packed(kind: str, method: str, concurrency: str) -> np.ndarray:
    fn, make = KINDS[kind]
    cfg = SystemConfig(gpu=make_tiny_spec(), precision=Precision.TC_FP16)
    res = fn(
        make(), method=method, config=cfg, blocksize=BLOCK,
        concurrency=concurrency,
    )
    return res.packed


def _digest(x: np.ndarray) -> str:
    x = np.ascontiguousarray(x, dtype=np.float32)
    return hashlib.sha256(x.tobytes()).hexdigest()


@pytest.mark.parametrize("concurrency", CONCURRENCY)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_golden_digest(kind, method, concurrency):
    env = _environment()
    if env != PINNED_ENV:
        pytest.skip(
            f"digests were pinned in {PINNED_ENV}, this is {env}; print a "
            "re-pin with `PYTHONPATH=src python -m tests.test_factor_golden`"
        )
    assert _digest(_packed(kind, method, concurrency)) == PINNED[(kind, method)]


if __name__ == "__main__":
    print(f"PINNED_ENV = {_environment()!r}")
    for kind in sorted(KINDS):
        for method in METHODS:
            digests = {c: _digest(_packed(kind, method, c)) for c in CONCURRENCY}
            if digests["threads"] != digests["serial"]:
                print(f"    # {kind} {method}: threads differ: {digests['threads']}")
            print(f'    ("{kind}", "{method}"): (\n'
                  f'        "{digests["serial"]}"\n    ),')
