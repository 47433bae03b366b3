"""Memory layout of the in-core panel factorization.

The recursive QR and the Gram-Schmidt leaves work on column-major copies,
so every leaf column block and every column gemv is contiguous. The result
must not depend on the layout of the caller's array: C order, Fortran
order and a column-strided view of the same values give bitwise-identical
Q and R.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.qr.incore as incore
from repro.qr.cgs import cgs2_qr
from repro.qr.incore import incore_blocked_qr, incore_recursive_qr
from repro.util.rng import default_rng, stable_seed


def _layouts(shape: tuple[int, int]) -> dict[str, np.ndarray]:
    rng = default_rng(stable_seed("qr-layout", *shape))
    a = rng.standard_normal(shape).astype(np.float32)
    wide = np.zeros((shape[0], 2 * shape[1]), dtype=np.float32)
    wide[:, ::2] = a
    return {
        "c": np.ascontiguousarray(a),
        "f": np.asfortranarray(a),
        "strided": wide[:, ::2],
    }


@pytest.mark.parametrize(
    "fn",
    [
        lambda a: incore_recursive_qr(a, leaf=16),
        lambda a: cgs2_qr(a, dtype=np.float32),
    ],
    ids=["incore_recursive_qr", "cgs2_qr"],
)
def test_result_independent_of_input_layout(fn):
    views = _layouts((1100, 48))
    assert not views["strided"].flags.c_contiguous
    assert not views["strided"].flags.f_contiguous
    q_ref, r_ref = fn(views["c"])
    for name in ("f", "strided"):
        q, r = fn(views[name])
        assert np.array_equal(q, q_ref), name
        assert np.array_equal(r, r_ref), name


@pytest.mark.parametrize(
    "fn",
    [
        lambda a: incore_recursive_qr(a, leaf=16),
        lambda a: incore_blocked_qr(a, block=32, leaf=16),
    ],
    ids=["incore_recursive_qr", "incore_blocked_qr"],
)
def test_every_leaf_is_column_major(fn, monkeypatch):
    seen: list[bool] = []
    leaf = incore.cgs2_qr

    def recording(a, dtype=np.float64):
        seen.append(a.flags.f_contiguous)
        return leaf(a, dtype=dtype)

    monkeypatch.setattr(incore, "cgs2_qr", recording)
    fn(_layouts((256, 96))["c"])
    assert len(seen) > 1
    assert all(seen)
