"""The BLAS-3 LU leaf and its conditioning rule.

:func:`repro.factor.incore._lu_leaf` runs the unblocked rank-1 loop on the
leaf's k×k diagonal block only, then solves the rows below as one GEMM
with the inverted ``U11`` when ``κ₁(U11) ≤ LU_LEAF_MAX_COND``, and runs
the loop over them otherwise. :func:`oracle_leaf` below is the loop over
every row, the leaf before that split. These tests pin:

* the top block, every pivot error and every rejected leaf are bitwise
  the oracle's;
* the κ sweep: on 1024×32 leaves with Kahan-type and graded ``U11``,
  every accepted leaf's ``‖A − LU‖/‖A‖`` stays within 2x the oracle's,
  every leaf above the bound is rejected, and the GEMM path breaks the 2x
  bound from 2x the constant on;
* with every leaf rejected, ``ooc_lu`` reproduces the loop's golden
  digests, so the in-place panel body changes no bit;
* a rejected leaf inside ``ooc_lu`` emits one ``panel-fallback`` event.

Run this file as a script to print the sweep table::

    PYTHONPATH=src python -m tests.test_lu_leaf
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.factor.incore as incore
from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.factor import diagonally_dominant, incore_lu_nopivot, lu_unpack, ooc_lu
from repro.factor.incore import LU_LEAF_MAX_COND, PIVOT_TOL, _lu_in_place, _lu_leaf
from repro.hw.gemm import Precision
from repro.obs import SpanRecorder
from tests.conftest import make_tiny_spec

M, K = 1024, 32

#: (family, parameter) points of the κ sweep; Kahan c = 0.105 sits just
#: above the bound (κ₁ ≈ 101).
SWEEP = [("kahan", c) for c in (0.01, 0.05, 0.08, 0.1, 0.105, 0.12, 0.15,
                                0.2, 0.3, 0.5)] + [
    ("graded", g) for g in (1.0, 0.9, 0.8, 0.6)
]


def oracle_leaf(a: np.ndarray, scale: float) -> None:
    """The rank-1 loop over every row of the leaf, in place."""
    m, n = a.shape
    for j in range(min(m, n)):
        piv = a[j, j]
        if not np.isfinite(piv) or abs(piv) <= PIVOT_TOL * scale:
            raise ValidationError(
                f"zero pivot at column {j}: unpivoted LU requires a matrix "
                "that is stable without pivoting (e.g. diagonally dominant)"
            )
        a[j + 1 :, j] /= piv
        if j + 1 < n:
            a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])


def kahan(c: float, k: int = K) -> np.ndarray:
    """Kahan's upper triangle: rows scaled by s^i, -c above the diagonal,
    s² + c² = 1; κ grows like (1 + c)^k."""
    s = np.sqrt(1.0 - c * c)
    return (s ** np.arange(k))[:, None] * (
        np.eye(k) - c * np.triu(np.ones((k, k)), 1)
    )


def graded(g: float, k: int = K) -> np.ndarray:
    """A well-conditioned unit upper triangle with rows scaled by g^i."""
    rng = np.random.default_rng(5)
    v = np.eye(k) + 0.1 * np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1)
    return (g ** np.arange(k))[:, None] * v


def leaf_from(u: np.ndarray, m: int = M, *, seed: int = 3) -> np.ndarray:
    """``A = L U`` (fp32) with a random unit-lower L of entries ≤ 1."""
    k = u.shape[0]
    rng = np.random.default_rng(seed)
    lower = np.vstack([
        np.eye(k) + np.tril(rng.uniform(-0.5, 0.5, (k, k)), -1),
        rng.uniform(-1.0, 1.0, (m - k, k)),
    ])
    return (lower @ u).astype(np.float32)


def scale_of(a: np.ndarray) -> float:
    return float(np.abs(a).max()) or 1.0


def backward_error(a: np.ndarray, packed: np.ndarray) -> float:
    lower, upper = lu_unpack(packed)
    a64 = a.astype(np.float64)
    return float(
        np.linalg.norm(a64 - lower.astype(np.float64) @ upper.astype(np.float64))
        / np.linalg.norm(a64)
    )


def kappa1(packed: np.ndarray) -> float:
    k = packed.shape[1]
    u = np.triu(packed[:k]).astype(np.float64)
    return float(np.linalg.norm(u, 1) * np.linalg.norm(np.linalg.inv(u), 1))


def run_leaf(a: np.ndarray) -> tuple[np.ndarray, list]:
    """The leaf on a copy of *a*, and the fallbacks it reported."""
    out, heard = a.copy(), []
    _lu_leaf(out, scale_of(a), lambda shape, kappa: heard.append((shape, kappa)))
    return out, heard


def run_oracle(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    oracle_leaf(out, scale_of(a))
    return out


def sweep_point(family: str, param: float) -> dict:
    """One sweep row: κ₁(U11), the leaf's and the oracle's errors, the
    GEMM path's error (the rule forced to accept) and the fallbacks."""
    a = leaf_from(kahan(param) if family == "kahan" else graded(param))
    ref = run_oracle(a)
    out, heard = run_leaf(a)
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(incore, "LU_LEAF_MAX_COND", np.inf)
        forced, _ = run_leaf(a)
    finally:
        mp.undo()
    return dict(
        a=a, ref=ref, out=out, heard=heard, kappa=kappa1(ref),
        err=backward_error(a, out), loop=backward_error(a, ref),
        gemm=backward_error(a, forced),
    )


@pytest.fixture(scope="module")
def sweep() -> dict:
    return {point: sweep_point(*point) for point in SWEEP}


class TestTopBlock:
    @pytest.mark.parametrize("shape", [(M, K), (100, 32), (33, 32), (40, 7)])
    def test_top_block_is_the_oracles(self, shape):
        a = diagonally_dominant(*shape, seed=11)
        out, heard = run_leaf(a)
        k = min(shape)
        assert np.array_equal(out[:k], run_oracle(a)[:k])
        assert heard == []

    @pytest.mark.parametrize("n", [1, 20, 32])
    def test_square_leaf_is_the_oracle(self, n):
        a = diagonally_dominant(n, n, seed=12)
        out, heard = run_leaf(a)
        assert np.array_equal(out, run_oracle(a))
        assert heard == []

    @pytest.mark.parametrize("shape", [(20, 12), (31, 16), (24, 24)])
    def test_short_leaf_below_32_rows(self, shape):
        a = diagonally_dominant(*shape, seed=13)
        out, heard = run_leaf(a)
        ref = run_oracle(a)
        k = min(shape)
        assert np.array_equal(out[:k], ref[:k])
        assert heard == []
        assert backward_error(a, out) <= 2 * max(backward_error(a, ref), 1e-8)


class TestFallback:
    @pytest.mark.parametrize("c", [0.2, 0.5])
    def test_rejected_leaf_is_the_oracle_bit_for_bit(self, c):
        a = leaf_from(kahan(c))
        out, heard = run_leaf(a)
        assert np.array_equal(out, run_oracle(a))
        ((shape, kappa),) = heard
        assert shape == a.shape
        assert kappa > LU_LEAF_MAX_COND

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_inverse_rejects(self):
        # at 64 columns the inverse of this triangle grows like 1e6^63 and
        # overflows fp64; the loop's multipliers overflow fp32 alike
        n = 64
        u = np.eye(n) - 1e6 * np.triu(np.ones((n, n)), 1)
        a = leaf_from(u, 256)
        a[:n] = u
        out, heard = run_leaf(a)
        assert np.array_equal(out, run_oracle(a), equal_nan=True)
        ((_, kappa),) = heard
        assert not np.isfinite(kappa)


class TestSweep:
    @pytest.mark.parametrize("point", SWEEP, ids=lambda p: f"{p[0]}-{p[1]}")
    def test_accepted_within_2x_rejected_bitwise(self, sweep, point):
        row = sweep[point]
        if row["kappa"] <= LU_LEAF_MAX_COND:
            assert row["heard"] == []
            assert row["err"] <= 2 * row["loop"]
        else:
            assert len(row["heard"]) == 1
            assert np.array_equal(row["out"], row["ref"])

    def test_sweep_spans_the_bound(self, sweep):
        kappas = [row["kappa"] for row in sweep.values()]
        assert min(kappas) < LU_LEAF_MAX_COND < max(kappas)

    def test_gemm_path_breaks_2x_from_twice_the_bound(self, sweep):
        """The bound sits within 2x of where the GEMM path's error leaves
        2x the loop's on the Kahan family."""
        for (family, _), row in sweep.items():
            if family != "kahan":
                continue
            if row["kappa"] <= LU_LEAF_MAX_COND:
                assert row["gemm"] <= 2 * row["loop"]
            elif row["kappa"] >= 2 * LU_LEAF_MAX_COND:
                assert row["gemm"] > 2 * row["loop"]


class TestPivotErrors:
    @staticmethod
    def assert_same_error(a: np.ndarray, column: int) -> None:
        with pytest.raises(ValidationError) as want:
            run_oracle(a)
        with pytest.raises(ValidationError) as got:
            run_leaf(a)
        assert str(got.value) == str(want.value)
        assert f"column {column}:" in str(got.value)

    @pytest.mark.parametrize("m", [M, 24, 8])
    @pytest.mark.parametrize("bad", [0.0, 1e-14, np.nan, np.inf, -np.inf])
    def test_bad_pivot(self, m, bad):
        n = min(m, K)
        u = np.triu(np.ones((n, n))) + np.eye(n)
        a = leaf_from(u, m)
        a[:n] = np.triu(a[:n])
        column = n // 2
        a[column, column] = bad
        # an infinite entry makes the pivot scale infinite: column 0 fails
        self.assert_same_error(a, 0 if np.isinf(bad) else column)

    def test_zero_second_pivot(self):
        self.assert_same_error(np.ones((64, K), dtype=np.float32), 1)


class TestInPlace:
    def test_column_view_matches_the_copying_entry(self):
        wide = diagonally_dominant(256, 192, seed=14)
        before = wide.copy()
        view = wide[:, 64:128]
        ref = incore_lu_nopivot(np.ascontiguousarray(view))
        _lu_in_place(view)
        assert np.array_equal(view, ref)
        assert np.array_equal(wide[:, :64], before[:, :64])
        assert np.array_equal(wide[:, 128:], before[:, 128:])


class TestFallbackGolden:
    """With every leaf rejected, the OOC LU (panel factored in place) is
    bitwise the rank-1 leaf's: the packed digests pinned before the GEMM
    path, in the golden file's environment."""

    ORACLE_DIGESTS = {
        "blocking": (
            "35940b86587c195a62be0df7f65f1b7489ef6d00c34df85dcfd0d10d7bc10ef5"
        ),
        "recursive": (
            "5715dae857149fdc3d1d0f880e08736e97cb55124a5214428a3bcbc31f78307f"
        ),
    }

    @pytest.mark.parametrize("concurrency", ["serial", "threads"])
    @pytest.mark.parametrize("method", sorted(ORACLE_DIGESTS))
    def test_rejecting_every_leaf_reproduces_the_loop(
        self, method, concurrency, monkeypatch
    ):
        from tests.test_factor_golden import _digest, _packed
        from tests.test_qr_golden import PINNED_ENV, _environment

        if _environment() != PINNED_ENV:
            pytest.skip("digests were pinned in the golden file's environment")
        monkeypatch.setattr(incore, "LU_LEAF_MAX_COND", -np.inf)
        packed = _packed("lu", method, concurrency)
        assert _digest(packed) == self.ORACLE_DIGESTS[method]


class TestOocEvent:
    N = 128

    def ill_lu_input(self) -> np.ndarray:
        """``L U`` with four Kahan diagonal blocks of κ₁ ≈ 8e4: every leaf
        with rows below rejects the GEMM."""
        n = self.N
        rng = np.random.default_rng(15)
        lower = np.eye(n) + np.tril(rng.uniform(-0.1, 0.1, (n, n)), -1)
        upper = np.zeros((n, n))
        for c0 in range(0, n, K):
            upper[c0 : c0 + K, c0 : c0 + K] = kahan(0.3)
        upper += np.triu(rng.uniform(-0.01, 0.01, (n, n)), K)
        return (lower @ upper).astype(np.float32)

    def run(self, a, method):
        obs = SpanRecorder()
        cfg = SystemConfig(gpu=make_tiny_spec(), precision=Precision.TC_FP16)
        res = ooc_lu(a, method=method, config=cfg, blocksize=64, obs=obs)
        return res, [s for s in obs.spans() if s.name == "panel-fallback"]

    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_rejected_leaves_emit_one_event_each(self, method):
        a = self.ill_lu_input()
        res, events = self.run(a, method)
        # leaves at columns 0, 32 and 64 have rows below; 96's has none
        assert len(events) == 3
        for ev in events:
            assert ev.cat == "panel" and ev.lane == "compute"
            assert ev.attrs["reason"] == "lu-leaf-cond"
            assert ev.attrs["kappa"] > LU_LEAF_MAX_COND
        assert sorted(ev.attrs["shape"] for ev in events) == [
            (64, 32), (96, 32), (128, 32)
        ]
        assert backward_error(a, res.packed) < 1e-3

    def test_diagonally_dominant_input_has_none(self):
        _, events = self.run(diagonally_dominant(self.N, seed=16), "recursive")
        assert events == []


if __name__ == "__main__":
    print(f"LU_LEAF_MAX_COND = {LU_LEAF_MAX_COND:g}; {M}x{K} leaves")
    print("| U11 | param | κ₁(U11) | GEMM path | loop | ratio | rule |")
    print("|---|---|---|---|---|---|---|")
    for family, param in SWEEP:
        r = sweep_point(family, param)
        verdict = "accept" if not r["heard"] else "reject"
        print(f"| {family} | {param:g} | {r['kappa']:.3g} | {r['gemm']:.2g} "
              f"| {r['loop']:.2g} | {r['gemm'] / r['loop']:.2f} | {verdict} |")
