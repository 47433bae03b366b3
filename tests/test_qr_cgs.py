"""Tests for vector-wise Gram-Schmidt variants and error metrics."""

import numpy as np
import pytest

from repro.bench.workloads import conditioned, near_dependent, random_tall
from repro.errors import ShapeError, ValidationError
from repro.qr.cgs import (
    cgs2_qr,
    cgs_qr,
    factorization_error,
    mgs_qr,
    orthogonality_error,
)
from repro.qr.incore import incore_recursive_qr

ALL = [cgs_qr, mgs_qr, cgs2_qr]


@pytest.mark.parametrize("fn", ALL)
class TestCommonContract:
    def test_reconstruction(self, fn, rng):
        a = rng.standard_normal((60, 24))
        q, r = fn(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-10)

    def test_q_orthonormal(self, fn, rng):
        a = rng.standard_normal((60, 24))
        q, r = fn(a)
        assert orthogonality_error(q) < 1e-12

    def test_r_upper_triangular_positive_diagonal(self, fn, rng):
        a = rng.standard_normal((40, 16))
        q, r = fn(a)
        np.testing.assert_allclose(r, np.triu(r), atol=0)
        assert (np.diag(r) > 0).all()

    def test_matches_numpy_up_to_signs(self, fn, rng):
        a = rng.standard_normal((30, 10))
        q, r = fn(a)
        q_np, r_np = np.linalg.qr(a)
        signs = np.sign(np.diag(r_np))
        np.testing.assert_allclose(r, signs[:, None] * r_np, atol=1e-10)

    def test_single_column(self, fn):
        a = np.array([[3.0], [4.0]])
        q, r = fn(a)
        np.testing.assert_allclose(q, [[0.6], [0.8]])
        np.testing.assert_allclose(r, [[5.0]])

    def test_square(self, fn, rng):
        a = rng.standard_normal((12, 12))
        q, r = fn(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-10)

    def test_wide_rejected(self, fn, rng):
        with pytest.raises(ShapeError):
            fn(rng.standard_normal((3, 5)))

    def test_empty_rejected(self, fn):
        with pytest.raises(ShapeError):
            fn(np.zeros((5, 0)))

    def test_dependent_columns_rejected(self, fn):
        a = np.ones((10, 3))
        with pytest.raises(ValidationError, match="dependent"):
            fn(a)


class TestScaleInvariantBreakdown:
    """The dependence test is relative to each column's own norm, so a
    well-conditioned matrix factors at any scale and only a column that
    really collapses breaks down."""

    @pytest.mark.parametrize("scale", [1e-9, 1e-12])
    @pytest.mark.parametrize("fn", ALL)
    def test_tiny_scale_factors(self, fn, scale, rng):
        a = scale * rng.standard_normal((256, 8))
        q, r = fn(a)
        assert orthogonality_error(q) < 1e-5
        assert factorization_error(a, q, r) < 1e-10

    @pytest.mark.parametrize("scale", [1e-9, 1e-12])
    def test_tiny_scale_recursive_fp32(self, scale, rng):
        a = (scale * rng.standard_normal((256, 48))).astype(np.float32)
        q, r = incore_recursive_qr(a, input_format="fp32")
        assert orthogonality_error(q) < 1e-5
        assert factorization_error(a, q, r) < 1e-5

    @pytest.mark.parametrize("fn", ALL)
    def test_zero_column_still_breaks_down(self, fn, rng):
        a = rng.standard_normal((32, 4))
        a[:, 2] = 0.0
        with pytest.raises(ValidationError, match="column 2 is numerically"):
            fn(a)


class TestStabilityOrdering:
    """The textbook stability hierarchy: CGS <= MGS <= CGS2 on
    ill-conditioned inputs (in fp32 arithmetic)."""

    @pytest.fixture
    def ill(self):
        return conditioned(120, 40, kappa=1e5, seed=3)

    def _orth32(self, fn, a):
        q, _ = fn(a, dtype=np.float32)
        return orthogonality_error(q)

    def test_cgs_loses_orthogonality(self, ill):
        assert self._orth32(cgs_qr, ill) > 1e-4

    def test_mgs_better_than_cgs(self, ill):
        assert self._orth32(mgs_qr, ill) < self._orth32(cgs_qr, ill)

    def test_cgs2_restores_orthogonality(self, ill):
        assert self._orth32(cgs2_qr, ill) < 1e-5

    def test_all_still_reconstruct(self, ill):
        for fn in ALL:
            q, r = fn(ill, dtype=np.float32)
            assert factorization_error(ill, q, r) < 1e-5


class TestErrorMetrics:
    def test_orthogonality_of_identity(self):
        assert orthogonality_error(np.eye(5)) == 0.0

    def test_orthogonality_detects_scaling(self):
        assert orthogonality_error(2 * np.eye(4)) == pytest.approx(6.0)

    def test_factorization_error_zero_for_exact(self, rng):
        a = rng.standard_normal((10, 4))
        q, r = np.linalg.qr(a)
        assert factorization_error(a, q, r) < 1e-14

    def test_factorization_error_relative(self, rng):
        a = rng.standard_normal((10, 4))
        assert factorization_error(a, np.zeros((10, 4)), np.zeros((4, 4))) == pytest.approx(1.0)


class TestWorkloads:
    def test_near_dependent_is_hard(self):
        a = near_dependent(50, 8, eps=1e-4).astype(np.float64)
        q, _ = cgs_qr(a)
        q2, _ = cgs2_qr(a)
        assert orthogonality_error(q2) <= orthogonality_error(q) * 1.5

    def test_random_tall_shape(self):
        assert random_tall(10, 4).shape == (10, 4)

    def test_conditioned_kappa(self):
        a = conditioned(80, 20, kappa=1e4, seed=0).astype(np.float64)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e4, rel=0.05)
