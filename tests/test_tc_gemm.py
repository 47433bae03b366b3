"""Unit tests for the emulated TensorCore GEMM."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tc.gemm import tc_gemm
from repro.tc.precision import round_to


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestBasics:
    def test_matches_numpy_fp32(self, rng):
        a = rng.standard_normal((20, 30)).astype(np.float32)
        b = rng.standard_normal((30, 10)).astype(np.float32)
        np.testing.assert_allclose(
            tc_gemm(a, b, input_format="fp32"), a @ b, rtol=1e-6
        )

    def test_fp16_error_small_but_nonzero(self, rng):
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        approx = tc_gemm(a, b, input_format="fp16")
        rel = np.abs(approx - exact).max() / np.abs(exact).max()
        assert 0 < rel < 1e-2

    def test_output_dtype_fp32(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float64)
        assert tc_gemm(a, a).dtype == np.float32

    def test_transposes(self, rng):
        a = rng.standard_normal((30, 20)).astype(np.float32)
        b = rng.standard_normal((30, 10)).astype(np.float32)
        np.testing.assert_allclose(
            tc_gemm(a, b, trans_a=True, input_format="fp32"), a.T @ b, rtol=1e-6
        )
        c = rng.standard_normal((10, 30)).astype(np.float32)
        np.testing.assert_allclose(
            tc_gemm(a, c, trans_a=True, trans_b=True, input_format="fp32"),
            a.T @ c.T,
            rtol=1e-6,
        )

    def test_alpha(self, rng):
        a = rng.standard_normal((5, 5)).astype(np.float32)
        np.testing.assert_allclose(
            tc_gemm(a, a, alpha=-2.0, input_format="fp32"),
            -2.0 * (a @ a),
            rtol=1e-6,
        )

    def test_beta_accumulation(self, rng):
        a = rng.standard_normal((6, 7)).astype(np.float32)
        b = rng.standard_normal((7, 8)).astype(np.float32)
        c = rng.standard_normal((6, 8)).astype(np.float32)
        out = tc_gemm(a, b, beta=1.0, c=c.copy(), input_format="fp32")
        np.testing.assert_allclose(out, a @ b + c, rtol=1e-5)

    def test_update_form(self, rng):
        # the outer product's C -= A B
        a = rng.standard_normal((6, 3)).astype(np.float32)
        b = rng.standard_normal((3, 6)).astype(np.float32)
        c = rng.standard_normal((6, 6)).astype(np.float32)
        out = tc_gemm(a, b, alpha=-1.0, beta=1.0, c=c.copy(), input_format="fp32")
        np.testing.assert_allclose(out, c - a @ b, rtol=1e-5)


class TestOutParameter:
    def test_writes_in_place(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        out = np.zeros((4, 4), dtype=np.float32)
        ret = tc_gemm(a, a, input_format="fp32", out=out)
        assert ret is out
        np.testing.assert_allclose(out, a @ a, rtol=1e-6)

    def test_out_can_alias_c(self, rng):
        # the engines update C in place: out is c
        a = rng.standard_normal((5, 3)).astype(np.float32)
        b = rng.standard_normal((3, 5)).astype(np.float32)
        c = rng.standard_normal((5, 5)).astype(np.float32)
        expected = c - a @ b
        tc_gemm(a, b, alpha=-1.0, beta=1.0, c=c, input_format="fp32", out=c)
        np.testing.assert_allclose(c, expected, rtol=1e-5)

    def test_out_shape_checked(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            tc_gemm(a, a, out=np.zeros((3, 3), dtype=np.float32))


def _reference_epilogue(a, b, *, alpha, beta, c, fmt, out):
    """The earlier epilogue: scale, add ``beta*c`` into the product,
    then copy into *out*."""
    prod = round_to(a, fmt) @ round_to(b, fmt)
    if alpha != 1.0:
        prod *= np.float32(alpha)
    if beta != 0.0:
        prod += np.float32(beta) * np.asarray(c, dtype=np.float32)
    if out is None:
        return prod
    np.copyto(out, prod)
    return out


#: Bit patterns seeded into C: +0, -0, +inf, -inf, the default quiet NaN,
#: a negative NaN with a payload, and a signalling NaN.
_SPECIAL_BITS = np.array(
    [0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
     0x7FC00000, 0xFFC00123, 0x7F800001],
    dtype=np.uint32,
)


def _accumulator(layout: str, values: np.ndarray) -> np.ndarray:
    """A fresh array holding *values* in the given memory layout."""
    if layout == "C":
        return np.array(values, order="C")
    if layout == "F":
        return np.array(values, order="F")
    host = np.full((2 * values.shape[0] + 1, 3 * values.shape[1]), 7.0,
                   dtype=np.float32)
    view = host[1::2, ::3]  # strided in both axes
    view[...] = values
    return view


class TestEpilogueBitwise:
    """The in-place epilogue gives the earlier formula's bits exactly."""

    M, N, K = 9, 7, 6

    @pytest.fixture(autouse=True)
    def _quiet(self):
        # inf and NaN in C are the point here, not floating-point errors
        with np.errstate(all="ignore"):
            yield

    @pytest.fixture
    def operands(self, rng):
        a = rng.standard_normal((self.M, self.K)).astype(np.float32)
        b = rng.standard_normal((self.K, self.N)).astype(np.float32)
        c = rng.standard_normal((self.M, self.N)).astype(np.float32)
        flat = c.reshape(-1).view(np.uint32)
        flat[3 : 3 + 5 * len(_SPECIAL_BITS) : 5] = _SPECIAL_BITS
        return a, b, c

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "tf32", "fp32"])
    def test_matches_earlier_formula(self, operands, fmt, layout):
        a, b, c = operands
        for alpha in (1.0, -1.0, 0.5):
            for beta in (0.0, 1.0, -1.0, 0.5):
                for alias in (False, True):
                    ref_c = _accumulator(layout, c)
                    ref_out = ref_c if alias else _accumulator(layout, c * 0)
                    new_c = _accumulator(layout, c)
                    new_out = new_c if alias else _accumulator(layout, c * 0)
                    want = _reference_epilogue(
                        a, b, alpha=alpha, beta=beta, c=ref_c, fmt=fmt,
                        out=ref_out,
                    )
                    got = tc_gemm(
                        a, b, alpha=alpha, beta=beta, c=new_c,
                        input_format=fmt, out=new_out,
                    )
                    assert got is new_out
                    assert np.array_equal(
                        got.view(np.uint32), want.view(np.uint32)
                    ), (alpha, beta, alias)
                    if not alias:  # c is read, never written
                        assert np.array_equal(
                            new_c.view(np.uint32), c.view(np.uint32)
                        )

    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "tf32", "fp32"])
    def test_matches_earlier_formula_without_out(self, operands, fmt):
        a, b, c = operands
        for alpha in (1.0, -1.0, 0.5):
            for beta in (0.0, 1.0, -1.0, 0.5):
                want = _reference_epilogue(
                    a, b, alpha=alpha, beta=beta, c=c, fmt=fmt, out=None
                )
                got = tc_gemm(
                    a, b, alpha=alpha, beta=beta, c=c, input_format=fmt
                )
                assert got.dtype == np.float32 and got.flags.c_contiguous
                assert np.array_equal(
                    got.view(np.uint32), want.view(np.uint32)
                ), (alpha, beta)

    def test_accumulate_in_place_allocates_one_output(self, rng):
        # C += A B with a short inner dimension, the k-split's shape: the
        # product is the only output-sized array the call allocates
        m = n = 256
        a = rng.standard_normal((m, 16)).astype(np.float32)
        b = rng.standard_normal((16, n)).astype(np.float32)
        c = rng.standard_normal((m, n)).astype(np.float32)
        tc_gemm(a, b, beta=1.0, c=c, out=c)  # warm any lazy set-up
        tracemalloc.start()
        try:
            tc_gemm(a, b, beta=1.0, c=c, out=c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.nbytes <= peak < 1.5 * c.nbytes


class TestErrors:
    def test_inner_dim_mismatch(self, rng):
        with pytest.raises(ShapeError, match="inner dimensions"):
            tc_gemm(np.ones((2, 3)), np.ones((4, 2)))

    def test_beta_without_c(self):
        with pytest.raises(ShapeError, match="requires operand c"):
            tc_gemm(np.ones((2, 2)), np.ones((2, 2)), beta=1.0)

    def test_c_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tc_gemm(np.ones((2, 2)), np.ones((2, 2)), beta=1.0, c=np.ones((3, 3)))

    def test_non_2d(self):
        with pytest.raises(ShapeError):
            tc_gemm(np.ones(3), np.ones((3, 2)))


class TestNumericalProperties:
    def test_fp16_rounding_is_input_side_only(self):
        # accumulate in fp32: summing many small products must not lose
        # them wholesale (as a pure-fp16 accumulator would)
        k = 4096
        a = np.full((1, k), 0.01, dtype=np.float32)
        b = np.full((k, 1), 0.01, dtype=np.float32)
        out = tc_gemm(a, b, input_format="fp16")
        # true value ~0.4096; pure fp16 accumulation would stagnate early
        assert out[0, 0] == pytest.approx(0.4096, rel=5e-3)
