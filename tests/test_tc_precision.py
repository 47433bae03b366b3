"""Unit tests for reduced-precision input rounding."""

import os

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.tc.precision import (
    FP16_MAX,
    ROUND_BLOCK,
    UNIT_ROUNDOFF,
    QuantStats,
    _fp16_shifter,
    round_bf16,
    round_fp16,
    round_tf32,
    round_to,
)


def _cast_fp16(a: np.ndarray) -> np.ndarray:
    """The reference: numpy's own fp16 conversion."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.astype(np.float16).astype(np.float32)


def _assert_bitwise(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert got.strides == ref.strides, "rounding changed the memory layout"
    np.testing.assert_array_equal(got.view(np.uint32), ref.view(np.uint32))


def _fp16_edge_set() -> np.ndarray:
    """Every finite fp16 value, every midpoint between neighbours (the
    ties) and the fp32 values one ulp either side of both: each fp16
    rounding boundary, normal and subnormal, from both sides."""
    half = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
    grid = np.unique(half[np.isfinite(half)].astype(np.float32))
    mids = ((grid[:-1].astype(np.float64) + grid[1:]) / 2).astype(np.float32)
    points = np.concatenate([grid, mids])
    up = np.nextafter(points, np.float32(np.inf))
    down = np.nextafter(points, np.float32(-np.inf))
    return np.concatenate([points, up, down])


class TestFp16:
    def test_returns_fp32(self):
        out = round_fp16(np.array([1.0, 2.0]))
        assert out.dtype == np.float32

    def test_exact_values_preserved(self):
        vals = np.array([0.0, 1.0, -2.0, 0.5, 1024.0], dtype=np.float32)
        np.testing.assert_array_equal(round_fp16(vals), vals)

    def test_rounding_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, 1000).astype(np.float32)
        err = np.abs(round_fp16(x) - x) / np.abs(x)
        assert err.max() <= UNIT_ROUNDOFF["fp16"]

    def test_overflow_to_inf(self):
        # fp16 max is 65504 — conversion overflows like the hardware
        assert np.isinf(round_fp16(np.array([1e6], dtype=np.float32)))[0]


class TestFp16Exact:
    """``round_fp16`` is bitwise ``astype(float16).astype(float32)``."""

    def test_edge_set_in_range(self):
        edges = _fp16_edge_set()
        inside = edges[np.abs(edges) < FP16_MAX]
        _assert_bitwise(round_fp16(inside), _cast_fp16(inside))
        _assert_bitwise(_fp16_shifter(inside), _cast_fp16(inside))

    def test_edge_set_with_specials(self):
        specials = np.array(
            [np.nan, np.inf, -np.inf, 65504.0, 65519.0, 65520.0, -65520.0, 1e6],
            dtype=np.float32,
        )
        edges = np.concatenate([_fp16_edge_set(), specials])
        _assert_bitwise(round_fp16(edges), _cast_fp16(edges))

    def test_signed_zeros_and_tiny_values(self):
        tiny = np.array(
            [0.0, -0.0, 2.0**-26, -(2.0**-26), 2.0**-25, -(2.0**-25),
             np.nextafter(np.float32(2.0**-25), np.float32(1)),
             -np.nextafter(np.float32(2.0**-25), np.float32(1)),
             1e-45, -1e-45, 1e-40, -1e-40, 2.0**-126, -(2.0**-126)],
            dtype=np.float32,
        )
        out = round_fp16(tiny)
        _assert_bitwise(out, _cast_fp16(tiny))
        # tiny negatives round to -0, not +0
        assert np.signbit(out[tiny < 0]).all()
        assert (out[np.abs(tiny) <= 2.0**-25] == 0).all()

    def test_top_of_range(self):
        top = np.array([65504.0, 65519.0, -65519.0, 65520.0, 65536.0],
                       dtype=np.float32)
        np.testing.assert_array_equal(
            round_fp16(top), [65504.0, 65504.0, -65504.0, np.inf, np.inf]
        )
        # 65503.99 is in range: the shifter handles it
        below = np.array([np.nextafter(np.float32(65504), np.float32(0))])
        _assert_bitwise(round_fp16(below), _cast_fp16(below))

    def test_views_keep_layout(self):
        rng = np.random.default_rng(3)
        base = (rng.standard_normal((48, 40)) * 100).astype(np.float32)
        for view in (base, base.T, base[::2, 1::3], base[5:30, 7:9].T,
                     np.asfortranarray(base)):
            _assert_bitwise(round_fp16(view), _cast_fp16(view))

    def test_empty_and_scalar(self):
        for a in (np.zeros((0, 4), dtype=np.float32),
                  np.zeros(0, dtype=np.float32),
                  np.array(3.14159, dtype=np.float32)):
            _assert_bitwise(round_fp16(a), _cast_fp16(a))

    def test_quant_stats_on_both_paths(self):
        stats = QuantStats()
        round_fp16(np.array([1e-30, 1.0], dtype=np.float32), stats)
        round_fp16(np.array([1e6, 1e-30], dtype=np.float32), stats)
        assert (stats.overflow, stats.underflow) == (1, 2)

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PERF"),
        reason="exhaustive 2^32 sweep (minutes) needs REPRO_PERF=1",
    )
    def test_every_fp32_pattern(self):
        """All 2^32 bit patterns, in blocks: the shifter on every finite
        value with |a| < 65504, round_fp16 on whole blocks."""
        block = 1 << 24
        for start in range(0, 1 << 32, block):
            a = np.arange(start, start + block, dtype=np.uint64)
            a = a.astype(np.uint32).view(np.float32)
            ref = _cast_fp16(a)
            with np.errstate(invalid="ignore"):
                inside = np.abs(a) < FP16_MAX
            if inside.any():
                got = _fp16_shifter(a[inside])
                assert np.array_equal(
                    got.view(np.uint32), ref[inside].view(np.uint32)
                ), f"shifter mismatch in block {start:#010x}"
            got = round_fp16(a)
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32)), (
                f"round_fp16 mismatch in block {start:#010x}"
            )


#: fp32 values that round to zero in fp16 (underflows), that are zeros,
#: or that survive as fp16 subnormals.
_TINY = np.array(
    [1e-30, -1e-30, 2.0**-25, -(2.0**-25), 2.0**-26, 1e-45, -1e-40, 0.0, -0.0,
     2.0**-24, -(2.0**-24), 6e-8, 2.0**-126],
    dtype=np.float32,
)
#: fp32 values that send their block down the cast path: overflows to
#: +/-inf, NaN and infinities.
_SPECIALS = np.array(
    [65520.0, -65520.0, 1e6, -1e38, np.nan, np.inf, -np.inf, 65504.0],
    dtype=np.float32,
)


def _outer_boundary(view: np.ndarray) -> tuple[int, int]:
    """(axis, index) of the first block boundary of round_fp16's pass
    over *view*: blocks are cut along the result's outer memory axis."""
    out = np.empty_like(view)
    axis = 1 if out.strides[0] < out.strides[1] else 0
    return axis, ROUND_BLOCK // view.shape[1 - axis]


def _layouts() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(8)
    base = (rng.standard_normal((700, 120)) * 100).astype(np.float32)
    wide = (rng.standard_normal((1400, 360)) * 100).astype(np.float32)
    return {
        "C": base,
        "F": np.asfortranarray(base),
        "sliced": wide[::2, 1::3],
        "transposed": base.T,
    }


class TestFusedCount:
    """``round_fp16(a, stats)`` counts what ``QuantStats.count(a, cast)``
    counts, in the same pass that rounds."""

    @staticmethod
    def _check(a: np.ndarray) -> None:
        got = QuantStats()
        out = round_fp16(a, got)
        ref = QuantStats()
        ref.count(a, _cast_fp16(a))
        assert (got.overflow, got.underflow) == (ref.overflow, ref.underflow)
        _assert_bitwise(out, _cast_fp16(a))

    @pytest.mark.parametrize("mixed", [False, True], ids=["in-range", "mixed"])
    @pytest.mark.parametrize("layout", sorted(_layouts()))
    def test_both_sides_of_a_block_boundary(self, layout, mixed):
        """Underflows, zeros and subnormals on both sides of the first
        block boundary; with *mixed*, NaN/+-inf/overflows on one side only,
        so one block is cast and its neighbour takes the shifter."""
        a = _layouts()[layout]
        axis, edge = _outer_boundary(a)
        lines = np.moveaxis(a, axis, 0)  # lines[i] lies across the boundary
        assert 0 < edge < lines.shape[0] - 1
        lines[edge - 1, : _TINY.size] = _TINY
        lines[edge, : _TINY.size] = _TINY
        if mixed:
            lines[edge - 1, -_SPECIALS.size :] = _SPECIALS
        self._check(a)

    def test_one_dimensional_boundary(self):
        a = np.full(ROUND_BLOCK + 64, 3.0, dtype=np.float32)
        a[ROUND_BLOCK - _TINY.size : ROUND_BLOCK] = _TINY
        a[ROUND_BLOCK : ROUND_BLOCK + _TINY.size] = _TINY
        self._check(a)
        a[ROUND_BLOCK + 32 : ROUND_BLOCK + 32 + _SPECIALS.size] = _SPECIALS
        self._check(a)

    def test_every_casualty_kind_in_one_block(self):
        self._check(np.concatenate([_TINY, _SPECIALS, _fp16_edge_set()]))

    def test_count_adds_up_across_calls(self):
        stats = QuantStats(overflow=2, underflow=3)
        round_fp16(_SPECIALS, stats)
        round_fp16(_TINY, stats)
        ref = QuantStats(overflow=2, underflow=3)
        ref.count(_SPECIALS, _cast_fp16(_SPECIALS))
        ref.count(_TINY, _cast_fp16(_TINY))
        assert (stats.overflow, stats.underflow) == (ref.overflow, ref.underflow)
        assert (stats.overflow, stats.underflow) == (2 + 4, 3 + 8)


class TestBf16:
    def test_coarser_than_fp16_near_one(self):
        x = np.array([1.0 + 2.0**-9], dtype=np.float32)
        assert round_bf16(x)[0] != x[0]
        assert round_fp16(x)[0] == x[0]

    def test_range_preserved(self):
        # bf16 shares fp32's exponent: 1e6 survives
        assert np.isfinite(round_bf16(np.array([1e6], dtype=np.float32)))[0]

    def test_error_bounded(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, 1000).astype(np.float32)
        err = np.abs(round_bf16(x) - x) / np.abs(x)
        assert err.max() <= UNIT_ROUNDOFF["bf16"]

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 sits exactly halfway between 1 and 1 + 2^-7:
        # round-half-even keeps the even mantissa (1.0)
        x = np.array([1.0 + 2.0**-8], dtype=np.float32)
        assert round_bf16(x)[0] == 1.0

    @pytest.mark.parametrize("fn", [round_bf16, round_tf32])
    def test_nan_payload_in_low_bits_stays_nan(self, fn):
        # a NaN whose payload sits only in the dropped bits used to lose
        # it and come out as +/-inf (0x7FFFFFFF even carried into -0)
        bits = np.array(
            [0x7F800001, 0xFF800003, 0x7FFFFFFF, 0xFFFFFFFF, 0x7FC00000],
            dtype=np.uint32,
        )
        out = fn(bits.view(np.float32))
        assert np.isnan(out).all()
        np.testing.assert_array_equal(np.signbit(out), [0, 1, 0, 1, 0])
        finite = np.array([np.inf, -np.inf, 1.0, -2.5], dtype=np.float32)
        np.testing.assert_array_equal(fn(finite), finite)


class TestTf32:
    def test_between_fp16_and_fp32_in_precision(self):
        x = np.array([1.0 + 2.0**-12], dtype=np.float32)
        assert round_tf32(x)[0] == 1.0  # 10 mantissa bits drop it
        x2 = np.array([1.0 + 2.0**-9], dtype=np.float32)
        assert round_tf32(x2)[0] == x2[0]

    def test_wide_range(self):
        assert np.isfinite(round_tf32(np.array([1e30], dtype=np.float32)))[0]


class TestRoundTo:
    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "tf32", "fp32"])
    def test_dispatch(self, fmt):
        x = np.ones(3, dtype=np.float32)
        np.testing.assert_array_equal(round_to(x, fmt), x)

    def test_fp32_identity_on_noise(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(round_to(x, "fp32"), x)

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            round_to(np.ones(1), "fp8")

    def test_preserves_shape(self):
        x = np.ones((3, 4, 5), dtype=np.float32)
        assert round_to(x, "bf16").shape == (3, 4, 5)
