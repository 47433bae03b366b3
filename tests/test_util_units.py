"""Unit tests for repro.util.units."""

import pytest

from repro.util.units import (
    GIB,
    fmt_bandwidth,
    fmt_bytes,
    fmt_rate,
    fmt_time,
    gb,
    gemm_flops,
    gib,
    qr_flops,
    tflops,
)


class TestConversions:
    def test_gib(self):
        assert gib(32) == 32 * GIB == 34359738368

    def test_gb_is_decimal(self):
        assert gb(12) == 12e9

    def test_tflops(self):
        assert tflops(112) == 112e12


class TestFlopCounts:
    def test_gemm_flops(self):
        assert gemm_flops(2, 3, 4) == 48

    def test_gemm_flops_paper_inner(self):
        # the paper's largest recursive inner product
        assert gemm_flops(65536, 65536, 131072) == 2 * 65536 * 65536 * 131072

    def test_qr_flops_square(self):
        n = 100
        assert qr_flops(n, n) == pytest.approx(2 * n**3 - 2 * n**3 / 3, rel=1e-5)

    def test_qr_flops_tall_dominated_by_2mn2(self):
        assert qr_flops(10**6, 10) == pytest.approx(2 * 10**6 * 100, rel=1e-2)


class TestFormatting:
    def test_fmt_bytes_gb(self):
        assert fmt_bytes(17.18e9) == "17.18 GB"

    def test_fmt_bytes_small(self):
        assert fmt_bytes(512) == "512 B"

    def test_fmt_time_ms(self):
        assert fmt_time(1.408e-3 * 1000) == "1.41 s"
        assert fmt_time(0.693) == "693 ms"

    def test_fmt_time_us(self):
        assert fmt_time(15e-6) == "15.0 us"

    def test_fmt_time_long(self):
        assert fmt_time(97.1) == "97.1 s"

    def test_fmt_rate(self):
        assert fmt_rate(99.9e12) == "99.9 TFLOPS"

    @pytest.mark.parametrize(
        "rate,text",
        [(1.0e12, "1.0 TFLOPS"), (1.4e9, "1.4 GFLOPS"), (250e9, "250.0 GFLOPS"),
         (3.2e6, "3.2 MFLOPS"), (0.0, "0.0 MFLOPS")],
    )
    def test_fmt_rate_scales_below_a_teraflop(self, rate, text):
        # a host-measured rate of ~1.4 GFLOP/s used to print "0.0 TFLOPS"
        assert fmt_rate(rate) == text

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(11.8e9) == "11.8 GB/s"
