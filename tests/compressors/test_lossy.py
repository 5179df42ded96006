"""Lossy codecs (the §VIII future-work extension): error-bound
guarantees, rate guarantees, format robustness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.lossy import (
    SzLikeCodec,
    ZfpLikeCodec,
    max_abs_error,
    psnr,
)
from repro.errors import CompressionError

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False,
    width=64,
)

float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=300),
    elements=finite_floats,
)


class TestSzErrorBound:
    """The defining property: L∞(original, reconstructed) ≤ bound."""

    @settings(max_examples=40, deadline=None)
    @given(arr=float_arrays, eb=st.sampled_from([1e-6, 1e-3, 0.1, 10.0]))
    def test_linf_bound_holds(self, arr, eb):
        codec = SzLikeCodec(eb)
        out = codec.decompress(codec.compress(arr))
        assert out.shape == arr.shape
        assert max_abs_error(arr, out) <= eb * (1 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(arr=float_arrays)
    def test_linear_predictor_bound_holds(self, arr):
        codec = SzLikeCodec(0.01, predictor="linear")
        out = codec.decompress(codec.compress(arr))
        assert max_abs_error(arr, out) <= 0.01 * (1 + 1e-12)

    def test_smooth_data_compresses_hard(self):
        t = np.linspace(0.0, 10.0, 5000)
        smooth = np.sin(t) * 100.0
        codec = SzLikeCodec(0.01)
        assert codec.ratio(smooth) > 5.0

    def test_looser_bound_higher_ratio(self):
        rng = np.random.default_rng(0)
        walk = np.cumsum(rng.standard_normal(4000))
        tight = SzLikeCodec(1e-4).ratio(walk)
        loose = SzLikeCodec(1.0).ratio(walk)
        assert loose > 2 * tight

    def test_unpredictable_points_stored_exactly(self):
        """Huge jumps overflow the quantizer; those points must come
        back bit-close (within the bound) anyway."""
        arr = np.zeros(100)
        arr[50] = 1e15  # >> quant range × bound
        codec = SzLikeCodec(1e-6)
        out = codec.decompress(codec.compress(arr))
        assert max_abs_error(arr, out) <= 1e-6

    def test_float32_roundtrip_dtype(self):
        arr = np.linspace(0, 1, 100, dtype=np.float32)
        codec = SzLikeCodec(0.01)
        out = codec.decompress(codec.compress(arr))
        assert out.dtype == np.float32

    def test_multidimensional_shape_restored(self):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((10, 20, 3))
        codec = SzLikeCodec(0.05)
        out = codec.decompress(codec.compress(arr))
        assert out.shape == (10, 20, 3)
        assert max_abs_error(arr, out) <= 0.05 * (1 + 1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(CompressionError):
            SzLikeCodec(0.0)
        with pytest.raises(CompressionError):
            SzLikeCodec(0.1, predictor="magic")
        with pytest.raises(CompressionError):
            SzLikeCodec(0.1).compress(np.array([1, 2, 3]))  # int array
        with pytest.raises(CompressionError):
            SzLikeCodec(0.1).compress(np.array([np.nan]))
        with pytest.raises(CompressionError):
            SzLikeCodec(0.1).decompress(b"not a blob")


class TestZfpRate:
    @settings(max_examples=25, deadline=None)
    @given(
        arr=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=500),
            elements=st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False),
        ),
        bits=st.sampled_from([8, 12, 16]),
    )
    def test_block_relative_error_bound(self, arr, bits):
        codec = ZfpLikeCodec(bits, block_size=64)
        out = codec.decompress(codec.compress(arr))
        bound = codec.block_relative_error_bound()
        bs = codec.block_size
        for b in range(0, arr.size, bs):
            chunk = arr[b : b + bs]
            peak = np.max(np.abs(chunk))
            if peak == 0:
                assert np.all(out[b : b + bs] == 0)
            else:
                # one extra half-step of slack for exponent rounding
                assert max_abs_error(chunk, out[b : b + bs]) <= (
                    2.0 * bound * peak + 1e-12
                )

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        arr = np.cumsum(rng.standard_normal(2048))
        err8 = max_abs_error(
            arr, ZfpLikeCodec(8).decompress(ZfpLikeCodec(8).compress(arr))
        )
        err16 = max_abs_error(
            arr, ZfpLikeCodec(16).decompress(ZfpLikeCodec(16).compress(arr))
        )
        assert err16 < err8

    def test_zero_blocks_exact(self):
        arr = np.zeros(256)
        codec = ZfpLikeCodec(8)
        out = codec.decompress(codec.compress(arr))
        np.testing.assert_array_equal(out, arr)

    def test_subnormal_peak_decodes_as_zero_block(self):
        arr = np.zeros(64)
        arr[3] = 1e-310  # too small to scale: 0 x inf used to give NaN
        out = ZfpLikeCodec(12).decompress(ZfpLikeCodec(12).compress(arr))
        assert not np.any(out) and not np.any(np.signbit(out))

    def test_parameter_validation(self):
        with pytest.raises(CompressionError):
            ZfpLikeCodec(1)
        with pytest.raises(CompressionError):
            ZfpLikeCodec(12, block_size=2)
        with pytest.raises(CompressionError):
            ZfpLikeCodec(12).decompress(b"garbage")


class TestMetrics:
    def test_max_abs_error_basic(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.5, 2.0])
        assert max_abs_error(a, b) == 0.5
        with pytest.raises(CompressionError):
            max_abs_error(a, np.zeros(3))

    def test_psnr_infinite_for_identical(self):
        a = np.linspace(0, 1, 10)
        assert psnr(a, a) == float("inf")

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(3)
        a = np.sin(np.linspace(0, 5, 500))
        small = psnr(a, a + 1e-6 * rng.standard_normal(500))
        large = psnr(a, a + 1e-2 * rng.standard_normal(500))
        assert small > large
