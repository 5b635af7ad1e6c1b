"""Tests for the core quantizer, observers, RTN and error metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    AbsMaxObserver,
    Granularity,
    INT4,
    INT8,
    IntSpec,
    MinMaxObserver,
    PercentileObserver,
    QuantizerConfig,
    compute_scales,
    dequantize,
    quantization_error,
    quantize,
    quantize_dequantize,
    relative_error,
    rtn_quantize_activation,
    rtn_quantize_weight,
    sqnr_db,
)
from repro.quant.error import mse

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestIntSpec:
    def test_ranges(self):
        assert INT8.qmax == 127
        assert INT8.qmin == -127
        assert INT4.qmax == 7
        assert INT4.num_levels == 15

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            IntSpec(1)
        with pytest.raises(ValueError):
            IntSpec(64)


class TestQuantizerRoundTrip:
    @pytest.mark.parametrize(
        "granularity", [Granularity.PER_TENSOR, Granularity.PER_TOKEN, Granularity.PER_GROUP]
    )
    def test_error_bounded_by_half_step(self, granularity):
        """No element's error may exceed half a quantization step."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 64))
        cfg = QuantizerConfig(spec=INT8, granularity=granularity, group_size=16)
        xq = quantize_dequantize(x, cfg)
        scales = compute_scales(x, cfg)
        max_step = np.max(scales)
        assert np.max(np.abs(x - xq)) <= max_step / 2 + 1e-12

    def test_codes_within_range(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 32)) * 100
        qt = quantize(
            x, QuantizerConfig(spec=INT4, granularity=Granularity.PER_GROUP, group_size=8)
        )
        assert qt.codes.max() <= 7 and qt.codes.min() >= -7

    def test_int8_precision_better_than_int4(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 128))
        err8 = mse(x, rtn_quantize_activation(x, 8))
        err4 = mse(x, rtn_quantize_activation(x, 4))
        assert err8 < err4

    def test_per_group_handles_non_divisible_dim(self):
        x = np.random.default_rng(3).normal(size=(3, 37))
        cfg = QuantizerConfig(spec=INT8, granularity=Granularity.PER_GROUP, group_size=16)
        xq = quantize_dequantize(x, cfg)
        assert xq.shape == x.shape
        assert np.all(np.isfinite(xq))

    def test_zero_tensor(self):
        x = np.zeros((4, 8))
        cfg = QuantizerConfig(spec=INT8, granularity=Granularity.PER_TOKEN)
        np.testing.assert_allclose(quantize_dequantize(x, cfg), x)

    def test_1d_activation(self):
        x = np.random.default_rng(4).normal(size=64)
        out = rtn_quantize_activation(x, 8)
        assert out.shape == x.shape
        assert relative_error(x, out) < 0.02

    def test_per_group_isolates_outliers(self):
        """A single huge outlier must not destroy far-away groups' precision."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 256))
        x[0, 3] = 1000.0
        per_tensor = quantize_dequantize(
            x, QuantizerConfig(spec=INT4, granularity=Granularity.PER_TENSOR)
        )
        per_group = quantize_dequantize(
            x, QuantizerConfig(spec=INT4, granularity=Granularity.PER_GROUP, group_size=32)
        )
        err_tensor = mse(x[0, 128:], per_tensor[0, 128:])
        err_group = mse(x[0, 128:], per_group[0, 128:])
        assert err_group < err_tensor / 10

    def test_pot_scale_is_power_of_two(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 32))
        cfg = QuantizerConfig(
            spec=INT8, granularity=Granularity.PER_GROUP, group_size=8, pot_scale=True
        )
        scales = compute_scales(x, cfg)
        log2 = np.log2(scales)
        np.testing.assert_allclose(log2, np.round(log2), atol=1e-9)

    def test_clip_ratio_validation(self):
        with pytest.raises(ValueError):
            QuantizerConfig(clip_ratio=0.0)
        with pytest.raises(ValueError):
            QuantizerConfig(group_size=0)

    @given(
        hnp.arrays(np.float64, (4, 16), elements=finite),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantize_dequantize_idempotent(self, x, bits):
        """Quantizing an already-quantized tensor must be a fixed point."""
        cfg = QuantizerConfig(spec=IntSpec(bits), granularity=Granularity.PER_TOKEN)
        once = quantize_dequantize(x, cfg)
        twice = quantize_dequantize(once, cfg)
        np.testing.assert_allclose(once, twice, rtol=1e-9, atol=1e-12)

    @given(hnp.arrays(np.float64, (3, 24), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_memory_model(self, x):
        qt = quantize(
            x, QuantizerConfig(spec=INT4, granularity=Granularity.PER_GROUP, group_size=8)
        )
        assert qt.memory_bytes() == pytest.approx(x.size * 0.5 + qt.scales.size * 2)

    @pytest.mark.parametrize("pot_scale", [False, True])
    def test_non_finite_groups_get_zero_codes(self, pot_scale):
        """NaN / inf poison only its own group: zero codes, non-finite scale."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 32))
        cfg = QuantizerConfig(
            spec=INT8, granularity=Granularity.PER_GROUP, group_size=8, pot_scale=pot_scale
        )
        clean = quantize(x, cfg)
        poisoned = x.copy()
        poisoned[0, 3] = np.nan  # row 0, group 0
        poisoned[1, 17] = np.inf  # row 1, group 2
        poisoned[1, 30] = -np.inf  # row 1, group 3
        bad = np.zeros((2, 4), dtype=bool)
        bad[0, 0] = bad[1, 2] = bad[1, 3] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qt = quantize(poisoned, cfg)
        codes = qt.codes.reshape(2, 4, 8)
        np.testing.assert_array_equal(codes[bad], 0)
        np.testing.assert_array_equal(codes[~bad], clean.codes.reshape(2, 4, 8)[~bad])
        assert not np.isfinite(qt.scales[bad]).any()
        np.testing.assert_array_equal(qt.scales[~bad], clean.scales[~bad])
        # 0 * inf is numpy's invalid multiply; the poison must still surface.
        with np.errstate(invalid="ignore"):
            values = dequantize(qt).reshape(2, 4, 8)
        assert not np.isfinite(values[bad]).any()
        np.testing.assert_array_equal(values[~bad], dequantize(clean).reshape(2, 4, 8)[~bad])


class TestObservers:
    def test_absmax_accumulates_over_batches(self):
        obs = AbsMaxObserver()
        obs.update(np.array([[1.0, -2.0], [0.5, 1.0]]))
        obs.update(np.array([[-3.0, 0.1]]))
        np.testing.assert_allclose(obs.result(), [3.0, 2.0])
        assert obs.count == 3

    def test_absmax_channel_mismatch(self):
        obs = AbsMaxObserver()
        obs.update(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            obs.update(np.zeros((2, 5)))

    def test_absmax_empty_raises(self):
        with pytest.raises(RuntimeError):
            AbsMaxObserver().result()

    def test_minmax_shift_and_range(self):
        obs = MinMaxObserver()
        obs.update(np.array([[0.0, -4.0], [2.0, 6.0]]))
        lo, hi = obs.result()
        np.testing.assert_allclose(lo, [0.0, -4.0])
        np.testing.assert_allclose(hi, [2.0, 6.0])
        np.testing.assert_allclose(obs.shift(), [1.0, 1.0])
        np.testing.assert_allclose(obs.half_range(), [1.0, 5.0])

    def test_percentile_observer(self):
        obs = PercentileObserver(percentile=50.0)
        obs.update(np.abs(np.arange(101, dtype=float))[:, None] * np.ones((1, 3)))
        np.testing.assert_allclose(obs.result(), [50.0, 50.0, 50.0])

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            PercentileObserver(percentile=0.0)

    def test_3d_input_flattened(self):
        obs = AbsMaxObserver()
        obs.update(np.ones((2, 3, 4)))
        assert obs.result().shape == (4,)


class TestErrorMetrics:
    def test_zero_error(self):
        x = np.random.default_rng(0).normal(size=(5, 6))
        assert quantization_error(x, x) == 0.0
        assert relative_error(x, x) == 0.0
        assert sqnr_db(x, x) == np.inf

    def test_relative_error_scale_invariance(self):
        x = np.random.default_rng(1).normal(size=(5, 6))
        y = x + 0.01
        assert relative_error(x, y) == pytest.approx(relative_error(10 * x, 10 * y), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantization_error(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_sqnr_decreases_with_noise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000)
        low_noise = x + 0.001 * rng.normal(size=1000)
        high_noise = x + 0.1 * rng.normal(size=1000)
        assert sqnr_db(x, low_noise) > sqnr_db(x, high_noise)

    def test_quantization_error_is_per_token_l2(self):
        x = np.zeros((2, 4))
        y = np.zeros((2, 4))
        y[0, 0] = 3.0
        y[0, 1] = 4.0
        assert quantization_error(x, y) == pytest.approx(2.5)  # (5 + 0) / 2


class TestRTNConfigs:
    def test_w8_uses_per_channel(self):
        from repro.quant.rtn import weight_quantizer_config

        cfg = weight_quantizer_config(8)
        assert cfg.granularity is Granularity.PER_CHANNEL

    def test_w4_uses_per_group(self):
        from repro.quant.rtn import weight_quantizer_config

        cfg = weight_quantizer_config(4)
        assert cfg.granularity is Granularity.PER_GROUP
        assert cfg.group_size == 128

    def test_weight_quantization_preserves_shape(self):
        w = np.random.default_rng(0).normal(size=(96, 64))
        for bits in (4, 8):
            assert rtn_quantize_weight(w, bits).shape == w.shape
