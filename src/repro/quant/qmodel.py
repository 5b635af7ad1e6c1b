"""Whole-model quantization assembly.

:func:`quantize_model` turns a floating-point :class:`~repro.mamba.model.Mamba2Model`
into a quantized-inference model for any of the methods compared in
Table II / Table III of the paper:

========================  ==========================================================
Method                    Transformation before RTN rounding
========================  ==========================================================
``fp16``                  none (reference)
``rtn``                   none
``smoothquant``           per-channel scaling folded into the preceding RMSNorm
``os+``                   per-channel shifting + scaling with bias compensation
``lightmamba``            rotation-assisted (Fig. 4a), linear layers quantized
``lightmamba*``           ``lightmamba`` + PoT-quantized SSM and conv (whole model)
========================  ==========================================================

Weights are fake-quantized in place; activations are quantized at run time by
hooks installed on each block (``pre_in_proj`` / ``pre_out_proj``), composed
with the method's runtime transformation (OS+ shift, online Hadamard).

For the ``lightmamba*`` configurations every block's ``ssm_impl`` is a
:class:`~repro.quant.ssm_quant.QuantizedSSMStep` built from the ``ssm``
field of :class:`QuantConfig`: the defaults give the fake-quant simulation
used for accuracy studies, while ``persistent_state=True`` (integer-resident
decode state, bit-identical under PoT) and ``integer_chunk_body=True``
(INT32-accumulator prefill chunk contractions) move serving runs onto the
FPGA's integer execution model -- ``Mamba2Model.new_cache`` then builds
integer-resident caches automatically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.mamba.model import Mamba2Model
from repro.quant.calibration import CalibrationResult, collect_activation_stats
from repro.quant.outlier_suppression import (
    OSPlusConfig,
    apply_shift_and_scale,
    compute_shift_and_scale,
)
from repro.quant.quantizer import QuantizerConfig, quantize_dequantize
from repro.quant.rotation import RotationConfig, rotate_model
from repro.quant.rtn import (
    activation_quantizer_config,
    rtn_quantize_weight,
    weight_quantizer_config,
)
from repro.quant.smoothquant import SmoothQuantConfig, compute_smoothing_scales
from repro.quant.ssm_quant import QuantizedSSMStep, SSMQuantConfig

__all__ = ["QuantMethod", "QuantConfig", "quantize_model"]


class QuantMethod(str, enum.Enum):
    """The quantization methods compared in the paper's evaluation."""

    FP16 = "fp16"
    RTN = "rtn"
    SMOOTHQUANT = "smoothquant"
    OSPLUS = "os+"
    LIGHTMAMBA = "lightmamba"
    LIGHTMAMBA_STAR = "lightmamba*"

    @property
    def needs_calibration(self) -> bool:
        return self in (QuantMethod.SMOOTHQUANT, QuantMethod.OSPLUS)

    @property
    def uses_rotation(self) -> bool:
        return self in (QuantMethod.LIGHTMAMBA, QuantMethod.LIGHTMAMBA_STAR)

    @property
    def quantizes_ssm(self) -> bool:
        return self is QuantMethod.LIGHTMAMBA_STAR


@dataclass(frozen=True)
class QuantConfig:
    """Full configuration of a quantized model.

    ``w_bits`` / ``a_bits`` follow the paper's notation: W8A8 uses per-channel
    weights and per-token activations, W4A4 uses per-group (128) weights and
    activations.
    """

    method: QuantMethod = QuantMethod.LIGHTMAMBA
    w_bits: int = 4
    a_bits: int = 4
    group_size: int = 128
    smoothquant: SmoothQuantConfig = field(default_factory=SmoothQuantConfig)
    osplus: OSPlusConfig = field(default_factory=OSPlusConfig)
    rotation: RotationConfig = field(default_factory=RotationConfig)
    ssm: SSMQuantConfig = field(default_factory=SSMQuantConfig)

    @classmethod
    def w8a8(cls, method: QuantMethod, **kwargs) -> "QuantConfig":
        """The paper's W8A8 configuration for a given method."""
        return cls(method=method, w_bits=8, a_bits=8, **kwargs)

    @classmethod
    def w4a4(cls, method: QuantMethod, **kwargs) -> "QuantConfig":
        """The paper's W4A4 configuration for a given method."""
        return cls(method=method, w_bits=4, a_bits=4, **kwargs)

    @property
    def label(self) -> str:
        """Human-readable label such as ``"lightmamba W4A4"``."""
        return f"{self.method.value} W{self.w_bits}A{self.a_bits}"


# ----------------------------------------------------------------------
# Activation hooks
# ----------------------------------------------------------------------
class _ActivationQuant:
    """Hook fake-quantizing activations on the configured grid."""

    def __init__(self, config: QuantizerConfig):
        self.config = config

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return quantize_dequantize(x, self.config)


class _ShiftScale:
    """Hook applying the OS+ runtime transformation ``(x - shift) / scale``."""

    def __init__(self, shift: np.ndarray, scale: np.ndarray):
        self.shift = np.asarray(shift, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (x - self.shift) / self.scale


class _Chain:
    """Hook composing other hooks left to right."""

    def __init__(self, *hooks):
        self.hooks = [h for h in hooks if h is not None]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for hook in self.hooks:
            x = hook(x)
        return x


# ----------------------------------------------------------------------
# Per-method block transformations
# ----------------------------------------------------------------------
def _apply_smoothquant(block, calibration: CalibrationResult, config: QuantConfig) -> None:
    layer = block.layer_idx
    s_in = compute_smoothing_scales(
        calibration.in_proj_absmax(layer), block.in_proj_weight, config.smoothquant
    )
    block.norm.weight = block.norm.weight / s_in
    block.in_proj_weight = block.in_proj_weight * s_in[None, :]

    s_out = compute_smoothing_scales(
        calibration.out_proj_absmax(layer), block.out_proj_weight, config.smoothquant
    )
    block.gated_norm.weight = block.gated_norm.weight / s_out
    block.out_proj_weight = block.out_proj_weight * s_out[None, :]


def _apply_osplus(block, calibration: CalibrationResult, config: QuantConfig):
    """Apply OS+ to both projections; returns the runtime hooks to install."""
    layer = block.layer_idx

    lo, hi = calibration.in_proj_minmax(layer)
    shift_in, scale_in = compute_shift_and_scale(lo, hi, block.in_proj_weight, config.osplus)
    _, new_w_in, bias_in = apply_shift_and_scale(
        np.zeros_like(shift_in), block.in_proj_weight, shift_in, scale_in
    )
    block.in_proj_weight = new_w_in
    block.in_proj_bias = bias_in if block.in_proj_bias is None else block.in_proj_bias + bias_in

    lo, hi = calibration.out_proj_minmax(layer)
    shift_out, scale_out = compute_shift_and_scale(lo, hi, block.out_proj_weight, config.osplus)
    _, new_w_out, bias_out = apply_shift_and_scale(
        np.zeros_like(shift_out), block.out_proj_weight, shift_out, scale_out
    )
    block.out_proj_weight = new_w_out
    block.out_proj_bias = (
        bias_out if block.out_proj_bias is None else block.out_proj_bias + bias_out
    )

    return _ShiftScale(shift_in, scale_in), _ShiftScale(shift_out, scale_out)


# ----------------------------------------------------------------------
# Whole-model quantization
# ----------------------------------------------------------------------
def quantize_model(
    model: Mamba2Model,
    config: QuantConfig,
    calibration: Optional[CalibrationResult] = None,
    calib_sequences: Optional[Sequence[np.ndarray]] = None,
) -> Mamba2Model:
    """Quantize ``model`` according to ``config`` and return a new model.

    Parameters
    ----------
    model:
        The floating-point reference model (not modified).
    config:
        Method and bit widths.
    calibration:
        Pre-computed activation statistics; required for SmoothQuant / OS+
        unless ``calib_sequences`` is given.
    calib_sequences:
        Token sequences used to compute calibration statistics on the fly.
    """
    method = config.method
    if method is QuantMethod.FP16:
        return model.copy()

    if method.needs_calibration and calibration is None:
        if calib_sequences is None:
            raise ValueError(f"method '{method.value}' requires calibration data")
        calibration = collect_activation_stats(model, calib_sequences)

    if method.uses_rotation:
        quantized = rotate_model(model, config.rotation).model
    else:
        quantized = model.copy()

    act_cfg = activation_quantizer_config(config.a_bits, config.group_size)
    conv_weight_cfg = weight_quantizer_config(8, config.group_size)

    for block in quantized.blocks:
        in_transform = None
        out_transform = block.pre_out_proj if method.uses_rotation else None

        if method is QuantMethod.SMOOTHQUANT:
            _apply_smoothquant(block, calibration, config)
        elif method is QuantMethod.OSPLUS:
            in_transform, out_transform = _apply_osplus(block, calibration, config)

        block.in_proj_weight = rtn_quantize_weight(
            block.in_proj_weight, config.w_bits, config.group_size
        )
        block.out_proj_weight = rtn_quantize_weight(
            block.out_proj_weight, config.w_bits, config.group_size
        )

        block.pre_in_proj = _Chain(in_transform, _ActivationQuant(act_cfg))
        block.pre_out_proj = _Chain(out_transform, _ActivationQuant(act_cfg))

        if method.quantizes_ssm:
            block.ssm_impl = QuantizedSSMStep(config.ssm)
            block.conv.weight = quantize_dequantize(block.conv.weight, conv_weight_cfg)

    return quantized
