"""Symmetric integer quantizers.

All quantizers in this reproduction are *symmetric* (zero-point free), which
matches the paper's hardware assumption: the MMU and SSMU operate on signed
integers and re-scale with a single multiplicative (or, for PoT scales, a
shift) factor.

Granularities follow Sec. VI-A of the paper:

- W8A8: per-channel weights, per-token activations;
- W4A4: per-group weights *and* activations with group size 128.

The main entry points are :func:`quantize` (returns integer codes + scales),
:func:`dequantize`, and :func:`quantize_dequantize` (the "fake quant"
round-trip used to simulate quantized inference in floating point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.dtypes import Granularity, IntSpec, INT8

__all__ = [
    "QuantizerConfig",
    "QuantizedTensor",
    "compute_scales",
    "quantize",
    "dequantize",
    "quantize_dequantize",
]

_EPS = 1e-12


@dataclass(frozen=True)
class QuantizerConfig:
    """Configuration of a symmetric quantizer.

    Attributes
    ----------
    spec:
        Target integer format (e.g. :data:`~repro.quant.dtypes.INT4`).
    granularity:
        Scale-sharing granularity.
    group_size:
        Group length for :attr:`Granularity.PER_GROUP` (128 in the paper).
    clip_ratio:
        Multiplier on the absolute maximum used to compute the scale
        (``1.0`` = no clipping).
    pot_scale:
        If ``True`` the scale is snapped to a power of two (the paper's
        FPGA-friendly SSM scheme; re-quantization becomes a bit shift).
    pot_rounding:
        ``"ceil"`` (default; never clips harder than the absmax scale) or
        ``"nearest"``.
    """

    spec: IntSpec = INT8
    granularity: Granularity = Granularity.PER_TENSOR
    group_size: int = 128
    clip_ratio: float = 1.0
    pot_scale: bool = False
    pot_rounding: str = "ceil"

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if not 0.0 < self.clip_ratio <= 1.0:
            raise ValueError("clip_ratio must be in (0, 1]")
        if self.pot_rounding not in ("ceil", "nearest"):
            raise ValueError("pot_rounding must be 'ceil' or 'nearest'")


@dataclass
class QuantizedTensor:
    """Integer codes plus the scales needed to dequantize them."""

    codes: np.ndarray
    scales: np.ndarray
    config: QuantizerConfig
    shape: tuple

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point tensor."""
        return dequantize(self)

    @property
    def bits(self) -> int:
        return self.config.spec.bits

    def memory_bytes(self) -> float:
        """Storage cost of codes plus FP16 scales, in bytes."""
        return self.codes.size * self.bits / 8.0 + self.scales.size * 2.0


def _pot_round(scales: np.ndarray, mode: str) -> np.ndarray:
    """Snap positive scales to the nearest / next power of two."""
    safe = np.maximum(scales, _EPS)
    log2 = np.log2(safe)
    if mode == "ceil":
        exponent = np.ceil(log2)
    else:
        exponent = np.round(log2)
    return np.power(2.0, exponent)


def _group_reshape(x: np.ndarray, group_size: int) -> tuple[np.ndarray, int, int]:
    """Reshape the last axis into groups, padding with zeros if necessary.

    Returns ``(reshaped, n_groups, pad)`` where ``reshaped`` has shape
    ``(..., n_groups, group_size)``.
    """
    last = x.shape[-1]
    group = min(group_size, last)
    n_groups = -(-last // group)
    pad = n_groups * group - last
    if pad:
        pad_width = [(0, 0)] * (x.ndim - 1) + [(0, pad)]
        x = np.pad(x, pad_width)
    reshaped = x.reshape(*x.shape[:-1], n_groups, group)
    return reshaped, n_groups, pad


def compute_scales(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """Compute symmetric quantization scales for ``x``.

    The returned array broadcasts against ``x`` for
    per-tensor / per-channel / per-token granularity; for per-group
    granularity it has shape ``(..., n_groups, 1)`` and applies to the
    group-reshaped view of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    qmax = config.spec.qmax
    gran = config.granularity

    if gran is Granularity.PER_TENSOR:
        absmax = np.max(np.abs(x)) if x.size else 0.0
        scales = np.asarray(absmax, dtype=np.float64).reshape(())
    elif gran in (Granularity.PER_CHANNEL, Granularity.PER_TOKEN):
        if x.ndim == 1:
            absmax = np.max(np.abs(x)) if x.size else 0.0
            scales = np.asarray(absmax, dtype=np.float64).reshape(())
        else:
            scales = np.max(np.abs(x), axis=-1, keepdims=True)
    elif gran is Granularity.PER_GROUP:
        grouped, _, _ = _group_reshape(x, config.group_size)
        scales = np.max(np.abs(grouped), axis=-1, keepdims=True)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown granularity {gran}")

    scales = np.maximum(scales * config.clip_ratio, _EPS) / qmax
    if config.pot_scale:
        scales = _pot_round(scales, config.pot_rounding)
    return scales


def quantize(x: np.ndarray, config: QuantizerConfig) -> QuantizedTensor:
    """Quantize ``x`` to integer codes under ``config``.

    Non-finite input poisons its whole group (or channel / tensor, per the
    granularity): the group's scale becomes non-finite and its codes are
    defined as 0.  The poison therefore stays in the scale -- :func:`dequantize`
    still reconstructs non-finite values for that group -- while every other
    group quantizes exactly as it would alone.
    """
    x = np.asarray(x, dtype=np.float64)
    scales = compute_scales(x, config)
    spec = config.spec

    per_group = config.granularity is Granularity.PER_GROUP
    if per_group:
        values, _, pad = _group_reshape(x, config.group_size)
    else:
        values, pad = x, 0
    # Test the small scales array first, so finite inputs never touch the
    # poisoned-group path (which divides by a placeholder scale of 1 to keep
    # inf / inf and NaN codes out of the integer cast).
    finite = np.isfinite(scales)
    if finite.all():
        codes = np.clip(np.round(values / scales), spec.qmin, spec.qmax)
    else:
        codes = np.round(values / np.where(finite, scales, 1.0))
        codes = np.where(finite, np.clip(codes, spec.qmin, spec.qmax), 0.0)
    if per_group:
        codes = codes.reshape(*values.shape[:-2], -1)
        if pad:
            codes = codes[..., : x.shape[-1]]
    return QuantizedTensor(
        codes=codes.astype(np.int32), scales=scales, config=config, shape=x.shape
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to floating point."""
    config = qt.config
    codes = qt.codes.astype(np.float64)
    if config.granularity is Granularity.PER_GROUP:
        grouped, _, pad = _group_reshape(codes, config.group_size)
        values = grouped * qt.scales
        values = values.reshape(*grouped.shape[:-2], -1)
        if pad:
            values = values[..., : qt.shape[-1]]
        return values
    return codes * qt.scales


def quantize_dequantize(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """Fake-quantization round trip: ``dequantize(quantize(x))``.

    This is the numerical model of quantized inference used throughout the
    library; the integer-exact path in :mod:`repro.quant.qlinear` verifies
    its equivalence.
    """
    return dequantize(quantize(x, config))
