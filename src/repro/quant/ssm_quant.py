"""Quantized SSM layer (the LightMamba* configuration).

Sec. IV-B of the paper: the SSM layer is quantized with per-group INT8 and
power-of-two (PoT) scales so that the re-quantization after every element-wise
multiplication is a bit shift.  The non-linear operators (softplus, exp) stay
in floating point -- on the FPGA they are implemented with dedicated units --
while every multiplicative operand and every element-wise product is
fake-quantized on the INT8 PoT grid.

One class, :class:`QuantizedSSMStep`, fills the ``ssm_impl`` slot of
:class:`repro.mamba.block.MambaBlock` with a batched step (the
:func:`repro.mamba.ssm.ssm_step` signature: decode, and the
``scan_impl="sequential"`` prefill through :func:`repro.mamba.ssm.ssm_scan`)
plus a chunk-parallel ``prefill_scan`` (the
:func:`repro.mamba.ssm.ssd_chunked_scan` signature: the ``"chunked"``
prefill).  The sequential prefill doubles as the degraded mode: it steps the
float view of the state, i.e. the fake-quant oracle with no chunk body and
no INT32 kernels, bit-identical to the integer step under PoT scales.

Fake-quant vs. integer-resident execution
-----------------------------------------

The *fake-quant oracle* runs every operand through its integer grid but
stores and combines floats: quantize, dequantize, multiply, repeat.  It is
the numerical reference for accuracy studies, and every integer mode below
is pinned bit-identical (or integer-exact) against it.

The *integer-resident* modes execute the same arithmetic the way the FPGA
does -- on codes, with power-of-two scale *exponents* threaded instead of
float scales:

- ``persistent_state=True`` keeps the recurrent state ``h`` resident as INT
  codes + PoT scales between decode steps (a
  :class:`~repro.mamba.cache.QuantizedSSMState` inside a
  :class:`~repro.mamba.cache.QuantizedLayerCache`).  With it, the decode
  step runs the **all-integer iteration**: x/B/C are quantized once at the
  in-projection boundary and from there to the readout no float tensor is
  materialized.  The ``Delta (.) B``, ``A_bar (.) h`` and ``D (.) x``
  products fold their per-head float scalar into the re-quantization
  multiplier (a PoT shift plus one scalar multiply on hardware -- the EM
  units of Fig. 3), while the code-by-code products (``B_bar (.) x``,
  ``h (.) C``) re-quantize with :func:`repro.quant.pot.shift_requantize`
  alone: a bit shift by the exponent difference, rounding half-to-even so
  shifted codes land exactly where the oracle's ``np.round`` would put
  them.  The step is therefore **bit-identical** to the fake-quant oracle
  under PoT scales -- pinned by ``tests/test_int_state.py`` and enforced
  statically by the DT2xx dtype-flow lint over the ``# integer-resident``
  regions (every surviving float materialization carries a
  ``# quant-point:`` sanction, and the sanction budget can only ratchet
  down).
- ``integer_chunk_body=True`` runs the prefill chunk body's two ``d_state``
  contractions (the ``C B^T`` interaction matrix and the carried-state
  ``h . C`` readout) on true INT32 accumulators over the raw codes --
  the MMU execution model, sharing
  :func:`repro.quant.qlinear.grouped_integer_matmul` and its static overflow
  guard with the quantized linear layers (requires ``quantize_products``).
- ``integer_full_chunk=True`` extends the INT32 accumulation to the two
  remaining intra-chunk matmuls -- the decay-gated ``gate @ x`` output
  contraction and the ``wx @ bh`` state hand-off -- with the decay folded
  into PoT re-quantization of the gated operands and per-token operand
  exponents shift-aligned to a common per-group grid so the contraction
  scales are constant within each accumulator group.

Use fake-quant (the defaults) for algorithm/accuracy work; enable the
integer-resident modes when the run should mirror the hardware datapath --
serving benchmarks, the URAM/BRAM state-footprint study
(:class:`repro.hardware.memory.QuantizedStateMemoryModel`), or any test of
the accelerator's integer semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mamba.cache import QuantizedLayerCache, QuantizedSSMState
from repro.mamba.config import Mamba2Config
from repro.mamba.ops import softplus
from repro.mamba.ssm import SSMParams, _validate_seq_lens, ssm_decay, ssm_scan
from repro.quant.dtypes import Granularity, IntSpec
from repro.quant.pot import absmax_requant_exponents, pot_exponent, shift_requantize
from repro.quant.qlinear import grouped_integer_matmul
from repro.quant.quantizer import (
    QuantizedTensor,
    QuantizerConfig,
    _group_reshape,
    dequantize,
    quantize,
    quantize_dequantize,
)

__all__ = ["SSMQuantConfig", "QuantizedSSMStep"]


@dataclass(frozen=True)
class SSMQuantConfig:
    """Settings of the SSM quantization.

    Attributes
    ----------
    bits:
        Integer width of the SSM operands and element-wise products (the
        paper uses INT8 for the SSM regardless of the linear-layer width).
    group_size:
        Per-group quantization group length along the state / channel axis.
    pot_scale:
        Constrain scales to powers of two (the paper's FPGA-friendly scheme).
        Setting it to ``False`` gives the "naive non-PoT" ablation of Fig. 3.
    quantize_products:
        Re-quantize every element-wise product (the re-quantization whose
        hardware cost Fig. 3 analyses).  Disabling keeps products at high
        precision until the output.
    persistent_state:
        Keep the recurrent state resident as INT codes + PoT scales between
        steps (the on-chip state buffer execution model).  Bit-identical to
        the fake-quant decode -- PoT re-quantization of an on-grid state is
        idempotent -- but removes the per-token state round trip.  Requires
        ``pot_scale``.
    integer_chunk_body:
        Run the prefill chunk body's ``C B^T`` and ``h . C`` contractions on
        INT32 accumulators over the raw codes (the MMU execution model, with
        its static overflow guard).  Requires ``quantize_products``.
    integer_full_chunk:
        Also run the remaining intra-chunk matmuls (``gate @ x`` and the
        ``wx @ bh`` state hand-off) on INT32 accumulators: the decay-gated
        operands are re-quantized onto PoT grids (folding the decay into the
        shift re-quantization) and the per-token operand exponents are
        shift-aligned per accumulator group.  Unlike ``integer_chunk_body``
        this *changes* the scan numerics (alignment and gate quantization
        are additional rounding points); the INT32 accumulation itself is
        still exact, pinned against the float matmul on the same aligned
        codes.  Requires ``integer_chunk_body``.
    """

    bits: int = 8
    group_size: int = 32
    pot_scale: bool = True
    quantize_products: bool = True
    persistent_state: bool = False
    integer_chunk_body: bool = False
    integer_full_chunk: bool = False

    def __post_init__(self) -> None:
        if self.persistent_state and not self.pot_scale:
            raise ValueError(
                "persistent_state keeps h as INT codes + PoT scales; it requires "
                "pot_scale=True"
            )
        if self.integer_chunk_body and not self.quantize_products:
            raise ValueError(
                "integer_chunk_body contracts the raw codes of the re-quantized "
                "products; it requires quantize_products=True"
            )
        if self.integer_full_chunk and not self.integer_chunk_body:
            raise ValueError(
                "integer_full_chunk extends the integer chunk body's INT32 "
                "accumulation to the gate @ x and state hand-off matmuls; it "
                "requires integer_chunk_body=True"
            )

    def config(self, granularity: Granularity = Granularity.PER_GROUP) -> QuantizerConfig:
        """Build the underlying :class:`QuantizerConfig`."""
        return QuantizerConfig(
            spec=IntSpec(self.bits),
            granularity=granularity,
            group_size=self.group_size,
            pot_scale=self.pot_scale,
            pot_rounding="ceil",
        )


def _ungroup(grouped: np.ndarray, length: int) -> np.ndarray:
    """Flatten a ``(..., G, g)`` grouped tensor back to ``(..., length)``.

    Inverse of :func:`repro.quant.quantizer._group_reshape`: collapse the
    group axes and trim the zero padding of the last partial group.
    """
    flat = grouped.reshape(grouped.shape[:-2] + (-1,))
    return flat[..., :length]


def _per_element_exponents(scales: np.ndarray, length: int, group_size: int) -> np.ndarray:
    """Per-element PoT grid exponents from a quantizer scales tensor.

    ``scales`` is the ``(..., G, 1)`` per-group scales of a tensor whose
    trailing data axis holds ``length`` elements in groups of
    ``min(group_size, length)``; the result is the ``(..., length)`` integer
    exponent of each element's grid -- the form the shift re-quantization
    threads through the integer-resident step.
    """
    exponents = pot_exponent(scales)[..., 0]
    group = min(group_size, length)
    return np.repeat(exponents, group, axis=-1)[..., :length]


def _common_group_exponents(
    exponents: np.ndarray, group_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Common per-accumulator-group exponent and its per-element broadcast.

    The integer matmuls contract along an axis whose elements may sit on
    different PoT grids (per-token operand exponents), while
    :func:`repro.quant.qlinear.grouped_integer_matmul` needs one scale per
    accumulator group.  The common exponent is the group *maximum*: aligning
    every member onto it is a pure right shift, which never magnifies a code,
    so the aligned operand still respects its qmax bound (and with it the
    static overflow guard).  Grouping matches the matmul's
    ``min(group_size, K)`` convention; padding positions (zero codes) are
    excluded from the maximum.

    Returns ``(group_exponents, per_element_exponents)`` shaped
    ``(..., n_groups)`` and ``(..., K)``.
    """
    length = exponents.shape[-1]
    group = min(group_size, length)
    n_groups = -(-length // group)
    pad = n_groups * group - length
    exponents = np.asarray(exponents, dtype=np.int64)
    if pad:
        fill = np.full(
            exponents.shape[:-1] + (pad,), np.iinfo(np.int64).min, dtype=np.int64
        )
        padded = np.concatenate([exponents, fill], axis=-1)
    else:
        padded = exponents
    grouped = padded.reshape(exponents.shape[:-1] + (n_groups, group))
    gmax = np.max(grouped, axis=-1)
    per_element = np.repeat(gmax, group, axis=-1)[..., :length]
    return gmax, per_element


class QuantizedSSMStep:
    """The quantized SSM: a batched decode step plus a chunk-parallel prefill.

    The operator decomposition matches Fig. 1 / Fig. 3 of the paper: each
    named element-wise multiplication is computed on fake-quantized operands
    and its output is re-quantized before feeding the next operator.

    A leading batch axis is accepted on every tensor argument; because the
    quantization grid is per-group along the trailing axis, every batch row
    quantizes exactly as it would alone, so batched stepping is bit-identical
    to per-row stepping.
    """

    def __init__(self, config: SSMQuantConfig = SSMQuantConfig()):
        self.config = config
        self._qcfg = config.config()
        # (D array, D[:, None]) derived on first use (see _d_col).
        self._static_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def state_resident(self) -> bool:
        """Whether this step keeps the recurrent state as integer codes.

        :meth:`Mamba2Model.new_cache <repro.mamba.model.Mamba2Model.new_cache>`
        reads this property to decide between a float
        :class:`~repro.mamba.cache.LayerCache` and an integer-resident
        :class:`~repro.mamba.cache.QuantizedLayerCache` for the block.
        """
        return self.config.persistent_state

    def _q(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantize a tensor on the configured grid."""
        return quantize_dequantize(x, self._qcfg)

    def _qp(self, x: np.ndarray) -> np.ndarray:
        """Re-quantize an element-wise product (if enabled)."""
        if not self.config.quantize_products:
            return x
        return quantize_dequantize(x, self._qcfg)

    # ------------------------------------------------------------------
    # Integer-resident state plumbing
    # ------------------------------------------------------------------
    def quantize_state_codes(self, state: np.ndarray) -> QuantizedSSMState:  # integer-resident
        """Quantize a float state into the resident codes + scales container.

        For a state that is already on the PoT grid (every state this class
        ever hands out) the quantization is exact, so converting between the
        float and resident representations never changes the carried values.
        """
        # quant-point: float state onto the resident codes + scales grid
        qt = quantize(np.asarray(state, dtype=np.float64), self._qcfg)
        return QuantizedSSMState(
            codes=qt.codes,
            scales=qt.scales,
            group_size=self.config.group_size,
            bits=self.config.bits,
        )

    def zeros_cache(  # integer-resident
        self, config: Mamba2Config, batch_size: Optional[int] = None
    ) -> QuantizedLayerCache:
        """A fresh integer-resident layer cache (zero codes, epsilon scales).

        An all-zero state quantizes to all-zero codes with the quantizer's
        well-defined minimum scale (see :func:`repro.quant.quantizer.compute_scales`
        and the all-zero-group handling of :func:`repro.quant.pot.pot_quantize_scale`),
        so the zero cache decodes back to exact zeros.
        """
        lead = () if batch_size is None else (batch_size,)
        state = np.zeros(  # quant-point: zero state buffer, quantized to codes below
            lead + (config.nheads, config.headdim, config.d_state), dtype=np.float64
        )
        return QuantizedLayerCache(
            conv_state=np.zeros(  # quant-point: conv taps stay float (not SSM-quantized)
                lead + (config.conv_dim, config.d_conv), dtype=np.float64
            ),
            ssm_state=self.quantize_state_codes(state),
        )

    def _d_col(self, params: SSMParams) -> np.ndarray:
        """The skip coefficient broadcast column ``D[:, None]``, cached.

        Keeps the reshape + copy out of the per-token hot loop (``params.A``
        is already cached by :class:`SSMParams`).  Keyed on the ``D`` array
        itself, so reassigning ``params.D`` invalidates the cache exactly
        like reassigning ``A_log`` invalidates ``SSMParams.A``; like there,
        in-place mutation of the array is not tracked.
        """
        cached = self._static_cache
        if cached is None or cached[0] is not params.D:
            cached = (params.D, np.ascontiguousarray(params.D[:, None]))
            self._static_cache = cached
        return cached[1]

    def __call__(  # integer-resident
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the quantized recurrence one token (``ssm_impl`` signature).

        ``state`` may be a float array (fake-quant mode: re-quantized on
        entry) or a resident :class:`~repro.mamba.cache.QuantizedSSMState`
        (integer-resident mode: codes in, codes out).  A resident state
        dispatches to the all-integer iteration :meth:`_step_integer` -- no
        float tensor between the entry quantizations and the readout --
        unless product re-quantization is disabled or scales are not PoT
        (shifts need PoT grids); those cases, and every float state, run the
        float oracle :meth:`_step_oracle`.  Under PoT scales the two paths
        are bit-identical.
        """
        if (
            isinstance(state, QuantizedSSMState)
            and self.config.quantize_products
            and self.config.pot_scale
        ):
            return self._step_integer(params, x, B, C, dt, state)
        return self._step_oracle(params, x, B, C, dt, state)

    def _step_oracle(
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fake-quant reference step: floats through every integer grid.

        The numerical oracle the integer-resident iteration is pinned
        against.  Every operand and element-wise product passes through its
        quantization grid but is stored and combined as float64; with a
        resident state the returned state is re-quantized into codes at the
        exit (exact -- the new state is on-grid by construction).
        """
        d_col = self._d_col(params)
        resident = isinstance(state, QuantizedSSMState)
        x = self._q(np.asarray(x, dtype=np.float64))
        B = self._q(np.asarray(B, dtype=np.float64))
        C = self._q(np.asarray(C, dtype=np.float64))
        # Resident codes are on the grid by construction: dequantize only.
        state = state.dequantize() if resident else self._q(np.asarray(state, dtype=np.float64))

        # Non-linear operators stay in floating point (dedicated FPGA units);
        # the decay pair is computed once per step by the shared helper.
        delta, a_bar = ssm_decay(params, dt)

        delta_mul_b = self._qp(delta[..., :, None] * B[..., None, :])
        b_mul_x = self._qp(delta_mul_b[..., :, None, :] * x[..., :, :, None])
        a_mul_h = self._qp(a_bar[..., :, None, None] * state)
        new_state = a_mul_h + b_mul_x
        out_state = new_state
        if resident:
            # One quantization pass: the codes become the resident state and
            # their dequantized view feeds the readout below.
            out_state = self.quantize_state_codes(new_state)
            new_state = out_state.dequantize()
        else:
            new_state = self._q(new_state)
            out_state = new_state

        h_mul_c = self._qp(new_state * C[..., None, None, :])
        y_ssm = np.sum(h_mul_c, axis=-1)
        x_mul_d = self._qp(d_col * x)
        y = y_ssm + x_mul_d
        return y, out_state

    def _step_integer(  # integer-resident
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        state: QuantizedSSMState,
    ) -> Tuple[np.ndarray, QuantizedSSMState]:
        """The all-integer decode iteration (codes in, codes out).

        From the three entry quantizations at the in-projection boundary to
        the ``d_state`` readout reduction, every tensor is an integer code
        array with its PoT scale *exponent* threaded alongside.  The per-head
        float scalars (``Delta``, ``A_bar``, ``D`` -- outputs of the
        dedicated non-linear units) fold into the re-quantization
        multipliers; the code-by-code products (``B_bar (.) x``,
        ``h (.) C``) re-quantize with :func:`repro.quant.pot.shift_requantize`
        alone.  Bit-identical to :meth:`_step_oracle` by construction: every
        destination exponent replicates the oracle's absmax -> scale
        derivation float-op for float-op (:func:`absmax_requant_exponents`),
        the shifts round half-to-even exactly like the oracle's ``np.round``,
        and PoT rescaling commutes with float rounding.
        """
        qmin, qmax = self._qcfg.spec.qmin, self._qcfg.spec.qmax
        bits = self.config.bits
        gsz = self.config.group_size
        headdim, n = state.codes.shape[-2], state.codes.shape[-1]

        # Entry quantization: the only absmax/round passes of the step.
        x_qt = quantize(np.asarray(x, dtype=np.float64), self._qcfg)  # quant-point: x entry
        b_qt = quantize(np.asarray(B, dtype=np.float64), self._qcfg)  # quant-point: B entry
        c_qt = quantize(np.asarray(C, dtype=np.float64), self._qcfg)  # quant-point: C entry

        if not (
            np.isfinite(x_qt.scales).all()
            and np.isfinite(b_qt.scales).all()
            and np.isfinite(c_qt.scales).all()
            and np.isfinite(state.scales).all()
            and np.isfinite(dt).all()
        ):
            # A poisoned operand (e.g. fault-injected non-finite conv taps)
            # yields a non-PoT NaN scale, which the exponent extraction would
            # reject for the whole batch.  The float oracle instead carries
            # the poison through row-independent arithmetic, so the serving
            # supervisor's health check attributes the corruption to exactly
            # the affected rows -- healthy rows stay bit-identical.
            return self._step_oracle(params, x, B, C, dt, state)

        cx = x_qt.codes.astype(np.int64)                      # (..., h, p)
        ex = pot_exponent(x_qt.scales)[..., 0]                # (..., h, Gp)
        ex_el = _per_element_exponents(x_qt.scales, headdim, gsz)  # (..., h, p)
        cb_g, _, _ = _group_reshape(b_qt.codes.astype(np.int64), gsz)  # (..., Gn, gn)
        e_b = pot_exponent(b_qt.scales)[..., 0]               # (..., Gn)
        cc_g, _, _ = _group_reshape(c_qt.codes.astype(np.int64), gsz)  # (..., Gn, gn)
        e_c = pot_exponent(c_qt.scales)[..., 0]               # (..., Gn)
        ch_g, _, _ = _group_reshape(state.codes, gsz)         # (..., h, p, Gn, gn)
        e_h = pot_exponent(state.scales)[..., 0]              # (..., h, p, Gn)

        # Non-linear operators stay in floating point (dedicated FPGA units).
        delta, a_bar = ssm_decay(params, dt)                  # (..., h) each

        # Delta (.) B: the positive per-head scalar folds into the requant
        # multiplier (the scalar times a PoT realignment -- one EM-unit
        # multiply per code); the group absmax is the scalar times the code
        # absmax at the source exponent, so the destination grid is exactly
        # the oracle's.
        amax_b = np.max(np.abs(cb_g), axis=-1)                # (..., Gn)
        e3 = absmax_requant_exponents(
            np.ldexp(delta[..., :, None] * amax_b[..., None, :], e_b[..., None, :]),
            bits,
        )                                                     # (..., h, Gn)
        m3 = np.ldexp(delta[..., :, None], e_b[..., None, :] - e3)
        c3 = np.clip(np.round(cb_g[..., None, :, :] * m3[..., :, :, None]), qmin, qmax)
        c3 = c3.astype(np.int64)                              # (..., h, Gn, gn)

        # B_bar (.) x: code-by-code product; pure shift re-quantization (the
        # product exponent is the sum of the operand exponents).  The group
        # absmax of the outer product factors into the operands' absmaxes
        # (max |a_i * b| = max |a_i| * |b|), so the destination grid comes
        # from two small reductions instead of a pass over the product.
        p4 = c3[..., :, None, :, :] * cx[..., :, :, None, None]  # (..., h, p, Gn, gn)
        e4_src = e3[..., :, None, :] + ex_el[..., :, :, None]    # (..., h, p, Gn)
        amax4 = np.max(np.abs(c3), axis=-1)[..., :, None, :] * np.abs(cx)[..., :, :, None]
        e4 = absmax_requant_exponents(amax4 * np.exp2(e4_src), bits)
        c4 = shift_requantize(p4, e4_src[..., None], e4[..., None], bits, "half_even")

        # A_bar (.) h: scalar fold again (a_bar in (0, 1]).
        amax_h = np.max(np.abs(ch_g), axis=-1)                # (..., h, p, Gn)
        e5 = absmax_requant_exponents(
            a_bar[..., :, None, None] * amax_h * np.exp2(e_h), bits
        )
        m5 = np.ldexp(a_bar[..., :, None, None], e_h - e5)
        c5 = np.clip(np.round(ch_g * m5[..., None]), qmin, qmax)  # (..., h, p, Gn, gn)

        # State update: the two addends sit on different PoT grids, so the
        # add runs on the wide accumulator (multiplying by an exp2 scale is
        # the same exact power-of-two realignment as ldexp, at a fraction of
        # the cost; the float64 mantissa holds every aligned sum clipped
        # codes can produce), and the sum re-quantizes onto the fresh
        # per-group grid that becomes the resident state -- multiplying by
        # 2**-e6 is the exact PoT division of the oracle's quantize.
        s = c5 * np.exp2(e5)[..., None] + c4 * np.exp2(e4)[..., None]
        e6 = absmax_requant_exponents(np.max(np.abs(s), axis=-1), bits)
        scale6 = np.exp2(e6)[..., None]
        codes6 = np.clip(np.round(s * np.exp2(-e6)[..., None]), qmin, qmax)
        out_state = QuantizedSSMState(
            codes=_ungroup(codes6, n).astype(np.int32),
            scales=scale6,
            group_size=gsz,
            bits=bits,
        )

        # h (.) C readout: code-by-code product, pure shift, then the exact
        # ldexp decode of the shifted codes feeds the d_state reduction (the
        # padded tail is trimmed first so the sum sees exactly the oracle's
        # n-element operand).
        p7 = codes6.astype(np.int64) * cc_g[..., None, None, :, :]  # (..., h, p, Gn, gn)
        e7_src = e6 + e_c[..., None, None, :]                 # (..., h, p, Gn)
        e7 = absmax_requant_exponents(
            np.max(np.abs(p7), axis=-1) * np.exp2(e7_src), bits
        )
        c7 = shift_requantize(p7, e7_src[..., None], e7[..., None], bits, "half_even")
        y_ssm = np.sum(_ungroup(c7 * np.exp2(e7)[..., None], n), axis=-1)

        # D (.) x skip: signed scalar fold of the per-head skip coefficient.
        cx_g, _, _ = _group_reshape(cx, gsz)                  # (..., h, Gp, gp)
        amax_x = np.max(np.abs(cx_g), axis=-1)                # (..., h, Gp)
        e8 = absmax_requant_exponents(
            np.ldexp(np.abs(params.D)[..., :, None] * amax_x, ex), bits
        )
        m8 = np.ldexp(params.D[..., :, None], ex - e8)
        c8 = np.clip(np.round(cx_g * m8[..., None]), qmin, qmax)
        x_mul_d = _ungroup(c8 * np.exp2(e8)[..., None], headdim)

        return y_ssm + x_mul_d, out_state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(bits={self.config.bits}, "
            f"group_size={self.config.group_size}, pot={self.config.pot_scale})"
        )

    def prefill_scan(  # integer-resident
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        initial_state: Optional[np.ndarray] = None,
        chunk_size: int = 64,
        seq_lens: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the quantized recurrence over a full sequence, chunk-parallel.

        Mirrors the intra/inter-chunk SSD decomposition of
        :func:`repro.mamba.ssm.ssd_chunked_scan` with the step's quantization
        points at the same operator interfaces (the FastMamba / ViM-Q
        recipe): ``x`` / ``B`` / ``C`` and the ``Delta (.) B`` / ``D (.) x``
        products quantize bit-identically to the step (per-group grids live
        on the trailing axis), while the state is quantized at chunk
        *boundaries* and the intra-chunk ``B_bar (.) x`` / ``h (.) C``
        products accumulate at high precision -- the MMU-style wide
        accumulator.  ``chunk_size=1`` drives the step itself through
        :func:`repro.mamba.ssm.ssm_scan`, bit-identical to the sequential
        oracle by construction; larger chunks are the fast approximation
        whose quality the eval harness pins (perplexity shift < 0.1).

        The signature matches :func:`repro.mamba.ssm.ssd_chunked_scan`:
        ``x`` is ``(seq_len, nheads, headdim)`` (optionally with a leading
        batch axis carried by every argument), ``B`` / ``C`` are
        ``(seq_len, d_state)``, ``dt`` is the raw per-head step size (before
        softplus), ``initial_state`` an optional warm state (copied, then
        quantized at chunk entry), and
        ``seq_lens`` optional per-row true lengths of a right-padded ragged
        batch -- the returned state rows are then snapshots at each row's
        true last token.

        ``initial_state`` may also be a resident
        :class:`~repro.mamba.cache.QuantizedSSMState` (codes in, codes out):
        the scan then starts from the dequantized codes -- which are on the
        grid already, so the chunk-entry quantization is skipped -- and the
        returned final state (or per-row ``seq_lens`` snapshot) is a resident
        container again, keeping segmented serving prefills integer-resident
        end to end.

        With ``integer_chunk_body`` the two ``d_state`` contractions of the
        chunk body (the dense ``C B^T`` interaction and the carried-state
        ``h . C`` readout) run on INT32 accumulators over the raw codes via
        :func:`repro.quant.qlinear.grouped_integer_matmul` -- the MMU
        execution model, including its static overflow guard.  Under PoT
        scales every partial product is exactly representable, so the
        integer body agrees with the float chunk body to the last bit of the
        accumulation order.

        With ``integer_full_chunk`` the remaining two intra-chunk matmuls
        also run on the INT32 accumulator: the decay-gated interaction
        (``gate @ x``) quantizes the gate onto a PoT grid (folding the decay
        into that re-quantization) and contracts it against the x codes, and
        the ``wx @ bh`` state hand-off quantizes the decay-carried x and
        contracts it against the ``Delta (.) B`` codes.  The per-token
        operand exponents are shift-aligned to the per-group maximum
        (:func:`_common_group_exponents`) so every accumulator group has one
        scale; the alignment shifts and gate quantization are additional
        rounding points, so this mode is a further approximation of the float
        chunk scan (the INT32 accumulation itself stays exact).

        Returns ``(y, final_state)`` with ``y`` shaped like ``x``.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        resident = isinstance(initial_state, QuantizedSSMState)
        x = np.asarray(x, dtype=np.float64)  # quant-point: float entry staging
        B = np.asarray(B, dtype=np.float64)  # quant-point: float entry staging
        C = np.asarray(C, dtype=np.float64)  # quant-point: float entry staging
        dt = np.asarray(dt, dtype=np.float64)  # quant-point: float entry staging
        if x.ndim not in (3, 4):
            raise ValueError(
                "x must have shape (seq_len, nheads, headdim) or "
                "(batch, seq_len, nheads, headdim)"
            )
        batched = x.ndim == 4
        seq_len, nheads, headdim = x.shape[-3:]
        d_state = B.shape[-1]
        if nheads != params.nheads:
            raise ValueError("head count mismatch between x and params")
        lead = x.shape[:1] if batched else ()
        state_shape = lead + (nheads, headdim, d_state)
        if initial_state is None:
            state = np.zeros(state_shape, dtype=np.float64)  # quant-point: zero state
        else:
            if resident:
                state = initial_state.dequantize()  # quant-point: resident entry
            else:
                # quant-point: float entry copy
                state = np.array(initial_state, dtype=np.float64, copy=True)
            if state.shape != state_shape:
                raise ValueError(
                    f"initial_state must have shape {state_shape}, got {state.shape}"
                )
        if seq_lens is not None:
            seq_lens = _validate_seq_lens(seq_lens, batched, x.shape[0], seq_len)

        if chunk_size == 1:
            # The per-token loop: ssm_scan driving this object's own step, so
            # the chunk_size=1 reduction to the sequential quantized oracle
            # is bit-identical by construction (shared step code, shared
            # token loop and seq_lens snapshot bookkeeping).  The token loop
            # runs on the float view; a resident caller gets the final state
            # re-quantized back into codes (exact -- the state is on-grid).
            y, final = ssm_scan(
                params, x, B, C, dt, initial_state=state, seq_lens=seq_lens, step_fn=self
            )
            if resident:
                final = self.quantize_state_codes(final)
            return y, final

        A, d_col = params.A, self._d_col(params)
        integer_body = self.config.integer_chunk_body
        integer_full = integer_body and self.config.integer_full_chunk

        # Operand quantization at the SSMU interfaces.  Per-group grids are
        # computed along the trailing axis only, so quantizing the whole
        # sequence at once is bit-identical to the step's per-token _q.  The
        # integer chunk body keeps the raw codes of C and of the re-quantized
        # Delta (.) B product next to their float views; the full-integer
        # chunk additionally keeps the x codes for the gate @ x contraction.
        if integer_full:
            x_qt = quantize(x, self._qcfg)  # quant-point: x codes (kept for the MMU body)
            qx = dequantize(x_qt)  # quant-point: x float view
        else:
            x_qt = None
            qx = self._q(x)  # quant-point: x chunk quantization
        qB = self._q(B)  # quant-point: B chunk quantization
        c_qt = quantize(C, self._qcfg)  # quant-point: C codes (kept for the MMU body)
        qC = dequantize(c_qt)  # quant-point: C float view
        delta = softplus(dt + params.dt_bias)               # (..., T, h)
        log_decay = delta * A                               # (..., T, h), negative
        # Delta (.) B, re-quantized exactly as the step's delta_mul_b.
        if integer_body:
            # quant-point: Delta (.) B requant, keeping codes for the MMU body
            db_qt = quantize(delta[..., None] * qB[..., None, :], self._qcfg)
            qdB = dequantize(db_qt)  # quant-point: float view (..., T, h, n)
        else:
            db_qt = None
            # quant-point: Delta (.) B requant (..., T, h, n)
            qdB = self._qp(delta[..., None] * qB[..., None, :])
        # D (.) x skip path, re-quantized exactly as the step's x_mul_d.
        y = self._qp(d_col * qx)  # quant-point: x (.) D skip

        if resident:
            # The incoming codes are the chunk-entry quantization.
            state_qt = QuantizedTensor(
                codes=initial_state.codes,
                scales=initial_state.scales,
                config=self._qcfg,
                shape=initial_state.shape,
            )
        else:
            state_qt = quantize(state, self._qcfg)  # quant-point: chunk-entry quantization
            state = dequantize(state_qt)  # quant-point: chunk-entry float view
        if seq_lens is not None:
            snapshot = np.zeros_like(state)  # quant-point: seq_lens snapshot buffer

        # The loop below deliberately mirrors (rather than shares) the chunk
        # body of ssd_chunked_scan: the FP scan contracts one head-independent
        # C B^T matrix per chunk, a factorization that quantization breaks --
        # folding Delta and the requant into qdB gives B a head axis, so every
        # contraction here is per-head.  Keep the two bodies in sync when
        # touching either.
        qmax = self._qcfg.spec.qmax
        group = self._qcfg.group_size
        chunk = min(chunk_size, seq_len)
        if integer_full:
            # Per-element PoT grid exponents of the per-token operands, in
            # the integer form the alignment shifts consume.
            ex_el = _per_element_exponents(x_qt.scales, headdim, group)  # (..., T, h, p)
            edb_el = _per_element_exponents(db_qt.scales, d_state, group)  # (..., T, h, n)
        # quant-point: the causal mask is a float constant, not a tensor operand
        causal_full = np.tril(np.ones((chunk, chunk), dtype=np.float64))
        for start in range(0, seq_len, chunk):
            stop = min(start + chunk, seq_len)
            q_len = stop - start
            xc = qx[..., start:stop, :, :]                  # (..., Q, h, p)
            bc = qdB[..., start:stop, :, :]                 # (..., Q, h, n)
            cc = qC[..., start:stop, :]                     # (..., Q, n)
            lc = np.cumsum(log_decay[..., start:stop, :], axis=-2)  # (..., Q, h)

            # Dense decay-weighted interaction on the quantized operands:
            #   G[t, s, head] = exp(L_t - L_s) * (qC_t . qdB_s[head]), s <= t.
            # The d_state contraction runs on the MMU-style wide accumulator:
            # in float mode that is the float64 matmul below; in integer mode
            # the raw codes accumulate in a true INT32 per quantization group
            # (grouped_integer_matmul, with the static overflow guard).  L is
            # decreasing so causal entries have diff <= 0, and clamping keeps
            # the masked upper triangle finite.
            bh = np.moveaxis(bc, -2, -3)                    # (..., h, Q, n)
            if integer_body:
                cc_codes = c_qt.codes[..., start:stop, :]                # (..., Q, n)
                cc_scales = c_qt.scales[..., start:stop, :, 0]           # (..., Q, G)
                bh_codes = np.moveaxis(db_qt.codes[..., start:stop, :, :], -2, -3)
                bh_scales = np.moveaxis(db_qt.scales[..., start:stop, :, :, 0], -2, -3)
                cb = np.moveaxis(
                    grouped_integer_matmul(
                        cc_codes[..., None, :, :],
                        cc_scales[..., None, :, :],
                        bh_codes,
                        bh_scales,
                        group_size=group,
                        x_qmax=qmax,
                        w_qmax=qmax,
                    ),
                    -3,
                    -1,
                )                                           # (..., Q, Q, h)
            else:
                cb = np.moveaxis(
                    cc[..., None, :, :] @ np.swapaxes(bh, -1, -2), -3, -1
                )                                           # (..., Q, Q, h)
            causal = causal_full if q_len == chunk else causal_full[:q_len, :q_len]
            diff = lc[..., :, None, :] - lc[..., None, :, :]
            gate = cb * np.exp(np.minimum(diff, 0.0)) * causal[..., :, :, None]
            if integer_full:
                # Decay-gated interaction on the INT32 accumulator: the gate
                # (decay folded in) re-quantizes onto a PoT grid along the
                # contraction axis, and the per-token x codes shift-align to
                # one exponent per accumulator group (pure right shifts, so
                # the qmax bound and the overflow guard still hold).
                gate_h = np.moveaxis(gate, -1, -3)          # (..., h, Q, Q)
                g_qt = quantize(gate_h, self._qcfg)  # quant-point: gate requant (decay folded)
                xh_codes = np.moveaxis(
                    x_qt.codes[..., start:stop, :, :], -3, -1
                ).astype(np.int64)                          # (..., h, p, Q)
                xh_exp = np.moveaxis(ex_el[..., start:stop, :, :], -3, -1)
                x_ge, x_el = _common_group_exponents(xh_exp, group)
                xh_al = shift_requantize(
                    xh_codes, xh_exp, x_el, self.config.bits, "half_even"
                )
                yc = np.moveaxis(
                    grouped_integer_matmul(
                        g_qt.codes,
                        g_qt.scales[..., 0],
                        xh_al,
                        np.ldexp(1.0, x_ge),
                        group_size=group,
                        x_qmax=qmax,
                        w_qmax=qmax,
                    ),
                    -3,
                    -2,
                )                                           # (..., Q, h, p)
            else:
                yc = np.moveaxis(
                    np.moveaxis(gate, -1, -3) @ np.moveaxis(xc, -2, -3), -3, -2
                )                                           # (..., Q, h, p)
            # Carried-in state readout (h_in . C per head, decayed to t).
            if integer_body:
                readout = grouped_integer_matmul(
                    state_qt.codes,
                    state_qt.scales[..., 0],
                    cc_codes[..., None, :, :],
                    cc_scales[..., None, :, :],
                    group_size=group,
                    x_qmax=qmax,
                    w_qmax=qmax,
                )                                           # (..., h, p, Q)
            else:
                readout = state @ np.swapaxes(cc, -1, -2)[..., None, :, :]  # (..., h, p, Q)
            yc += np.exp(lc)[..., None] * np.moveaxis(readout, -1, -3)
            y[..., start:stop, :, :] += yc

            if seq_lens is not None:
                # Snapshot rows whose true last token falls inside the chunk:
                # the hand-off formula truncated at the row's local position.
                for row in np.nonzero((seq_lens > start) & (seq_lens <= stop))[0]:
                    j = int(seq_lens[row]) - 1 - start
                    carry_j = np.exp(lc[row, j][None, :] - lc[row, : j + 1])  # (j+1, h)
                    wx_j = np.moveaxis(carry_j[:, :, None] * xc[row, : j + 1], 0, -1)
                    row_state = (
                        np.exp(lc[row, j])[:, None, None] * state[row]
                        + wx_j @ np.moveaxis(bc[row, : j + 1], -2, -3)
                    )
                    # quant-point: row snapshot requant
                    snapshot[row] = self._q(row_state)

            # Chunk hand-off, then the chunk-boundary state quantization (kept
            # as codes when the next chunk's readout or the caller needs them).
            last = lc[..., -1, :]                           # (..., h)
            carry = np.exp(last[..., None, :] - lc)         # (..., Q, h)
            wx = np.moveaxis(carry[..., None] * xc, -3, -1)  # (..., h, p, Q)
            if integer_full:
                # State hand-off on the INT32 accumulator: the decay-carried
                # x re-quantizes onto a PoT grid along the token axis and
                # contracts against the shift-aligned Delta (.) B codes.
                w_qt = quantize(wx, self._qcfg)  # quant-point: decay-carried x requant
                bh_t = np.swapaxes(bh_codes, -1, -2).astype(np.int64)  # (..., h, n, Q)
                bh_exp = np.moveaxis(edb_el[..., start:stop, :, :], -3, -1)
                b_ge, b_el = _common_group_exponents(bh_exp, group)
                bh_al = shift_requantize(
                    bh_t, bh_exp, b_el, self.config.bits, "half_even"
                )
                handoff = grouped_integer_matmul(
                    w_qt.codes,
                    w_qt.scales[..., 0],
                    bh_al,
                    np.ldexp(1.0, b_ge),
                    group_size=group,
                    x_qmax=qmax,
                    w_qmax=qmax,
                )                                           # (..., h, p, n)
                state = np.exp(last)[..., :, None, None] * state + handoff
            else:
                state = np.exp(last)[..., :, None, None] * state + wx @ bh
            state_qt = quantize(state, self._qcfg)  # quant-point: chunk boundary
            state = dequantize(state_qt)  # quant-point: boundary float view

        if seq_lens is not None:
            if resident:
                # Rows were quantized one by one above; per-group grids live
                # on the trailing axis, so re-quantizing the stacked snapshot
                # into codes is exact (idempotent on-grid requantization).
                return y, self.quantize_state_codes(snapshot)
            return y, snapshot
        if resident:
            return y, QuantizedSSMState(
                codes=state_qt.codes,
                scales=state_qt.scales,
                group_size=self.config.group_size,
                bits=self.config.bits,
            )
        return y, state
