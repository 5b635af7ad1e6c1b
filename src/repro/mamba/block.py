"""The Mamba2 block.

A block (Fig. 1 of the paper) computes, for a residual-stream input ``u``::

    r           = RMSNorm(u)
    [z,xBC,dt]  = r @ W_in^T                      # input projection
    xBC         = silu(conv1d(xBC))               # short causal convolution
    x, B, C     = split(xBC)
    y           = SSM(x, B, C, dt)                # recurrence, Fig. 1 right
    g           = GatedRMSNorm(y, z)              # gate with silu(z), normalise
    out         = u + g @ W_out^T                 # output projection + residual

The block exposes three injection points used by the quantization stack and
the hardware co-design:

- ``pre_in_proj`` / ``pre_out_proj`` -- callables applied to the activation
  right before the corresponding matrix multiplication (identity by default).
  The quantized model uses them for activation fake-quantization and for the
  *online Hadamard transform* inserted before the output projection
  (rotation (3) in Fig. 4a).
- ``ssm_impl`` -- the PoT-quantized SSM plugs in here: a batched step with
  the :func:`repro.mamba.ssm.ssm_step` signature plus a ``prefill_scan``
  with the :func:`repro.mamba.ssm.ssd_chunked_scan` signature.  ``forward``
  calls ``prefill_scan`` for ``scan_impl="chunked"`` and drives the step
  through :func:`repro.mamba.ssm.ssm_scan` for ``"sequential"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.mamba.cache import LayerCache, QuantizedSSMState
from repro.mamba.config import Mamba2Config
from repro.mamba.conv1d import CausalConv1d
from repro.mamba.rmsnorm import GatedRMSNorm, RMSNorm
from repro.mamba.ssm import SSMParams, _validate_seq_lens, ssd_chunked_scan, ssm_scan, ssm_step

if TYPE_CHECKING:
    from repro.quant.ssm_quant import QuantizedSSMStep

__all__ = ["MambaBlock"]

ActivationHook = Callable[[np.ndarray], np.ndarray]


def _identity(x: np.ndarray) -> np.ndarray:
    return x


@dataclass
class MambaBlock:
    """One Mamba2 block with explicit numpy parameters."""

    config: Mamba2Config
    norm: RMSNorm
    in_proj_weight: np.ndarray        # (d_in_proj, d_model)
    conv: CausalConv1d                # over conv_dim channels
    ssm: SSMParams
    gated_norm: GatedRMSNorm
    out_proj_weight: np.ndarray       # (d_model, d_inner)
    layer_idx: int = 0
    in_proj_bias: Optional[np.ndarray] = None   # (d_in_proj,), used by OS+ compensation
    out_proj_bias: Optional[np.ndarray] = None  # (d_model,), used by OS+ compensation
    pre_in_proj: ActivationHook = field(default=_identity)
    pre_out_proj: ActivationHook = field(default=_identity)
    ssm_impl: Optional["QuantizedSSMStep"] = None

    def __post_init__(self) -> None:
        cfg = self.config
        self.in_proj_weight = np.asarray(self.in_proj_weight, dtype=np.float64)
        self.out_proj_weight = np.asarray(self.out_proj_weight, dtype=np.float64)
        if self.in_proj_bias is not None:
            self.in_proj_bias = np.asarray(self.in_proj_bias, dtype=np.float64)
            if self.in_proj_bias.shape != (cfg.d_in_proj,):
                raise ValueError("in_proj_bias must have shape (d_in_proj,)")
        if self.out_proj_bias is not None:
            self.out_proj_bias = np.asarray(self.out_proj_bias, dtype=np.float64)
            if self.out_proj_bias.shape != (cfg.d_model,):
                raise ValueError("out_proj_bias must have shape (d_model,)")
        if self.in_proj_weight.shape != (cfg.d_in_proj, cfg.d_model):
            raise ValueError(
                f"in_proj_weight must have shape ({cfg.d_in_proj}, {cfg.d_model}), "
                f"got {self.in_proj_weight.shape}"
            )
        if self.out_proj_weight.shape != (cfg.d_model, cfg.d_inner):
            raise ValueError(
                f"out_proj_weight must have shape ({cfg.d_model}, {cfg.d_inner}), "
                f"got {self.out_proj_weight.shape}"
            )
        if self.conv.channels != cfg.conv_dim:
            raise ValueError("conv channel count does not match config.conv_dim")
        if self.ssm.nheads != cfg.nheads:
            raise ValueError("SSM head count does not match config.nheads")
        if self.norm.dim != cfg.d_model or self.gated_norm.dim != cfg.d_inner:
            raise ValueError("norm dimensions do not match the configuration")

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def _split_in_proj(self, zxbcdt: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Split the input-projection output into ``z, xBC, dt`` (last axis)."""
        cfg = self.config
        z = zxbcdt[..., : cfg.d_inner]
        xbc = zxbcdt[..., cfg.d_inner : cfg.d_inner + cfg.conv_dim]
        dt = zxbcdt[..., cfg.d_inner + cfg.conv_dim :]
        return z, xbc, dt

    def _split_xbc(self, xbc: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        x = xbc[..., : cfg.d_inner]
        b = xbc[..., cfg.d_inner : cfg.d_inner + cfg.d_bc]
        c = xbc[..., cfg.d_inner + cfg.d_bc :]
        return x, b, c

    # ------------------------------------------------------------------
    # Decode (one token)
    # ------------------------------------------------------------------
    def step(
        self,
        u: np.ndarray,
        cache: LayerCache,
        collect: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Process one token per sequence, updating ``cache`` in place.

        Parameters
        ----------
        u:
            Residual-stream input of shape ``(d_model,)``, or
            ``(batch, d_model)`` to advance a batch of sequences in lock-step
            (``cache`` must then be batched with the same batch size).
        cache:
            The layer's recurrent state; its ``conv_state`` and ``ssm_state``
            are replaced with the post-step values.
        collect:
            Optional dictionary that receives named intermediate activations
            (used by calibration and by the activation-distribution figure).
        """
        cfg = self.config
        u = np.asarray(u, dtype=np.float64)
        if u.shape[-1:] != (cfg.d_model,) or u.ndim not in (1, 2):
            raise ValueError(
                f"expected input of shape ({cfg.d_model},) or (batch, {cfg.d_model}), "
                f"got {u.shape}"
            )
        batched = u.ndim == 2

        residual = u
        r = self.norm(u)
        r_q = self.pre_in_proj(r)
        zxbcdt = r_q @ self.in_proj_weight.T
        if self.in_proj_bias is not None:
            zxbcdt = zxbcdt + self.in_proj_bias
        z, xbc, dt = self._split_in_proj(zxbcdt)
        if batched:
            # The splits are strided views of zxbcdt; the decode hot loop
            # touches them many times, so contiguous copies pay for themselves.
            z, xbc, dt = z.copy(), xbc.copy(), dt.copy()

        xbc_conv, new_conv_state = self.conv.step(xbc, cache.conv_state)
        cache.conv_state = new_conv_state
        x, b, c = self._split_xbc(xbc_conv)
        x_heads = x.reshape(x.shape[:-1] + (cfg.nheads, cfg.headdim))

        step_fn = ssm_step if self.ssm_impl is None else self.ssm_impl
        y_heads, cache.ssm_state = step_fn(self.ssm, x_heads, b, c, dt, cache.ssm_state)
        y = y_heads.reshape(u.shape[:-1] + (cfg.d_inner,))

        gated = self.gated_norm(y, z)
        gated_q = self.pre_out_proj(gated)
        out = gated_q @ self.out_proj_weight.T
        if self.out_proj_bias is not None:
            out = out + self.out_proj_bias

        if collect is not None:
            collect["in_proj_input"] = r
            collect["out_proj_input"] = gated
            collect["z"] = z
            collect["x"] = x
            collect["B"] = b
            collect["C"] = c
            collect["dt"] = dt
            collect["ssm_output"] = y
            collect["block_output"] = residual + out
        return residual + out

    # ------------------------------------------------------------------
    # Prefill (full sequence)
    # ------------------------------------------------------------------
    def forward(
        self,
        u: np.ndarray,
        cache: Optional[LayerCache] = None,
        collect: Optional[Dict[str, np.ndarray]] = None,
        *,
        scan_impl: Optional[str] = None,
        chunk_size: Optional[int] = None,
        seq_lens: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Process a full sequence of shape ``(seq_len, d_model)``.

        A leading batch axis is also accepted -- ``(batch, seq_len, d_model)``
        -- in which case ``cache`` (if given) must be batched with the same
        batch size and every sequence is prefilled in parallel.

        If ``cache`` is provided it is updated to the state after the last
        token so that decoding can continue from the prompt.  A *warm* cache
        (non-zero state from an earlier segment) is continued exactly: its
        convolution window supplies the left context of the new segment, so a
        long prompt may be prefilled in pieces.

        Parameters
        ----------
        scan_impl:
            ``"chunked"`` (SSD chunked scan, the fast path) or
            ``"sequential"`` (per-token reference recurrence); defaults to
            ``config.scan_impl``.  An installed ``ssm_impl`` serves the
            ``"chunked"`` path through its own ``prefill_scan``; under
            ``"sequential"`` its step runs token by token on the float view
            of the state (the fake-quant oracle for a quantized SSM).
        chunk_size:
            Chunk length of the chunked scan; defaults to
            ``config.chunk_size``.
        seq_lens:
            Optional per-row true lengths for a right-padded ragged batch
            (batched input only).  The cache then receives each row's state at
            its *true* last token; output positions past a row's length carry
            garbage, which causality keeps out of every valid position.
        """
        cfg = self.config
        u = np.asarray(u, dtype=np.float64)
        if u.ndim not in (2, 3) or u.shape[-1] != cfg.d_model:
            raise ValueError(
                f"expected input of shape (seq_len, {cfg.d_model}) or "
                f"(batch, seq_len, {cfg.d_model}), got {u.shape}"
            )
        batched = u.ndim == 3
        seq_len = u.shape[-2]
        impl = scan_impl if scan_impl is not None else cfg.scan_impl
        if impl not in ("chunked", "sequential"):
            raise ValueError("scan_impl must be 'chunked' or 'sequential'")
        chunk = chunk_size if chunk_size is not None else cfg.chunk_size
        if seq_lens is not None:
            seq_lens = _validate_seq_lens(seq_lens, batched, u.shape[0], seq_len)

        residual = u
        r = self.norm(u)
        r_q = self.pre_in_proj(r)
        zxbcdt = r_q @ self.in_proj_weight.T
        if self.in_proj_bias is not None:
            zxbcdt = zxbcdt + self.in_proj_bias
        z, xbc, dt = self._split_in_proj(zxbcdt)

        conv_initial = None if cache is None else cache.conv_state
        xbc_conv = self.conv.forward(xbc, initial_state=conv_initial)
        x, b, c = self._split_xbc(xbc_conv)
        x_heads = x.reshape(x.shape[:-1] + (cfg.nheads, cfg.headdim))

        initial = None if cache is None else cache.ssm_state
        if impl == "chunked":
            scan = ssd_chunked_scan if self.ssm_impl is None else self.ssm_impl.prefill_scan
            y_heads, final_state = scan(
                self.ssm, x_heads, b, c, dt, initial, chunk_size=chunk, seq_lens=seq_lens
            )
        else:
            if isinstance(initial, QuantizedSSMState):
                # The sequential oracle steps on the float view (on-grid, so
                # the step's entry re-quantization is exact); the store below
                # hands the final state back to the cache as codes.
                initial = initial.dequantize()
            y_heads, final_state = ssm_scan(
                self.ssm, x_heads, b, c, dt, initial, seq_lens=seq_lens, step_fn=self.ssm_impl
            )

        y = y_heads.reshape(u.shape[:-1] + (cfg.d_inner,))
        gated = self.gated_norm(y, z)
        gated_q = self.pre_out_proj(gated)
        out = gated_q @ self.out_proj_weight.T
        if self.out_proj_bias is not None:
            out = out + self.out_proj_bias

        if cache is not None:
            if isinstance(cache.ssm_state, QuantizedSSMState) and not isinstance(
                final_state, QuantizedSSMState
            ):
                # The sequential oracle above ran on the float view; hand the
                # state back to the integer-resident cache as codes (exact:
                # on-grid PoT re-quantization is the identity).
                final_state = self.ssm_impl.quantize_state_codes(final_state)
            cache.ssm_state = final_state
            # Roll the convolution window forward: the last d_conv samples of
            # previous-window + new inputs, taken at each row's true length.
            k = cfg.d_conv
            prev = np.swapaxes(cache.conv_state, -1, -2)       # (..., k, conv_dim)
            combined = np.concatenate([prev, xbc], axis=-2)    # (..., k + T, conv_dim)
            if seq_lens is None:
                window = combined[..., -k:, :]
            else:
                rows = np.arange(u.shape[0])[:, None]
                window = combined[rows, seq_lens[:, None] + np.arange(k)[None, :]]
            cache.conv_state = np.ascontiguousarray(np.swapaxes(window, -1, -2))

        if collect is not None:
            collect["in_proj_input"] = r
            collect["out_proj_input"] = gated
            collect["z"] = z
            collect["x"] = x
            collect["B"] = b
            collect["C"] = c
            collect["dt"] = dt
            collect["ssm_output"] = y
            collect["block_output"] = residual + out
        return residual + out

    __call__ = forward

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def copy(self) -> "MambaBlock":
        """Deep copy of the block (hooks are carried over by reference)."""
        return MambaBlock(
            config=self.config,
            norm=self.norm.copy(),
            in_proj_weight=self.in_proj_weight.copy(),
            conv=self.conv.copy(),
            ssm=self.ssm.copy(),
            gated_norm=self.gated_norm.copy(),
            out_proj_weight=self.out_proj_weight.copy(),
            layer_idx=self.layer_idx,
            in_proj_bias=None if self.in_proj_bias is None else self.in_proj_bias.copy(),
            out_proj_bias=None if self.out_proj_bias is None else self.out_proj_bias.copy(),
            pre_in_proj=self.pre_in_proj,
            pre_out_proj=self.pre_out_proj,
            ssm_impl=self.ssm_impl,
        )

    def num_parameters(self) -> int:
        """Parameter count of this block."""
        return int(
            self.in_proj_weight.size
            + self.out_proj_weight.size
            + self.conv.weight.size
            + self.conv.bias.size
            + self.ssm.A_log.size
            + self.ssm.D.size
            + self.ssm.dt_bias.size
            + self.norm.weight.size
            + self.gated_norm.weight.size
        )
