"""Inference caches for autoregressive decode.

Unlike Transformers, Mamba stores a *fixed-size* recurrent state per layer: a
convolution window and the SSM hidden state.  The paper exploits exactly this
property (Sec. I, Fig. 9a) -- decode cost does not grow with the generated
sequence length, which is also what makes large-batch decode cheap: a batch of
requests is just a leading ``(batch, ...)`` axis on the same fixed-size state.

Both cache classes support an optional batch dimension.  ``zeros(config)``
builds the single-sequence state used by the classic decode API;
``zeros(config, batch_size=b)`` prepends a batch axis to every tensor.  The
serving engine manages request lifetimes with :meth:`gather` (select / compact
rows, e.g. to evict finished requests or checkpoint them before a supervised
model call) and :meth:`scatter` (write rows back, e.g. to admit a freshly
prefilled request into a running batch or roll a faulted row back);
:meth:`stack` / :meth:`row` convert between batched and per-request caches.

A :class:`LayerCache`'s ``ssm_state`` is either a float array or, for a
quantized model with a *persistent integer state* (the FPGA keeps ``h``
resident on-chip as INT codes, Sec. V of the paper), a
:class:`QuantizedSSMState` -- integer codes plus per-group scales.  The
resident container indexes by rows like an array, so every request-lifetime
operation above moves the codes directly and admission / eviction never
round-trips the state through floats.  The quantization logic itself lives in
:mod:`repro.quant.ssm_quant`; this module only defines the mechanical
containers (pure numpy, no quant imports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.mamba.config import Mamba2Config

__all__ = ["LayerCache", "InferenceCache", "QuantizedSSMState"]


@dataclass
class QuantizedSSMState:
    """The SSM hidden state ``h`` resident as integer codes + scales.

    This is the software twin of the FPGA's on-chip state buffer: between
    decode steps the state exists only as ``codes`` (INT ``bits`` values
    stored in an int32 array) and ``scales`` (one power-of-two scale per
    ``group_size`` run along the trailing ``d_state`` axis, shaped
    ``(..., nheads, headdim, n_groups, 1)`` so it multiplies the
    group-reshaped view of ``codes``).  The container is purely mechanical --
    producing codes from floats is the quantizer's job
    (:class:`repro.quant.ssm_quant.QuantizedSSMStep`); here we only hold,
    copy, and row-index them for the serving engine's admission / eviction.

    ``codes`` has the exact shape a float ``ssm_state`` would have
    (``(nheads, headdim, d_state)``, plus an optional leading batch axis), so
    ``state[rows]`` and ``state[rows] = other`` index the leading axis of
    both arrays, exactly like a float state array.
    """

    codes: np.ndarray
    scales: np.ndarray
    group_size: int
    bits: int = 8

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float state (``codes * scales``, group-wise).

        This is the cheap direction -- a multiply, no absmax / rounding -- and
        the only numeric operation the container performs itself.
        """
        d_state = self.codes.shape[-1]
        group = min(self.group_size, d_state)
        n_groups = -(-d_state // group)
        pad = n_groups * group - d_state
        codes = self.codes.astype(np.float64)
        if pad:
            pad_width = [(0, 0)] * (codes.ndim - 1) + [(0, pad)]
            codes = np.pad(codes, pad_width)
        grouped = codes.reshape(*codes.shape[:-1], n_groups, group)
        values = (grouped * self.scales).reshape(*codes.shape[:-1], -1)
        if pad:
            values = values[..., :d_state]
        return values

    def copy(self) -> "QuantizedSSMState":
        return QuantizedSSMState(
            self.codes.copy(), self.scales.copy(), self.group_size, self.bits
        )

    def __getitem__(self, index) -> "QuantizedSSMState":
        """Leading-axis rows (numpy indexing semantics: a view for an int)."""
        return QuantizedSSMState(
            self.codes[index], self.scales[index], self.group_size, self.bits
        )

    def __setitem__(self, index, value: "QuantizedSSMState") -> None:
        if not isinstance(value, QuantizedSSMState):
            raise TypeError(
                "writing rows into an integer-resident state needs a "
                "QuantizedSSMState source, not a float state"
            )
        self.codes[index] = value.codes
        self.scales[index] = value.scales

    @classmethod
    def stack(cls, states: Sequence["QuantizedSSMState"]) -> "QuantizedSSMState":
        first = states[0]
        return cls(
            codes=np.stack([s.codes for s in states]),
            scales=np.stack([s.scales for s in states]),
            group_size=first.group_size,
            bits=first.bits,
        )

    def exact_equal(self, other: "QuantizedSSMState") -> bool:
        """Bit-exact equality of the *resident* representation.

        Compares the integer codes and the stored scales directly -- never
        the dequantized floats -- so two states compare equal iff the
        hardware state buffer would hold identical bits.  This is the
        comparison the serving supervisor's rollback verification uses: a
        restored snapshot must reproduce codes and scales exactly.
        """
        return (
            self.group_size == other.group_size
            and self.bits == other.bits
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.scales, other.scales)
        )

    def num_elements(self) -> int:
        """Scalars held by the resident state (codes plus scales)."""
        return int(self.codes.size + self.scales.size)

    def num_bytes(self) -> float:
        """Resident footprint: packed codes plus one exponent byte per scale.

        PoT scales are stored as a signed power-of-two exponent, one byte
        each -- the hardware representation the paper's on-chip state buffer
        uses (re-quantization is a shift, so no mantissa is ever needed).
        """
        return self.codes.size * self.bits / 8.0 + self.scales.size * 1.0


@dataclass
class LayerCache:
    """Recurrent state of one Mamba2 block.

    Attributes
    ----------
    conv_state:
        Rolling convolution window, shape ``(conv_dim, d_conv)`` -- or
        ``(batch, conv_dim, d_conv)`` for a batched cache.  Always float: the
        short window is tiny and not quantized between steps.
    ssm_state:
        SSM hidden state ``h``, shape ``(nheads, headdim, d_state)`` -- or
        ``(batch, nheads, headdim, d_state)`` for a batched cache.  Either a
        float array or an integer-resident :class:`QuantizedSSMState` of the
        same shape; every row operation below works on both.  Writing float
        rows into a resident state raises :class:`TypeError`.
    """

    conv_state: np.ndarray
    ssm_state: Union[np.ndarray, QuantizedSSMState]

    @classmethod
    def zeros(cls, config: Mamba2Config, batch_size: Optional[int] = None) -> "LayerCache":
        lead = () if batch_size is None else (batch_size,)
        return cls(
            conv_state=np.zeros(lead + (config.conv_dim, config.d_conv), dtype=np.float64),
            ssm_state=np.zeros(
                lead + (config.nheads, config.headdim, config.d_state), dtype=np.float64
            ),
        )

    @property
    def batch_size(self) -> Optional[int]:
        """Leading batch dimension, or ``None`` for a single-sequence cache."""
        return self.conv_state.shape[0] if self.conv_state.ndim == 3 else None

    def copy(self) -> "LayerCache":
        return LayerCache(self.conv_state.copy(), self.ssm_state.copy())

    def gather(self, indices) -> "LayerCache":
        """Return a new batched cache holding rows ``indices`` (in order)."""
        self._require_batched("gather")
        indices = np.asarray(indices, dtype=np.int64)
        return LayerCache(self.conv_state[indices].copy(), self.ssm_state[indices].copy())

    def scatter(self, indices, src: "LayerCache") -> None:
        """Write the rows of batched cache ``src`` into rows ``indices`` of self."""
        self._require_batched("scatter")
        indices = np.asarray(indices, dtype=np.int64)
        if src.batch_size != indices.size:
            raise ValueError(
                f"scatter needs one src row per index: {indices.size} indices "
                f"but src batch size is {src.batch_size}"
            )
        self.conv_state[indices] = src.conv_state
        self.ssm_state[indices] = src.ssm_state

    def row(self, index: int) -> "LayerCache":
        """Extract one request's state as a single-sequence (unbatched) cache."""
        self._require_batched("row")
        return LayerCache(self.conv_state[index].copy(), self.ssm_state[index].copy())

    @classmethod
    def stack(cls, caches: Sequence["LayerCache"]) -> "LayerCache":
        """Stack single-sequence caches into one batched cache."""
        if not caches:
            raise ValueError("cannot stack an empty sequence of caches")
        if any(c.batch_size is not None for c in caches):
            raise ValueError("stack expects single-sequence (unbatched) caches")
        states = [c.ssm_state for c in caches]
        if isinstance(states[0], QuantizedSSMState):
            ssm_state = QuantizedSSMState.stack(states)
        else:
            ssm_state = np.stack(states)
        return cls(conv_state=np.stack([c.conv_state for c in caches]), ssm_state=ssm_state)

    def _require_batched(self, op: str) -> None:
        if self.batch_size is None:
            raise ValueError(
                f"{op} requires a batched cache (see LayerCache.zeros(batch_size=...))"
            )

    def state_equal(self, other: "LayerCache") -> bool:
        """Exact value equality of the recurrent state (no tolerance).

        Float arrays compare with :func:`numpy.array_equal`; a resident state
        compares its codes + scales (:meth:`QuantizedSSMState.exact_equal`),
        never dequantized floats, and never equals a float state.  ``NaN``
        never compares equal, so a corrupted state is never "equal" to a
        healthy snapshot.
        """
        if not np.array_equal(self.conv_state, other.conv_state):
            return False
        mine, theirs = self.ssm_state, other.ssm_state
        if isinstance(mine, QuantizedSSMState):
            return isinstance(theirs, QuantizedSSMState) and mine.exact_equal(theirs)
        return isinstance(theirs, np.ndarray) and np.array_equal(mine, theirs)

    def num_elements(self) -> int:
        """Total scalars held by this layer's recurrent state."""
        state = self.ssm_state
        n_state = state.num_elements() if isinstance(state, QuantizedSSMState) else state.size
        return int(self.conv_state.size + n_state)

    def resident_bytes(self) -> float:
        """Checkpoint footprint of this layer's state, in bytes.

        Matches the accounting of
        :class:`repro.hardware.memory.QuantizedStateMemoryModel`: conv taps
        and a float state are stored at FP16 (2 bytes per element); a
        resident state stores packed codes plus one PoT exponent byte per
        scale (:meth:`QuantizedSSMState.num_bytes`).
        """
        state = self.ssm_state
        state_bytes = (
            state.num_bytes() if isinstance(state, QuantizedSSMState) else state.size * 2.0
        )
        return float(self.conv_state.size) * 2.0 + state_bytes


@dataclass
class InferenceCache:
    """Recurrent state of the full model (one :class:`LayerCache` per block)."""

    layers: List[LayerCache]

    @classmethod
    def zeros(cls, config: Mamba2Config, batch_size: Optional[int] = None) -> "InferenceCache":
        return cls(
            layers=[LayerCache.zeros(config, batch_size) for _ in range(config.n_layer)]
        )

    @property
    def batch_size(self) -> Optional[int]:
        """Leading batch dimension, or ``None`` for a single-sequence cache."""
        return self.layers[0].batch_size if self.layers else None

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> LayerCache:
        return self.layers[idx]

    def copy(self) -> "InferenceCache":
        return InferenceCache(layers=[layer.copy() for layer in self.layers])

    def gather(self, indices) -> "InferenceCache":
        """Return a new batched cache holding rows ``indices`` of every layer.

        Also the serving supervisor's pre-call checkpoint: a resident state's
        codes + PoT scales are copied as they are, so :meth:`scatter` of the
        checkpoint followed by :meth:`state_equal` round-trips bit-exactly.
        """
        return InferenceCache(layers=[layer.gather(indices) for layer in self.layers])

    def scatter(self, indices, src: "InferenceCache") -> None:
        """Write the rows of batched cache ``src`` into rows ``indices`` of self."""
        if len(src.layers) != len(self.layers):
            raise ValueError("layer count mismatch between caches")
        for layer, src_layer in zip(self.layers, src.layers):
            layer.scatter(indices, src_layer)

    def row(self, index: int) -> "InferenceCache":
        """Extract one request's state as a single-sequence (unbatched) cache."""
        return InferenceCache(layers=[layer.row(index) for layer in self.layers])

    @classmethod
    def stack(cls, caches: Sequence["InferenceCache"]) -> "InferenceCache":
        """Stack single-sequence caches into one batched cache."""
        if not caches:
            raise ValueError("cannot stack an empty sequence of caches")
        n_layer = len(caches[0].layers)
        if any(len(c.layers) != n_layer for c in caches):
            raise ValueError("all caches must have the same layer count")
        return cls(
            layers=[LayerCache.stack([c.layers[i] for c in caches]) for i in range(n_layer)]
        )

    def state_equal(self, other: "InferenceCache") -> bool:
        """Exact state equality across all layers (see :meth:`LayerCache.state_equal`)."""
        if len(other.layers) != len(self.layers):
            return False
        return all(
            layer.state_equal(other_layer)
            for layer, other_layer in zip(self.layers, other.layers)
        )

    def nonfinite_rows(self) -> np.ndarray:
        """One boolean per row: whether any of the row's state is non-finite.

        A single-sequence cache counts as one row.  A resident state is
        checked through its scales -- the codes are integers and always
        finite, so poison surfaces in the scales.  Quantization grids are
        per-row, so poison never leaks across rows and attribution is exact.
        """
        lead = 0 if self.batch_size is None else 1
        bad = np.zeros(1 if self.batch_size is None else self.batch_size, dtype=bool)
        for layer in self.layers:
            state = layer.ssm_state
            values = state.scales if isinstance(state, QuantizedSSMState) else state
            for array in (layer.conv_state, values):
                bad |= ~np.isfinite(array).all(axis=tuple(range(lead, array.ndim)))
        return bad

    def num_elements(self) -> int:
        """Total scalars held by the model's recurrent state."""
        return sum(layer.num_elements() for layer in self.layers)

    def resident_state_bytes(self) -> float:
        """Checkpoint footprint in bytes, layer accounting per :meth:`LayerCache.resident_bytes`.

        For a resident cache this matches
        :class:`repro.hardware.memory.QuantizedStateMemoryModel`'s
        quantized-footprint terms for the recurrent state (packed codes, one
        exponent byte per PoT scale, FP16 conv taps); for a float cache it is
        the FP16 baseline.  The serving supervisor uses it to account
        snapshot bytes in ``EngineStats``.
        """
        return sum(layer.resident_bytes() for layer in self.layers)
