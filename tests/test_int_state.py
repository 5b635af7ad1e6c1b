"""Tests of the persistent integer-state decode and integer-exact chunk body.

Pins the PR's contracts:

- persistent-state decode (``SSMQuantConfig.persistent_state``) is
  *bit-identical* to the fake-quant decode under PoT while keeping the
  recurrent state resident as codes (``QuantizedSSMState`` inside a
  ``QuantizedLayerCache``);
- the integer-resident cache survives the full serving lifecycle --
  gather / scatter / stack / row under admission, eviction and
  preempted-then-resumed prefills -- bit-identically to solo decode;
- the integer-exact chunk body matches the float chunk body bit-for-bit
  under PoT scales and trips the shared INT32 overflow guard on unsafe
  configurations;
- all-zero quantization groups are well-defined everywhere (no warnings,
  exact-zero reconstruction);
- the quantized-state memory model sizes the URAM/BRAM residency;
- the serving edge cases of this PR (empty prompts, cancel racing the final
  decode iteration, the regression gate's zero-metric fallback) behave.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.mamba import InitConfig, Mamba2Model, greedy_decode
from repro.mamba.cache import (
    InferenceCache,
    LayerCache,
    QuantizedLayerCache,
    QuantizedSSMState,
)
from repro.mamba.ssm import SSMParams
from repro.quant import (
    QuantConfig,
    QuantMethod,
    QuantizedLinear,
    QuantizedSSMStep,
    SSMQuantConfig,
    grouped_integer_matmul,
    quantize_model,
)
from repro.serving import BatchedGenerator, InferenceEngine, Request
from repro.serving.scheduler import PriorityScheduler


def _star(model, w_bits=8, a_bits=8, **ssm_kwargs):
    config = QuantConfig(
        method=QuantMethod.LIGHTMAMBA_STAR,
        w_bits=w_bits,
        a_bits=a_bits,
        ssm=SSMQuantConfig(**ssm_kwargs),
    )
    return quantize_model(model, config)


def _state_values(layer):
    state = layer.ssm_state
    return state.dequantize() if isinstance(state, QuantizedSSMState) else state


def _assert_states_equal(a: InferenceCache, b: InferenceCache):
    for layer_a, layer_b in zip(a.layers, b.layers):
        np.testing.assert_array_equal(layer_a.conv_state, layer_b.conv_state)
        np.testing.assert_array_equal(_state_values(layer_a), _state_values(layer_b))


@pytest.fixture(scope="module")
def fake_quant(tiny_model):
    return _star(tiny_model)


@pytest.fixture(scope="module")
def persistent(tiny_model):
    return _star(tiny_model, persistent_state=True)


class TestPersistentDecodeBitIdentity:
    def test_new_cache_is_integer_resident(self, persistent, fake_quant, tiny_model):
        cache = persistent.new_cache(batch_size=3)
        assert all(isinstance(layer, QuantizedLayerCache) for layer in cache.layers)
        state = cache.layers[0].ssm_state
        assert isinstance(state, QuantizedSSMState)
        assert np.issubdtype(state.codes.dtype, np.integer)
        np.testing.assert_array_equal(state.codes, 0)
        np.testing.assert_array_equal(state.dequantize(), 0.0)
        # Non-persistent models keep the float cache.
        assert all(
            type(layer) is LayerCache for layer in fake_quant.new_cache().layers
        )
        assert all(
            type(layer) is LayerCache for layer in tiny_model.new_cache().layers
        )

    @pytest.mark.parametrize("w_bits,a_bits", [(8, 8), (4, 4)])
    def test_decode_bit_identical_to_fake_quant(self, tiny_model, w_bits, a_bits):
        fake = _star(tiny_model, w_bits, a_bits)
        pers = _star(tiny_model, w_bits, a_bits, persistent_state=True)
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, tiny_model.config.vocab_size, size=17)

        logits_f, cache_f = fake.prefill(prompt)
        logits_p, cache_p = pers.prefill(prompt)
        np.testing.assert_array_equal(logits_f, logits_p)
        _assert_states_equal(cache_f, cache_p)

        token = int(np.argmax(logits_f))
        for _ in range(12):
            step_f = fake.step(token, cache_f)
            step_p = pers.step(token, cache_p)
            np.testing.assert_array_equal(step_f, step_p)
            token = int(np.argmax(step_f))
        # The state stayed integer-resident the whole way.
        assert isinstance(cache_p.layers[0].ssm_state, QuantizedSSMState)

    def test_greedy_decode_end_to_end(self, fake_quant, persistent):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, fake_quant.config.vocab_size, size=9)
        ref = greedy_decode(fake_quant, prompt, 10)
        out = greedy_decode(persistent, prompt, 10)
        assert out.tokens == ref.tokens
        np.testing.assert_array_equal(out.logprobs, ref.logprobs)

    def test_sequential_oracle_prefill_stays_resident(self, fake_quant, persistent):
        rng = np.random.default_rng(7)
        prompt = rng.integers(0, fake_quant.config.vocab_size, size=11)
        logits_f, cache_f = fake_quant.prefill(prompt, scan_impl="sequential")
        logits_p, cache_p = persistent.prefill(prompt, scan_impl="sequential")
        np.testing.assert_array_equal(logits_f, logits_p)
        _assert_states_equal(cache_f, cache_p)
        assert isinstance(cache_p.layers[0].ssm_state, QuantizedSSMState)

    def test_ragged_batched_prefill_matches_fake(self, fake_quant, persistent):
        rng = np.random.default_rng(11)
        vocab = fake_quant.config.vocab_size
        lengths = np.array([4, 9, 6])
        padded = np.zeros((3, 9), dtype=np.int64)
        for i, n in enumerate(lengths):
            padded[i, :n] = rng.integers(0, vocab, size=n)
        logits_f, cache_f = fake_quant.prefill(padded, seq_lens=lengths)
        logits_p, cache_p = persistent.prefill(padded, seq_lens=lengths)
        np.testing.assert_array_equal(logits_f, logits_p)
        _assert_states_equal(cache_f, cache_p)

    def test_ragged_batched_sequential_prefill_stays_resident(self, fake_quant, persistent):
        """The sequential oracle's per-row seq_lens snapshots, on a resident cache."""
        rng = np.random.default_rng(17)
        vocab = persistent.config.vocab_size
        lengths = np.array([7, 2, 10, 5])
        padded = np.zeros((4, 10), dtype=np.int64)
        for i, n in enumerate(lengths):
            padded[i, :n] = rng.integers(0, vocab, size=n)
        logits_p, cache_p = persistent.prefill(
            padded, seq_lens=lengths, scan_impl="sequential"
        )
        logits_f, cache_f = fake_quant.prefill(
            padded, seq_lens=lengths, scan_impl="sequential"
        )
        assert all(isinstance(layer.ssm_state, QuantizedSSMState) for layer in cache_p.layers)
        np.testing.assert_array_equal(logits_p, logits_f)
        _assert_states_equal(cache_p, cache_f)
        for i, n in enumerate(lengths):
            logits_i, cache_i = persistent.prefill(padded[i, :n], scan_impl="sequential")
            # Each row's snapshot codes are exactly its solo prefill's; the
            # batched in-projection / head matmuls may round the last bits of
            # the conv taps and logits differently (the documented 1e-10).
            for row_layer, solo_layer in zip(cache_p.row(i).layers, cache_i.layers):
                assert row_layer.ssm_state.exact_equal(solo_layer.ssm_state)
                np.testing.assert_allclose(row_layer.conv_state, solo_layer.conv_state, atol=1e-10)
            np.testing.assert_allclose(logits_p[i], logits_i, atol=1e-10)

    def test_persistent_state_config_validation(self):
        with pytest.raises(ValueError, match="persistent_state"):
            SSMQuantConfig(persistent_state=True, pot_scale=False)


class TestQuantizedCacheLifecycle:
    def _batched_cache(self, persistent, batch=4, seed=2):
        rng = np.random.default_rng(seed)
        prompts = np.stack(
            [rng.integers(0, persistent.config.vocab_size, size=7) for _ in range(batch)]
        )
        _, cache = persistent.prefill(prompts)
        return cache

    def test_row_stack_roundtrip(self, persistent):
        cache = self._batched_cache(persistent)
        rows = [cache.row(i) for i in range(4)]
        stacked = InferenceCache.stack(rows)
        assert isinstance(stacked.layers[0], QuantizedLayerCache)
        for orig, back in zip(cache.layers, stacked.layers):
            np.testing.assert_array_equal(orig.ssm_state.codes, back.ssm_state.codes)
            np.testing.assert_array_equal(orig.ssm_state.scales, back.ssm_state.scales)
            np.testing.assert_array_equal(orig.conv_state, back.conv_state)

    def test_gather_scatter_roundtrip(self, persistent):
        cache = self._batched_cache(persistent)
        reference = cache.copy()
        swapped = cache.gather([1, 0, 3, 2])
        assert isinstance(swapped.layers[0], QuantizedLayerCache)
        cache.scatter([1, 0, 3, 2], swapped)  # swap back into place
        for orig, now in zip(reference.layers, cache.layers):
            np.testing.assert_array_equal(orig.ssm_state.codes, now.ssm_state.codes)
            np.testing.assert_array_equal(orig.ssm_state.scales, now.ssm_state.scales)

    def test_scatter_rejects_float_source(self, persistent, tiny_model):
        cache = self._batched_cache(persistent)
        with pytest.raises(TypeError, match="integer-resident"):
            cache.layers[0].scatter([0], LayerCache.zeros(tiny_model.config, batch_size=1))

    def test_engine_admission_eviction_matches_solo(self, persistent):
        rng = np.random.default_rng(23)
        vocab = persistent.config.vocab_size
        requests = [
            Request(prompt=tuple(rng.integers(0, vocab, size=size)), max_new_tokens=budget)
            for size, budget in ((9, 4), (3, 6), (14, 3), (5, 5), (2, 7))
        ]
        engine = InferenceEngine(persistent, max_batch_size=2)
        completions = engine.run(requests)
        assert len(completions) == len(requests)
        by_id = {c.request_id: c for c in completions}
        for rid, request in enumerate(requests):
            ref = greedy_decode(persistent, request.prompt, request.max_new_tokens)
            assert by_id[rid].result.tokens == ref.tokens
            # Batched BLAS kernels may round the last bits differently than
            # solo decode (the documented 1e-10 equivalence); the *bitwise*
            # claim of this PR is persistent-vs-fake at equal batching, pinned
            # in TestPersistentDecodeBitIdentity.
            np.testing.assert_allclose(by_id[rid].result.logprobs, ref.logprobs, atol=1e-10)

    def test_batched_generator_matches_solo(self, persistent, fake_quant):
        rng = np.random.default_rng(29)
        vocab = persistent.config.vocab_size
        prompts = [rng.integers(0, vocab, size=n) for n in (5, 11, 8)]
        results = BatchedGenerator(persistent).generate(prompts, 6)
        reference = BatchedGenerator(fake_quant).generate(prompts, 6)
        for got, ref in zip(results, reference):
            assert got.tokens == ref.tokens
            np.testing.assert_array_equal(got.logprobs, ref.logprobs)

    def test_preempted_prefill_resumes_bit_identical(self, tiny_config):
        # chunk_size=4 so the 4-token admission budget segments the prompt on
        # chunk boundaries: segmented quantized prefill is then bit-exact with
        # the solo one-shot prefill (PoT state re-quantization is idempotent
        # on chunk-aligned hand-offs).
        from dataclasses import replace

        config = replace(tiny_config, name="tiny-chunk4", chunk_size=4)
        model = Mamba2Model.from_config(config, InitConfig(seed=0))
        pers = _star(model, persistent_state=True)
        rng = np.random.default_rng(13)
        vocab = config.vocab_size
        engine = InferenceEngine(
            pers,
            max_batch_size=1,
            scheduler=PriorityScheduler(prefill_chunk_tokens=4, preempt=True),
        )
        long_req = Request(prompt=tuple(rng.integers(0, vocab, size=20)), max_new_tokens=2)
        short_req = Request(prompt=tuple(rng.integers(0, vocab, size=3)), max_new_tokens=2)
        long_id = engine.submit(long_req, priority=0)
        engine.step()
        assert engine.num_prefilling == 1
        short_id = engine.submit(short_req, priority=5)
        completions = []
        while engine.has_work:
            completions.extend(engine.step())
        assert engine.stats.preempted == 1
        by_id = {c.request_id: c for c in completions}
        for rid, request in ((long_id, long_req), (short_id, short_req)):
            ref = greedy_decode(pers, request.prompt, request.max_new_tokens)
            assert by_id[rid].result.tokens == ref.tokens
            np.testing.assert_allclose(by_id[rid].result.logprobs, ref.logprobs, atol=1e-10)


class TestZeroGroups:
    """All-zero quantization groups are well-defined end to end."""

    @pytest.mark.parametrize("pot_scale", [True, False])
    @pytest.mark.parametrize("resident", [True, False])
    @pytest.mark.parametrize("quantize_products", [True, False])
    def test_all_zero_step_decodes_to_zero(self, pot_scale, resident, quantize_products):
        cfg = SSMQuantConfig(
            group_size=8, pot_scale=pot_scale, quantize_products=quantize_products
        )
        step = QuantizedSSMStep(cfg)
        params = SSMParams(A_log=np.zeros(2), D=np.ones(2), dt_bias=np.zeros(2))
        zeros = np.zeros((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state0 = np.zeros((2, 3, 16))
            if resident:
                # Zero codes: the integer step's input under PoT scales.
                state0 = step.quantize_state_codes(state0)
            y, state = step(params, zeros, np.zeros(16), np.zeros(16), np.zeros(2), state0)
            ys, states = step.prefill_scan(
                params,
                np.zeros((5, 2, 3)),
                np.zeros((5, 16)),
                np.zeros((5, 16)),
                np.zeros((5, 2)),
                initial_state=state0,
                chunk_size=2,
            )
            if resident:
                state, states = state.dequantize(), states.dequantize()
        np.testing.assert_array_equal(y, 0.0)
        np.testing.assert_array_equal(state, 0.0)
        np.testing.assert_array_equal(ys, 0.0)
        np.testing.assert_array_equal(states, 0.0)

    @pytest.mark.parametrize("w_bits,a_bits,group", [(4, 4, 8), (8, 8, 4), (3, 5, 16)])
    def test_qlinear_zero_rows_and_groups(self, w_bits, a_bits, group):
        weight = np.zeros((6, 32))
        weight[0, :16] = np.linspace(-1, 1, 16)  # one half-zero row
        layer = QuantizedLinear.from_weight(weight, w_bits, a_bits, group_size=group)
        x = np.zeros(32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out_fake = layer.forward(x)
            out_int = layer.forward_integer(x)
            mixed = np.zeros((3, 32))
            mixed[1, 20:] = 2.5
            out_mixed = layer.forward_integer(mixed)
        np.testing.assert_array_equal(out_fake, 0.0)
        np.testing.assert_array_equal(out_int, 0.0)
        assert np.all(np.isfinite(out_mixed))
        np.testing.assert_array_equal(out_mixed[0], 0.0)

    def test_zeros_cache_is_exact_zero(self, persistent):
        cache = persistent.new_cache(batch_size=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cache.layers[0].ssm_state.dequantize()
        np.testing.assert_array_equal(values, 0.0)


def _scan_inputs(rng, T, h=4, p=8, n=24, lead=()):
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=h)),
        D=rng.normal(1.0, 0.1, size=h),
        dt_bias=rng.normal(size=h),
    )
    x = rng.normal(size=lead + (T, h, p))
    B = rng.normal(size=lead + (T, n))
    C = rng.normal(size=lead + (T, n))
    dt = rng.normal(size=lead + (T, h))
    return params, x, B, C, dt


class TestIntegerChunkBody:
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_pot_integer_body_bit_identical_to_float(self, rng, lead):
        params, x, B, C, dt = _scan_inputs(rng, 37, lead=lead)
        float_body = QuantizedSSMStep(SSMQuantConfig(group_size=8))
        int_body = QuantizedSSMStep(
            SSMQuantConfig(group_size=8, integer_chunk_body=True)
        )
        yf, sf = float_body.prefill_scan(params, x, B, C, dt, chunk_size=16)
        yi, si = int_body.prefill_scan(params, x, B, C, dt, chunk_size=16)
        np.testing.assert_array_equal(yf, yi)
        np.testing.assert_array_equal(sf, si)

    def test_ragged_and_warm_state(self, rng):
        params, x, B, C, dt = _scan_inputs(rng, 30, lead=(3,))
        warm = rng.normal(size=(3, 4, 8, 24))
        seq_lens = np.array([6, 17, 30])
        float_body = QuantizedSSMStep(SSMQuantConfig(group_size=8))
        int_body = QuantizedSSMStep(
            SSMQuantConfig(group_size=8, integer_chunk_body=True)
        )
        yf, sf = float_body.prefill_scan(
            params, x, B, C, dt, initial_state=warm, chunk_size=8, seq_lens=seq_lens
        )
        yi, si = int_body.prefill_scan(
            params, x, B, C, dt, initial_state=warm, chunk_size=8, seq_lens=seq_lens
        )
        np.testing.assert_array_equal(yf, yi)
        np.testing.assert_array_equal(sf, si)

    def test_non_pot_integer_body_matches_closely(self, rng):
        params, x, B, C, dt = _scan_inputs(rng, 29)
        float_body = QuantizedSSMStep(SSMQuantConfig(group_size=8, pot_scale=False))
        int_body = QuantizedSSMStep(
            SSMQuantConfig(group_size=8, pot_scale=False, integer_chunk_body=True)
        )
        yf, _ = float_body.prefill_scan(params, x, B, C, dt, chunk_size=8)
        yi, _ = int_body.prefill_scan(params, x, B, C, dt, chunk_size=8)
        np.testing.assert_allclose(yi, yf, rtol=1e-12, atol=1e-12)

    def test_overflow_guard_trips_on_unsafe_configuration(self, rng):
        """INT16 codes with 128-long groups exceed the INT32 accumulator."""
        params, x, B, C, dt = _scan_inputs(rng, 16, n=128)
        unsafe = QuantizedSSMStep(
            SSMQuantConfig(bits=16, group_size=128, integer_chunk_body=True)
        )
        with pytest.raises(OverflowError, match="INT32 accumulator"):
            unsafe.prefill_scan(params, x, B, C, dt, chunk_size=8)

    def test_shared_helper_matches_dense_matmul(self, rng):
        """grouped_integer_matmul == plain matmul once the scales are folded."""
        codes_a = rng.integers(-127, 128, size=(5, 32))
        codes_b = rng.integers(-127, 128, size=(7, 32))
        scales_a = 2.0 ** rng.integers(-8, 0, size=(5, 4))
        scales_b = 2.0 ** rng.integers(-8, 0, size=(7, 4))
        out = grouped_integer_matmul(
            codes_a, scales_a, codes_b, scales_b, group_size=8, x_qmax=127, w_qmax=127
        )
        dense_a = codes_a.reshape(5, 4, 8) * scales_a[:, :, None]
        dense_b = codes_b.reshape(7, 4, 8) * scales_b[:, :, None]
        expected = dense_a.reshape(5, 32) @ dense_b.reshape(7, 32).T
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_helper_validation(self):
        codes = np.zeros((2, 8), dtype=np.int32)
        scales = np.ones((2, 1))
        with pytest.raises(OverflowError):
            grouped_integer_matmul(
                codes, scales, codes, scales, group_size=8, x_qmax=2**15, w_qmax=2**15
            )
        with pytest.raises(ValueError, match="groups"):
            grouped_integer_matmul(
                codes, np.ones((2, 3)), codes, scales, group_size=8, x_qmax=127, w_qmax=127
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="integer_chunk_body"):
            SSMQuantConfig(integer_chunk_body=True, quantize_products=False)

    def test_decode_step_unchanged_by_integer_body(self, rng):
        params, x, B, C, dt = _scan_inputs(rng, 1)
        plain = QuantizedSSMStep(SSMQuantConfig(group_size=8))
        integer = QuantizedSSMStep(SSMQuantConfig(group_size=8, integer_chunk_body=True))
        state = rng.normal(size=(4, 8, 24))
        y1, s1 = plain(params, x[0], B[0], C[0], dt[0], state)
        y2, s2 = integer(params, x[0], B[0], C[0], dt[0], state)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(s1, s2)


class TestQuantizedStateMemoryModel:
    def test_quantized_vs_fp16_footprint(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel

        model = QuantizedStateMemoryModel(state_bits=8, group_size=32)
        quantized = model.quantized_footprint(tiny_config, batch_size=4)
        fp16 = model.fp16_footprint(tiny_config, batch_size=4)
        cfg = tiny_config
        state_elems = 4 * cfg.nheads * cfg.headdim * cfg.d_state * cfg.n_layer
        assert quantized.ssm_state_bytes == state_elems  # INT8: one byte each
        assert fp16.ssm_state_bytes == 2 * state_elems
        assert quantized.ssm_scale_bytes > 0
        assert fp16.ssm_scale_bytes == 0
        assert quantized.total_bytes < fp16.total_bytes
        ratio = model.compression_ratio(cfg, batch_size=4)
        assert 1.5 < ratio < 2.0  # codes halve, scales give a little back

    def test_matches_live_cache_accounting(self, persistent, tiny_config):
        """The model's byte count equals the serving cache's own accounting."""
        from repro.hardware import QuantizedStateMemoryModel

        model = QuantizedStateMemoryModel(state_bits=8, group_size=32)
        footprint = model.quantized_footprint(tiny_config, batch_size=3)
        cache = persistent.new_cache(batch_size=3)
        live_state_bytes = sum(
            layer.ssm_state.num_bytes() for layer in cache.layers
        )
        assert footprint.ssm_state_bytes + footprint.ssm_scale_bytes == live_state_bytes

    def test_allocations_and_max_batch(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel, VCK190

        model = QuantizedStateMemoryModel()
        footprint = model.quantized_footprint(tiny_config, batch_size=64)
        assert footprint.uram + footprint.bram > 0
        assert len(footprint.allocations) == 2 * tiny_config.n_layer
        max_batch = model.max_resident_batch(tiny_config, VCK190)
        assert max_batch >= 1
        over = model.quantized_footprint(tiny_config, batch_size=max_batch + 1)
        budget = VCK190.uram * 0.7
        assert model.quantized_footprint(tiny_config, max_batch).uram <= budget
        assert over.uram > budget

    def test_validation(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel

        with pytest.raises(ValueError):
            QuantizedStateMemoryModel(state_bits=0)
        with pytest.raises(ValueError):
            QuantizedStateMemoryModel().quantized_footprint(tiny_config, batch_size=0)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestCancelRace:
    def _stop_request(self, model, budget=8):
        """A request whose stop token fires before its budget (from solo)."""
        rng = np.random.default_rng(41)
        prompt = tuple(rng.integers(0, model.config.vocab_size, size=6))
        ref = greedy_decode(model, prompt, budget)
        # The first generated token is its own first occurrence, so using it
        # as the stop token retires the request on that very decode step --
        # exactly the iteration the cancel below races.
        stop = ref.tokens[0]
        expect_len = ref.tokens.index(stop) + 1
        assert expect_len < budget
        return Request(prompt=prompt, max_new_tokens=budget, stop_token=stop), expect_len

    def test_cancel_loses_race_against_stop_token(self, tiny_model):
        request, expect_len = self._stop_request(tiny_model)
        clock = FakeClock()
        engine = InferenceEngine(tiny_model, max_batch_size=2, clock=clock)
        request_id = engine.submit(request)
        outcome = {}

        def on_token(rid, token, logprob):
            clock.now += 1.0
            if token == request.stop_token:
                # The request just finished with its stop token: a cancel
                # arriving in the same iteration must lose the race.
                outcome["cancel_returned"] = engine.cancel(rid)

        completions = engine.run(on_token=on_token)
        assert outcome["cancel_returned"] is False
        assert len(completions) == 1  # no double retirement
        completion = completions[0]
        assert completion.finish_reason == "stop"
        assert len(completion.result.tokens) == expect_len
        assert completion.latency.finish_reason == "stop"
        assert engine.stats.cancelled == 0
        # The request is long gone: a later cancel still reports not-found.
        assert engine.cancel(request_id) is False

    def test_cancel_loses_race_against_length_budget(self, tiny_model):
        rng = np.random.default_rng(43)
        prompt = tuple(rng.integers(0, tiny_model.config.vocab_size, size=5))
        engine = InferenceEngine(tiny_model, max_batch_size=1, clock=FakeClock())
        engine.submit(Request(prompt=prompt, max_new_tokens=3))
        seen = []

        def on_token(rid, token, logprob):
            seen.append(token)
            if len(seen) == 3:  # the budget-exhausting token
                assert engine.cancel(rid) is False

        completions = engine.run(on_token=on_token)
        assert [c.finish_reason for c in completions] == ["length"]
        assert len(completions[0].result.tokens) == 3
        assert engine.stats.cancelled == 0

    def test_cancel_mid_decode_still_wins(self, tiny_model):
        """A cancel before the terminal token keeps its normal semantics."""
        rng = np.random.default_rng(47)
        prompt = tuple(rng.integers(0, tiny_model.config.vocab_size, size=5))
        engine = InferenceEngine(tiny_model, max_batch_size=1, clock=FakeClock())
        engine.submit(Request(prompt=prompt, max_new_tokens=10))
        seen = []

        def on_token(rid, token, logprob):
            seen.append(token)
            if len(seen) == 2:
                assert engine.cancel(rid) is True

        completions = engine.run(on_token=on_token)
        assert [c.finish_reason for c in completions] == ["cancelled"]
        assert len(completions[0].result.tokens) == 2
        assert engine.stats.cancelled == 1


class TestEmptyPrompts:
    def test_request_rejects_empty_prompt(self):
        with pytest.raises(ValueError, match="BOS"):
            Request(prompt=(), max_new_tokens=2)

    def test_generator_names_the_offending_request(self, tiny_model):
        generator = BatchedGenerator(tiny_model)
        with pytest.raises(ValueError, match=r"prompts\[1\]"):
            generator.generate([[1, 2], []], 2)

    def test_prefill_rejects_zero_length_with_clear_error(self, tiny_model):
        with pytest.raises(ValueError, match="BOS"):
            tiny_model.prefill(np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="BOS"):
            tiny_model.prefill(np.zeros((2, 0), dtype=np.int64))

    def test_bos_only_prompt_flows_through_serving(self, tiny_model):
        """A whitespace-only input encoded as BOS-only decodes normally."""
        from repro.mamba.tokenizer import ByteTokenizer

        tokenizer = ByteTokenizer()
        prompt = tokenizer.encode("")  # add_bos=True -> [bos]
        assert prompt == [tokenizer.bos_id]
        engine = InferenceEngine(tiny_model, max_batch_size=1)
        engine.submit(Request(prompt=tuple(prompt), max_new_tokens=3))
        completions = engine.run()
        assert len(completions[0].result.tokens) == 3
        ref = greedy_decode(tiny_model, prompt, 3)
        assert completions[0].result.tokens == ref.tokens
        batched = BatchedGenerator(tiny_model).generate([prompt], 3)
        assert batched[0].tokens == ref.tokens


def _load_check_regression():
    path = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegressionGateZeroMetrics:
    def test_speedup_floor_zero_and_negative_committed(self):
        gate = _load_check_regression()
        assert gate.speedup_floor(2.0, 0.30) == pytest.approx(1.4)
        # A committed 0 must not demand fresh > 0 (zero-width ratio band)...
        assert gate.speedup_floor(0.0, 0.30) == -1.0
        # ...and a negative committed value must not tighten via sign flip.
        assert gate.speedup_floor(-0.5, 0.30) == -1.5

    def test_metric_ceiling_zero_and_negative_committed(self):
        gate = _load_check_regression()
        assert gate.metric_ceiling(10.0, 0.30) == pytest.approx(14.0)
        assert gate.metric_ceiling(0.0, 0.30) == 1.0  # absolute fallback only
        # Negative committed: the band widens away from zero, never inverts.
        assert gate.metric_ceiling(-2.0, 0.30) == pytest.approx(-2.0 + 0.6 + 1.0)

    def test_zero_committed_speedup_cannot_fail_a_clean_run(self):
        gate = _load_check_regression()
        committed = {"speedup": {"decode": {"1": 0.0}}}
        fresh = {"speedup": {"decode": {"1": 0.0}}}
        failures, compared = gate.compare_speedups("x.json", committed, fresh, 0.30)
        assert failures == []
        assert compared == 1

    def test_zero_committed_metric_cannot_fail_a_clean_run(self):
        gate = _load_check_regression()
        stall = "decode_stall_iterations"
        committed = {
            "modes": {"smoke": {"policies": {"paged": {"metrics": {stall: 0.0}}}}}
        }
        fresh = {
            "modes": {"smoke": {"policies": {"paged": {"metrics": {stall: 0.0}}}}}
        }
        failures, compared = gate.compare_scheduler_metrics(
            "x.json", committed, fresh, 0.30
        )
        assert failures == []
        assert compared == 1
        # A genuine regression past the absolute slack still fails.
        bad = {
            "modes": {"smoke": {"policies": {"paged": {"metrics": {stall: 5.0}}}}}
        }
        failures, _ = gate.compare_scheduler_metrics("x.json", committed, bad, 0.30)
        assert failures

    def test_zero_compared_points_fails_loudly(self, tmp_path):
        gate = _load_check_regression()
        committed = tmp_path / "BENCH_x.json"
        fresh = tmp_path / "fresh.json"
        committed.write_text(
            '{"modes": {"smoke": {"policies": {"fifo": {"metrics": {"a": 1.0}}}}}}'
        )
        # Same file name exists on both sides but the mode was renamed away:
        # the pair must fail instead of silently disarming the gate.
        fresh.write_text(
            '{"modes": {"smoke2": {"policies": {"fifo": {"metrics": {"a": 1.0}}}}}}'
        )
        failures = gate.check_pair(committed, fresh, 0.30)
        assert any("zero metric points" in f for f in failures)
        # A shape that does overlap compares cleanly.
        fresh.write_text(committed.read_text())
        assert gate.check_pair(committed, fresh, 0.30) == []
