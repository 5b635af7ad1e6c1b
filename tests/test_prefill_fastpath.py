"""Tests of the chunked prefill fast path through model, eval and serving.

The chunked SSD scan is the default prefill engine (``config.scan_impl ==
"chunked"``); the sequential recurrence stays available as the numerical
oracle.  These tests pin the agreement between the two across every layer
that inherits the fast path: ``forward``, ``prefill`` (logits *and* cache,
including the conv window), padded ragged prefill, segmented prefill
continuation, the padded ragged :class:`BatchedGenerator` prefill and the
engine's chunked-prefill admission mode.
"""

import numpy as np
import pytest

from repro.mamba import InitConfig, Mamba2Model, get_preset, greedy_decode
from repro.mamba.cache import InferenceCache
from repro.serving import BatchedGenerator, InferenceEngine, Request


def _caches_allclose(a: InferenceCache, b: InferenceCache, atol=1e-10):
    for layer_a, layer_b in zip(a.layers, b.layers):
        np.testing.assert_allclose(layer_a.conv_state, layer_b.conv_state, atol=atol)
        np.testing.assert_allclose(layer_a.ssm_state, layer_b.ssm_state, atol=atol)


class TestScanImplSwitch:
    def test_default_is_chunked(self, tiny_model):
        assert tiny_model.config.scan_impl == "chunked"
        assert tiny_model.config.chunk_size >= 1

    @pytest.mark.parametrize("chunk_size", [1, 4, 64, 1000])
    def test_prefill_chunked_matches_sequential(self, tiny_model, chunk_size):
        """Logits and full cache state (conv window included) agree to 1e-10."""
        rng = np.random.default_rng(0)
        prompt = rng.integers(0, tiny_model.config.vocab_size, size=19)
        logits_seq, cache_seq = tiny_model.prefill(prompt, scan_impl="sequential")
        logits_chunk, cache_chunk = tiny_model.prefill(
            prompt, scan_impl="chunked", chunk_size=chunk_size
        )
        np.testing.assert_allclose(logits_chunk, logits_seq, atol=1e-10)
        _caches_allclose(cache_chunk, cache_seq)

    def test_forward_chunked_matches_sequential(self, tiny_model):
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, tiny_model.config.vocab_size, size=33)
        logits_seq = tiny_model.forward(tokens, scan_impl="sequential")
        logits_chunk = tiny_model.forward(tokens, scan_impl="chunked", chunk_size=8)
        np.testing.assert_allclose(logits_chunk, logits_seq, atol=1e-10)

    def test_config_scan_impl_sequential_is_honored(self):
        config = get_preset("mamba2-tiny").with_overrides(scan_impl="sequential")
        model = Mamba2Model.from_config(config, InitConfig(seed=0))
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, config.vocab_size, size=9)
        default = model.forward(tokens)
        explicit = model.forward(tokens, scan_impl="sequential")
        np.testing.assert_array_equal(default, explicit)

    def test_invalid_scan_impl_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.arange(4), scan_impl="nope")
        with pytest.raises(ValueError):
            get_preset("mamba2-tiny").with_overrides(scan_impl="nope")
        with pytest.raises(ValueError):
            get_preset("mamba2-tiny").with_overrides(chunk_size=0)


class TestRaggedPaddedPrefill:
    @pytest.mark.parametrize("scan_impl", ["chunked", "sequential"])
    def test_matches_per_request_prefill(self, tiny_model, scan_impl):
        """One padded batched prefill == per-request prefills, row for row."""
        rng = np.random.default_rng(3)
        vocab = tiny_model.config.vocab_size
        lens = np.array([5, 12, 1, 9])
        prompts = [rng.integers(0, vocab, size=n) for n in lens]
        padded = np.zeros((len(prompts), int(lens.max())), dtype=np.int64)
        for i, prompt in enumerate(prompts):
            padded[i, : len(prompt)] = prompt
        logits, cache = tiny_model.prefill(padded, seq_lens=lens, scan_impl=scan_impl)
        for i, prompt in enumerate(prompts):
            logits_i, cache_i = tiny_model.prefill(prompt, scan_impl=scan_impl)
            np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
            _caches_allclose(cache.row(i), cache_i)

    def test_pad_tokens_do_not_leak(self, tiny_model):
        """Changing the pad contents must not change any valid row state."""
        rng = np.random.default_rng(4)
        vocab = tiny_model.config.vocab_size
        lens = np.array([3, 8])
        padded = rng.integers(0, vocab, size=(2, 8))
        logits_a, cache_a = tiny_model.prefill(padded, seq_lens=lens)
        noisy = padded.copy()
        noisy[0, 3:] = rng.integers(0, vocab, size=5)  # rewrite row 0's padding
        logits_b, cache_b = tiny_model.prefill(noisy, seq_lens=lens)
        np.testing.assert_allclose(logits_a, logits_b, atol=1e-12)
        _caches_allclose(cache_a, cache_b, atol=1e-12)

    def test_seq_lens_validation(self, tiny_model):
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, tiny_model.config.vocab_size, size=(2, 6))
        with pytest.raises(ValueError):
            tiny_model.prefill(prompts[0], seq_lens=np.array([3]))  # unbatched
        with pytest.raises(ValueError):
            tiny_model.prefill(prompts, seq_lens=np.array([3, 7]))  # too long


class TestPrefillContinuation:
    @pytest.mark.parametrize("split", [1, 3, 11])
    def test_segmented_prefill_equals_one_shot(self, tiny_model, split):
        """prefill(a) then prefill(b, cache=...) == prefill(a + b).

        Exercises the conv-window carry across the segment boundary (splits
        smaller than d_conv included).
        """
        rng = np.random.default_rng(6)
        prompt = rng.integers(0, tiny_model.config.vocab_size, size=17)
        ref_logits, ref_cache = tiny_model.prefill(prompt)
        cache = InferenceCache.zeros(tiny_model.config)
        logits = None
        for start in range(0, len(prompt), split):
            logits, _ = tiny_model.prefill(prompt[start : start + split], cache=cache)
        np.testing.assert_allclose(logits, ref_logits, atol=1e-10)
        _caches_allclose(cache, ref_cache)

    def test_cache_batch_mismatch_rejected(self, tiny_model):
        cache = InferenceCache.zeros(tiny_model.config, batch_size=2)
        with pytest.raises(ValueError):
            tiny_model.prefill(np.arange(4), cache=cache)


class TestServingFastPath:
    def test_ragged_generate_uses_one_padded_prefill(self, tiny_model):
        """Ragged prompts must prefill in a single batched model call."""
        model = tiny_model.copy()
        calls = []
        original = model.prefill

        def counting_prefill(tokens, **kwargs):
            calls.append(np.asarray(tokens).shape)
            return original(tokens, **kwargs)

        model.prefill = counting_prefill
        rng = np.random.default_rng(7)
        prompts = [rng.integers(0, model.config.vocab_size, size=n) for n in (5, 9, 5, 7)]
        outs = BatchedGenerator(model).generate(prompts, 3)
        assert calls == [(4, 9)]
        for prompt, out in zip(prompts, outs):
            ref = greedy_decode(tiny_model, prompt, 3)
            assert out.tokens == ref.tokens
            np.testing.assert_allclose(out.logprobs, ref.logprobs, atol=1e-10)

    def test_quantized_ragged_generate_matches_solo(self, tiny_model):
        """The padded ragged path must stay exact for quantized models.

        Per-group / per-token quantization grids are row-independent, so the
        padded batch reproduces each request bit-for-bit.
        """
        from repro.quant import QuantConfig, QuantMethod, quantize_model

        quantized = quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))
        rng = np.random.default_rng(8)
        prompts = [rng.integers(0, quantized.config.vocab_size, size=n) for n in (4, 7, 2)]
        outs = BatchedGenerator(quantized).generate(prompts, 4)
        for prompt, out in zip(prompts, outs):
            ref = greedy_decode(quantized, prompt, 4)
            assert out.tokens == ref.tokens
            np.testing.assert_allclose(out.logprobs, ref.logprobs, atol=1e-10)

    @pytest.mark.parametrize("prefill_chunk_tokens", [1, 3, 7, None])
    def test_engine_chunked_admission_matches_solo(self, tiny_model, prefill_chunk_tokens):
        rng = np.random.default_rng(9)
        vocab = tiny_model.config.vocab_size
        requests = [
            Request(prompt=tuple(rng.integers(0, vocab, size=s)), max_new_tokens=b)
            for s, b in zip((23, 5, 40, 9), (4, 6, 3, 5))
        ]
        engine = InferenceEngine(
            tiny_model, max_batch_size=2, prefill_chunk_tokens=prefill_chunk_tokens
        )
        completions = engine.run(requests)
        assert [c.request_id for c in completions] == list(range(len(requests)))
        for request, completion in zip(requests, completions):
            ref = greedy_decode(tiny_model, request.prompt, request.max_new_tokens)
            assert completion.result.tokens == ref.tokens
            np.testing.assert_allclose(completion.result.logprobs, ref.logprobs, atol=1e-10)

    def test_engine_bounds_prompt_tokens_per_step(self, tiny_model):
        """A long prompt must spread across iterations, not stall decodes."""
        rng = np.random.default_rng(10)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(tiny_model, max_batch_size=2, prefill_chunk_tokens=4)
        short = Request(prompt=tuple(rng.integers(0, vocab, size=3)), max_new_tokens=8)
        long = Request(prompt=tuple(rng.integers(0, vocab, size=30)), max_new_tokens=2)
        engine.submit(short)
        engine.step()
        assert engine.num_active == 1  # short admitted (3 <= 4 budget tokens)
        engine.submit(long)
        decoded_before = engine.stats.decoded_tokens
        engine.step()
        # The long prompt is mid-prefill, yet the short request kept decoding.
        assert engine.num_prefilling == 1
        assert engine.stats.decoded_tokens > decoded_before
        completions = []
        while engine.has_work:
            completions.extend(engine.step())
        assert engine.stats.prefilled_tokens == 33
        # ceil(30 / 4) chunks for the long prompt + 1 for the short one.
        assert engine.stats.prefill_calls == 9
        for request, completion in zip(
            (short, long), sorted(completions, key=lambda c: c.request_id)
        ):
            ref = greedy_decode(tiny_model, request.prompt, request.max_new_tokens)
            assert completion.result.tokens == ref.tokens

    def test_engine_validation(self, tiny_model):
        with pytest.raises(ValueError):
            InferenceEngine(tiny_model, prefill_chunk_tokens=0)


class TestQuantizedBatchedStepping:
    def test_batched_prefill_matches_per_row(self, tiny_model):
        """The batch-vectorized quantized token loop must be exact per row."""
        from repro.quant import QuantConfig, QuantMethod, quantize_model

        quantized = quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))
        rng = np.random.default_rng(11)
        prompts = rng.integers(0, quantized.config.vocab_size, size=(3, 8))
        logits, cache = quantized.prefill(prompts)
        for i in range(3):
            logits_i, cache_i = quantized.prefill(prompts[i])
            np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
            _caches_allclose(cache.row(i), cache_i)

    def test_ragged_quantized_prefill_matches_per_row(self, tiny_model):
        from repro.quant import QuantConfig, QuantMethod, quantize_model

        quantized = quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))
        rng = np.random.default_rng(12)
        vocab = quantized.config.vocab_size
        lens = np.array([2, 6, 4])
        padded = rng.integers(0, vocab, size=(3, 6))
        logits, cache = quantized.prefill(padded, seq_lens=lens)
        for i, n in enumerate(lens):
            logits_i, cache_i = quantized.prefill(padded[i, :n])
            np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
            _caches_allclose(cache.row(i), cache_i)
