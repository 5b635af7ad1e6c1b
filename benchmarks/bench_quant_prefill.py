"""Quantized prefill throughput: chunk-parallel scan vs token-by-token.

PR 2 made the chunked SSD scan the default prefill engine, but the quantized
(LightMamba*) models kept stepping token by token because their custom
``ssm_impl`` had no chunk-parallel form.  This benchmark measures what the
quantized SSD scan (:meth:`repro.quant.QuantizedSSMStep.prefill_scan`) buys back, at
two granularities on the prefill-bound bench shapes (``d_state = 128``,
``headdim = 64``):

- **scan kernel** -- ``prefill_scan`` against the sequential per-token
  quantized stepping (its own ``chunk_size=1`` oracle path) on one layer's
  SSM inputs;
- **end-to-end prefill** -- ``model.prefill()`` (default chunked) against
  ``model.prefill(scan_impl="sequential")`` for the lightmamba* W8A8 and
  W4A4 configurations, which dilutes the kernel win with the work both paths
  share (projections, convolution, norms, activation-quantization hooks).

Results are printed as a table, saved to ``benchmarks/output/`` and recorded
in the repo-root ``BENCH_quant_prefill.json`` -- the canonical record of the
quantized-prefill performance trajectory.

Run directly::

    PYTHONPATH=src python benchmarks/bench_quant_prefill.py [--smoke]

or through the benchmark harness
(``pytest benchmarks/bench_quant_prefill.py``).
"""

import argparse
import json
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.bench import format_series
from repro.mamba import InitConfig, Mamba2Config, Mamba2Model
from repro.mamba.ssm import SSMParams
from repro.quant import QuantConfig, QuantMethod, QuantizedSSMStep, quantize_model

#: Prefill-bound benchmark configuration with the published-scale SSM state
#: dims; two layers keep the token-by-token quantized baseline affordable.
QUANT_PREFILL_BENCH_CONFIG = Mamba2Config(
    name="quant-prefill-bench",
    d_model=256,
    n_layer=2,
    vocab_size=512,
    d_state=128,
    headdim=64,
    chunk_size=32,
)

#: The quantized configurations under test (the paper's lightmamba* points).
QUANT_CONFIGS = (
    ("W8A8", lambda: QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR)),
    ("W4A4", lambda: QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR)),
)


def _best_of(fn, repeats):
    """Fastest wall-clock of ``repeats`` runs (damps scheduler noise).

    One untimed warmup call precedes the timed runs: allocator and BLAS
    thread-pool state otherwise make the first-measured configuration look
    slower, which skews speedup ratios between runs of different shapes
    (e.g. the CI smoke run vs the committed full run).
    """
    fn()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _scan_inputs(config: Mamba2Config, seq_len: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    h, p, n = config.nheads, config.headdim, config.d_state
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=h)),
        D=rng.normal(1.0, 0.1, size=h),
        dt_bias=rng.normal(size=h),
    )
    x = rng.normal(size=(seq_len, h, p))
    B = rng.normal(size=(seq_len, n))
    C = rng.normal(size=(seq_len, n))
    dt = rng.normal(size=(seq_len, h))
    return params, x, B, C, dt


def bench_quant_prefill(
    seq_lens=(128, 256, 512),
    config: Mamba2Config = QUANT_PREFILL_BENCH_CONFIG,
    chunk_size: int | None = None,
    repeats: int = 2,
):
    """Measure token-by-token vs chunk-parallel quantized prefill tokens/sec.

    Returns a dict with a ``series`` entry per measurement (tokens/sec keyed
    by sequence length) and a ``speedup`` entry per granularity (chunked over
    sequential at equal sequence length).
    """
    chunk = chunk_size if chunk_size is not None else config.chunk_size
    model = Mamba2Model.from_config(config, InitConfig(seed=0))
    rng = np.random.default_rng(0)

    series: dict = {}
    speedup: dict = {}

    # Scan kernel: the quantized SSD chunk body vs its chunk_size=1 oracle.
    scan = QuantizedSSMStep()
    kernel_seq, kernel_chunk = {}, {}
    for seq_len in seq_lens:
        params, x, B, C, dt = _scan_inputs(config, seq_len)
        kernel_seq[seq_len] = seq_len / _best_of(
            partial(scan.prefill_scan, params, x, B, C, dt, chunk_size=1), repeats
        )
        kernel_chunk[seq_len] = seq_len / _best_of(
            partial(scan.prefill_scan, params, x, B, C, dt, chunk_size=chunk), repeats
        )
    series["scan kernel token-by-token (tok/s)"] = kernel_seq
    series["scan kernel chunked (tok/s)"] = kernel_chunk
    speedup["scan kernel"] = {t: kernel_chunk[t] / kernel_seq[t] for t in seq_lens}

    # End-to-end quantized prefill per lightmamba* configuration.
    for label, make_config in QUANT_CONFIGS:
        quantized = quantize_model(model, make_config())
        prefill_seq, prefill_chunk = {}, {}
        for seq_len in seq_lens:
            tokens = rng.integers(0, config.vocab_size, size=seq_len)
            prefill_seq[seq_len] = seq_len / _best_of(
                partial(quantized.prefill, tokens, scan_impl="sequential"), repeats
            )
            prefill_chunk[seq_len] = seq_len / _best_of(
                partial(quantized.prefill, tokens, scan_impl="chunked", chunk_size=chunk),
                repeats,
            )
        series[f"prefill {label} token-by-token (tok/s)"] = prefill_seq
        series[f"prefill {label} chunked (tok/s)"] = prefill_chunk
        speedup[f"prefill {label}"] = {
            t: prefill_chunk[t] / prefill_seq[t] for t in seq_lens
        }

    return {
        "config": config.name,
        "chunk_size": chunk,
        "series": series,
        "speedup": speedup,
    }


def format_results(results) -> str:
    series = dict(results["series"])
    for name, speedups in results["speedup"].items():
        series[f"{name} speedup (x)"] = speedups
    return format_series(
        series,
        x_label="seq_len",
        title=(
            "Quantized prefill: chunk-parallel scan vs token-by-token "
            f"({results['config']}, chunk_size={results['chunk_size']})"
        ),
    )


#: Measurement shape of the CI smoke runs; the committed JSON carries a
#: smoke-shaped ``smoke_speedup`` section so the regression gate compares
#: like-shaped runs (warmup order biases the token-by-token baseline).
SMOKE_SEQ_LENS = (64, 128)
SMOKE_REPEATS = 1


def write_json(results, path, smoke_speedup=None) -> None:
    path = Path(path)
    payload = {
        "benchmark": "quant_prefill",
        "config": results["config"],
        "chunk_size": results["chunk_size"],
        "series": {
            name: {str(k): v for k, v in points.items()}
            for name, points in results["series"].items()
        },
        "speedup": {
            name: {str(k): v for k, v in points.items()}
            for name, points in results["speedup"].items()
        },
    }
    if smoke_speedup is not None:
        payload["smoke_speedup"] = {
            name: {str(k): v for k, v in points.items()}
            for name, points in smoke_speedup.items()
        }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def test_quant_prefill(benchmark, save_output):
    results = benchmark.pedantic(bench_quant_prefill, rounds=1, iterations=1)
    text = format_results(results)
    save_output("quant_prefill", text)
    smoke = bench_quant_prefill(seq_lens=SMOKE_SEQ_LENS, repeats=SMOKE_REPEATS)
    write_json(
        results,
        Path(__file__).parent.parent / "BENCH_quant_prefill.json",
        smoke_speedup=smoke["speedup"],
    )

    # Acceptance bar: the quantized chunk-parallel prefill must deliver at
    # least 3x over the token-by-token baseline at the longest measured
    # prompt, for both lightmamba* bit-width configurations.
    longest = max(results["speedup"]["scan kernel"])
    assert longest >= 512
    for label, _ in QUANT_CONFIGS:
        assert results["speedup"][f"prefill {label}"][longest] >= 3.0, results["speedup"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: short sequences, single repeat, no acceptance gate",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, help="chunk length of the chunked scan"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent.parent / "BENCH_quant_prefill.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    if args.smoke:
        results = bench_quant_prefill(
            seq_lens=SMOKE_SEQ_LENS, chunk_size=args.chunk_size, repeats=SMOKE_REPEATS
        )
        smoke_speedup = results["speedup"]
    else:
        results = bench_quant_prefill(chunk_size=args.chunk_size)
        smoke_speedup = bench_quant_prefill(
            seq_lens=SMOKE_SEQ_LENS, chunk_size=args.chunk_size, repeats=SMOKE_REPEATS
        )["speedup"]
    print(format_results(results))
    # Smoke runs keep their artifacts next to their JSON (benchmarks/output/
    # fresh/ in CI) so they never clobber the committed full-run records.
    out_dir = args.output.parent if args.smoke else Path(__file__).parent / "output"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "quant_prefill.txt").write_text(format_results(results) + "\n")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_json(results, args.output, smoke_speedup=smoke_speedup)
    print(f"[saved to {args.output}]")
