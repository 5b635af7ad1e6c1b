"""Models, seeded inputs and reference outputs of the benchmark workloads.

Everything a workload feeds the program is derived from the ``--seed``
argument here; the model itself is fixed (``InitConfig(seed=0)``), so one
seed always names the same inputs and the same expected outputs.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    """Put the checkout's ``src/`` on the import path, or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}; nothing to measure\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


require_source()
#: One BLAS thread in every process the benchmark runs: the box's other CPU
#: then stays free for the load generator instead of a spinning BLAS worker.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from repro.mamba import InitConfig, Mamba2Config, Mamba2Model  # noqa: E402
from repro.mamba.generation import greedy_decode, sample_decode  # noqa: E402
from repro.quant import QuantConfig, QuantMethod, SSMQuantConfig, quantize_model  # noqa: E402
from repro.serving import InferenceEngine, Request, TrafficShape, make_traffic  # noqa: E402

#: The paper-scale SSM shape of ``benchmarks/bench_int_decode.py``: the
#: recurrent state (d_state 128, headdim 64) is the largest per-step tensor.
BENCH_CONFIG = Mamba2Config(
    name="int-decode-bench",
    d_model=256,
    n_layer=2,
    vocab_size=512,
    d_state=128,
    headdim=64,
)

#: Decode: one full 8-slot batch, short prompts, equal long outputs.
DECODE_SLOTS = 8
DECODE_PROMPT_TOKENS = 16
DECODE_OUTPUT_TOKENS = 32

#: Prefill: a 4-slot engine, ~512-token prompts drawn from a small pool.
#: Two output tokens, not one: the second is the only decode step, so the
#: time-per-output-token metric exists on this workload too.
PREFILL_SLOTS = 4
PREFILL_PROMPT_RANGE = (448, 576)
PREFILL_POOL = 8
PREFILL_OUTPUT_TOKENS = 2

#: Live serving: 8-slot FIFO server, 2 closed-loop streaming clients, the
#: default ``make_traffic`` mix without deadlines (wall-clock expiry would
#: make failures timing-dependent).  The clients walk a stratified order
#: (:func:`stratified`) of a large traffic draw; the order wraps around
#: after ``SERVE_ORDER`` requests.
SERVE_SLOTS = 8
SERVE_CLIENTS = 2
SERVE_DRAW = 4000
SERVE_ORDER = 1000
SERVE_SHAPE = TrafficShape(deadline_fraction=0.0)

#: workload -> linear-layer precision, and its engine's slot count.
WORKLOADS = {
    "decode_b8_w8a8": "w8a8",
    "prefill_long_w4a4": "w4a4",
    "serve_live_w4a4": "w4a4",
}
SLOTS = {
    "decode_b8_w8a8": DECODE_SLOTS,
    "prefill_long_w4a4": PREFILL_SLOTS,
    "serve_live_w4a4": SERVE_SLOTS,
}

#: Warm-up request run once by every engine before it is timed.
WARMUP_REQUEST = Request(prompt=(1, 2, 3, 4, 5, 6, 7, 8), max_new_tokens=4)

#: ``EngineStats`` counters behind the engine's per-layer metrics.
ENGINE_COUNTERS = ("decode_calls", "decode_call_rows", "decoded_tokens")


def engine_counters(engine: InferenceEngine) -> Dict[str, int]:
    return {name: getattr(engine.stats, name) for name in ENGINE_COUNTERS}


def build_model(precision: str) -> Mamba2Model:
    """The lightmamba* model with the integer-resident SSM state.

    The single place that names the quantized execution mode, so a rename
    of that API touches one line.
    """
    make = {"w8a8": QuantConfig.w8a8, "w4a4": QuantConfig.w4a4}[precision]
    base = Mamba2Model.from_config(BENCH_CONFIG, InitConfig(seed=0))
    ssm = SSMQuantConfig(persistent_state=True)
    return quantize_model(base, make(QuantMethod.LIGHTMAMBA_STAR, ssm=ssm))


def warm_engine(workload: str, model: Mamba2Model) -> InferenceEngine:
    """The workload's engine over ``model``, after one warm-up request."""
    engine = InferenceEngine(model, max_batch_size=SLOTS[workload])
    engine.run([WARMUP_REQUEST])
    return engine


@dataclass(frozen=True)
class Item:
    """One request of a workload: what is sent and when the client hangs up."""

    request: Request
    priority: int = 0
    disconnect_after: Optional[int] = None


def make_items(workload: str, seed: int) -> List[Item]:
    """The workload's request pool, a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    vocab = BENCH_CONFIG.vocab_size
    if workload == "decode_b8_w8a8":
        return [
            Item(Request(prompt=tuple(rng.integers(0, vocab, DECODE_PROMPT_TOKENS)),
                         max_new_tokens=DECODE_OUTPUT_TOKENS))
            for _ in range(DECODE_SLOTS)
        ]
    if workload == "prefill_long_w4a4":
        low, high = PREFILL_PROMPT_RANGE
        return [
            Item(Request(prompt=tuple(rng.integers(0, vocab, int(rng.integers(low, high + 1)))),
                         max_new_tokens=PREFILL_OUTPUT_TOKENS))
            for _ in range(PREFILL_POOL)
        ]
    if workload == "serve_live_w4a4":
        draw = [
            Item(load.request, load.priority, load.disconnect_after)
            for load in make_traffic(SERVE_SHAPE, SERVE_DRAW, vocab, seed=seed)
        ]
        return stratified(draw, SERVE_ORDER)
    raise ValueError(f"unknown workload {workload!r}")


def _radical_inverse(index: int, base: int) -> float:
    scale, value = 1.0, 0.0
    while index:
        scale /= base
        value += scale * (index % base)
        index //= base
    return value


def stratified(draw: List[Item], count: int) -> List[Item]:
    """``count`` items of ``draw`` in an order whose every prefix is balanced.

    A run serves only the first hundred or so requests, and the lengths are
    heavy-tailed, so the raw order would make throughput and latency depend
    on which long requests a seed happens to put early.  Instead each
    position takes the unused item nearest to the next point of a 2-D
    Halton sequence over (prompt-length rank, streamed-length rank), so any
    prefix is a stratified sample of the whole draw.  The items, and so the
    mix, are unchanged; only the order in which they are sent is chosen.
    """
    streamed = [item.disconnect_after or item.request.max_new_tokens for item in draw]
    prompt = [len(item.request.prompt) for item in draw]
    points = np.column_stack([
        np.argsort(np.argsort(prompt, kind="stable"), kind="stable"),
        np.argsort(np.argsort(streamed, kind="stable"), kind="stable"),
    ]) / len(draw)
    taken = np.zeros(len(draw), dtype=bool)
    order = []
    for position in range(1, count + 1):
        target = (_radical_inverse(position, 2), _radical_inverse(position, 3))
        distance = ((points - target) ** 2).sum(axis=1)
        distance[taken] = np.inf
        chosen = int(np.argmin(distance))
        taken[chosen] = True
        order.append(draw[chosen])
    return order


def reference_tokens(model: Mamba2Model, request: Request) -> Tuple[int, ...]:
    """The single-sequence decoder's output for one request."""
    if request.temperature is None:
        result = greedy_decode(
            model, list(request.prompt), request.max_new_tokens,
            stop_token=request.stop_token,
        )
    else:
        result = sample_decode(
            model, list(request.prompt), request.max_new_tokens,
            temperature=request.temperature, top_k=request.top_k,
            seed=request.seed, stop_token=request.stop_token,
        )
    return tuple(result.tokens)


def references(model: Mamba2Model, items: List[Item]) -> Dict[Request, Tuple[int, ...]]:
    """Reference outputs for every distinct request of the pool."""
    refs: Dict[Request, Tuple[int, ...]] = {}
    for item in items:
        if item.request not in refs:
            refs[item.request] = reference_tokens(model, item.request)
    return refs


def check_tokens(
    got: Tuple[int, ...], expected: Tuple[int, ...], disconnected: bool
) -> bool:
    """Exact match, or an exact prefix of the reference for a hang-up."""
    if disconnected:
        return 0 < len(got) <= len(expected) and got == expected[: len(got)]
    return got == expected
