"""The repository benchmark: run one workload, check it, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload decode_b8_w8a8 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same work untraced and traced, and reports the per-layer metrics
plus the tracing overhead.  Every run checks each output against the
single-sequence reference decoders (computed once, outside the timed
region), prints a human-readable report with the machine fingerprint, writes
that report under ``perfbench/out/``, and prints one JSON result object as
its last line.  Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import itertools
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import workloads  # first: puts the checkout's src/ on the import path
import numpy as np

import tracing
from repro.hardware import AcceleratorConfig, LightMambaAccelerator
from repro.hardware.platforms import U280

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
HOST = HERE / "host.py"
#: Fresh model-host processes timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Seconds a child process may take to report ready or to exit.
CHILD_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (>= p50)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def pct_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


@dataclass
class Outcome:
    """What one timed region did, from the caller's side."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    delivered_tokens: int = 0
    ttft: List[float] = field(default_factory=list)
    tpot: List[float] = field(default_factory=list)
    start_latency: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    def rate(self, name: str) -> float:
        return self.counts[name] / self.wall_s

    def latency_metrics(self) -> Dict[str, float]:
        metrics = {}
        for name, samples in (("ttft", self.ttft), ("tpot", self.tpot)):
            metrics[f"{name}_p50_ms"] = pct_ms(samples, 50)
            metrics[f"{name}_tail_ms"] = pct_ms(samples, tail_percentile(len(samples)))
        return metrics

    def tails(self) -> Dict[str, dict]:
        """The percentile and sample count behind each ``*_tail_ms``."""
        return {
            f"{name}_tail_ms": {"percentile": tail_percentile(len(samples)),
                                "samples": len(samples)}
            for name, samples in (("ttft", self.ttft), ("tpot", self.tpot))
        }


def add_stream(outcome: Outcome, sent: float, token_times: List[float]) -> None:
    if token_times:
        outcome.ttft.append(token_times[0] - sent)
    if len(token_times) >= 2:
        outcome.tpot.append((token_times[-1] - token_times[0]) / (len(token_times) - 1))


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc`` (unbuffered pipe), or raise on timeout/EOF."""
    fd = proc.stdout.fileno()
    data = b""
    deadline = time.monotonic() + timeout
    while not data.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError("model host did not report in time")
        chunk = os.read(fd, 1)
        if not chunk:
            raise RuntimeError(f"model host exited early (code {proc.wait()})")
        data += chunk
    return data.decode().strip()


def _spawn(workload: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HOST), "--workload", workload, *extra],
        cwd=workloads.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
    )


def _finish(proc: subprocess.Popen) -> dict:
    """Close the host's stdin, wait for it, return its final JSON line."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"model host exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def probe_setup(workload: str) -> float:
    """Seconds from spawning a model host to its ``ready`` line."""
    start = time.perf_counter()
    proc = _spawn(workload, "--probe")
    try:
        if _read_line(proc, CHILD_TIMEOUT_S) != "ready":
            raise RuntimeError("model host sent an unexpected line")
        return time.perf_counter() - start
    finally:
        _finish(proc)


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except ConnectionError:
        return False
    finally:
        conn.close()


def start_server(workload: str, trace_path: Optional[Path] = None):
    """Spawn a serving host; returns (process, port, seconds until /healthz answers)."""
    start = time.perf_counter()
    proc = _spawn(workload, *(["--trace", str(trace_path)] if trace_path else []))
    try:
        line = _read_line(proc, CHILD_TIMEOUT_S)
        if not line.startswith("listening "):
            raise RuntimeError(f"model host sent {line!r}")
        port = int(line.split()[1])
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while not _healthy(port):
            if time.monotonic() > deadline:
                raise TimeoutError("/healthz never answered")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, port, time.perf_counter() - start


# ----------------------------------------------------------------------
# Offline workloads: one in-process engine, rounds of full batches
# ----------------------------------------------------------------------
@dataclass
class Round:
    start: float
    wall: float
    completions: list
    stamps: Dict[int, List[float]]


def run_rounds(engine, items, *, seconds: float = 0.0, rounds: Optional[int] = None,
               first: int = 0) -> List[Round]:
    """Fill every slot, drain, repeat: for ``seconds``, or ``rounds`` times.

    Round ``k`` sends pool items ``k * slots ...`` (wrapping), counting from
    round ``first``.
    """
    slots = engine.max_batch_size
    deadline = time.perf_counter() + seconds
    done: List[Round] = []
    for index in itertools.count(first * slots, slots):
        batch = [items[(index + j) % len(items)].request for j in range(slots)]
        stamps: Dict[int, List[float]] = {}

        def on_token(request_id, token, logprob, stamps=stamps):
            stamps.setdefault(request_id, []).append(time.perf_counter())

        start = time.perf_counter()
        completions = engine.run(batch, on_token=on_token)
        done.append(Round(start, time.perf_counter() - start, completions, stamps))
        if (len(done) >= rounds) if rounds is not None else time.perf_counter() >= deadline:
            return done


def check_rounds(rounds: List[Round], refs) -> Outcome:
    outcome = Outcome()
    output = prompt = ok = 0
    for rnd in rounds:
        for completion in rnd.completions:
            tokens = tuple(completion.result.tokens)
            times = rnd.stamps.get(completion.request_id, [])
            good = (
                completion.finish_reason in ("length", "stop")
                and len(times) == len(tokens)
                and workloads.check_tokens(tokens, refs[completion.request], False)
            )
            outcome.attempted += 1
            outcome.failed += not good
            ok += good
            output += len(tokens)
            prompt += len(completion.request.prompt)
            add_stream(outcome, rnd.start, times)
        outcome.wall_s += rnd.wall
    outcome.delivered_tokens = output
    outcome.counts = {"output_tok_s": output, "prompt_tok_s": prompt, "req_s": ok}
    return outcome


# ----------------------------------------------------------------------
# Live serving: a server process and a closed-loop streaming client
# ----------------------------------------------------------------------
@dataclass
class Stream:
    index: int
    client: int
    item: workloads.Item
    sent: float = 0.0
    ended: float = 0.0
    status: int = 0
    request_id: Optional[int] = None
    started: Optional[float] = None
    times: List[float] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    done: Optional[dict] = None
    disconnected: bool = False
    error: Optional[str] = None


def _http_request(item: workloads.Item, port: int) -> bytes:
    request = item.request
    payload = {"prompt": list(request.prompt), "max_new_tokens": request.max_new_tokens,
               "stream": True}
    if request.temperature is not None:
        payload.update(temperature=request.temperature, top_k=request.top_k, seed=request.seed)
    body = json.dumps(payload).encode()
    head = (
        f"POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"X-Priority: {item.priority}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _stream(port: int, stream: Stream) -> None:
    """Send one request and read its SSE stream, hanging up where scheduled."""
    cut = stream.item.disconnect_after
    stream.sent = time.perf_counter()
    writer = None
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_http_request(stream.item, port))
        await writer.drain()
        status_line = await reader.readline()
        stream.status = int(status_line.split()[1]) if status_line else 0
        while (await reader.readline()).strip():
            pass
        event, data = None, None
        while stream.status == 200:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if line.startswith(b"event:"):
                event = line[6:].strip().decode()
            elif line.startswith(b"data:"):
                data = json.loads(line[5:])
            elif not line and event is not None:
                now = time.perf_counter()
                if event == "start":
                    stream.started = now
                    stream.request_id = data["request_id"]
                elif event == "token":
                    stream.times.append(now)
                    stream.tokens.append(data["token"])
                    if cut is not None and len(stream.tokens) == cut:
                        stream.disconnected = True
                        break
                elif event == "done":
                    stream.done = data
                    break
                event = None
    except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
        stream.error = repr(exc)
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        stream.ended = time.perf_counter()


async def closed_loop(port: int, items, *, seconds: float = 0.0, limit: Optional[int] = None):
    """Each client sends its next request when its stream ends.

    Runs until ``seconds`` have passed (streams in flight then finish) or
    until ``limit`` requests were sent.  Returns (streams, wall seconds).
    """
    counter = itertools.count()
    streams: List[Stream] = []
    start = time.perf_counter()
    stop_at = start + seconds

    async def client(k: int) -> None:
        while True:
            index = next(counter)
            if (index >= limit) if limit is not None else time.perf_counter() >= stop_at:
                return
            stream = Stream(index=index, client=k, item=items[index % len(items)])
            streams.append(stream)
            await _stream(port, stream)

    await asyncio.gather(*(client(k) for k in range(workloads.SERVE_CLIENTS)))
    return sorted(streams, key=lambda s: s.index), time.perf_counter() - start


def check_streams(streams: List[Stream], refs, wall: float) -> Outcome:
    outcome = Outcome(wall_s=wall)
    ok = prompt = 0
    for stream in streams:
        expected = refs[stream.item.request]
        got = tuple(stream.tokens)
        if stream.disconnected:
            good = len(got) == stream.item.disconnect_after
        else:
            good = (
                stream.done is not None
                and stream.done.get("finish_reason") in ("length", "stop")
                and tuple(stream.done.get("tokens", ())) == got
            )
        good = (
            good and stream.status == 200 and stream.error is None
            and workloads.check_tokens(got, expected, stream.disconnected)
        )
        outcome.attempted += 1
        outcome.failed += not good
        ok += good
        prompt += len(stream.item.request.prompt)
        outcome.delivered_tokens += len(got)
        add_stream(outcome, stream.sent, stream.times)
        if stream.started is not None:
            outcome.start_latency.append(stream.started - stream.sent)
    outcome.counts = {
        "output_tok_s": outcome.delivered_tokens, "prompt_tok_s": prompt, "req_s": ok,
    }
    return outcome


def serve_session(workload, items, *, seconds=0.0, limit=None, trace_path=None, setups=None):
    """One server process, one closed-loop session; returns (streams, wall, host report)."""
    proc, port, setup = start_server(workload, trace_path)
    if setups is not None:
        setups.append(setup)
    try:
        streams, wall = asyncio.run(closed_loop(port, items, seconds=seconds, limit=limit))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return streams, wall, _finish(proc)


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------
#: per-layer share metric -> the span whose self time it measures
SHARE_SPANS = {
    "quant.ssm_step.share": "quant.ssm_step",
    "quant.shift_requantize.share": "quant.shift_requantize",
    "quant.quantize.share": "quant.quantize",
    "quant.requant_exponents.share": "quant.requant_exponents",
    "quant.prefill_scan.share": "quant.prefill_scan",
    "quant.act.share": "quant.act",
    "mamba.conv.share": "mamba.conv",
    "mamba.linears.share": "mamba.linears",
    "mamba.norm.share": "mamba.norm",
    "mamba.gated_norm.share": "mamba.gated_norm",
    "mamba.head.share": "mamba.head",
    "engine.step.share": "engine.step",
    "engine.plan.share": "engine.plan",
    "engine.cache.share": "engine.cache",
    "server.wire.share": "server.loop",
    "server.idle.share": "server.idle",
}


def fpga_model(precision: str) -> Dict[str, float]:
    """Cycle shares of one block and decode tok/s of the same config on U280."""
    bits = int(precision[1])
    accelerator = LightMambaAccelerator(
        AcceleratorConfig(platform=U280, weight_bits=bits, act_bits=bits), workloads.BENCH_CONFIG
    )
    p = accelerator.block_phases()
    cycles = {
        "in_proj": max(p.in_proj_compute, p.in_proj_memory),
        "conv": p.conv_cycles,
        "ssm": p.ssm_total,
        "out_proj": max(p.out_proj_compute, p.out_proj_memory),
        "htu": p.htu_cycles,
    }
    total = sum(cycles.values())
    out = {f"fpga.modeled_share.{k}": v / total for k, v in cycles.items()}
    out["fpga.modeled_tok_s"] = accelerator.tokens_per_second()
    return out


def layer_metrics(profile: tracing.Profile, wall_ns: float) -> Dict[str, float]:
    metrics = {name: profile.self_total(span) / wall_ns for name, span in SHARE_SPANS.items()}
    prefill_tokens = profile.arg_total("mamba.prefill")
    metrics["mamba.prefill.ms_per_ktok"] = (
        profile.total("mamba.prefill") / 1e6 / (prefill_tokens / 1e3) if prefill_tokens else 0.0
    )
    metrics["server.engine_busy_share"] = profile.total("engine.step") / wall_ns
    metrics["trace.accounted_share"] = float(profile.self_ns.sum()) / wall_ns
    return metrics


#: Batch sizes of the ``mamba.step.b<N>_ms`` metrics, and the calls timed per size.
STEP_BATCHES = (8, 1, 2)
STEP_CALLS = 12


def step_times(model, seed: int) -> Dict[str, float]:
    """Median ``model.step`` time per batch size, untraced, on a prefilled batch.

    Timed apart from the workload so every workload reports every batch
    size; the traced workload's own ``mamba.step`` spans are in its Chrome
    trace.
    """
    rng = np.random.default_rng(seed)
    metrics = {}
    for batch in STEP_BATCHES:
        prompts = rng.integers(0, workloads.BENCH_CONFIG.vocab_size, size=(batch, 16))
        logits, cache = model.prefill(prompts)
        times = []
        for call in range(STEP_CALLS + 2):  # two untimed warm-up calls
            tokens = np.argmax(logits, axis=-1)
            start = time.perf_counter()
            logits = model.step(tokens, cache)
            if call >= 2:
                times.append(time.perf_counter() - start)
        metrics[f"mamba.step.b{batch}_ms"] = statistics.median(times) * 1e3
    return metrics


def engine_metrics(counters: Dict[str, float], delivered: int) -> Dict[str, float]:
    calls = counters["decode_calls"]
    return {
        "engine.rows_per_decode_call": counters["decode_call_rows"] / calls if calls else 0.0,
        "engine.useful_token_ratio": delivered / counters["decoded_tokens"],
    }


def trace_offline(workload, model, items, seconds, chrome: List[dict]):
    """Pairs of rounds on the same batch, one traced and one not, in alternating order."""
    engine = workloads.warm_engine(workload, model)
    tracer = tracing.Tracer()
    untraced: List[Round] = []
    traced: List[Round] = []
    counters = dict.fromkeys(workloads.ENGINE_COUNTERS, 0)
    deadline = time.perf_counter() + seconds
    for pair in itertools.count():
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_turn:
                untraced += run_rounds(engine, items, rounds=1, first=pair)
                continue
            before = workloads.engine_counters(engine)
            restore = tracing.instrument(tracer, model, engine)
            try:
                traced += run_rounds(engine, items, rounds=1, first=pair)
            finally:
                restore()
            for name, value in workloads.engine_counters(engine).items():
                counters[name] += value - before[name]
        if time.perf_counter() >= deadline:
            break
    refs = workloads.references(model, items)
    outcome = check_rounds(untraced + traced, refs)
    traced_wall = sum(r.wall for r in traced)
    dump = tracer.dump()
    profile = tracing.Profile(dump)
    metrics = layer_metrics(profile, traced_wall * 1e9)
    metrics.update(engine_metrics(counters, check_rounds(traced, refs).delivered_tokens))
    metrics["trace.overhead_share"] = traced_wall / sum(r.wall for r in untraced) - 1.0
    metrics["server.start_p50_ms"] = statistics.median(profile.calls("engine.submit")) / 1e6
    pid = os.getpid()
    chrome += tracing.chrome_events(dump, pid, process="benchmark (model host)")
    chrome += [
        {"name": "bench.round", "cat": "bench", "ph": "X", "pid": pid, "tid": 1,
         "ts": r.start * 1e6, "dur": r.wall * 1e6, "args": {"requests": len(r.completions)}}
        for r in traced
    ]
    return outcome, metrics


def trace_serve(workload, model, items, seconds, chrome: List[dict]):
    streams, wall, _ = serve_session(workload, items, seconds=seconds / 2)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{os.getpid()}.json"
    traced, traced_wall, host = serve_session(
        workload, items, limit=len(streams), trace_path=spans_path
    )
    dump = json.loads(spans_path.read_text())
    spans_path.unlink()
    profile = tracing.Profile(dump)
    refs = workloads.references(model, [s.item for s in streams + traced])
    outcome = check_streams(streams + traced, refs, wall + traced_wall)
    traced_outcome = check_streams(traced, refs, traced_wall)
    metrics = layer_metrics(profile, profile.window_ns)
    metrics.update(engine_metrics(host, traced_outcome.delivered_tokens))
    metrics["trace.overhead_share"] = traced_wall / wall - 1.0
    metrics["server.start_p50_ms"] = pct_ms(traced_outcome.start_latency, 50)
    chrome += tracing.chrome_events(dump, 1, process="model host (server)")
    chrome.append({"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
                   "args": {"name": "load generator"}})
    for s in traced:
        chrome.append({
            "name": "client.request", "cat": "client", "ph": "X", "pid": 2, "tid": s.client,
            "ts": s.sent * 1e6, "dur": (s.ended - s.sent) * 1e6,
            "args": {"request_id": s.request_id, "item": s.index, "tokens": len(s.tokens),
                     "disconnected": s.disconnected},
        })
    return outcome, metrics


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def fingerprint(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = (f"{blas.get('name')} {blas.get('version')} "
                      f"({blas.get('openblas configuration', '')})")
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": workload,
        "seed": seed,
    }


UNITS = {
    "setup_s": "s", "output_tok_s": "tok/s", "prompt_tok_s": "tok/s", "req_s": "req/s",
    "ttft_p50_ms": "ms", "ttft_tail_ms": "ms", "tpot_p50_ms": "ms", "tpot_tail_ms": "ms",
    "peak_rss_mb": "MB", "mamba.prefill.ms_per_ktok": "ms/ktok", "fpga.modeled_tok_s": "tok/s",
    "engine.rows_per_decode_call": "rows", "server.start_p50_ms": "ms",
    "mamba.step.b8_ms": "ms", "mamba.step.b1_ms": "ms", "mamba.step.b2_ms": "ms",
}


def fpga_table(metrics: Dict[str, float]) -> List[str]:
    """Measured block-phase shares beside the analytic U280 model's."""
    measured = {
        "projections (in+out, act quant, Hadamard)":
            metrics["mamba.linears.share"] + metrics["quant.act.share"],
        "conv": metrics["mamba.conv.share"],
        "ssm (step/scan + PoT helpers)": sum(metrics[f"quant.{n}.share"] for n in (
            "ssm_step", "prefill_scan", "shift_requantize", "quantize", "requant_exponents")),
    }
    modeled = {
        "projections (in+out, act quant, Hadamard)": sum(
            metrics[f"fpga.modeled_share.{n}"] for n in ("in_proj", "out_proj", "htu")),
        "conv": metrics["fpga.modeled_share.conv"],
        "ssm (step/scan + PoT helpers)": metrics["fpga.modeled_share.ssm"],
    }
    total = sum(measured.values()) or 1.0
    lines = [f"  {'block phase':44s} {'wall share':>10s} {'phase share':>11s} {'U280 model':>10s}"]
    for name, value in measured.items():
        lines.append(f"  {name:44s} {value:10.3f} {value / total:11.3f} {modeled[name]:10.3f}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload, seconds = args.workload, args.seconds
    serving = workload == "serve_live_w4a4"

    items = workloads.make_items(workload, args.seed)
    model = workloads.build_model(workloads.WORKLOADS[workload])

    chrome: List[dict] = []
    if args.trace:
        trace_run = trace_serve if serving else trace_offline
        outcome, metrics = trace_run(workload, model, items, seconds, chrome)
        metrics.update(step_times(model, args.seed))
        metrics.update(fpga_model(workloads.WORKLOADS[workload]))
    else:
        setups: List[float] = []
        if serving:
            for _ in range(SETUP_PROBES - 1):
                proc, _, setup = start_server(workload)
                setups.append(setup)
                _finish(proc)
            streams, wall, host = serve_session(workload, items, seconds=seconds, setups=setups)
            refs = workloads.references(model, [s.item for s in streams])
            outcome = check_streams(streams, refs, wall)
            rss = host["peak_rss_mb"]
        else:
            setups = [probe_setup(workload) for _ in range(SETUP_PROBES)]
            engine = workloads.warm_engine(workload, model)
            rounds = run_rounds(engine, items, seconds=seconds)
            outcome = check_rounds(rounds, workloads.references(model, items))
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": statistics.median(setups),
            "output_tok_s": outcome.rate("output_tok_s"),
            "prompt_tok_s": outcome.rate("prompt_tok_s"),
            **outcome.latency_metrics(),
            "req_s": outcome.rate("req_s"),
            "peak_rss_mb": rss,
        }

    info = fingerprint(workload, args.seed)
    info["tails"] = outcome.tails()
    info["fail_ratio"] = outcome.failed / outcome.attempted
    report = [f"perfbench {workload} seed={args.seed} seconds={seconds:g} trace={args.trace}",
              f"fingerprint: {json.dumps(info)}",
              f"requests: attempted {outcome.attempted}, failed {outcome.failed}, "
              f"fail_ratio {info['fail_ratio']:.4f}"]
    tails = info["tails"]
    for name, value in metrics.items():
        line = f"  {name:34s} {value:12.4f} {UNITS.get(name, '1')}"
        if name in tails and not args.trace:
            line += f"  (p{tails[name]['percentile']:.1f} of {tails[name]['samples']})"
        report.append(line)
    if args.trace:
        report.append("measured vs modeled block-phase shares:")
        report += fpga_table(metrics)
    print("\n".join(report))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    if chrome:
        with open(OUT / f"trace-{stem}.json", "w") as f:
            json.dump({"traceEvents": chrome, "displayTimeUnit": "ms"}, f)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "1")}
                    for name, value in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"fingerprint": info, "result": result}, indent=2) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
