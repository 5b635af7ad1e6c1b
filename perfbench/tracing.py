"""Outside-in span tracing of the program's layers.

The benchmark never edits the program: :func:`instrument` swaps each
layer's public callable for a wrapper that records a span (name, start,
end, parent, optional argument) and restores the originals afterwards.
Spans stay in memory; :func:`chrome_events` turns them into Chrome
trace-event JSON, which Perfetto and ``chrome://tracing`` open offline.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of a properly nested trace add up to the time
its top-level spans cover -- a wrapper cannot hide time.
"""

from __future__ import annotations

import selectors
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.mamba.cache import InferenceCache
from repro.quant import ssm_quant

_clock = time.perf_counter_ns


class Tracer:
    """Span recorder for one thread of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.args: List[Optional[int]] = []
        self._stack: List[int] = []

    def open(self, name: str, arg: Optional[int] = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.args.append(arg)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def wrap(self, name: str, fn: Callable, arg: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call (``arg`` labels it)."""

        def traced(*args, **kwargs):
            index = self.open(name, None if arg is None else arg(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "args": self.args,
        }


class _Proxy:
    """Stands in for a layer object: traced call/methods, all else forwarded."""

    def __init__(self, target, tracer: Tracer, call: Optional[str], methods: Dict[str, str]):
        self._target = target
        self._call = tracer.wrap(call, target) if call else target
        for method, span in methods.items():
            setattr(self, method, tracer.wrap(span, getattr(target, method)))

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _count(token, *args, **kwargs) -> int:
    return int(np.size(token))


def instrument(tracer: Tracer, model, engine=None) -> Callable[[], None]:
    """Wrap every traced layer of ``model`` (and ``engine``); returns undo.

    Span names are the per-layer metric prefixes: block projections and
    residual (``mamba.linears``), norm, conv, activation quantization hooks
    (``quant.act``, online Hadamard included), the quantized SSM step and
    prefill scan, the gated norm, the model's step/prefill/head, the
    scheduler's plan, the slot-cache gather/scatter/stack, and the PoT
    helpers as ``repro.quant.ssm_quant`` binds them.
    """
    undo: List[Callable[[], None]] = []

    def patch(owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, old) if had else delattr(owner, attr))

    for block in model.blocks:
        patch(block, "step", tracer.wrap("mamba.linears", block.step))
        patch(block, "forward", tracer.wrap("mamba.linears", block.forward))
        patch(block, "norm", _Proxy(block.norm, tracer, "mamba.norm", {}))
        patch(block, "gated_norm", _Proxy(block.gated_norm, tracer, "mamba.gated_norm", {}))
        patch(block, "pre_in_proj", tracer.wrap("quant.act", block.pre_in_proj))
        patch(block, "pre_out_proj", tracer.wrap("quant.act", block.pre_out_proj))
        patch(block, "conv", _Proxy(
            block.conv, tracer, None, {"step": "mamba.conv", "forward": "mamba.conv"}))
        patch(block, "ssm_impl", _Proxy(
            block.ssm_impl, tracer, "quant.ssm_step", {"prefill_scan": "quant.prefill_scan"}))
    patch(model, "step", tracer.wrap("mamba.step", model.step, arg=_count))
    patch(model, "prefill", tracer.wrap("mamba.prefill", model.prefill, arg=_count))
    patch(model, "logits_from_hidden", tracer.wrap("mamba.head", model.logits_from_hidden))
    for helper, span in (
        ("shift_requantize", "quant.shift_requantize"),
        ("quantize", "quant.quantize"),
        ("absmax_requant_exponents", "quant.requant_exponents"),
        ("pot_exponent", "quant.requant_exponents"),
    ):
        patch(ssm_quant, helper, tracer.wrap(span, getattr(ssm_quant, helper)))
    for method in ("gather", "scatter"):
        patch(InferenceCache, method, tracer.wrap("engine.cache", vars(InferenceCache)[method]))
    patch(InferenceCache, "stack", classmethod(
        tracer.wrap("engine.cache", vars(InferenceCache)["stack"].__func__)))
    if engine is not None:
        patch(engine, "step", tracer.wrap("engine.step", engine.step))
        patch(engine, "submit", tracer.wrap("engine.submit", engine.submit))
        patch(engine.scheduler, "plan", tracer.wrap("engine.plan", engine.scheduler.plan))

    def restore() -> None:
        while undo:
            undo.pop()()

    return restore


class TracedSelector(selectors.DefaultSelector):
    """Event-loop selector splitting a server thread's wall time into spans.

    Time blocked in ``select`` is ``server.idle``; each stretch between two
    selects is one ``server.loop`` turn, whose children are the engine
    spans and whose self time is the HTTP/SSE handling around them.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer
        self._turn: Optional[int] = None

    def select(self, timeout=None):
        if self._turn is not None:
            self._tracer.close(self._turn)
        idle = self._tracer.open("server.idle")
        try:
            return super().select(timeout)
        finally:
            self._tracer.close(idle)
            self._turn = self._tracer.open("server.loop")

    def close(self) -> None:
        if self._turn is not None:
            self._tracer.close(self._turn)
            self._turn = None
        super().close()


class Profile:
    """Per-name aggregates of one dumped trace."""

    def __init__(self, dump: dict):
        self.names = np.asarray(dump["names"], dtype=object)
        self.args = np.asarray([a or 0 for a in dump["args"]], dtype=np.int64)
        starts = np.asarray(dump["starts"], dtype=np.int64)
        ends = np.asarray(dump["ends"], dtype=np.int64)
        parents = np.asarray(dump["parents"], dtype=np.int64)
        self.duration = (ends - starts).astype(np.float64)
        self.self_ns = self.duration.copy()
        nested = parents >= 0
        np.subtract.at(self.self_ns, parents[nested], self.duration[nested])
        top = ~nested
        self.window_ns = float(ends[top].max() - starts[top].min()) if top.any() else 0.0

    def self_total(self, name: str) -> float:
        return float(self.self_ns[self.names == name].sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.names == name].sum())

    def calls(self, name: str) -> np.ndarray:
        """Inclusive durations (ns) of the ``name`` calls."""
        return self.duration[self.names == name]

    def arg_total(self, name: str) -> int:
        return int(self.args[self.names == name].sum())


def chrome_events(dump: dict, pid: int, process: str) -> List[dict]:
    """Trace-event records (microseconds) for one dumped trace of one process."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": process}}]
    for index, (name, start, end, parent, arg) in enumerate(zip(
        dump["names"], dump["starts"], dump["ends"], dump["parents"], dump["args"]
    )):
        args = {"id": index, "parent": parent}
        if arg is not None:
            args["n"] = arg
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X", "pid": pid, "tid": 0,
            "ts": start / 1000.0, "dur": (end - start) / 1000.0, "args": args,
        })
    return events
