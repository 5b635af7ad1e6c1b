"""Model host process: set up, report ready, and (for serving) serve.

``--probe`` builds the workload's model, runs one warm-up request through a
fresh engine, prints ``ready`` and exits; the benchmark times that from
spawn to measure set-up.  Without it the host also starts a
:class:`~repro.serving.server.MambaServer` on an ephemeral localhost port,
prints ``listening <port>``, serves until its stdin closes, then drains and
prints one JSON line: its peak RSS and the engine counters accrued while
serving.  ``--trace PATH`` traces the serving window and writes the spans
to ``PATH``.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys

import workloads  # first: puts the checkout's src/ on the import path
import tracing
from repro.serving import InferenceEngine, MambaServer, ServerConfig


async def _serve(engine: InferenceEngine) -> None:
    server = MambaServer(engine, ServerConfig())
    _, port = await server.start()
    loop = asyncio.get_running_loop()
    closed = asyncio.Event()
    fd = sys.stdin.fileno()

    def on_stdin() -> None:
        if not os.read(fd, 4096):
            loop.remove_reader(fd)
            closed.set()

    loop.add_reader(fd, on_stdin)
    print(f"listening {port}", flush=True)
    await closed.wait()
    await server.shutdown(drain=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    model = workloads.build_model(workloads.WORKLOADS[args.workload])
    engine = workloads.warm_engine(args.workload, model)
    if args.probe:
        print("ready", flush=True)
        return

    before = workloads.engine_counters(engine)
    tracer = tracing.Tracer()
    selector = None
    if args.trace:
        tracing.instrument(tracer, model, engine)
        selector = tracing.TracedSelector(tracer)
    loop = asyncio.SelectorEventLoop(selector)
    try:
        loop.run_until_complete(_serve(engine))
    finally:
        loop.close()
    if args.trace:
        with open(args.trace, "w") as f:
            json.dump(tracer.dump(), f)
    final = {k: v - before[k] for k, v in workloads.engine_counters(engine).items()}
    final["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
