"""Asyncio HTTP + SSE serving front-end for the continuous-batching engine.

:class:`MambaServer` turns the :class:`~repro.serving.engine.InferenceEngine`
into an actual network service using nothing but stdlib ``asyncio`` streams --
no web framework, no new dependencies.  Connections speak a small HTTP/1.1
subset; generation responses stream tokens as Server-Sent Events (SSE) the
moment the engine selects them, riding the engine's existing ``on_token``
hook.  The wire protocol is documented in ``src/repro/serving/README.md``.

Endpoints
---------
``POST /v1/generate``
    JSON body ``{"prompt": [ids], "max_new_tokens": n, ...}`` (or
    ``{"text": ...}`` when the server was built with a tokenizer).  With
    ``"stream": true`` (the default) the response is an SSE stream:
    ``start`` -> ``token``* -> ``done``; otherwise a single JSON object once
    the request finishes.  ``X-Priority`` and ``X-Deadline-S`` headers (or
    the equivalent body fields) map onto :meth:`InferenceEngine.submit`'s
    ``priority`` / ``timeout``.
``POST /v1/cancel/<id>``
    Explicit cancellation; the request's stream (if any) receives its
    ``done`` event with ``finish_reason="cancelled"``.
``GET /healthz`` / ``GET /stats``
    Liveness and the full :class:`~repro.serving.engine.EngineStats` counter
    surface plus queue/slot occupancy.
``POST /bench/step``
    Only with ``ServerConfig(bench_mode=True)``: advances the engine by
    exactly one iteration and reports what retired.  The load harness uses
    this to drive the live server in *iteration space*, which is what makes
    its latency metrics deterministic and machine-independent (see
    :mod:`repro.serving.loadgen`).

Concurrency model
-----------------
Everything engine-facing runs on the event-loop thread: the background
engine loop calls :meth:`InferenceEngine.step` synchronously (it never
awaits mid-step), and connection handlers call ``submit`` / ``cancel``
between steps -- asyncio's cooperative scheduling is the lock.  This keeps
the engine's single-consumer contract without adding locks around the hot
path; a CPU-heavy model simply makes individual loop turns longer.  Client
disconnects are observed as EOF on the request socket and translate into
:meth:`InferenceEngine.cancel`, freeing the slot (finish reason
``cancelled``); the server sweeps finished latency records every step
(completions carry their own copies), so a disconnect leaks neither a slot
nor a record.

Graceful drain
--------------
:meth:`MambaServer.shutdown` stops accepting work (new generates get 503),
keeps stepping until in-flight requests retire (bounded by
``drain_grace_s``), lets their streams flush their ``done`` events, and only
then tears the listener down -- every accepted request completes exactly
once, on the wire, even across shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.serving.engine import Completion, InferenceEngine, Request

__all__ = ["MambaServer", "ServerConfig", "serve_in_thread"]


@dataclass(frozen=True)
class ServerConfig:
    """Front-end configuration (the engine itself is passed separately).

    ``bench_mode`` disables the free-running engine loop: the engine only
    advances via ``POST /bench/step`` (and during drain), giving the load
    harness lockstep control over iteration timing.  ``manual_clock_step``
    advances the engine queue's injected clock by that many ticks after every
    step -- pair it with a
    :class:`~repro.serving.resilience.ManualClock` so deadlines submitted
    over the wire are measured in engine iterations (deterministic) instead
    of wall seconds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    bench_mode: bool = False
    manual_clock_step: Optional[float] = None
    drain_grace_s: float = 30.0
    idle_poll_s: float = 0.05
    max_body_bytes: int = 1 << 20


_REASON = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
           414: "URI Too Long", 431: "Request Header Fields Too Large",
           503: "Service Unavailable"}

#: Header lines read per request; one more is answered with 431 and a close.
_MAX_HEADER_LINES = 100


class _BadRequest(Exception):
    """Malformed request framing, answered with ``status`` before closing."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class MambaServer:
    """HTTP/SSE front-end over one :class:`InferenceEngine`.

    Use :meth:`start` / :meth:`shutdown` from a running event loop, or the
    synchronous :func:`serve_in_thread` helper which hosts the loop on a
    daemon thread (what the benchmarks, tests and demo use).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: Optional[ServerConfig] = None,
        tokenizer=None,
    ):
        self.engine = engine
        self.config = config or ServerConfig()
        self.tokenizer = tokenizer
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._engine_task: Optional[asyncio.Task] = None
        self._streams: Dict[int, asyncio.Queue] = {}
        self._connections: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._accepting = False
        self._stopping = False
        self._started_at = 0.0
        # server-side counters (event-loop thread only)
        self.requests_accepted = 0
        self.requests_rejected = 0
        self.disconnect_cancels = 0
        self.finish_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the background engine loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._wake = asyncio.Event()
        self._accepting = True
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._engine_task = asyncio.create_task(self._engine_loop())
        return self.address

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight work, flush streams, tear down.

        With ``drain=True`` (default) the engine keeps stepping until every
        in-flight and queued request retires (bounded by
        ``config.drain_grace_s``); their SSE streams receive their ``done``
        events before sockets close.  With ``drain=False`` outstanding
        requests are cancelled first, which still delivers exactly one
        terminal event per accepted request (``finish_reason="cancelled"``).
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
        if not drain:
            for request_id in list(self._streams):
                self.engine.cancel(request_id)
        deadline = time.monotonic() + self.config.drain_grace_s
        while self.engine.has_work and time.monotonic() < deadline:
            self._step_once()
            # Yield so stream coroutines can flush the events just queued.
            await asyncio.sleep(0)
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if self._engine_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._engine_task
        if self._connections:
            # Handlers still pending after the grace (e.g. a silent client
            # parked in readline) are cancelled, not leaked.
            _, pending = await asyncio.wait(
                list(self._connections),
                timeout=max(0.0, deadline - time.monotonic()) + 1.0,
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def _engine_loop(self) -> None:
        """Free-running drive loop (idle-waits in bench mode)."""
        poll = self.config.idle_poll_s
        while not self._stopping:
            if not self.config.bench_mode and self.engine.has_work:
                self._step_once()
                # One cooperative yield per iteration: accepts, stream
                # writers and disconnect watchers run between engine steps.
                await asyncio.sleep(0)
                continue
            self._wake.clear()
            if self._stopping:
                break
            if not self.config.bench_mode and self.engine.has_work:
                continue  # a submit raced the clear
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._wake.wait(), timeout=poll)

    def _step_once(self) -> List[Completion]:
        """One engine iteration + completion fan-out (event-loop thread)."""
        completions = self.engine.step(on_token=self._on_token)
        for completion in completions:
            self.finish_reasons[completion.finish_reason] = (
                self.finish_reasons.get(completion.finish_reason, 0) + 1
            )
            queue = self._streams.pop(completion.request_id, None)
            if queue is not None:
                queue.put_nowait(("done", self._done_payload(completion)))
        if self.config.bench_mode:
            # Lockstep marker: clients read each open stream until they see
            # this step's marker, so "everything the engine emitted by step
            # N" is observable without wall-clock timeouts.
            for queue in self._streams.values():
                queue.put_nowait(
                    ("step", {"step": self.engine.stats.engine_steps})
                )
        if completions:
            # Completions carry their own latency records; sweeping here
            # bounds the table so long-lived servers (and disconnects) never
            # leak records.
            self.engine.clear_finished_latencies()
        clock_step = self.config.manual_clock_step
        if clock_step is not None:
            self.engine.queue.clock.advance(clock_step)
        return completions

    def _on_token(self, request_id: int, token: int, logprob: float) -> None:
        queue = self._streams.get(request_id)
        if queue is None:
            return
        stats = self.engine.stats
        queue.put_nowait(
            (
                "token",
                {
                    "token": int(token),
                    "logprob": float(logprob),
                    "step": stats.engine_steps,
                    "processed_tokens": stats.prefilled_tokens + stats.decoded_tokens,
                },
            )
        )

    def _done_payload(self, completion: Completion) -> Dict[str, Any]:
        latency = completion.latency
        stats = self.engine.stats
        payload: Dict[str, Any] = {
            "request_id": completion.request_id,
            "finish_reason": completion.finish_reason,
            "tokens": list(completion.result.tokens),
            "n_tokens": len(completion.result.tokens),
            "processed_tokens": stats.prefilled_tokens + stats.decoded_tokens,
        }
        if completion.error is not None:
            payload["error"] = completion.error
        if latency is not None:
            payload["latency"] = {
                "submitted_step": latency.submitted_step,
                "admitted_step": latency.admitted_step,
                "first_token_step": latency.first_token_step,
                "finished_step": latency.finished_step,
                "decode_iterations": latency.decode_iterations,
                "queue_wait_iterations": latency.queue_wait_iterations,
                "ttft_iterations": latency.ttft_iterations,
            }
        return payload

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, headers, body = parsed
            await self._route(method, path, headers, body, reader, writer)
        except _BadRequest as exc:
            with contextlib.suppress(ConnectionError):
                await self._send_json(writer, exc.status, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            # Only shutdown cancels a handler; it ends like a hang-up, since a
            # cancelled task makes 3.11's stream done-callback log an error.
            pass
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _read_line(reader, status: int, what: str) -> bytes:
        """One CRLF line; a line over the reader's buffer limit answers ``status``."""
        try:
            return await reader.readline()
        except ValueError:  # asyncio.StreamReader's line-length limit (64 KiB)
            raise _BadRequest(status, f"{what} exceeds the line length limit") from None

    async def _read_request(self, reader):
        request_line = await self._read_line(reader, 414, "request line")
        if not request_line:
            return None
        try:
            method, path, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES + 1):
            line = await self._read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(431, f"more than {_MAX_HEADER_LINES} header lines")
        try:
            length = int(headers.get("content-length") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest(400, "Content-Length must be a non-negative integer")
        if length > self.config.max_body_bytes:
            raise ConnectionError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _route(self, method, path, headers, body, reader, writer) -> None:
        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, self._health())
        elif method == "GET" and path == "/stats":
            await self._send_json(writer, 200, self.stats_snapshot())
        elif method == "POST" and path == "/v1/generate":
            await self._handle_generate(headers, body, reader, writer)
        elif method == "POST" and path.startswith("/v1/cancel/"):
            await self._handle_cancel(path, writer)
        elif method == "POST" and path == "/bench/step":
            await self._handle_bench_step(writer)
        else:
            await self._send_json(writer, 404, {"error": f"no route {method} {path}"})

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "ok" if self._accepting else "draining",
            "waiting": self.engine.num_waiting,
            "active": self.engine.num_active,
            "prefilling": self.engine.num_prefilling,
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``/stats`` payload (also handy in-process for tests)."""
        stats = self.engine.stats
        engine_counters = {
            name: getattr(stats, name) for name in vars(stats)
        }
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "accepting": self._accepting,
            "engine": engine_counters,
            "queue_depth": self.engine.num_waiting,
            "active_slots": self.engine.num_active,
            "prefilling": self.engine.num_prefilling,
            "open_streams": len(self._streams),
            "latency_records": self.engine.num_latency_records,
            "requests_accepted": self.requests_accepted,
            "requests_rejected": self.requests_rejected,
            "disconnect_cancels": self.disconnect_cancels,
            "finish_reasons": dict(self.finish_reasons),
        }

    def _build_request(self, payload: Dict[str, Any]) -> Request:
        if "prompt" in payload:
            prompt = tuple(int(t) for t in payload["prompt"])
        elif "text" in payload:
            if self.tokenizer is None:
                raise ValueError('"text" prompts need a server-side tokenizer')
            prompt = tuple(self.tokenizer.encode(str(payload["text"])))
        else:
            raise ValueError('body must carry "prompt" (token ids) or "text"')
        return Request(
            prompt=prompt,
            max_new_tokens=int(payload.get("max_new_tokens", 16)),
            temperature=(
                float(payload["temperature"])
                if payload.get("temperature") is not None
                else None
            ),
            top_k=(int(payload["top_k"]) if payload.get("top_k") is not None else None),
            stop_token=(
                int(payload["stop_token"])
                if payload.get("stop_token") is not None
                else None
            ),
            seed=(int(payload["seed"]) if payload.get("seed") is not None else None),
        )

    async def _handle_generate(self, headers, body, reader, writer) -> None:
        if not self._accepting:
            self.requests_rejected += 1
            await self._send_json(writer, 503, {"error": "server is draining"})
            return
        try:
            payload = json.loads(body or b"{}")
            request = self._build_request(payload)
            priority = int(headers.get("x-priority", payload.get("priority", 0)))
            deadline_s = headers.get("x-deadline-s", payload.get("deadline_s"))
            timeout = float(deadline_s) if deadline_s is not None else None
            stream = bool(payload.get("stream", True))
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        queue: asyncio.Queue = asyncio.Queue()
        # No await between submit and stream registration: the engine loop
        # (same thread, cooperative) cannot step in between, so the stream
        # never misses a token.
        try:
            request_id = self.engine.submit(request, priority=priority, timeout=timeout)
        except ValueError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        self._streams[request_id] = queue
        self.requests_accepted += 1
        self._wake.set()
        start = {
            "request_id": request_id,
            "submitted_step": self.engine.stats.engine_steps,
        }
        if stream:
            await self._stream_sse(reader, writer, request_id, queue, start)
        else:
            await self._respond_blocking(writer, queue, start)

    async def _stream_sse(self, reader, writer, request_id, queue, start) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        self._write_event(writer, "start", start)
        # EOF on the request socket is the disconnect signal: a client that
        # goes away mid-generation cancels its request and frees the slot.
        watcher = asyncio.ensure_future(reader.read(1))
        try:
            await writer.drain()
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, watcher}, return_when=asyncio.FIRST_COMPLETED
                )
                if getter not in done:
                    getter.cancel()
                    self._disconnected(request_id)
                    return
                event, data = getter.result()
                self._write_event(writer, event, data)
                try:
                    await writer.drain()
                except ConnectionError:
                    self._disconnected(request_id)
                    return
                if event == "done":
                    return
                if watcher.done():
                    self._disconnected(request_id)
                    return
        finally:
            watcher.cancel()
            self._streams.pop(request_id, None)

    def _disconnected(self, request_id: int) -> None:
        self._streams.pop(request_id, None)
        if self.engine.cancel(request_id):
            self.disconnect_cancels += 1
            self._wake.set()

    async def _respond_blocking(self, writer, queue, start) -> None:
        events = []
        while True:
            event, data = await queue.get()
            if event == "token":
                events.append(data)
            if event == "done":
                data = dict(data)
                data["submitted_step"] = start["submitted_step"]
                data["token_events"] = events
                await self._send_json(writer, 200, data)
                return

    async def _handle_cancel(self, path: str, writer) -> None:
        try:
            request_id = int(path.rsplit("/", 1)[1])
        except ValueError:
            await self._send_json(writer, 400, {"error": "bad request id"})
            return
        cancelled = self.engine.cancel(request_id)
        if cancelled:
            self._wake.set()
        await self._send_json(writer, 200, {"request_id": request_id, "cancelled": cancelled})

    async def _handle_bench_step(self, writer) -> None:
        if not self.config.bench_mode:
            await self._send_json(
                writer, 409, {"error": "bench stepping requires bench_mode=True"}
            )
            return
        completions = self._step_once()
        await self._send_json(
            writer,
            200,
            {
                "engine_step": self.engine.stats.engine_steps,
                "completed": [c.request_id for c in completions],
                "has_work": self.engine.has_work,
            },
        )

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _write_event(writer, event: str, data: Dict[str, Any]) -> None:
        writer.write(
            f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")
        )

    @staticmethod
    async def _send_json(writer, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASON.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(body)
        await writer.drain()


@dataclass
class ServerHandle:
    """A live server hosted on a background thread (see :func:`serve_in_thread`)."""

    server: MambaServer
    host: str
    port: int
    _loop: asyncio.AbstractEventLoop = field(repr=False, default=None)
    _thread: threading.Thread = field(repr=False, default=None)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Gracefully shut the server down and join its thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self._loop
        )
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)


@contextlib.contextmanager
def serve_in_thread(
    engine: InferenceEngine,
    config: Optional[ServerConfig] = None,
    tokenizer=None,
    startup_timeout_s: float = 10.0,
) -> Iterator[ServerHandle]:
    """Run a :class:`MambaServer` on a daemon thread; yields its handle.

    The sockets are real localhost TCP -- this is how the load harness, the
    end-to-end tests and the demo drive the server from synchronous code.
    The context manager guarantees a graceful drain-and-join on exit.
    """
    server = MambaServer(engine, config=config, tokenizer=tokenizer)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _start() -> None:
            box["address"] = await server.start()
            started.set()

        try:
            loop.run_until_complete(_start())
            loop.run_forever()
        finally:
            with contextlib.suppress(Exception):
                loop.close()

    thread = threading.Thread(target=_run, name="mamba-server", daemon=True)
    thread.start()
    if not started.wait(timeout=startup_timeout_s):
        raise RuntimeError("server failed to start within the startup timeout")
    host, port = box["address"]
    handle = ServerHandle(
        server=server, host=host, port=port, _loop=box["loop"], _thread=thread
    )
    try:
        yield handle
    finally:
        if thread.is_alive():
            handle.stop()
