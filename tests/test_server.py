"""End-to-end tests for the asyncio HTTP/SSE serving front-end.

Every test here talks to a real :class:`~repro.serving.server.MambaServer`
over localhost TCP sockets (via :func:`~repro.serving.server.serve_in_thread`),
using the same minimal blocking HTTP/SSE client the load harness uses -- so
the wire protocol, the disconnect-cancel path, and the graceful-drain
contract are exercised exactly as a real client would.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.mamba.generation import greedy_decode
from repro.serving import FIFOScheduler, InferenceEngine, PriorityScheduler
from repro.serving.loadgen import _Conn, _request_json
from repro.serving.resilience import ManualClock
from repro.serving.server import ServerConfig, serve_in_thread

PROMPT = [3, 1, 4, 1, 5]


def _bench_config():
    return ServerConfig(bench_mode=True, manual_clock_step=1.0)


def _bench_engine(model, *, max_batch_size=4, scheduler=None):
    return InferenceEngine(
        model,
        max_batch_size=max_batch_size,
        scheduler=scheduler or FIFOScheduler(),
        clock=ManualClock(),
    )


def _generate(host, port, payload, headers=None):
    """Open a streaming generate; returns the connection + start event data."""
    conn = _Conn(host, port)
    conn.send("POST", "/v1/generate", payload=payload, headers=headers)
    status, _ = conn.read_head()
    assert status == 200
    event, data = conn.next_event()
    assert event == "start"
    return conn, data


def _step(host, port):
    status, payload = _request_json(host, port, "POST", "/bench/step")
    assert status == 200
    return payload


def _stats(host, port):
    status, payload = _request_json(host, port, "GET", "/stats")
    assert status == 200
    return payload


def _raw_exchange(host, port, data: bytes):
    """Send raw bytes, read until the server closes; returns (status, JSON body)."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def _read_to_done(conn):
    """Drain one SSE stream; returns (token list, done payload)."""
    tokens = []
    while True:
        event, data = conn.next_event()
        if event == "token":
            tokens.append(data["token"])
        elif event == "done":
            return tokens, data


class TestWireProtocol:
    def test_streamed_tokens_match_solo_decode(self, tiny_model):
        reference = greedy_decode(tiny_model, PROMPT, 8)
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            conn, _ = _generate(
                handle.host, handle.port, {"prompt": PROMPT, "max_new_tokens": 8}
            )
            tokens, done = _read_to_done(conn)
            conn.close()
        assert tokens == list(reference.tokens)
        assert done["finish_reason"] == "length"
        assert done["tokens"] == list(reference.tokens)
        assert done["latency"]["ttft_iterations"] >= 0

    def test_non_streaming_response(self, tiny_model):
        reference = greedy_decode(tiny_model, PROMPT, 6)
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _request_json(
                handle.host,
                handle.port,
                "POST",
                "/v1/generate",
                payload={"prompt": PROMPT, "max_new_tokens": 6, "stream": False},
            )
        assert status == 200
        assert payload["finish_reason"] == "length"
        assert payload["tokens"] == list(reference.tokens)
        assert len(payload["token_events"]) == 6

    def test_healthz_and_stats_surface(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, health = _request_json(handle.host, handle.port, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            stats = _stats(handle.host, handle.port)
            for key in (
                "engine",
                "queue_depth",
                "active_slots",
                "open_streams",
                "latency_records",
                "requests_accepted",
                "disconnect_cancels",
                "finish_reasons",
            ):
                assert key in stats
            assert stats["accepting"] is True
            status, payload = _request_json(handle.host, handle.port, "GET", "/nope")
            assert status == 404
            assert "error" in payload

    def test_bad_request_bodies(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _request_json(
                handle.host, handle.port, "POST", "/v1/generate", payload={"nope": 1}
            )
            assert status == 400
            assert "prompt" in payload["error"]
            # token id outside the model vocabulary: rejected by submit
            status, payload = _request_json(
                handle.host,
                handle.port,
                "POST",
                "/v1/generate",
                payload={"prompt": [10**9], "max_new_tokens": 2},
            )
            assert status == 400

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1.5"])
    def test_malformed_content_length_answers_400(self, tiny_model, length):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _raw_exchange(
                handle.host,
                handle.port,
                b"POST /v1/generate HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
            )
            assert status == 400
            assert "Content-Length" in payload["error"]
            # The connection handler survived: the server still answers.
            assert _request_json(handle.host, handle.port, "GET", "/healthz")[0] == 200

    def test_header_flood_answers_431(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            flood = b"".join(b"X-Filler-%d: x\r\n" % i for i in range(3000))
            status, payload = _raw_exchange(
                handle.host, handle.port, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n"
            )
            assert status == 431
            assert "header lines" in payload["error"]
            assert _request_json(handle.host, handle.port, "GET", "/healthz")[0] == 200

    def test_bench_step_requires_bench_mode(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _request_json(
                handle.host, handle.port, "POST", "/bench/step"
            )
        assert status == 409
        assert "bench_mode" in payload["error"]


class TestDisconnectCancels:
    def test_disconnect_mid_generation_frees_slot_and_records(self, tiny_model):
        engine = _bench_engine(tiny_model)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            conn, start = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 100}
            )
            request_id = start["request_id"]
            # Advance two iterations; read the two streamed tokens.
            tokens = []
            for _ in range(2):
                _step(host, port)
                while True:
                    event, data = conn.next_event()
                    if event == "token":
                        tokens.append(data["token"])
                    elif event == "step":
                        break
            assert len(tokens) == 2
            # Hang up mid-generation: close the socket without reading on.
            conn.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = _stats(host, port)
                if stats["engine"]["cancelled"] == 1:
                    break
                time.sleep(0.002)
            else:
                pytest.fail("engine never observed the disconnect as a cancel")
            # The slot is freed immediately; the pending cancelled completion
            # retires on the next step and its latency record is swept.
            assert stats["active_slots"] == 0
            assert stats["open_streams"] == 0
            assert stats["disconnect_cancels"] == 1
            _step(host, port)
            stats = _stats(host, port)
            assert stats["latency_records"] == 0
            assert stats["finish_reasons"].get("cancelled") == 1
            with pytest.raises(KeyError):
                engine.latency(request_id)

    def test_cancel_endpoint_for_waiting_request(self, tiny_model):
        engine = _bench_engine(tiny_model)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            conn, start = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 4}
            )
            status, payload = _request_json(
                host, port, "POST", f"/v1/cancel/{start['request_id']}"
            )
            assert status == 200
            assert payload["cancelled"] is True
            _step(host, port)  # delivers the pending cancelled completion
            tokens, done = _read_to_done(conn)
            conn.close()
        assert tokens == []
        assert done["finish_reason"] == "cancelled"


class TestHeaders:
    def test_priority_header_reorders_admission(self, tiny_model):
        engine = _bench_engine(
            tiny_model, max_batch_size=1, scheduler=PriorityScheduler()
        )
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            occupant, _ = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 3}
            )
            # One step so the occupant is actually holding the single slot
            # before the contenders arrive.
            _step(host, port)
            low, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 2})
            high, _ = _generate(
                host,
                port,
                {"prompt": PROMPT, "max_new_tokens": 2},
                headers={"X-Priority": "5"},
            )
            results = {}

            def drain(name, conn):
                results[name] = _read_to_done(conn)

            threads = [
                threading.Thread(target=drain, args=(name, conn))
                for name, conn in (("occupant", occupant), ("low", low), ("high", high))
            ]
            for t in threads:
                t.start()
            while engine.has_work:
                _step(host, port)
            for t in threads:
                t.join(timeout=10.0)
            for conn in (occupant, low, high):
                conn.close()
        assert set(results) == {"occupant", "low", "high"}
        # One slot: the occupant runs first; the high-priority arrival
        # front-runs the earlier low-priority one.
        finished = {name: done["latency"]["finished_step"] for name, (_, done) in results.items()}
        assert finished["occupant"] < finished["high"] < finished["low"]

    def test_deadline_header_expires_waiting_request(self, tiny_model):
        engine = _bench_engine(tiny_model, max_batch_size=1)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            occupant, _ = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 12}
            )
            # ManualClock advances 1.0 per step: this deadline is "admit
            # within 2 engine iterations", which the busy slot prevents.
            doomed, _ = _generate(
                host,
                port,
                {"prompt": PROMPT, "max_new_tokens": 4},
                headers={"X-Deadline-S": "2"},
            )
            results = {}

            def drain(name, conn):
                results[name] = _read_to_done(conn)

            threads = [
                threading.Thread(target=drain, args=(name, conn))
                for name, conn in (("occupant", occupant), ("doomed", doomed))
            ]
            for t in threads:
                t.start()
            while engine.has_work:
                _step(host, port)
            for t in threads:
                t.join(timeout=10.0)
            for conn in (occupant, doomed):
                conn.close()
        assert results["occupant"][1]["finish_reason"] == "length"
        assert results["doomed"][1]["finish_reason"] == "expired"
        assert results["doomed"][0] == []


class TestGracefulShutdown:
    def test_inflight_requests_drain_exactly_once(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        references = {
            n: greedy_decode(tiny_model, PROMPT + [n], 30) for n in (0, 1)
        }
        with serve_in_thread(engine) as handle:
            conns = {
                n: _generate(
                    handle.host,
                    handle.port,
                    {"prompt": PROMPT + [n], "max_new_tokens": 30},
                )[0]
                for n in (0, 1)
            }
            results = {}
            done_counts = {n: 0 for n in conns}

            def drain(n, conn):
                tokens = []
                while True:
                    try:
                        event, data = conn.next_event()
                    except (StopIteration, ConnectionError, OSError):
                        return
                    if event == "token":
                        tokens.append(data["token"])
                    elif event == "done":
                        done_counts[n] += 1
                        results[n] = (tokens, data)

            threads = [
                threading.Thread(target=drain, args=(n, conn))
                for n, conn in conns.items()
            ]
            for t in threads:
                t.start()
            # Shut down while both requests are mid-generation: the drain
            # contract says they complete on the wire first.
            handle.stop()
            for t in threads:
                t.join(timeout=10.0)
            for conn in conns.values():
                conn.close()
        assert set(results) == {0, 1}
        for n, (tokens, done) in results.items():
            assert done_counts[n] == 1
            assert done["finish_reason"] == "length"
            assert tokens == list(references[n].tokens)
        assert engine.has_work is False
        assert handle.server.finish_reasons == {"length": 2}

    def test_new_requests_rejected_while_draining(self, tiny_model):
        engine = _bench_engine(tiny_model)
        config = ServerConfig(bench_mode=True, manual_clock_step=1.0, drain_grace_s=5.0)
        with serve_in_thread(engine, config=config) as handle:
            host, port = handle.host, handle.port
            conn, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 400})
            # Opened while the server still accepts: shutdown closes the
            # listener immediately, so only an already-accepted connection
            # can observe the 503 drain response.  Wait until the event loop
            # has actually accepted it (two live connection handlers), or a
            # backlogged connect would be reset when the listener closes.
            probe = _Conn(host, port)
            deadline = time.monotonic() + 5.0
            while len(handle.server._connections) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(handle.server._connections) >= 2

            def drain_stream():
                _read_to_done(conn)

            reader = threading.Thread(target=drain_stream)
            reader.start()
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            deadline = time.monotonic() + 5.0
            while handle.server._accepting and time.monotonic() < deadline:
                time.sleep(0.001)
            assert not handle.server._accepting
            probe.send(
                "POST",
                "/v1/generate",
                payload={"prompt": PROMPT, "max_new_tokens": 2, "stream": False},
            )
            status, headers = probe.read_head()
            payload = probe.read_json_body(headers)
            probe.close()
            stopper.join(timeout=10.0)
            reader.join(timeout=10.0)
            conn.close()
            assert status == 503
            assert "draining" in payload["error"]
            assert handle.server.requests_rejected >= 1
