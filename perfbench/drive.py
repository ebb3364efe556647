"""Closed-loop clients, the checks on their answers, and request spans.

Each client is a thread with its own :class:`HTTPBackend` (the
repository's client library, with its keep-alive connection and ETag
cache).  A client sends its next request only when the previous one
has been answered.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path

from repro.repository.client import HTTPBackend

#: Seconds a client or the main thread waits for the others to line up.
BARRIER_TIMEOUT = 120.0


class Tracer:
    """Request spans kept in memory: (request, span, parent, name,
    start_ns, end_ns).  Spans of one request share its request id."""

    enabled = True

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._per_thread: list[list[tuple]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.spans, local.request = [], [], None
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def begin(self, request: str) -> None:
        self._state().request = request

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def collect(self) -> list[tuple]:
        with self._lock:
            return [span for spans in self._per_thread for span in spans]

    def write(self, path: Path) -> None:
        fields = ("request", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w") as out:
            for span in self.collect():
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "state", "span_id", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.state = self.tracer._state()
        self.span_id = next(self.tracer._ids)
        self.state.stack.append(self.span_id)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        stack = self.state.stack
        stack.pop()
        parent = stack[-1] if stack else None
        self.state.spans.append((self.state.request, self.span_id, parent,
                                 self.name, self.start, end))


class NullTracer:
    """Tracing off: a span is one shared no-op context manager."""

    enabled = False
    _span = contextlib.nullcontext()

    def begin(self, request: str) -> None:
        return None

    def span(self, name: str) -> contextlib.nullcontext:
        return self._span


class Client:
    """One user: the repository client library."""

    def __init__(self, url: str, tracer) -> None:
        self.tracer = tracer
        self.backend = HTTPBackend(url)
        if tracer.enabled:
            # Span every wire exchange the library makes: the time left
            # over in an op's span is the library's own work.
            exchange = self.backend._exchange

            def traced_exchange(*args, **kwargs):
                with tracer.span("http.exchange"):
                    return exchange(*args, **kwargs)

            self.backend._exchange = traced_exchange

    def perform(self, op):
        if op.kind == "get":
            return self.backend.get(op.entry.identifier)
        getattr(self.backend, op.kind)(op.entry)
        return None

    def close(self) -> None:
        self.backend.close()


class ClientResult:
    """What one client saw: per-op latency and failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: perf_counter() at each timed op's completion
        self.ends: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, client: Client, op, request: str) -> float:
        """Perform one op, check its answer; returns its latency."""
        self.attempted += 1
        tracer = client.tracer
        tracer.begin(request)
        started = time.perf_counter()
        try:
            with tracer.span("op." + op.kind):
                result = client.perform(op)
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.failures.append(f"{op.kind} {op.entry.identifier}: "
                                 f"{type(error).__name__}: {error}")
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        if op.kind == "get" and result != op.entry:
            self.failures.append(f"get {op.entry.identifier}: stale or "
                                 f"wrong entry")
        return elapsed


class Session:
    """Clients booted against one server: warmed, then (maybe) timed."""

    def __init__(self, url: str, streams: list, *, warm_ops: int,
                 tracer) -> None:
        self.clients = [Client(url, tracer) for _ in streams]
        self.results = [ClientResult() for _ in streams]
        self._iterators = [iter(stream) for stream in streams]
        self._seconds = 0.0
        self._warm_ops = warm_ops
        self._ready = threading.Barrier(len(streams) + 1,
                                        timeout=BARRIER_TIMEOUT)
        self._go = threading.Barrier(len(streams) + 1,
                                     timeout=BARRIER_TIMEOUT)
        self.started = 0.0
        self._threads = [
            threading.Thread(target=self._client_loop, args=(index,),
                             name=f"perfbench-client-{index}", daemon=True)
            for index in range(len(streams))
        ]
        for thread in self._threads:
            thread.start()

    def wait_warm(self) -> None:
        """Block until every client has run its warm-up ops."""
        self._ready.wait()

    def measure(self, seconds: float) -> None:
        """Release the clients for ``seconds``; join them."""
        self._seconds = seconds
        self.started = time.perf_counter()
        self._go.wait()
        self._join()

    def close(self) -> None:
        """End without measuring (the clients exit after warm-up)."""
        self._seconds = 0.0
        self._go.wait()
        self._join()

    def _join(self) -> None:
        for thread in self._threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        for client in self.clients:
            client.close()

    def _client_loop(self, index: int) -> None:
        try:
            self._run_client(index)
        except BaseException:
            # Never leave the main thread waiting on a dead client.
            self._ready.abort()
            self._go.abort()
            raise

    def _run_client(self, index: int) -> None:
        client = self.clients[index]
        result = self.results[index]
        ops = self._iterators[index]
        for number in range(self._warm_ops):
            result.run_op(client, next(ops), f"{index}-warm-{number}")
        self._ready.wait()
        self._go.wait()
        deadline = time.perf_counter() + self._seconds
        number = 0
        while time.perf_counter() < deadline:
            op = next(ops)
            result.latencies.append(
                result.run_op(client, op, f"{index}-{number}"))
            result.ends.append(time.perf_counter())
            number += 1

