"""HTTPBackend: the repository's own HTTP API as a StorageBackend.

The closing piece of the serving loop: the server
(:mod:`repro.repository.server`) exposes a
:class:`~repro.repository.service.RepositoryService` over HTTP, and
this client implements the full
:class:`~repro.repository.backends.StorageBackend` contract *against*
that API — so a remote repository plugs in anywhere a local backend
does.  That includes wrapping it in another ``RepositoryService`` (a
read-through cache in front of a remote store), sharding across several
servers, or handing it straight to the conformance suite: because the
interface is the same, ``tests/repository/test_backends.py`` holds the
whole wire round-trip to the storage contract without a single
HTTP-specific assertion.

Error fidelity is the point of the wire format: the server transmits
the exception's class name plus its structured arguments, and
:func:`_remote_error` rebuilds the *same*
:mod:`repro.core.errors` class the in-process backend would have
raised — ``EntryNotFound`` with its identifier and version,
``DuplicateEntry`` with its identifier, ``StorageError`` and friends
with their message.  An unrecognised error type degrades to
``StorageError`` rather than crossing the boundary as something
un-catchable.

Connections are keep-alive :class:`~repro.repository.wire.Connection`
objects, one per calling thread (the connection object is not
thread-safe; a thread-local keeps the hot path allocation-free).  Each
owns one socket and one buffered reader for its whole life: a request
is one write of head and body, and every response is read from that
reader, its head by :func:`~repro.repository.wire.read_headers`.  An
answer that closes the connection drops its socket, and the next
request opens a fresh one.  A connection idle
past ``idle_reuse_limit`` is replaced *before* reuse — servers close
idle connections, and that close often surfaces only at response time,
where a write cannot be safely retried.  Residual failures run under
the sanctioned :class:`~repro.repository.resilience.RetryPolicy`
(jittered backoff, a shared retry budget, ``Retry-After`` pacing, the
ambient deadline as a hard stop); *which* failures retry stays
phase-aware: a failed send retries for any method (the request never
reached the server), a failed response only for idempotent GETs and
for a clean ``RemoteDisconnected`` (the stale keep-alive signature:
the peer closed without sending so much as a status line, so the
request was not processed), and a 503 shed for any method (refused
before admission).  Any other response failure on a write raises as
:class:`~repro.core.errors.BackendUnavailableError`, because its fate
is genuinely unknown.  An ambient
:class:`~repro.repository.resilience.Deadline` caps every attempt's
socket timeout and rides the wire as ``X-Deadline-Ms``.

The wire itself is kept cheap in both directions (mirroring the
server's side of the protocol):

* **Conditional point reads** — every 200 from ``GET /entries/{id}``
  carries an ``ETag`` built from the entry's digest (the server's one
  validator, so only a write to that entry moves it, whichever server
  over the store took the write); the client remembers
  ``path -> (etag, entry)`` in a bounded validation cache and
  revalidates with ``If-None-Match``.  A 304 answer returns the cached
  snapshot with zero JSON decoded on either end.
* **Compression** — every request advertises ``Accept-Encoding:
  gzip`` and transparently inflates compressed responses; request
  bodies above the shared threshold are gzipped on the way out.
* **Streaming batches** — ``get_many``/``versions_many`` opt into the
  server's chunked NDJSON bodies (``Accept: application/x-ndjson``)
  and decode page by page; :meth:`HTTPBackend.iter_many` exposes the
  incremental form directly, yielding entries as chunks arrive so a
  10k-identifier bulk read never buffers the whole corpus here.  Warm
  reads skip decoding entirely through a byte-keyed
  :class:`~repro.repository.codec.LineMemo` (the codec is
  deterministic, so identical bytes are the same snapshot);
  ``stream_batches=False`` pins the buffered JSON bodies instead.

Every request takes its method and path from
:data:`~repro.repository.routes.ROUTES`, the table the server
dispatches from.  Buffered and streamed requests open through one step
(:meth:`HTTPBackend._open`), so either fails with the same typed error.
"""

from __future__ import annotations

import gzip
import http.client
import json
import threading
import time
import weakref
import zlib
from typing import Iterable, Iterator, Sequence
from urllib.parse import urlsplit

from repro.core.errors import (
    BackendUnavailableError,
    CircuitOpenError,
    CurationError,
    DeadlineExceeded,
    DuplicateEntry,
    EntryNotFound,
    StorageError,
    TemplateError,
    VersioningError,
    WikiSyncError,
)
from repro.repository.backends.base import (
    GetRequest,
    StorageBackend,
    _split_request,
)
from repro.repository.codec import (
    GZIP_LEVEL,
    GZIP_MIN_BYTES,
    NDJSON_TYPE,
    LineMemo,
    decode_entry,
    entry_from_dict,
)
from repro.repository.codec import _KeyedLRU
from repro.repository.concurrency import Mutex
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    QueryPlan,
    QueryResult,
    QueryStats,
    plan_to_dict,
    result_from_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.repository.resilience import (
    Deadline,
    RetryBudget,
    RetryPolicy,
    current_deadline,
)
from repro.repository.routes import ROUTES
from repro.repository.versioning import Version
from repro.repository.wire import Connection, Headers, Response

__all__ = ["HTTPBackend"]

#: Error classes the server may name; message-only constructors except
#: for the two reconstructed with their structured arguments below.
_ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (
        StorageError,
        VersioningError,
        TemplateError,
        CurationError,
        WikiSyncError,
        DeadlineExceeded,
    )
}


def _remote_error(status: int, payload: object) -> StorageError:
    """The wire error as the class the server named."""
    detail = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(detail, dict):
        return StorageError(f"server returned HTTP {status} with no "
                            f"error detail: {payload!r}")
    name = detail.get("type")
    message = detail.get("message", f"HTTP {status}")
    if name == "EntryNotFound":
        return EntryNotFound(
            detail.get("identifier", "?"), detail.get("version")
        )
    if name == "DuplicateEntry":
        return DuplicateEntry(detail.get("identifier", "?"))
    # Reconstructed with their ``retry_after`` pacing hint intact, so a
    # retry policy on this side of the wire paces itself off the server's.
    if name == "CircuitOpenError":
        return CircuitOpenError(message, retry_after=detail.get("retry_after"))
    if name == "BackendUnavailableError":
        return BackendUnavailableError(
            message, retry_after=detail.get("retry_after")
        )
    return _ERROR_CLASSES.get(name, StorageError)(message)


def _transport_error(phase: str, base_url: str, error: Exception,
                     deadline: Deadline | None) -> StorageError:
    """Classify one connection-level failure into the typed taxonomy.

    Raw ``ConnectionRefusedError`` / ``socket.timeout`` / HTTP protocol
    errors all become :class:`BackendUnavailableError` (tagged with the
    ``phase`` — send or response — that failed, which is what decides
    retryability), except a timeout that fired because the *ambient
    deadline* ran out: that is the caller's clock expiring, reported as
    :class:`DeadlineExceeded` and never retried.
    """
    if (isinstance(error, TimeoutError)
            and deadline is not None and deadline.expired):
        return DeadlineExceeded(
            f"deadline expired awaiting {base_url} ({phase}): {error}")
    if phase == "send":
        message = f"repository server unreachable at {base_url}: {error}"
    else:
        message = (f"no response from the repository server at "
                   f"{base_url}: {error}")
    wrapped = BackendUnavailableError(message)
    wrapped.phase = phase
    wrapped.disconnect = isinstance(error, http.client.RemoteDisconnected)
    return wrapped


def _shed_error(headers: Headers, raw: bytes) -> StorageError:
    """A 503: the server refused admission *before* doing any work.

    Safe to retry for any method (the request was never processed);
    the ``Retry-After`` header (or the error payload's ``retry_after``)
    becomes the policy's pacing hint.
    """
    retry_after: float | None = None
    header = headers.get("Retry-After")
    if header is not None:
        try:
            retry_after = float(header)
        except ValueError:
            retry_after = None
    message = "server refused admission (HTTP 503)"
    try:
        detail = json.loads(raw).get("error", {})
        message = detail.get("message", message)
        if retry_after is None:
            retry_after = detail.get("retry_after")
    except (ValueError, AttributeError):
        pass
    error = BackendUnavailableError(message, retry_after=retry_after)
    error.shed = True
    return error


class _ValidationCache(_KeyedLRU):
    """Conditional-read state: request path -> (etag, entry snapshot).

    The server's ETag needs no invalidation protocol here.  On every
    backend it digests the entry's canonical payload, so only a write
    to *that* entry misses the next revalidation, and a miss is one
    full 200 that replaces the stale pair.  Entries are immutable value
    objects, so handing the cached snapshot back on a 304 is safe.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        super().__init__(maxsize)

    def get(self, path: str) -> "tuple[str, ExampleEntry] | None":
        return self._get(path)

    def put(self, path: str, etag: str, entry: ExampleEntry) -> None:
        self._put(path, (etag, entry))


class HTTPBackend(StorageBackend):
    """A remote repository server, spoken to through StorageBackend."""

    #: Query plans execute on the server (which pushes them further
    #: down or evaluates its own index) — never materialised here, so
    #: from this side of the wire the path is as "native" as SQLite's.
    supports_native_query = True

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 idle_reuse_limit: float = 25.0,
                 stream_batches: bool = True,
                 retry_policy: RetryPolicy | None = None) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise StorageError(
                f"HTTPBackend needs an http://host:port URL, "
                f"got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.host = split.hostname
        self.port = split.port or 80
        #: A path in the base URL (a reverse-proxy mount like
        #: ``http://host/repo``) is honoured: every request path is
        #: sent under it, rather than silently aimed at the root.
        self._prefix = split.path.rstrip("/")
        self.timeout = timeout
        #: A kept-alive connection idle longer than this is replaced
        #: *before* reuse.  Servers close idle connections (this
        #: repository's handler timeout is 30s), and the close race
        #: usually surfaces only at response time — where a write
        #: cannot be safely retried.  Refreshing proactively below the
        #: server's horizon keeps writes off that path entirely.
        self.idle_reuse_limit = idle_reuse_limit
        self._local = threading.local()
        #: Weak references to every live connection, so close() can
        #: drop them all (thread-locals only reach the closing thread's
        #: own).  Weak, not strong: a thread's death drops its
        #: thread-local — the sole strong reference — so the socket is
        #: freed then instead of pinned here until close() (a
        #: long-lived proxy serving many short-lived handler threads
        #: would otherwise leak one descriptor per thread).
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._connections_mutex = Mutex()
        self._closed = False
        #: Whether batch reads use the server's chunked NDJSON bodies
        #: (False pins the buffered JSON bodies — the comparison
        #: baseline, and the escape hatch if a proxy mangles chunking).
        #: A stream request answered without a stream is an error.
        self.stream_batches = stream_batches
        #: path -> (etag, entry): the conditional-read state for get().
        self._validation = _ValidationCache()
        #: raw NDJSON line -> hydrated entry: the streamed-read decode
        #: fast path (byte-identical lines are the same snapshot).
        self._line_memo = LineMemo()
        #: The sanctioned retry mechanism (replacing the bespoke
        #: two-attempt loops this client used to carry): decorrelated
        #: jitter so synchronized clients do not re-storm the server,
        #: and a shared retry *budget* so a hard outage degrades to a
        #: trickle of retries instead of tripling every caller's
        #: traffic.  Which failures are retried at all stays
        #: phase-aware (:meth:`_retryable`).
        if retry_policy is None:
            retry_policy = RetryPolicy(
                max_attempts=3, base_delay=0.02, max_delay=1.0,
                budget=RetryBudget(capacity=16.0, refill_rate=0.2),
            )
        self.retry_policy = retry_policy

    # ------------------------------------------------------------------
    # The wire.
    # ------------------------------------------------------------------

    def _connection(self) -> Connection:
        connection = getattr(self._local, "connection", None)
        if connection is not None and (
                connection.sock is None  # a Connection: close answer
                or time.monotonic() - self._local.last_used
                > self.idle_reuse_limit):
            # The server has likely closed this idle connection; its
            # FIN only surfaces at response time, too late for a safe
            # write retry.  Replace it up front.
            self._drop_connection()
            connection = None
        if connection is None:
            connection = Connection(
                self.host, self.port, timeout=self.timeout
            )
            connection.connect()
            self._local.connection = connection
            with self._connections_mutex:
                self._connections.add(connection)
        self._local.last_used = time.monotonic()
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None
            with self._connections_mutex:
                self._connections.discard(connection)

    def _call(self, name: str, identifier: str | None = None,
              payload: dict | None = None) -> dict:
        """One buffered call of the route ``name`` in ``ROUTES``."""
        route = ROUTES[name]
        return self._request(route.method, route.url(identifier), payload)

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> dict:
        status, _, raw = self._round_trip(method, path, payload)
        return self._decode(status, raw)

    @staticmethod
    def _prepare_body(payload: dict | None) -> "tuple[bytes | None, dict]":
        """Encode one request body, gzipping past the wire threshold."""
        headers = {"Accept-Encoding": "gzip"}
        if payload is None:
            return None, headers
        body = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
        if len(body) >= GZIP_MIN_BYTES:
            body = gzip.compress(body, compresslevel=GZIP_LEVEL)
            headers["Content-Encoding"] = "gzip"
        return body, headers

    def _round_trip(
        self, method: str, path: str, payload: dict | None = None,
        extra_headers: dict | None = None,
    ) -> "tuple[int, Headers, bytes]":
        """One buffered exchange: (status, headers, inflated body).

        Attempts run under :attr:`retry_policy` (jittered backoff, a
        shared retry budget, ``Retry-After`` pacing, the ambient
        deadline as a hard stop).  *Which* failures retry at all stays
        phase-aware, decided by :meth:`_retryable`:

        * connect/*send* failed — the request never reached the
          server, so a retry on a fresh connection is safe for any
          method;
        * *response* failed — idempotent GETs retry, and so does a
          clean ``RemoteDisconnected`` for any method: the peer closed
          without emitting even a status line, which is the signature
          of a keep-alive socket that went stale under us — the
          request was never processed.  Anything else on a write
          raises, because its fate is genuinely unknown;
        * the server *shed* the request (503 before admission) — never
          processed, so any method retries, paced by ``Retry-After``.
        """
        if self._closed:
            raise StorageError("HTTPBackend is closed")
        body, headers = self._prepare_body(payload)
        if extra_headers:
            headers.update(extra_headers)
        return self.retry_policy.call(
            lambda: self._exchange(method, path, body, headers),
            classify=lambda error: self._retryable(method, error),
        )

    def _exchange(
        self, method: str, path: str, body: "bytes | None", headers: dict,
    ) -> "tuple[int, Headers, bytes]":
        """One buffered attempt: open, then read the inflated body."""
        response = self._open(method, path, body, headers)
        return response.status, response.headers, self._read_body(response)

    def _open(
        self, method: str, path: str, body: "bytes | None", headers: dict,
    ) -> Response:
        """One attempt: send and await the status line, body unread.

        The ambient deadline, when one is set, caps the socket timeout
        for this attempt and rides the wire as ``X-Deadline-Ms`` so
        the server (and anything behind it) inherits the same clock.
        A 503 raises as a shed.
        """
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(f"{method} {path}")
            headers = dict(headers)
            headers["X-Deadline-Ms"] = str(
                max(1, int(deadline.remaining() * 1000)))
        try:
            connection = self._connection()
            # Per-attempt timeout: the deadline's remaining time when
            # one governs, the configured default otherwise (also
            # resets any tighter cap a previous attempt left behind).
            connection.sock.settimeout(
                deadline.cap(self.timeout) if deadline is not None
                else self.timeout)
            connection.request(method, self._prefix + path,
                               body=body, headers=headers)
        except (OSError, http.client.HTTPException) as error:
            self._drop_connection()
            raise _transport_error(
                "send", self.base_url, error, deadline) from error
        try:
            response = connection.getresponse()
        except (OSError, http.client.HTTPException) as error:
            self._drop_connection()
            raise _transport_error(
                "response", self.base_url, error, deadline) from error
        if response.status == 503:
            raise _shed_error(response.headers, self._read_body(response))
        return response

    def _read_body(self, response: Response) -> bytes:
        """Read and inflate a whole body; a failed read (a body cut
        short, a timeout) is the typed response-phase error."""
        try:
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self._drop_connection()
            raise _transport_error("response", self.base_url, error,
                                   current_deadline()) from error
        return self._inflate(response, raw)

    @staticmethod
    def _retryable(method: str, error: BaseException) -> bool:
        """Phase-aware retry decision (see :meth:`_round_trip`)."""
        if not isinstance(error, BackendUnavailableError):
            return False
        if getattr(error, "shed", False):
            return True  # refused before admission: never processed
        phase = getattr(error, "phase", None)
        if phase == "send":
            return True
        if phase == "response":
            return method == "GET" or getattr(error, "disconnect", False)
        return False

    @staticmethod
    def _inflate(response, raw: bytes) -> bytes:
        """Undo the response's Content-Encoding (identity or gzip)."""
        coding = (response.headers.get("Content-Encoding") or "identity")
        coding = coding.strip().lower()
        if coding in ("", "identity") or not raw:
            return raw
        if coding != "gzip":
            raise StorageError(
                f"server sent unsupported Content-Encoding {coding!r}")
        try:
            return gzip.decompress(raw)
        except (OSError, zlib.error) as error:
            raise StorageError(
                f"server sent a bad gzip body: {error}") from error

    @staticmethod
    def _decode(status: int, raw: bytes) -> dict:
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError as error:
            raise StorageError(
                f"server sent malformed JSON (HTTP {status}): "
                f"{error}") from error
        if status >= 400:
            raise _remote_error(status, payload)
        if not isinstance(payload, dict):
            raise StorageError(
                f"server response is not an object: "
                f"{type(payload).__name__}")
        return payload

    # ------------------------------------------------------------------
    # Point operations.
    # ------------------------------------------------------------------

    def identifiers(self) -> list[str]:
        return self._call("list_entries")["identifiers"]

    def versions(self, identifier: str) -> list[Version]:
        payload = self._call("versions", identifier)
        return [Version.parse(text) for text in payload["versions"]]

    def get(self, identifier: str,
            version: Version | None = None) -> ExampleEntry:
        path = ROUTES["get_entry"].url(identifier)
        if version is not None:
            path += f"?version={version}"
        # Conditional read: revalidate the cached snapshot by ETag.  A
        # 304 costs a header exchange — no JSON is encoded, shipped or
        # decoded on either end.
        cached = self._validation.get(path)
        conditional = ({"If-None-Match": cached[0]}
                       if cached is not None else None)
        status, headers, raw = self._round_trip("GET", path,
                                                extra_headers=conditional)
        if status == 304 and cached is not None:
            return cached[1]
        payload = self._decode(status, raw)
        entry = entry_from_dict(payload["entry"])
        etag = headers.get("ETag")
        if etag:
            self._validation.put(path, etag, entry)
        return entry

    def has(self, identifier: str) -> bool:
        return self._call("has", identifier)["has"]

    def add(self, entry: ExampleEntry) -> None:
        self._call("add", payload={"entry": entry.to_dict()})

    def add_version(self, entry: ExampleEntry) -> None:
        self._call("add_version", entry.identifier,
                   {"entry": entry.to_dict()})

    def replace_latest(self, entry: ExampleEntry) -> None:
        self._call("replace_latest", entry.identifier,
                   {"entry": entry.to_dict()})

    def entry_count(self) -> int:
        # GET /counter, not /stats: the stats payload recomputes the
        # full (composite-recursive) cache merge per call, and these
        # two integers sit on hot paths.
        return self._call("counter")["entry_count"]

    # ------------------------------------------------------------------
    # Batch operations: one request each.
    # ------------------------------------------------------------------

    def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        batch = [entry.to_dict() for entry in entries]
        return self._call("add", payload={"entries": batch})["count"]

    def get_many(self,
                 requests: Sequence[GetRequest]) -> list[ExampleEntry]:
        if self.stream_batches:
            return list(self.iter_many(requests))
        payload = self._call(
            "batch_get", payload={"requests": self._wire_requests(requests)})
        return [entry_from_dict(data) for data in payload["entries"]]

    def iter_many(self,
                  requests: Sequence[GetRequest]) -> Iterator[ExampleEntry]:
        """Resolve many entries incrementally, in request order.

        Entries are yielded as the server's NDJSON chunks arrive — a
        10k-identifier bulk read holds one page of lines here, never
        the whole corpus as one JSON body.  Warm lines skip decoding
        through the byte-keyed :class:`LineMemo`.  Abandoning the
        iterator mid-stream drops the (now desynced) connection; the
        next request simply opens a fresh one.
        """
        payload = {"requests": self._wire_requests(requests)}
        for line in self._stream_lines("batch_get", payload):
            entry = self._line_memo.get(line)
            if entry is None:
                entry = decode_entry(line)
                self._line_memo.put(line, entry)
            yield entry

    @staticmethod
    def _wire_requests(requests: Sequence[GetRequest]) -> list:
        wire = []
        for request in requests:
            identifier, version = _split_request(request)
            wire.append(
                [identifier, str(version) if version is not None else None]
            )
        return wire

    def versions_many(
            self, identifiers: Sequence[str]) -> dict[str, list[Version]]:
        if self.stream_batches:
            listing: dict[str, list[Version]] = {}
            for line in self._stream_lines(
                    "batch_versions", {"identifiers": list(identifiers)}):
                data = json.loads(line)
                listing[data["identifier"]] = [
                    Version.parse(text) for text in data["versions"]
                ]
            return listing
        payload = self._call(
            "batch_versions", payload={"identifiers": list(identifiers)})
        return {
            identifier: [Version.parse(text) for text in versions]
            for identifier, versions in payload["versions"].items()
        }

    def _stream_lines(self, name: str, payload: dict) -> Iterator[bytes]:
        """Send one batch to the route ``name`` and yield its NDJSON
        data lines as they land.

        The request opens through :meth:`_open`, like a buffered one;
        an error status raises its wire error, and any other answer that
        is not a stream raises :class:`StorageError`.  The terminating
        frame protocol makes truncation detectable: a successful stream
        ends with ``{"_stream": "end", "count": n}`` whose count must
        match the lines seen; a server-side failure after the headers
        arrives as ``{"_stream": "error", ...}`` and re-raises exactly
        like a buffered error response; an EOF with neither is an error.
        """
        if self._closed:
            raise StorageError("HTTPBackend is closed")
        route = ROUTES[name]
        body, headers = self._prepare_body(payload)
        headers["Accept"] = NDJSON_TYPE
        # Only the prologue (send + status line) retries; once body
        # chunks may have been consumed a retry could replay lines.
        response = self.retry_policy.call(
            lambda: self._open(route.method, route.url(), body, headers),
            classify=lambda error: self._retryable(route.method, error),
        )
        content_type = response.headers.get("Content-Type", "").lower()
        if response.status >= 400:  # _decode raises the wire error
            self._decode(response.status, self._read_body(response))
        if NDJSON_TYPE not in content_type:
            self._drop_connection()  # its unread body would desync it
            raise StorageError(f"server answered HTTP {response.status} "
                               f"without a stream")
        coding = (response.headers.get("Content-Encoding")
                  or "identity").strip().lower()
        inflater = (zlib.decompressobj(16 + zlib.MAX_WBITS)
                    if coding == "gzip" else None)
        buffer = bytearray()
        lines_seen = 0
        end_count: int | None = None
        error_frame: dict | None = None
        complete = False
        try:
            while end_count is None and error_frame is None:
                chunk = response.read(65536)
                if not chunk:
                    break
                if inflater is not None:
                    chunk = inflater.decompress(chunk)
                buffer += chunk
                start = 0
                while end_count is None and error_frame is None:
                    newline = buffer.find(b"\n", start)
                    if newline < 0:
                        break
                    line = bytes(buffer[start:newline])
                    start = newline + 1
                    if not line:
                        continue
                    if line.startswith(b'{"_stream"'):
                        frame = json.loads(line)
                        marker = frame.get("_stream")
                        if marker == "end":
                            end_count = frame.get("count")
                        elif marker == "error":
                            error_frame = frame
                        else:
                            raise StorageError(
                                f"unknown stream frame: {line!r}")
                    else:
                        lines_seen += 1
                        yield line
                del buffer[:start]
            # Drain to EOF: the chunked terminator must be consumed or
            # the keep-alive connection stays desynced.
            while response.read(65536):
                pass
            complete = True
        except (OSError, http.client.HTTPException, zlib.error) as error:
            raise StorageError(
                f"streamed batch read failed mid-stream: {error}"
            ) from error
        finally:
            if not complete:
                # Mid-stream failure OR an abandoned iterator: either
                # way unread chunks poison the connection for the next
                # request, so it is dropped, not reused.
                self._drop_connection()
        if error_frame is not None:
            raise _remote_error(response.status, error_frame)
        if end_count is None:
            self._drop_connection()
            raise StorageError(
                "streamed batch response was truncated: the stream "
                "ended without an end frame")
        if end_count != lines_seen:
            raise StorageError(
                f"streamed batch response dropped lines: the end frame "
                f"counted {end_count}, {lines_seen} arrived")

    # ------------------------------------------------------------------
    # Queries: executed server-side, results rehydrated.
    # ------------------------------------------------------------------

    def execute_query(self, plan: QueryPlan,
                      stats: QueryStats | None = None) -> QueryResult:
        payload = {
            "plan": plan_to_dict(plan),
            "stats": stats_to_dict(stats) if stats is not None else None,
        }
        return result_from_dict(self._call("query", payload=payload))

    def query_stats(self, terms: Sequence[str]) -> QueryStats:
        return stats_from_dict(
            self._call("query_stats", payload={"terms": list(terms)}))

    def change_counter(self) -> int | None:
        return self._call("counter")["change_counter"]

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """The *server's* read-path counters, namespaced ``server:...``.

        The prefix keeps a sibling backend's caches in a composite
        (a local ``decode_memo``, say) from colliding with the remote
        service's identically named groups when the stats are
        merged.
        """
        remote = self._call("stats")["cache"]
        return {f"server:{name}": dict(counters)
                for name, counters in remote.items()}

    def wire_cache_stats(self) -> dict[str, dict[str, int]]:
        """Counters of this client's OWN wire caches.

        Deliberately not part of :meth:`cache_stats`: that method
        reports the remote server's read path (namespaced
        ``server:...``), and a composite merging several HTTPBackends
        must not conflate local validation hits with remote cache
        hits.
        """
        return {
            "validation": self._validation.stats(),
            "line_memo": self._line_memo.stats(),
        }

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every still-live connection this backend opened."""
        self._closed = True
        with self._connections_mutex:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()
