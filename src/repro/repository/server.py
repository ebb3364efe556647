"""A stdlib-only HTTP/JSON API in front of the repository stack.

The paper's repository is meant to be *used* — browsed, queried and
extended by a community — and every comparable community catalogue
(bnRep's shiny front-end, the Formal Contexts repository's web
interface) puts a network API in front of the collection.  This module
is that layer, built entirely on the standard library so the container
constraint (no new dependencies) holds:

    client (`repro.repository.client.HTTPBackend`, curl, a browser)
        │  HTTP/1.1 + JSON (the wire codec in repro.repository.query)
        ▼
    RepositoryServer (ThreadingHTTPServer: one thread per connection)
        ▼
    RepositoryService (the StorageBackend facade: RW lock, group commit,
                       events)
        ▼
    StorageBackend (memory / file / sqlite / sharded / replicated)

Endpoints: every route is one row of
:data:`~repro.repository.routes.ROUTES`, where each row's comment says
what it serves.  Plain rows are served by the function in the row; the
entry GET, the batch streams, ``/stats`` and ``/wiki`` by a
``_handle_<name>`` method here.

The wire itself is kept as cheap as the caches behind it:

* **Conditional reads** — ``GET /entries/{id}`` and ``GET /wiki/{id}``
  send a weak ``ETag`` and honour ``If-None-Match``: a match answers
  ``304 Not Modified`` with no body and no codec work on either end.
  There is one validator, the entry digest: a digest of the entry's
  canonical codec payload (kept on the entry object, see
  :mod:`repro.repository.codec`), which is also the entry's 200 body.
  A write to one entry leaves every other entry's ETags valid, and two
  servers over one store mint the same tags.  The entry handler asks
  the backend for ``get_payload`` — ``(payload, digest)`` — so a 200
  and a 304 cost the same read: over SQLite one row read that serves
  the stored payload and its stored digest, with no decode; elsewhere
  one ``get``, whose entry keeps both.  The wiki handler reads the
  entry with one ``get`` and renders the page from it on every 200;
  its ETag adds :data:`PAGE_EPOCH` to the digest, so a page rendered
  by an older process never revalidates.  ``/stats`` is live counters
  and sends no ETag.
* **Compression** — ``Accept-Encoding: gzip`` is negotiated and bodies
  of ``GZIP_MIN_BYTES`` (one Ethernet segment) or more are gzipped:
  a smaller body saves no packet by shrinking, so it skips the CPU;
  request bodies may arrive with ``Content-Encoding: gzip``.  An
  Accept-Encoding that rules out every supported coding is a 406, an
  unknown Content-Encoding a 415 — structured errors, like the rest.
* **Streaming batches** — a ``POST /batch/get`` or ``/batch/versions``
  with ``Accept: application/x-ndjson`` streams chunked NDJSON: data
  lines are the codec's canonical entry payloads (or
  ``{"identifier", "versions"}`` objects), encoded page by page
  straight out of ``get_many``/``versions_many``, terminated by a
  ``{"_stream": "end", "count": n}`` frame (or an
  ``{"_stream": "error", ...}`` frame if a later page fails).  A 10k
  bulk read never materialises the whole corpus as one JSON body on
  either end, and an entry object already encoded (or decoded from
  stored bytes) streams its payload as is — no ``to_dict``, no
  ``dumps``.  Without the Accept header the endpoints answer one
  buffered JSON body; the batch get splices the same kept payloads
  into its ``{"entries": [...]}``.
* **One pass per answer** — every answer but the stdlib's
  ``send_error`` to a refused head leaves through
  :meth:`_Handler._send_message`: the status line and the fields are
  formatted in one pass (the fields and order the stdlib's
  ``send_response``/``send_header`` sequence wrote, with ``Date``
  formatted once a second) and sent with the body in one write.  The
  request side is as lean: an origin-form target splits without
  ``urlsplit``, and the deadline scope is entered only for a request
  that carries ``X-Deadline-Ms``.

Errors travel as ``{"error": {"type": ..., "message": ..., ...}}`` with
a faithful status (404 EntryNotFound, 409 DuplicateEntry, 400 for the
other repository errors) and enough structure for
:class:`~repro.repository.client.HTTPBackend` to re-raise the *same*
exception class the in-process backend would have raised — which is
what lets the unchanged backend conformance suite hold the whole wire
round-trip to the storage contract.

Concurrency: ``ThreadingHTTPServer`` gives every connection its own
handler thread.  The service's writer-preference ReadWriteLock admits
all readers concurrently, and writes that arrive while another commits
queue behind it and commit together as one group, exactly as for
in-process threads.  An entry GET is a point read, which skips the
service's lock and never waits behind a write.  The server adds no
locking of its own.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import json
import logging
import re
import threading
import time
import zlib
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, quote, unquote, urlsplit

from repro.core.errors import (
    BackendUnavailableError,
    BxError,
    DeadlineExceeded,
    DuplicateEntry,
    EntryNotFound,
    StorageError,
)
from repro.repository.backends import StorageBackend, create_backend
from repro.repository.concurrency import Mutex
from repro.repository.codec import (
    GZIP_LEVEL,
    GZIP_MIN_BYTES,
    NDJSON_TYPE,
    encode_entry,
    entry_digest,
)
from repro.repository.export import render_wikidot
from repro.repository.resilience import Deadline, deadline_scope
from repro.repository.routes import ROUTES, Route, field
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version
from repro.repository.wire import BadHead, read_headers

__all__ = ["RepositoryServer", "main"]

_log = logging.getLogger("repro.repository.server")

#: ``ROUTES`` compiled once, per method, in table order: the path
#: matcher, the row, its ``/stats`` counter key and, for a row without
#: ``serve``, the name of its ``_handle_<name>`` method.
_DISPATCH: dict[str, list[tuple]] = {
    method: [
        (route.pattern().match, route, f"{method} {route.name}",
         None if route.serve is not None else f"_handle_{route.name}")
        for route in ROUTES.values() if route.method == method
    ]
    for method in {route.method for route in ROUTES.values()}
}


#: Entries per streamed NDJSON page: one get_many call, one chunk.
STREAM_PAGE_SIZE = 256

#: Minted once per process and part of every wiki ETag: the page is a
#: function of the entry *and* of this process's renderer, so a page
#: validated by a process that has since restarted (perhaps on a newer
#: renderer) never revalidates.
PAGE_EPOCH = f"{time.time_ns():x}"

#: Seconds between the accept loop's shutdown checks: ``stop()`` waits
#: at most this long for ``serve_forever`` to notice it (the stdlib
#: default is 0.5 s).
_POLL_INTERVAL = 0.05


def _wire_error(status: int, message: str) -> StorageError:
    """A StorageError pinned to a specific HTTP status.

    For conditions that exist only at the wire (unacceptable
    Accept-Encoding, unknown Content-Encoding, malformed conditional
    headers): the payload still names ``StorageError`` so the client
    re-raises the class in-process callers would see, but the status
    stays honest (406/415/400 instead of a generic 400).
    """
    error = StorageError(message)
    error.http_status = status
    return error


@functools.lru_cache(maxsize=16)
def _http_version(text: str) -> tuple[int, int] | None:
    """``HTTP/x.y`` as numbers, or None: the stdlib's rules (one dot,
    decimal components of at most ten digits, leading zeros ignored).

    Memoised: nearly every request line ends in ``HTTP/1.1``.
    """
    if not text.startswith("HTTP/"):
        return None
    components = text[5:].split(".")
    if len(components) != 2 or not all(
            part.isascii() and part.isdigit() and len(part) <= 10
            for part in components):
        return None
    return int(components[0]), int(components[1])


#: One If-None-Match member: ``*`` or an (optionally weak) quoted tag.
_ETAG_MEMBER_RE = re.compile(r'\s*(\*|(?:W/)?"[^"]*")\s*(?:,|$)')
#: An Accept-Encoding quality parameter: ``q=0``, ``q=0.5``, ``q=1.000``.
_QVALUE_RE = re.compile(r"^q\s*=\s*(\d(?:\.\d{0,3})?)$")


#: What ``quote(part, safe="")`` leaves as it is.
_URL_SAFE = re.compile(r"[A-Za-z0-9_.~-]*")


def _make_etag(*parts: str) -> str:
    """A weak ETag from opaque parts (percent-quoted, '/'-joined).

    Weak because the same snapshot has several byte representations
    (gzip vs identity, and the wiki page vs the entry behind it);
    quoting keeps identifiers from smuggling '"' into the header.  A
    part that quoting would leave unchanged (a hex digest, a version)
    skips it.
    """
    opaque = "/".join(part if _URL_SAFE.fullmatch(part)
                      else quote(part, safe="") for part in parts)
    return f'W/"{opaque}"'


def _etag_opaque(tag: str) -> str:
    """The comparison form of an ETag: weak-prefix stripped."""
    return tag[2:] if tag.startswith("W/") else tag


def _revalidates(header: str, etag: str) -> bool:
    """Whether an If-None-Match ``header`` names ``etag`` (weak compare).

    Parsed strictly: anything that is not a comma-separated list of
    ``*`` / quoted (optionally ``W/``-weak) tags is a 400 — silently
    ignoring a malformed validator would turn every request from that
    client into a full 200 without anyone noticing the cache stopped
    working.  ``*`` is accepted syntactically but never matches: it is
    the lost-update guard for writes, and honouring it on reads would
    304 a resource that does not even exist.
    """
    tags: list[str] = []
    position = 0
    for match in _ETAG_MEMBER_RE.finditer(header):
        if match.start() != position:
            break
        position = match.end()
        tags.append(match.group(1))
    if position != len(header) or not tags:
        raise _wire_error(400, f"malformed If-None-Match header: {header!r}")
    opaque = _etag_opaque(etag)
    return any(tag != "*" and _etag_opaque(tag) == opaque for tag in tags)


@functools.lru_cache(maxsize=64)
def _response_encoding(header: str | None) -> str:
    """Negotiate the response coding from an Accept-Encoding value.

    ``gzip`` and ``identity`` are the supported codings; unknown ones
    are ignored per RFC 9110 (they simply never win).  The client's
    q-values are respected — ties go to gzip, identity is implicitly
    acceptable unless explicitly zeroed — and a header that rules out
    *both* supported codings is a 406 up front, before any handler
    work.  Malformed q-values are a 400.  Memoised: clients send the
    same few values over and over, and a refusal is not cached.
    """
    if header is None or not header.strip():
        return "identity"
    weights: dict[str, float] = {}
    for part in header.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, params = part.partition(";")
        quality = 1.0
        params = params.strip()
        if params:
            match = _QVALUE_RE.match(params)
            if match is None:
                raise _wire_error(400, f"malformed Accept-Encoding: {header!r}")
            quality = float(match.group(1))
        weights[name.strip().lower()] = quality
    gzip_q = weights.get("gzip", weights.get("*", 0.0))
    identity_q = weights.get("identity", weights.get("*", 1.0))
    if gzip_q <= 0 and identity_q <= 0:
        raise _wire_error(
            406,
            "Accept-Encoding rules out both gzip and identity; "
            "this server supports no other content coding")
    return "gzip" if gzip_q >= identity_q and gzip_q > 0 else "identity"


def _split_target(target: str) -> tuple[str, str]:
    """The path and query of a request target, as ``urlsplit`` gives
    them for any target a request line can carry (one that holds no
    whitespace).  An origin-form target (``/path?query#fragment``)
    splits at its first ``#`` and ``?``; any other form goes through
    ``urlsplit``.
    """
    if target[:1] == "/" and target[:2] != "//":
        path, _, query = target.partition("#")[0].partition("?")
        return path, query
    split = urlsplit(target)
    return split.path, split.query


#: Every answer's ``Server`` field, as ``version_string()`` spells it.
_SERVER_FIELD = (f"Server: {BaseHTTPRequestHandler.server_version} "
                 f"{BaseHTTPRequestHandler.sys_version}\r\n")


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` field value ``date_time_string()`` gives during
    ``second``.  The field has one-second resolution, so it is
    formatted once per second."""
    return formatdate(second, usegmt=True)


def _error_status(error: Exception) -> int:
    """The honest HTTP status of one repository error."""
    pinned = getattr(error, "http_status", None)
    if isinstance(pinned, int):
        return pinned
    if isinstance(error, EntryNotFound):
        return 404
    if isinstance(error, DuplicateEntry):
        return 409
    if isinstance(error, DeadlineExceeded):
        return 504  # the caller's clock ran out, not a bad request
    if isinstance(error, BackendUnavailableError):
        return 503  # shed/drain/breaker: try again, with Retry-After
    if isinstance(error, BxError):
        return 400
    return 500


def _error_payload(error: Exception) -> dict:
    """The wire form of an error: type name + message + structure.

    ``identifier``/``version`` ride along when the exception carries
    them, so the client can reconstruct ``EntryNotFound``/
    ``DuplicateEntry`` with their original arguments instead of a
    flattened message.
    """
    detail: dict = {
        "type": type(error).__name__,
        "message": str(error),
    }
    identifier = getattr(error, "identifier", None)
    if isinstance(identifier, str):
        detail["identifier"] = identifier
    version = getattr(error, "version", None)
    if version is not None:
        detail["version"] = str(version)
    retry_after = getattr(error, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        detail["retry_after"] = retry_after
    return {"error": detail}


class _RequestTracker:
    """Admission control: counts, bounds and drains in-flight requests.

    Three duties, one condition variable:

    * **Counting** — ``ThreadingHTTPServer`` runs handlers on *daemon*
      threads, which ``server_close()`` does not join — so
      ``RepositoryServer.stop()`` uses :meth:`wait_idle` to wait
      (bounded) for in-flight requests before, optionally, closing the
      service a handler might still be reading from.
    * **Load shedding** — :meth:`try_enter` refuses once ``limit``
      requests are already inside handlers.  Refusing *early* is the
      point: an overloaded server that queues unboundedly serves every
      request late, one that sheds serves the admitted ones on time.
    * **Graceful drain** — :meth:`begin_drain` refuses *all* new
      requests while the in-flight ones finish normally, which is what
      makes a stop/restart invisible to callers with a retry policy.
    """

    def __init__(self, limit: int | None = None) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._limit = limit
        self._draining = False

    def try_enter(self) -> bool:
        """Admit one request, or refuse (over limit / draining)."""
        with self._cond:
            if self._draining:
                return False
            if self._limit is not None and self._active >= self._limit:
                return False
            self._active += 1
            return True

    def exit(self) -> None:
        with self._cond:
            self._active -= 1
            if self._active == 0:
                self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def begin_drain(self) -> None:
        with self._cond:
            self._draining = True

    def end_drain(self) -> None:
        with self._cond:
            self._draining = False

    def set_limit(self, limit: int | None) -> None:
        """Change the in-flight bound (the soak's overload lever)."""
        with self._cond:
            self._limit = limit

    @property
    def limit(self) -> int | None:
        with self._cond:
            return self._limit

    def wait_idle(self, timeout: float) -> bool:
        """True once no request is in flight (or False on timeout)."""
        with self._cond:
            return self._cond.wait_for(lambda: self._active == 0,
                                       timeout)


class _ServerMetrics:
    """Per-route request counters plus wire-economics ratios.

    One instance per :class:`RepositoryServer`, shared by every handler
    thread (hence the mutex) and surviving stop/start cycles.  The
    snapshot rides inside the ``GET /stats`` payload under ``"server"``
    so operators — and the serving smoke test — can read the 304 hit
    rate and gzip bytes saved straight off the repository.
    """

    def __init__(self) -> None:
        self._mutex = Mutex()
        self._routes: dict[str, int] = {}
        self._conditional = 0
        self._not_modified = 0
        self._gzip_responses = 0
        self._gzip_bytes_raw = 0
        self._gzip_bytes_sent = 0
        self._stream_responses = 0
        self._stream_lines = 0
        self._shed_overload = 0
        self._shed_draining = 0
        self._deadline_rejected = 0
        self._client_aborted = 0

    def count_shed(self, *, draining: bool) -> None:
        with self._mutex:
            if draining:
                self._shed_draining += 1
            else:
                self._shed_overload += 1

    def count_deadline_rejected(self) -> None:
        with self._mutex:
            self._deadline_rejected += 1

    def count_client_aborted(self) -> None:
        with self._mutex:
            self._client_aborted += 1

    def count_route(self, name: str) -> None:
        with self._mutex:
            self._routes[name] = self._routes.get(name, 0) + 1

    def count_conditional(self, hit: bool) -> None:
        with self._mutex:
            self._conditional += 1
            if hit:
                self._not_modified += 1

    def count_gzip(self, raw_bytes: int, sent_bytes: int) -> None:
        with self._mutex:
            self._gzip_responses += 1
            self._gzip_bytes_raw += raw_bytes
            self._gzip_bytes_sent += sent_bytes

    def count_stream(self, lines: int) -> None:
        with self._mutex:
            self._stream_responses += 1
            self._stream_lines += lines

    def snapshot(self) -> dict:
        with self._mutex:
            saved = self._gzip_bytes_raw - self._gzip_bytes_sent
            return {
                "requests": dict(sorted(self._routes.items())),
                "conditional": {
                    "requests": self._conditional,
                    "not_modified": self._not_modified,
                    "hit_rate": (self._not_modified / self._conditional
                                 if self._conditional else 0.0),
                },
                "gzip": {
                    "responses": self._gzip_responses,
                    "bytes_raw": self._gzip_bytes_raw,
                    "bytes_sent": self._gzip_bytes_sent,
                    "bytes_saved_ratio": (saved / self._gzip_bytes_raw
                                          if self._gzip_bytes_raw
                                          else 0.0),
                },
                "stream": {
                    "responses": self._stream_responses,
                    "lines": self._stream_lines,
                },
                "admission": {
                    "shed_overload": self._shed_overload,
                    "shed_draining": self._shed_draining,
                    "deadline_rejected": self._deadline_rejected,
                },
                "client_aborted": self._client_aborted,
            }


class _ChunkedStream:
    """Chunked transfer-encoding writer, optionally gzipping en route.

    Each :meth:`write` becomes (at least) one HTTP/1.1 chunk on the
    wire immediately — with gzip, the compressor is sync-flushed per
    write so the client's incremental decoder always sees whole pages
    without waiting for the stream to finish.  :meth:`close` emits the
    gzip trailer and the terminating zero chunk, which is what keeps
    the keep-alive connection framed and reusable.
    """

    def __init__(self, wfile, *, compress: bool) -> None:
        self._wfile = wfile
        self._gzip = (zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED,
                                       16 + zlib.MAX_WBITS)
                      if compress else None)
        self.raw_bytes = 0
        self.sent_bytes = 0

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self.raw_bytes += len(data)
        if self._gzip is not None:
            data = (self._gzip.compress(data)
                    + self._gzip.flush(zlib.Z_SYNC_FLUSH))
        self._chunk(data)

    def finish(self) -> None:
        """Flush the gzip trailer; byte counters are final after this."""
        if self._gzip is not None:
            self._chunk(self._gzip.flush(zlib.Z_FINISH))
            self._gzip = None

    def close(self) -> None:
        self.finish()
        self._wfile.write(b"0\r\n\r\n")

    def _chunk(self, data: bytes) -> None:
        if not data:
            return
        self.sent_bytes += len(data)
        self._wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self._wfile.write(data)
        self._wfile.write(b"\r\n")


class _Handler(BaseHTTPRequestHandler):
    """One request: route, delegate to the service, encode the answer."""

    #: Keep-alive needs accurate framing; every response below sends
    #: Content-Length, so persistent connections are safe.
    protocol_version = "HTTP/1.1"
    #: A dead keep-alive peer must not pin its handler thread forever.
    timeout = 30
    #: A buffered response is one write, but a stream is a head and
    #: then chunks.  With Nagle on, a later small write stalls behind
    #: the peer's delayed ACK — ~40ms per request on loopback, a 100x
    #: throughput cliff.  The client sets TCP_NODELAY on its own socket
    #: in ``wire.Connection.connect``.
    disable_nagle_algorithm = True

    # The server instance carries the repository objects (see
    # RepositoryServer.start): self.server.repository is the
    # RepositoryService facade.

    # ------------------------------------------------------------------
    # The request head.
    # ------------------------------------------------------------------

    def parse_request(self) -> bool:
        """Parse the request line as the stdlib does, then the fields
        with :func:`~repro.repository.wire.read_headers` instead of
        ``email.feedparser``.

        The request line keeps the stdlib's answers: 400 for bad syntax
        or version, 505 from HTTP/2 on, ``//`` collapsed to ``/``, and
        HTTP/1.0 closing by default.  A refused field gets its 400/431
        and the connection closes; a head cut short closes it with
        nothing sent, since there is no request to answer.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _http_version(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1):  # protocol_version is HTTP/1.1
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # A leading "//" would read as a scheme-relative URI (gh-87389).
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        refused = None  # answered below, outside the except block
        try:
            self.headers = read_headers(self.rfile)
        except BadHead as bad:
            refused = bad
        if refused is not None:
            self.close_connection = True
            if not refused.cut_short:
                self.send_error(refused.status, str(refused))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (self.headers.get("Expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """The stdlib's error answer to a refused head; a peer that hung
        up before it went out is an abort, not a traceback."""
        try:
            super().send_error(code, message, explain)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            self.server.metrics.count_client_aborted()

    # ------------------------------------------------------------------
    # Entry points per verb.
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server's contract
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server's contract
        self._dispatch("PUT")

    def _dispatch(self, method: str) -> None:
        tracker = self.server.request_tracker
        try:
            if not tracker.try_enter():
                self._refuse(method, draining=tracker.draining)
                return
            try:
                self._routed_dispatch(method)
            finally:
                tracker.exit()
        except (BrokenPipeError, ConnectionResetError):
            # The peer hung up while an answer (a route's, an error
            # reply, the 404, a shed) was going out: a second response
            # would only fail again, so close and count the abort.
            self.close_connection = True
            self.server.metrics.count_client_aborted()

    def _refuse(self, method: str, *, draining: bool) -> None:
        """Shed one request: 503 + Retry-After, before any work.

        Either the in-flight bound is hit (overload: admitting more
        would serve *everyone* late) or the server is draining for
        shutdown (in-flight requests finish; new ones go elsewhere).
        The request was not processed, so clients may retry any method
        — the client's retry policy knows a shed is replay-safe.
        """
        self._body_consumed = False
        self._negotiated_encoding = "identity"
        self.server.metrics.count_shed(draining=draining)
        retry_after = self.server.shed_retry_after
        reason = ("server is draining for shutdown"
                  if draining else "server is at capacity")
        error = BackendUnavailableError(
            f"{reason}; retry after {retry_after:g}s",
            retry_after=retry_after)
        self._consume_body()
        self._send_json(503, _error_payload(error),
                        retry_after=retry_after)

    def _routed_dispatch(self, method: str) -> None:
        path, query = _split_target(self.path)
        self._body_consumed = False
        self._response_started = False
        # Error replies must stay sendable even when the *negotiation*
        # is what failed, so the default is pinned before anything can
        # raise and the real negotiation runs inside the try.
        self._negotiated_encoding = "identity"
        # Routes match the *encoded* path, so a percent-encoded "/"
        # inside an identifier stays one path segment; only the
        # captured groups are decoded.  (Decoding first would mis-route
        # "a%2Fb" as two segments.)
        for match_path, route, counter, special in _DISPATCH[method]:
            match = match_path(path)
            if match:
                self.server.metrics.count_route(counter)
                operands = {key: unquote(value)
                            for key, value in match.groupdict().items()}
                try:
                    self._negotiated_encoding = _response_encoding(
                        self.headers.get("Accept-Encoding"))
                    # The client's clock, propagated over the wire: an
                    # already-expired deadline is a fast 504 before any
                    # handler work, and the scope re-establishes the
                    # ambient deadline for everything the handler calls
                    # (the sharded fan-out's per-shard bound, a nested
                    # HTTPBackend in a proxy topology).  Without one
                    # there is no scope to enter: a handler thread
                    # starts with no ambient deadline, and every scope
                    # restores the one before it.
                    deadline = self._request_deadline()
                    if deadline is None:
                        self._serve(route, special, query, operands)
                    else:
                        deadline.check(f"{method} {path}")
                        with deadline_scope(deadline):
                            self._serve(route, special, query, operands)
                except (BrokenPipeError, ConnectionResetError):
                    raise  # the peer hung up: _dispatch closes and counts
                except Exception as error:  # noqa: BLE001 - wire boundary
                    status = _error_status(error)
                    if self._response_started:
                        # The status line is already out: a second
                        # response would land inside the first one's
                        # body, so end the connection instead.  A
                        # socket failure (timeout, abort) is the
                        # peer's and counts as client_aborted; only an
                        # untyped bug logs.
                        self.close_connection = True
                        if isinstance(error, (ConnectionError, TimeoutError)):
                            self.server.metrics.count_client_aborted()
                        elif status == 500:
                            _log.exception("internal error on %s %s",
                                           method, path)
                        return
                    if isinstance(error, DeadlineExceeded):
                        self.server.metrics.count_deadline_rejected()
                    if status == 500:
                        # Only an untyped failure is a server bug; a
                        # typed 503/504 is an expected answer.
                        _log.exception("internal error on %s %s",
                                       method, path)
                    self._consume_body()
                    self._send_json(
                        status, _error_payload(error),
                        retry_after=getattr(error, "retry_after", None))
                else:
                    # A body the handler had no use for (e.g. a GET
                    # with one) still desyncs keep-alive framing if
                    # left in the stream.  Outside the try: a drain
                    # failure after a sent response must kill the
                    # connection, not send a second response.
                    self._consume_body()
                return
        self.server.metrics.count_route("unrouted")
        self._consume_body()
        self._send_json(
            404,
            {"error": {"type": "StorageError",
                       "message": f"no route {method} {path}"}},
        )

    def _serve(self, route: Route, special: str | None, query: str,
               operands: dict) -> None:
        """Run one routed request: its ``_handle_<name>`` method, or the
        row's ``serve`` with the decoded JSON body."""
        if special is not None:
            getattr(self, special)(query_string=query, **operands)
            return
        body = self._read_body() if route.method != "GET" else None
        self._send_json(*route.serve(self.server.repository, body, **operands))

    #: Unread request bodies above this size close the connection
    #: instead of being drained.
    _MAX_DRAIN = 1 << 20
    #: Hard cap on a routed request body (32 MiB — roomy for bulk
    #: loads, far below anything that could exhaust handler memory).
    _MAX_BODY = 32 << 20

    def _consume_body(self) -> None:
        """Drain an unread request body before replying on a keep-alive
        connection.

        Replying while body bytes are still in the stream would desync
        every subsequent request on the connection (the leftover JSON
        is parsed as the next request line).  Oversized or unframeable
        bodies close the connection instead of being read.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        if self.headers.get("Transfer-Encoding"):
            # Chunked bodies are unsupported (no Content-Length to
            # frame a drain by); the connection must close or the
            # chunk stream would be parsed as the next request.
            self.close_connection = True
            return
        # read_headers admits only a non-negative integer length.
        length = int(self.headers.get("Content-Length", 0))
        if not length:
            return
        if length > self._MAX_DRAIN:
            self.close_connection = True
            return
        self.rfile.read(length)

    # ------------------------------------------------------------------
    # Wire conditions: content negotiation and conditional reads.
    # ------------------------------------------------------------------

    def _request_deadline(self) -> Deadline | None:
        """The ``X-Deadline-Ms`` header as a Deadline, or None.

        The value is the *remaining* milliseconds on the caller's
        clock when the request left — relative, not absolute, so no
        cross-host clock agreement is needed (network transit eats
        into the budget unobserved, which errs on the generous side).
        """
        header = self.headers.get("X-Deadline-Ms")
        if header is None:
            return None
        try:
            remaining_ms = float(header)
        except ValueError:
            raise _wire_error(
                400, f"malformed X-Deadline-Ms header: {header!r}"
            ) from None
        return Deadline.after(remaining_ms / 1000.0)

    def _precondition_hit(self, etag: str) -> bool:
        """Whether If-None-Match revalidates ``etag`` (see
        :func:`_revalidates`); counted as a conditional request only
        when the header is present at all.  A header that is exactly
        ``etag`` (what a revalidating client sends) skips the parse,
        which would answer the same."""
        header = self.headers.get("If-None-Match")
        if header is None:
            return False
        hit = header == etag or _revalidates(header, etag)
        self.server.metrics.count_conditional(hit)
        return hit

    def _send_not_modified(self, etag: str) -> None:
        """A 304: headers only, the peer's cached body stays valid."""
        self._send_message(304, f"ETag: {etag}\r\nContent-Length: 0\r\n")

    # ------------------------------------------------------------------
    # Special routes: the ROUTES rows without a ``serve`` function.
    # ------------------------------------------------------------------

    def _handle_get_entry(self, identifier: str,
                          query_string: str = "") -> None:
        version = None
        requested = (parse_qs(query_string).get("version")
                     if query_string else None)
        if requested:
            version = Version.parse(requested[0])
        slot = requested[0] if requested else "latest"
        payload, digest = self.server.repository.get_payload(
            identifier, version)
        # The entry's codec bytes are both the body and the validator,
        # so the ETag moves exactly when this entry's representation
        # does, and every server over the same store mints the same one.
        etag = _make_etag(digest, slot)
        if self._precondition_hit(etag):
            self._send_not_modified(etag)
            return
        self._send_bytes(
            200, b'{"entry":' + payload.encode("utf-8") + b"}",
            "application/json", etag=etag)

    def _handle_stats(self, query_string: str = "") -> None:
        # Live counters, so no ETag: a read moves them as much as a
        # write does.
        repository = self.server.repository
        self._send_json(
            200,
            {
                "entry_count": repository.entry_count(),
                "change_counter": repository.change_counter(),
                "cache": repository.cache_stats(),
                "server": self.server.metrics.snapshot(),
            },
        )

    def _handle_wiki(self, identifier: str, query_string: str = "") -> None:
        # The ETag and the page come from the same entry, so they can
        # never disagree.  Every server in this process mints the same
        # tag for it; another process mints its own (PAGE_EPOCH).
        entry = self.server.repository.get(identifier)
        etag = _make_etag(PAGE_EPOCH, entry_digest(entry))
        if self._precondition_hit(etag):
            self._send_not_modified(etag)
            return
        self._send_text(200, render_wikidot(entry), etag=etag)

    def _handle_batch_get(self, query_string: str = "") -> None:
        body = self._read_body()
        requests = self._parse_get_requests(body)
        if self._wants_ndjson():
            self._stream_ndjson(self._entry_pages(requests))
            return
        # Each entry's kept payload, spliced in as is: no to_dict, no
        # json.dumps of the whole batch.
        payloads = [encode_entry(entry)
                    for entry in self.server.repository.get_many(requests)]
        self._send_bytes(
            200, ('{"entries":[' + ",".join(payloads) + "]}").encode("utf-8"),
            "application/json")

    def _handle_batch_versions(self, query_string: str = "") -> None:
        body = self._read_body()
        identifiers = field(body, "identifiers", list)
        if not all(isinstance(item, str) for item in identifiers):
            raise StorageError("batch identifiers must be strings")
        if self._wants_ndjson():
            self._stream_ndjson(self._version_pages(identifiers))
            return
        listing = self.server.repository.versions_many(identifiers)
        self._send_json(
            200,
            {"versions": {identifier: [str(v) for v in versions]
                          for identifier, versions in listing.items()}},
        )

    @staticmethod
    def _parse_get_requests(body: dict) -> list[tuple[str, Version | None]]:
        requests: list[tuple[str, Version | None]] = []
        for item in field(body, "requests", list):
            if isinstance(item, str):
                requests.append((item, None))
                continue
            if not (isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], str)):
                raise StorageError(
                    f"bad get_many request {item!r}; expected "
                    "an identifier or [identifier, version-or-null]")
            identifier, version = item
            requests.append(
                (identifier,
                 Version.parse(version) if version is not None else None)
            )
        return requests

    # ------------------------------------------------------------------
    # Streaming batch reads (Accept: application/x-ndjson).
    # ------------------------------------------------------------------

    def _wants_ndjson(self) -> bool:
        """Whether the client opted into the streamed NDJSON body."""
        return NDJSON_TYPE in self.headers.get("Accept", "").lower()

    def _entry_pages(self, requests):
        """Wire lines for a batch get, one page of entries at a time.

        Pages come straight out of ``get_many``: one read-locked
        service call per page, never the whole batch.
        """
        repository = self.server.repository
        for start in range(0, len(requests), STREAM_PAGE_SIZE):
            page = requests[start:start + STREAM_PAGE_SIZE]
            yield [encode_entry(entry) for entry in repository.get_many(page)]

    def _version_pages(self, identifiers):
        """Wire lines for a batch version listing, page by page."""
        repository = self.server.repository
        for start in range(0, len(identifiers), STREAM_PAGE_SIZE):
            page = identifiers[start:start + STREAM_PAGE_SIZE]
            listing = repository.versions_many(page)
            yield [
                json.dumps(
                    {"identifier": identifier,
                     "versions": [str(v) for v in listing[identifier]]},
                    sort_keys=True)
                for identifier in page
            ]

    def _stream_ndjson(self, pages) -> None:
        """Send chunked NDJSON: data lines, then one ``_stream`` frame.

        The first page is produced BEFORE the status line goes out, so
        a bad request (unknown identifier, bad version) in page one
        still gets its faithful 404/400 as an ordinary JSON error.  A
        failure on a *later* page — the headers are long gone — becomes
        an ``{"_stream": "error", ...}`` frame the client re-raises;
        the happy path ends with ``{"_stream": "end", "count": n}``,
        whose absence is how a truncated stream is detected.  Data
        lines never start with ``{"_stream"`` (entry payloads start
        with ``{"_codec"``, version lines with ``{"identifier"`` —
        both JSON-sorted), so the client spots frames by prefix
        without parsing cached lines.
        """
        iterator = iter(pages)
        try:
            first = next(iterator)
        except StopIteration:
            first, iterator = [], iter(())
        compress = self._negotiated_encoding == "gzip"
        self._send_message(
            200,
            f"Content-Type: {NDJSON_TYPE}\r\n"
            + ("Content-Encoding: gzip\r\n" if compress else "")
            + "Transfer-Encoding: chunked\r\n")
        stream = _ChunkedStream(self.wfile, compress=compress)
        count = 0
        try:
            page = first
            while True:
                if page:
                    stream.write(
                        "".join(line + "\n" for line in page))
                    count += len(page)
                try:
                    page = next(iterator)
                except StopIteration:
                    break
            stream.write(json.dumps(
                {"_stream": "end", "count": count}, sort_keys=True) + "\n")
            self._record_stream(stream, count, compress)
            stream.close()
        except (BrokenPipeError, ConnectionResetError):
            # The peer hung up mid-stream; nothing left to tell it.
            self.close_connection = True
            self.server.metrics.count_client_aborted()
            return
        except Exception as error:  # noqa: BLE001 - wire boundary
            if _error_status(error) >= 500:
                _log.exception("error while streaming %s", self.path)
            frame = dict(_error_payload(error))
            frame["_stream"] = "error"
            try:
                stream.write(json.dumps(frame, sort_keys=True) + "\n")
                self._record_stream(stream, count, compress)
                stream.close()
            except OSError:
                self.close_connection = True
                self.server.metrics.count_client_aborted()
                return

    def _record_stream(self, stream: _ChunkedStream, count: int,
                       compress: bool) -> None:
        """Count the stream BEFORE its terminating chunk goes out —
        once the peer sees that chunk, a caller may read the metrics
        snapshot, so the counters must already be settled."""
        stream.finish()  # byte counters are final past the gzip trailer
        self.server.metrics.count_stream(count)
        if compress:
            self.server.metrics.count_gzip(stream.raw_bytes,
                                           stream.sent_bytes)

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def _read_body(self) -> dict:
        if self.headers.get("Transfer-Encoding"):
            # Rejected up front: _consume_body cannot drain a chunked
            # stream, so it closes the connection after the reply.
            raise StorageError(
                "chunked request bodies are not supported; "
                "send Content-Length")
        coding = self.headers.get("Content-Encoding", "identity")
        coding = coding.strip().lower() or "identity"
        if coding not in ("identity", "gzip"):
            # 415 before the body is read: _consume_body drains it.
            raise _wire_error(
                415, f"unsupported Content-Encoding {coding!r}; "
                     "send identity or gzip")
        length = int(self.headers.get("Content-Length", 0))
        if length > self._MAX_BODY:
            # Rejected by the header alone — the body is never read
            # into memory, and the connection closes instead of
            # draining gigabytes.
            self._body_consumed = True
            self.close_connection = True
            raise StorageError(
                f"request body of {length} bytes exceeds the "
                f"{self._MAX_BODY}-byte limit")
        raw = self.rfile.read(length) if length else b""
        self._body_consumed = True
        if not raw:
            raise StorageError("request body required")
        if coding == "gzip":
            # The size cap applies to the *decompressed* body too —
            # max_length bounds the inflate so a gzip bomb cannot
            # expand past the limit in memory.
            inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
            try:
                raw = inflater.decompress(raw, self._MAX_BODY + 1)
            except zlib.error as error:
                raise StorageError(
                    f"bad gzip request body: {error}") from error
            if len(raw) > self._MAX_BODY:
                raise StorageError(
                    "request body exceeds the "
                    f"{self._MAX_BODY}-byte limit after decompression")
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as error:
            raise StorageError(
                f"malformed JSON body: {error}") from error
        if not isinstance(body, dict):
            raise StorageError(
                f"request body is not an object: {type(body).__name__}")
        return body

    def _send_json(self, status: int, payload: dict, *,
                   etag: str | None = None,
                   retry_after: float | None = None) -> None:
        encoded = json.dumps(payload).encode("utf-8")
        self._send_bytes(status, encoded, "application/json", etag=etag,
                         retry_after=retry_after)

    def _send_text(self, status: int, text: str, *,
                   etag: str | None = None) -> None:
        self._send_bytes(status, text.encode("utf-8"),
                         "text/plain; charset=utf-8", etag=etag)

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    *, etag: str | None = None,
                    retry_after: float | None = None) -> None:
        fields = f"Content-Type: {content_type}\r\n"
        if etag is not None:
            fields += f"ETag: {etag}\r\n"
        if retry_after is not None:
            fields += f"Retry-After: {retry_after:g}\r\n"
        if (self._negotiated_encoding == "gzip"
                and len(body) >= GZIP_MIN_BYTES):
            # Below the threshold the gzip CPU costs more than the
            # bytes it saves; above it, level 1 shrinks JSON ~4-5x.
            raw_size = len(body)
            body = gzip.compress(body, compresslevel=GZIP_LEVEL)
            self.server.metrics.count_gzip(raw_size, len(body))
            fields += "Content-Encoding: gzip\r\n"
        self._send_message(
            status, f"{fields}Content-Length: {len(body)}\r\n", body)

    def _send_message(self, status: int, fields: str,
                      body: bytes = b"") -> None:
        """Send one answer: the status line, ``Server``, ``Date``, the
        ``fields`` (whole lines) and the body, formatted in one pass and
        sent in one write.  Every answer but the stdlib's
        :meth:`send_error` goes out through here."""
        # From now on a failure must close the connection, not send a
        # second response.
        self._response_started = True
        if _log.isEnabledFor(logging.DEBUG):
            self.log_request(status)
        if self.request_version == "HTTP/0.9":  # no head at all
            self.wfile.write(body)
            return
        date = _http_date(int(time.time()))
        # The status line as send_response_only writes it.
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n{_SERVER_FIELD}"
                f"Date: {date}\r\n{fields}\r\n")
        self.wfile.write(head.encode("latin-1") + body)

    def send_response_only(self, code: int,
                           message: str | None = None) -> None:
        # The status line of a send_error answer: from now on a failure
        # must close the connection, not send a second response.
        self._response_started = True
        super().send_response_only(code, message)

    def log_message(self, format: str, *args: object) -> None:
        """Access logging goes to the module logger, not stderr.

        Formatted only when DEBUG is on: the line is built per response,
        and the logger is quiet by default.
        """
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s - %s", self.address_string(), format % args)


class RepositoryServer:
    """The serving-layer front door: one repository behind HTTP.

    Wraps any :class:`StorageBackend` — a bare backend is wrapped in a
    :class:`RepositoryService` first (the facade's lock and write queue
    are what make concurrent handler threads safe, and what coalesce
    their writes into group commits).

    ``port=0`` binds an ephemeral port; read :attr:`port`/:attr:`url`
    after :meth:`start`.  ``stop()`` tears the listener down; the
    service itself stays open (the caller owns its lifecycle) unless
    ``close_service=True`` was set.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        close_service: bool = False,
        max_inflight: int | None = 64,
        shed_retry_after: float = 1.0,
    ) -> None:
        if isinstance(service, StorageBackend) and not isinstance(
            service, RepositoryService
        ):
            service = RepositoryService(service)
        self.service = service
        self.host = host
        self.requested_port = port
        self.close_service = close_service
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        #: Admission control: at most ``max_inflight`` requests inside
        #: handlers at once; the excess is shed with 503 + Retry-After
        #: (``shed_retry_after`` seconds) instead of queueing
        #: unboundedly.  None disables the bound.  The same tracker
        #: implements the graceful drain on stop().
        self.shed_retry_after = shed_retry_after
        self._tracker = _RequestTracker(limit=max_inflight)
        #: Wire-economics counters (per-route, 304 hit rate, gzip
        #: savings) — exposed under "server" in GET /stats, surviving
        #: stop/start cycles like the tracker does.
        self.metrics = _ServerMetrics()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "RepositoryServer":
        """Bind and serve on a daemon thread; returns self (chainable)."""
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), _Handler
        )
        httpd.repository = self.service
        httpd.request_tracker = self._tracker
        httpd.metrics = self.metrics
        httpd.shed_retry_after = self.shed_retry_after
        self._tracker.end_drain()  # a restart serves again
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            args=(_POLL_INTERVAL,),
            name=f"repro-http-{httpd.server_address[1]}",
            daemon=True,
        )
        self._thread.start()
        _log.info("serving repository on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop accepting and drain in-flight requests.

        Handler threads are daemons, so ``server_close()`` does not
        join them; the request tracker waits (bounded) until no request
        is still inside a handler before, with ``close_service=True``,
        the service is closed underneath one.  An *idle* keep-alive
        connection is not waited for: its next request fails with a
        connection error, which clients handle as an ordinary peer
        shutdown.
        """
        if self._httpd is None:
            return
        # Drain first: requests arriving from here on get an immediate
        # 503 + Retry-After (they would otherwise race the teardown),
        # while requests already inside handlers finish normally and
        # are waited for below.
        self._tracker.begin_drain()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._httpd = None
        self._thread = None
        if not self._tracker.wait_idle(timeout=10.0):
            _log.warning("stopping with requests still in flight")
        if self.close_service:
            self.service.close()

    def __enter__(self) -> "RepositoryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def max_inflight(self) -> int | None:
        return self._tracker.limit

    def set_max_inflight(self, limit: int | None) -> None:
        """Retune the admission bound live (the soak's overload lever)."""
        self._tracker.set_limit(limit)

    @property
    def port(self) -> int:
        """The bound port (the real one, also when 0 was requested)."""
        if self._httpd is None:
            raise StorageError("server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: serve a backend until interrupted.

    ``python -m repro.repository.server --scheme sqlite --path repo.db``
    """
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--scheme", default="memory",
                        help="storage backend scheme (memory/file/sqlite)")
    parser.add_argument("--path", type=Path, default=None,
                        help="backend path (for durable schemes)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="port to bind (0: ephemeral)")
    arguments = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO)
    backend = create_backend(arguments.scheme, arguments.path)
    service = RepositoryService(backend)
    server = RepositoryServer(
        service,
        host=arguments.host,
        port=arguments.port,
        close_service=True,
    )
    with server:
        print(f"serving {arguments.scheme} repository on {server.url}")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
