"""The HTTP message on both ends of the wire.

``read_headers`` is pinned line by line, then over real sockets: a
server fed every prefix of a request head keeps serving, a malformed
head gets exactly one answer and a close, a buffered response leaves in
one write with the fields ``send_response``/``send_header`` wrote, and a
client handed a response head cut short at any byte raises the typed
error and recovers on a fresh connection.  The client's ``Connection``
writes the bytes ``http.client`` writes, refuses what it refuses before
sending anything, and reads every answer from one reader.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler
from urllib.parse import quote, urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import BackendUnavailableError
from repro.repository.backends import MemoryBackend, SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.resilience import (
    Deadline,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from repro.repository.routes import ROUTES
from repro.repository.server import (
    RepositoryServer,
    _Handler,
    _http_date,
    _make_etag,
    _revalidates,
    _split_target,
)
from repro.repository.service import RepositoryService
from repro.repository.wire import (
    MAX_FIELDS,
    MAX_LINE,
    BadHead,
    Connection,
    Response,
    read_headers,
)
from tests.repository.test_entry import minimal_entry
from tests.repository.test_server import ScriptedServer, scripted_response


def head(*lines: bytes) -> io.BytesIO:
    return io.BytesIO(b"".join(line + b"\r\n" for line in lines) + b"\r\n")


class TestReadHeaders:
    def test_lookups_ignore_case_and_the_first_repeat_wins(self):
        headers = read_headers(head(b"Content-Type: text/plain",
                                    b"X-Tag:  one \t", b"x-tag: two"))
        assert headers.get("content-type") == "text/plain"
        assert headers.get("CONTENT-TYPE") == "text/plain"
        assert headers.get("X-TAG") == "one"
        assert headers.get("Missing") is None
        assert headers.get("Missing", "") == ""

    def test_getheader_reads_a_parsed_200_head(self):
        response = Response(io.BytesIO(
            b'HTTP/1.1 200 OK\r\nETag: W/"abc/latest"\r\n'
            b"etag: second\r\nContent-Length: 2\r\n\r\n{}"))
        response.begin()
        assert response.getheader("ETag") == 'W/"abc/latest"'
        assert response.getheader("etag") == 'W/"abc/latest"'
        assert response.getheader("X-Missing") is None
        assert response.getheader("X-Missing", "-") == "-"
        assert response.read() == b"{}"

    def test_bare_lf_line_ends_are_read(self):
        headers = read_headers(io.BytesIO(b"Host: a\nAccept: b\n\n"))
        assert headers == {"host": "a", "accept": "b"}

    def test_the_head_ends_at_the_blank_line(self):
        stream = io.BytesIO(b"Content-Length: 2\r\n\r\n{}")
        assert read_headers(stream).get("Content-Length") == "2"
        assert stream.read() == b"{}"

    def test_a_repeated_content_length_with_one_value_is_read(self):
        headers = read_headers(head(b"Content-Length: 5",
                                    b"Content-Length: 5"))
        assert headers.get("Content-Length") == "5"

    @pytest.mark.parametrize("lines", [
        [b"Host: a", b" folded"],
        [b"Host: a", b"\tfolded"],
        [b"Host : a"],
        [b"Host\t: a"],
        [b"Ho st: a"],
        [b"no colon here"],
        [b": no name"],
        [b"Content-Length: -1"],
        [b"Content-Length: +5"],
        [b"Content-Length: 1.0"],
        [b"Content-Length: 0x10"],
        [b"Content-Length: 5, 5"],
        [b"Content-Length:"],
        [b"Content-Length: \xb2"],
        [b"Content-Length: 5", b"Content-Length: 6"],
    ], ids=["fold-sp", "fold-htab", "sp-before-colon", "htab-before-colon",
            "sp-in-name", "no-colon", "empty-name", "cl-negative",
            "cl-signed", "cl-decimal", "cl-hex", "cl-list", "cl-empty",
            "cl-superscript", "cl-conflict"])
    def test_rejections_are_400(self, lines):
        with pytest.raises(BadHead) as raised:
            read_headers(head(*lines))
        assert raised.value.status == 400
        assert not raised.value.cut_short

    def test_a_field_line_past_the_stdlib_limit_is_431(self):
        name = b"X-Long: "
        longest = name + b"a" * (MAX_LINE - len(name) - 2)
        assert read_headers(head(longest)).get("X-Long")
        with pytest.raises(BadHead) as raised:
            read_headers(head(longest + b"a"))
        assert raised.value.status == 431
        with pytest.raises(http.client.LineTooLong):
            http.client.parse_headers(head(longest + b"a"))

    def test_a_head_at_the_field_limit_is_read_and_one_more_is_431(self):
        fields = [b"X-%d: v" % index for index in range(MAX_FIELDS)]
        assert len(read_headers(head(*fields))) == MAX_FIELDS
        http.client.parse_headers(head(*fields))  # the stdlib agrees
        fields.append(b"X-Last: v")
        with pytest.raises(BadHead) as raised:
            read_headers(head(*fields))
        assert raised.value.status == 431
        with pytest.raises(http.client.HTTPException):
            http.client.parse_headers(head(*fields))

    @pytest.mark.parametrize("data", [b"", b"Host: a\r\n", b"Host: a\r\nAcc",
                                      b"Host: a\r\n\r"])
    def test_eof_before_the_blank_line_is_a_head_cut_short(self, data):
        with pytest.raises(BadHead) as raised:
            read_headers(io.BytesIO(data))
        assert raised.value.cut_short


# ----------------------------------------------------------------------
# The server end: a real RepositoryServer over SQLite.
# ----------------------------------------------------------------------


@pytest.fixture()
def sqlite_server(tmp_path):
    service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
    service.add(minimal_entry())
    server = RepositoryServer(service, close_service=True).start()
    yield server
    server.stop()


def read_until_closed(peer: socket.socket) -> tuple[bytes, bool]:
    """Everything the server sends, and whether it then closed.  A reset
    is a close too: a server that refuses a head may leave request
    bytes unread, and closing over them resets the connection."""
    received = b""
    try:
        while chunk := peer.recv(65536):
            received += chunk
    except TimeoutError:
        return received, False
    except ConnectionResetError:
        pass
    return received, True


def exchange(port: int, data: bytes, timeout: float = 5) -> tuple[bytes, bool]:
    """Send raw bytes, then read everything up to the server's close."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as peer:
        peer.sendall(data)
        return read_until_closed(peer)


class BrokenWriter:
    """A response stream whose peer has hung up: every write fails."""

    def __init__(self, inner):
        self._inner = inner

    def write(self, data):
        raise BrokenPipeError("peer hung up")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def get_entry(port: int) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/entries/demo-example")
        response = connection.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        connection.close()


GET_HEAD = (b"GET /entries/demo-example HTTP/1.1\r\n"
            b"Host: test\r\nAccept-Encoding: gzip\r\n\r\n")


def post_request() -> bytes:
    body = json.dumps(
        {"entry": minimal_entry(title="CUT SHORT").to_dict()}).encode()
    return (b"POST /entries HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)


class TestServerHeadPath:
    @pytest.mark.parametrize("request_bytes", [GET_HEAD, post_request()],
                             ids=["get", "post"])
    def test_every_prefix_then_close_leaves_the_server_serving(
            self, sqlite_server, capfd, request_bytes):
        port = sqlite_server.port
        for offset in range(len(request_bytes)):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as peer:
                peer.sendall(request_bytes[:offset])
            assert get_entry(port)["entry"]["title"] == "DEMO EXAMPLE"
        # A request cut anywhere never lands.
        assert sqlite_server.service.identifiers() == ["demo-example"]
        sqlite_server.stop()
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("data, status", [
        (b"GET /entries/demo-example HTTP/1.1\r\nHost: a\r\n"
         b" folded\r\n\r\n", 400),
        (b"GET /entries/demo-example HTTP/1.1\r\nHost : a\r\n\r\n", 400),
        (b"GET /entries/demo-example HTTP/1.1\r\nno colon\r\n\r\n", 400),
        (b"GET /entries/demo-example HTTP/1.1\r\n: a\r\n\r\n", 400),
        (b"POST /entries HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}", 400),
        (b"POST /entries HTTP/1.1\r\nContent-Length: two\r\n\r\n{}", 400),
        (b"POST /entries HTTP/1.1\r\nContent-Length: 2\r\n"
         b"Content-Length: 3\r\n\r\n{}", 400),
        (b"GET /entries/demo-example HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % index for index in range(MAX_FIELDS + 1))
         + b"\r\n", 431),
        (b"GET /entries/demo-example HTTP/1.1\r\nX-Long: "
         + b"a" * MAX_LINE + b"\r\n\r\n", 431),
        (b"GET /entries/demo-example extra HTTP/1.1\r\n\r\n", 400),
    ], ids=["folded", "sp-before-colon", "no-colon", "empty-name",
            "cl-negative", "cl-word", "cl-conflict", "too-many-fields",
            "line-too-long", "bad-syntax"])
    def test_a_malformed_head_gets_one_answer_then_a_close(
            self, sqlite_server, data, status):
        received, closed = exchange(sqlite_server.port, data)
        assert received.startswith(b"HTTP/1.1 %d " % status)
        assert received.count(b"HTTP/1.1 ") == 1
        assert closed
        assert get_entry(sqlite_server.port)["entry"]["title"] == (
            "DEMO EXAMPLE")

    def test_a_refusal_the_peer_never_reads_is_an_abort(
            self, sqlite_server, monkeypatch, capfd):
        class HungUp:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                raise BrokenPipeError("peer hung up")

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = _Handler.setup

        def hung_up_setup(handler):
            setup(handler)
            handler.wfile = HungUp(handler.wfile)
        monkeypatch.setattr(_Handler, "setup", hung_up_setup)
        received, closed = exchange(
            sqlite_server.port,
            b"GET /entries/demo-example HTTP/1.1\r\nHost: a\r\n"
            b" folded\r\n\r\n")
        assert (received, closed) == (b"", True)
        sqlite_server.stop()
        assert sqlite_server.metrics.snapshot()["client_aborted"] == 1
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("path, max_inflight", [
        (b"/entries/missing", 64), (b"/nowhere", 64), (b"/entries", 0)],
        ids=["error-reply", "unrouted", "shed"])
    def test_an_answer_the_peer_never_reads_is_an_abort(
            self, sqlite_server, monkeypatch, capfd, path, max_inflight):
        """The typed error reply, the 404 and the 503 shed each close
        quietly when the peer has hung up: one abort, no traceback."""
        setup = _Handler.setup

        def hung_up_setup(handler):
            setup(handler)
            handler.wfile = BrokenWriter(handler.wfile)
        monkeypatch.setattr(_Handler, "setup", hung_up_setup)
        sqlite_server.set_max_inflight(max_inflight)
        received, closed = exchange(
            sqlite_server.port, b"GET " + path + b" HTTP/1.1\r\nHost: a\r\n\r\n")
        assert (received, closed) == (b"", True)
        sqlite_server.stop()
        assert sqlite_server.metrics.snapshot()["client_aborted"] == 1
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("version, status", [
        (b"HTTP/1.x", 400), (b"HTTP/2.0", 505)])
    def test_an_unusable_version_gets_the_stdlib_answer(
            self, sqlite_server, version, status):
        """As in ``http.server``: with no usable version the error goes
        out as a bare HTTP/0.9 body, then the connection closes."""
        received, closed = exchange(
            sqlite_server.port,
            b"GET /entries/demo-example " + version + b"\r\n\r\n")
        assert received.startswith(b"<!DOCTYPE HTML>")
        assert b"Error code: %d" % status in received
        assert closed

    def test_a_negative_content_length_is_answered_without_eof(
            self, sqlite_server):
        """A length of -1 used to read the body until the peer closed,
        holding a handler thread (and an admission slot) meanwhile."""
        with socket.create_connection(("127.0.0.1", sqlite_server.port),
                                      timeout=5) as peer:
            peer.sendall(b"POST /entries HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: -1\r\n\r\n{}")
            received, closed = read_until_closed(peer)  # no half-close
        assert received.startswith(b"HTTP/1.1 400 ")
        assert closed

    def test_a_head_cut_short_gets_no_answer(self, sqlite_server):
        with socket.create_connection(("127.0.0.1", sqlite_server.port),
                                      timeout=5) as peer:
            peer.sendall(b"GET /entries/demo-example HTTP/1.1\r\nHost: te")
            peer.shutdown(socket.SHUT_WR)
            received, closed = read_until_closed(peer)
        assert received == b""
        assert closed

    def test_keep_alive_and_close_keep_their_meaning(self, sqlite_server):
        two = GET_HEAD.replace(b"gzip\r\n", b"gzip\r\nConnection: close\r\n")
        received, closed = exchange(sqlite_server.port, GET_HEAD + two)
        assert received.count(b"HTTP/1.1 200 ") == 2
        assert closed
        received, closed = exchange(
            sqlite_server.port,
            b"GET /entries/demo-example HTTP/1.0\r\n\r\n")
        assert received.count(b"HTTP/1.1 200 ") == 1
        assert closed

    def test_expect_100_continue_is_answered(self, sqlite_server):
        body = json.dumps(
            {"entry": minimal_entry(title="EXPECTED").to_dict()}).encode()
        with socket.create_connection(("127.0.0.1", sqlite_server.port),
                                      timeout=5) as peer:
            peer.sendall(b"POST /entries HTTP/1.1\r\nHost: test\r\n"
                         b"Expect: 100-continue\r\nConnection: close\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert peer.recv(64).startswith(b"HTTP/1.1 100 ")
            peer.sendall(body)
            received, closed = read_until_closed(peer)
        assert b"HTTP/1.1 201 " in received
        assert "expected" in sqlite_server.service.identifiers()


class _CountingWriter:
    """Records every write on a handler's ``wfile``."""

    def __init__(self, inner, writes: list) -> None:
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOneWritePerResponse:
    @pytest.fixture()
    def writes(self, monkeypatch):
        writes: list[bytes] = []
        setup = _Handler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)
        monkeypatch.setattr(_Handler, "setup", counting_setup)
        return writes

    def request(self, server, writes, extra: bytes = b"") -> bytes:
        del writes[:]
        received, closed = exchange(
            server.port,
            b"GET /entries/demo-example HTTP/1.1\r\nHost: test\r\n"
            + extra + b"Connection: close\r\n\r\n")
        assert closed
        return received

    def test_a_200_entry_get_is_one_write(self, sqlite_server, writes):
        received = self.request(sqlite_server, writes)
        assert received.startswith(b"HTTP/1.1 200 ")
        assert writes == [received]

    def test_a_304_is_one_write(self, sqlite_server, writes):
        received = self.request(sqlite_server, writes)
        etag = next(line.split(b": ", 1)[1] for line in received.split(b"\r\n")
                    if line.lower().startswith(b"etag: "))
        received = self.request(sqlite_server, writes,
                                b"If-None-Match: " + etag + b"\r\n")
        assert received.startswith(b"HTTP/1.1 304 ")
        assert writes == [received]


# ----------------------------------------------------------------------
# The client end: HTTPBackend against a scripted peer.
# ----------------------------------------------------------------------


def real_response(served_port: int) -> tuple[bytes, bytes]:
    """A real 200 entry answer from the server: (head, body), the head
    given ``Connection: close`` so each scripted answer ends its socket."""
    received, _closed = exchange(
        served_port,
        b"GET /entries/demo-example HTTP/1.1\r\nHost: test\r\n"
        b"Connection: close\r\n\r\n")
    end = received.index(b"\r\n\r\n") + 2
    return received[:end] + b"Connection: close\r\n\r\n", received[end + 2:]


class TestClientHeadPath:
    def test_neither_end_parses_heads_with_the_email_package(
            self, sqlite_server, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a head went through http.client.parse_headers")
        monkeypatch.setattr(http.client, "parse_headers", refuse)
        client = HTTPBackend(sqlite_server.url)
        try:
            assert client.get("demo-example") == minimal_entry()
            assert client.get("demo-example") == minimal_entry()  # a 304
        finally:
            client.close()

    def test_a_response_head_cut_at_any_byte_is_a_typed_error(
            self, sqlite_server):
        response_head, body = real_response(sqlite_server.port)

        def cut(offset):
            def script(connection):
                connection.sendall(response_head[:offset])
            return script

        def answer(connection):
            connection.sendall(response_head + body)

        scripts = []
        for offset in range(len(response_head)):
            scripts += [cut(offset), answer]
        fake = ScriptedServer(*scripts)
        client = HTTPBackend(fake.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            for offset in range(len(response_head)):
                with pytest.raises(BackendUnavailableError):
                    client.get("demo-example")
                assert client.get("demo-example") == minimal_entry()
        finally:
            client.close()
            fake.close()
        assert len(fake.requests) == 2 * len(response_head)

    def test_a_folded_response_header_is_a_typed_error(self):
        def folded(connection):
            connection.sendall(b"HTTP/1.1 200 OK\r\n"
                               b"Content-Type: application/json\r\n"
                               b" folded\r\nContent-Length: 2\r\n\r\n{}")

        fake = ScriptedServer(folded)
        client = HTTPBackend(fake.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            with pytest.raises(BackendUnavailableError, match="folding"):
                client.get("demo-example")
        finally:
            client.close()
            fake.close()


# ----------------------------------------------------------------------
# The server's answer heads, field for field.
# ----------------------------------------------------------------------


def stdlib_head(status: int, *fields: tuple[str, str]) -> bytes:
    """The head ``send_response(status)``, one ``send_header`` per
    field and ``end_headers`` produce, as the server used to send it."""
    handler = BaseHTTPRequestHandler.__new__(BaseHTTPRequestHandler)
    handler.request_version = handler.protocol_version = "HTTP/1.1"
    handler.requestline = "GET / HTTP/1.1"
    handler.log_message = lambda *args: None
    handler.send_response(status)
    for name, value in fields:
        handler.send_header(name, value)
    return b"".join(handler._headers_buffer) + b"\r\n"


def without_date(head: bytes) -> bytes:
    return re.sub(rb"\r\nDate: [^\r]*\r\n", b"\r\nDate: -\r\n", head)


def answer_head(port: int, request: bytes) -> tuple[bytes, dict]:
    """The head of the one answer to ``request``, and its fields."""
    received, _closed = exchange(port, request)
    head = received[:received.index(b"\r\n\r\n") + 4]
    return head, read_headers(io.BytesIO(head.split(b"\r\n", 1)[1]))


class TestAnswerHeads:
    """Every kind of answer carries the status line and the fields the
    stdlib's ``send_response``/``send_header`` sequence wrote, in the
    same order (``Date`` aside, which moves with the clock)."""

    def request(self, target: bytes, *fields: bytes,
                method: bytes = b"GET", body: bytes = b"") -> bytes:
        head = method + b" " + target + b" HTTP/1.1\r\nHost: test\r\n"
        if body:
            head += b"Content-Length: %d\r\n" % len(body)
        return (head + b"".join(field + b"\r\n" for field in fields)
                + b"Connection: close\r\n\r\n" + body)

    def test_a_200(self, sqlite_server):
        head, fields = answer_head(
            sqlite_server.port, self.request(b"/entries/demo-example"))
        assert without_date(head) == without_date(stdlib_head(
            200, ("Content-Type", "application/json"),
            ("ETag", fields["etag"]),
            ("Content-Length", fields["content-length"])))

    def test_a_gzip_200(self, sqlite_server):
        sqlite_server.service.add(minimal_entry(title="LONG EXAMPLE",
                                                overview="long " * 400))
        head, fields = answer_head(
            sqlite_server.port,
            self.request(b"/entries/long-example", b"Accept-Encoding: gzip"))
        assert without_date(head) == without_date(stdlib_head(
            200, ("Content-Type", "application/json"),
            ("ETag", fields["etag"]), ("Content-Encoding", "gzip"),
            ("Content-Length", fields["content-length"])))

    def test_a_304(self, sqlite_server):
        _head, fields = answer_head(
            sqlite_server.port, self.request(b"/entries/demo-example"))
        head, _fields = answer_head(
            sqlite_server.port,
            self.request(b"/entries/demo-example",
                         b"If-None-Match: " + fields["etag"].encode()))
        assert without_date(head) == without_date(stdlib_head(
            304, ("ETag", fields["etag"]), ("Content-Length", "0")))

    def test_a_404(self, sqlite_server):
        head, fields = answer_head(sqlite_server.port,
                                   self.request(b"/entries/missing"))
        assert without_date(head) == without_date(stdlib_head(
            404, ("Content-Type", "application/json"),
            ("Content-Length", fields["content-length"])))

    def test_a_503_shed(self, sqlite_server):
        sqlite_server.set_max_inflight(0)
        head, fields = answer_head(sqlite_server.port,
                                   self.request(b"/entries/demo-example"))
        assert without_date(head) == without_date(stdlib_head(
            503, ("Content-Type", "application/json"),
            ("Retry-After", "1"),
            ("Content-Length", fields["content-length"])))

    @pytest.mark.parametrize("coding", [None, b"gzip"])
    def test_an_ndjson_stream_head(self, sqlite_server, coding):
        accept = [b"Accept: application/x-ndjson"]
        if coding:
            accept.append(b"Accept-Encoding: " + coding)
        head, _fields = answer_head(
            sqlite_server.port,
            self.request(b"/batch/get", *accept, method=b"POST",
                         body=b'{"requests": ["demo-example"]}'))
        expected = [("Content-Type", "application/x-ndjson")]
        if coding:
            expected.append(("Content-Encoding", "gzip"))
        expected.append(("Transfer-Encoding", "chunked"))
        assert without_date(head) == without_date(stdlib_head(200, *expected))

    def test_the_date_is_the_stdlib_date(self):
        now = time.time()
        assert _http_date(int(now)) == formatdate(now, usegmt=True)
        assert _http_date(int(now) + 1) == formatdate(now + 1, usegmt=True)


# ----------------------------------------------------------------------
# The short-cuts in front of the server's parses answer as the parses.
# ----------------------------------------------------------------------


#: Request targets as a request line carries them: no whitespace.
targets = st.text().filter(lambda text: text.split() == [text])


class TestShortCuts:
    @given(st.lists(st.text(), min_size=1, max_size=3))
    def test_an_etag_quotes_as_quote_does(self, parts):
        quoted = "/".join(quote(part, safe="") for part in parts)
        assert _make_etag(*parts) == f'W/"{quoted}"'

    @given(st.lists(st.text(), min_size=1, max_size=3))
    def test_an_if_none_match_of_exactly_the_tag_revalidates_it(self, parts):
        etag = _make_etag(*parts)
        assert _revalidates(etag, etag)

    @given(targets)
    def test_a_target_splits_as_urlsplit_splits_it(self, target):
        split = urlsplit(target)
        assert _split_target(target) == (split.path, split.query)

    @pytest.mark.parametrize("target", [
        "/entries/a?version=0.1", "/entries/a#top?x", "/entries/a?b?c#d",
        "/", "*", "entries/a?x", "http://host/entries/a?version=1",
        "/entries/a%2Fb?", "//double"])
    def test_targets_of_every_form_split_as_urlsplit_splits_them(
            self, target):
        split = urlsplit(target)
        assert _split_target(target) == (split.path, split.query)


# ----------------------------------------------------------------------
# The client's request writer.
# ----------------------------------------------------------------------


def sent_bytes(connection, *args, **kwargs) -> bytes:
    """What ``connection.request(*args, **kwargs)`` writes."""
    ours, peer = socket.socketpair()
    with ours, peer:
        connection.sock = ours
        connection.request(*args, **kwargs)
        ours.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := peer.recv(65536):
            received += chunk
    connection.sock = None
    return received


class TestRequestWriter:
    @pytest.mark.parametrize("host, port, host_field", [
        ("127.0.0.1", 8080, b"127.0.0.1:8080"),
        ("localhost", 80, b"localhost"),
        ("::1", 8080, b"[::1]:8080"),
        ("fe80::1%eth0", 80, b"[fe80::1]"),
        ("bücher.example", 8080, b"xn--bcher-kva.example:8080")])
    @pytest.mark.parametrize("method, body, headers", [
        ("GET", None, {"Accept-Encoding": "gzip"}),
        ("GET", None, {"Accept-Encoding": "gzip",
                       "If-None-Match": 'W/"0f/latest"',
                       "X-Deadline-Ms": "250"}),
        ("POST", b'{"entry": {}}', {"Accept-Encoding": "gzip",
                                    "Content-Type": "application/json"}),
        ("POST", None, {"Accept-Encoding": "gzip"}),
        ("PUT", None, {"Accept-Encoding": "gzip"}),
        ("POST", b"\x1f\x8b" + bytes(range(256)),
         {"Accept-Encoding": "gzip", "Content-Type": "application/json",
          "Content-Encoding": "gzip", "Accept": "application/x-ndjson"}),
    ], ids=["get", "conditional-get", "post", "bodiless-post",
            "bodiless-put", "gzip-post"])
    def test_a_request_is_the_bytes_http_client_sends(
            self, host, port, host_field, method, body, headers):
        """Same request line, ``Content-Length`` and fields in the same
        order, and the body, in one write.  ``Host`` is held to a fixed
        value: ``http.client`` before Python 3.12 keeps an IPv6 zone in
        it, which RFC 6874 and 3.12 leave out."""
        host_line = b"Host: " + host_field + b"\r\n"
        stdlib = http.client.HTTPConnection(host, port)
        expected = re.sub(
            rb"\r\nHost: [^\r]*\r\n", lambda _: b"\r\n" + host_line,
            sent_bytes(stdlib, method, "/entries/a%2Fb?version=0.1",
                       body=body, headers=headers), count=1)
        sent = sent_bytes(Connection(host, port), method,
                          "/entries/a%2Fb?version=0.1", body=body,
                          headers=headers)
        assert host_line in sent
        assert sent == expected

    @pytest.mark.parametrize("value", [
        "a\r\nX-Injected: 1", "a\nX-Injected: 1", "a\rb", "a\r\n"])
    def test_a_cr_or_lf_in_a_field_raises_before_any_byte(self, value):
        ours, peer = socket.socketpair()
        with ours, peer:
            connection = Connection("127.0.0.1", 8080)
            connection.sock = ours
            for headers in ({"If-None-Match": value},
                            {"Accept-Encoding": "gzip", value: "x"}):
                with pytest.raises(ValueError):
                    connection.request("GET", "/entries/a", headers=headers)
            peer.setblocking(False)
            with pytest.raises(BlockingIOError):
                peer.recv(1)

    @pytest.mark.parametrize("target", [
        "/entries/a b", "/entries/a\x00", "/entries/a\x7f",
        "/entries/a\r\nX-Injected: 1", "/entries/a\tb"])
    def test_a_control_character_in_the_target_raises_before_any_byte(
            self, target):
        ours, peer = socket.socketpair()
        with ours, peer:
            connection = Connection("127.0.0.1", 8080)
            connection.sock = ours
            with pytest.raises(http.client.InvalidURL):
                connection.request("GET", target)
            peer.setblocking(False)
            with pytest.raises(BlockingIOError):
                peer.recv(1)


@pytest.fixture()
def echo_server(monkeypatch):
    """A server whose entry GET answers with what it received: the
    identifier its route decoded and the If-None-Match field."""
    def echo(self, identifier, query_string=""):
        self._send_json(200, {
            "identifier": identifier,
            "if_none_match": self.headers.get("If-None-Match")})
    monkeypatch.setattr(_Handler, "_handle_get_entry", echo)
    service = RepositoryService(MemoryBackend())
    server = RepositoryServer(service, close_service=True).start()
    client = HTTPBackend(server.url)
    yield client
    client.close()
    server.stop()


#: Field values a peer can send back: no CR, LF or NUL, and no
#: leading or trailing whitespace, which a head reader strips.
field_values = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                  blacklist_characters="\x7f"),
    min_size=1,
).map(lambda text: text.strip(" \t")).filter(bool)


class TestWhatTheServerReceives:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(identifier=st.text(min_size=1), etag=field_values)
    def test_the_target_and_if_none_match_arrive_as_meant(
            self, echo_server, identifier, etag):
        status, _headers, raw = echo_server._round_trip(
            "GET", ROUTES["get_entry"].url(identifier),
            extra_headers={"If-None-Match": etag})
        assert status == 200
        assert json.loads(raw) == {"identifier": identifier,
                                   "if_none_match": etag}


# ----------------------------------------------------------------------
# One reader per client connection.
# ----------------------------------------------------------------------


@pytest.fixture()
def makefile_calls(monkeypatch):
    """The sockets ``socket.makefile`` is called on, by peer port."""
    calls: list[int] = []
    makefile = socket.socket.makefile

    def counting(sock, *args, **kwargs):
        try:
            calls.append(sock.getpeername()[1])
        except OSError:
            calls.append(-1)
        return makefile(sock, *args, **kwargs)
    monkeypatch.setattr(socket.socket, "makefile", counting)
    return calls


class TestOneReaderPerConnection:
    def test_sequential_gets_open_one_reader(self, sqlite_server,
                                             makefile_calls):
        entries = [minimal_entry(title=f"READ EXAMPLE {index}")
                   for index in range(5)]
        for entry in entries:
            sqlite_server.service.add(entry)
        client = HTTPBackend(sqlite_server.url)
        try:
            for number in range(500):  # 200s first, then 304s
                entry = entries[number % len(entries)]
                assert client.get(entry.identifier) == entry
        finally:
            client.close()
        # The server's side of the connection opens its own reader.
        assert makefile_calls.count(sqlite_server.port) == 1
        assert sqlite_server.metrics.snapshot()["conditional"][
            "not_modified"] == 495

    def test_a_connection_close_answer_opens_a_fresh_socket(self):
        def answer(connection):
            body = {"entry": minimal_entry().to_dict()}
            scripted_response(connection, json.dumps(body).encode("utf-8"))

        fake = ScriptedServer(answer, answer)
        client = HTTPBackend(fake.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            assert client.get("demo-example") == minimal_entry()
            first = client._local.connection
            assert first.sock is None  # dropped by the close answer
            assert client.get("demo-example") == minimal_entry()
            assert client._local.connection is not first
        finally:
            client.close()
            fake.close()
        assert len(fake.requests) == 2

    def test_an_abandoned_stream_drops_its_connection(self, sqlite_server,
                                                      makefile_calls):
        for index in range(4):
            sqlite_server.service.add(
                minimal_entry(title=f"STREAM EXAMPLE {index}"))
        client = HTTPBackend(sqlite_server.url)
        try:
            identifiers = [f"stream-example-{index}" for index in range(4)]
            iterator = client.iter_many(identifiers)
            assert next(iterator).identifier == "stream-example-0"
            iterator.close()
            assert client._local.connection is None
            assert [entry.identifier for entry in
                    client.get_many(identifiers)] == identifiers
        finally:
            client.close()
        assert makefile_calls.count(sqlite_server.port) == 2


class TestDeadlineScope:
    def test_a_request_without_a_deadline_runs_with_none(
            self, sqlite_server, monkeypatch):
        """On one keep-alive connection, a request after one that
        carried ``X-Deadline-Ms`` sees no ambient deadline."""
        seen = []

        def record(self, identifier, query_string=""):
            seen.append(current_deadline())
            self._send_json(200, {"has": False})
        monkeypatch.setattr(_Handler, "_handle_wiki", record)
        client = HTTPBackend(sqlite_server.url)
        try:
            with deadline_scope(Deadline.after(5.0)):
                client._request("GET", ROUTES["wiki"].url("a"))
            client._request("GET", ROUTES["wiki"].url("a"))
        finally:
            client.close()
        assert isinstance(seen[0], Deadline)
        assert seen[1] is None
