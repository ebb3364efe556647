"""The HTTP message head on both ends of the wire.

``read_headers`` is pinned line by line, then over real sockets: a
server fed every prefix of a request head keeps serving, a malformed
head gets exactly one answer and a close, a buffered response leaves in
one write, and a client handed a response head cut short at any byte
raises the typed error and recovers on a fresh connection.
"""

from __future__ import annotations

import http.client
import io
import json
import socket

import pytest

from repro.core.errors import BackendUnavailableError
from repro.repository.backends import SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.resilience import RetryPolicy
from repro.repository.server import RepositoryServer, _Handler
from repro.repository.service import RepositoryService
from repro.repository.wire import MAX_FIELDS, MAX_LINE, BadHead, read_headers
from tests.repository.test_entry import minimal_entry
from tests.repository.test_server import ScriptedServer


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
