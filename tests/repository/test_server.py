"""The HTTP serving layer: routing, wire fidelity, the wiki endpoint.

The conformance suites (test_backends.py, test_query_conformance.py)
already hold HTTPBackend-through-RepositoryServer to the storage and
query contracts; this file covers what only the HTTP layer itself can
get wrong — routes, status codes, malformed input, the wiki
endpoint and its validator, concurrent handler threads, and lifecycle.
"""

from __future__ import annotations

import gzip
import hashlib
import http.client
import json
import logging
import os
import re
import socket
import sqlite3
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib

import pytest

from repro.core.errors import (
    BackendUnavailableError,
    CircuitOpenError,
    EntryNotFound,
    StorageError,
)
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
)
from repro.repository.backends import sqlite as sqlite_module
from repro.repository.client import HTTPBackend
from repro.repository.codec import (
    CANONICAL_PREFIX,
    CODEC_VERSION,
    encode_entry,
    entry_digest,
)
from repro.repository.entry import ExampleEntry
from repro.repository.export import render_wikidot
from repro.repository.server import (
    PAGE_EPOCH,
    STREAM_PAGE_SIZE,
    RepositoryServer,
    _Handler,
)
from repro.repository.resilience import Deadline, RetryPolicy, deadline_scope
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry


@pytest.fixture()
def served():
    service = RepositoryService(MemoryBackend())
    server = RepositoryServer(service).start()
    client = HTTPBackend(server.url)
    yield server, client
    client.close()
    server.stop()
    service.close()


@pytest.fixture()
def sqlite_served(tmp_path):
    service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
    server = RepositoryServer(service, close_service=True).start()
    client = HTTPBackend(server.url)
    yield server, client
    client.close()
    server.stop()


def entry_batch(count: int):
    return [minimal_entry(title=f"ENTRY {index}") for index in range(count)]


def fetch(url: str):
    """Raw GET: (status, content_type, body bytes) — errors included."""
    try:
        with urllib.request.urlopen(url) as response:
            return (response.status, response.headers.get_content_type(),
                    response.read())
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get_content_type(), error.read()


class TestRouting:
    def test_unknown_route_is_a_json_404(self, served):
        server, _client = served
        status, content_type, body = fetch(server.url + "/nope")
        assert status == 404
        assert content_type == "application/json"
        assert json.loads(body)["error"]["type"] == "StorageError"

    def test_unknown_version_string_is_a_400(self, served):
        server, client = served
        client.add(minimal_entry())
        status, _type, body = fetch(
            server.url + "/entries/demo-example?version=banana")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "VersioningError"

    def test_missing_entry_is_a_structured_404(self, served):
        server, _client = served
        status, _type, body = fetch(server.url + "/entries/ghost")
        detail = json.loads(body)["error"]
        assert status == 404
        assert detail["type"] == "EntryNotFound"
        assert detail["identifier"] == "ghost"

    def test_duplicate_add_is_a_409(self, served):
        server, client = served
        client.add(minimal_entry())
        request = urllib.request.Request(
            server.url + "/entries",
            data=json.dumps({"entry": minimal_entry().to_dict()}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 409

    def test_malformed_json_body_is_a_400(self, served):
        server, _client = served
        request = urllib.request.Request(
            server.url + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400
        assert "malformed JSON" in json.loads(
            caught.value.read())["error"]["message"]

    def test_body_identifier_must_match_the_path(self, served):
        _server, client = served
        client.add(minimal_entry())
        impostor = minimal_entry(title="IMPOSTOR")
        with pytest.raises(StorageError, match="does not match"):
            client._request("PUT", "/entries/demo-example",
                            {"entry": impostor.to_dict()})

    def test_unknown_route_with_body_keeps_the_connection_usable(
            self, served):
        """The body of a rejected request is drained before replying:
        a keep-alive connection must not desync (leftover body bytes
        parsed as the next request line)."""
        _server, client = served
        client.add(minimal_entry())
        with pytest.raises(StorageError, match="no route"):
            client._request("POST", "/nonexistent",
                            {"entry": minimal_entry().to_dict()})
        # Same thread, same keep-alive connection: still in sync.
        assert client.identifiers() == ["demo-example"]
        assert client.has("demo-example")

    def test_percent_encoded_identifier_is_one_segment(self, served):
        """An identifier containing '/' travels as %2F and must not be
        split into path segments (mis-routing 'x/versions' to the
        versions handler, or 404ing has())."""
        _server, client = served
        client.add(minimal_entry())
        assert client.has("a/b") is False  # routed, answered, not 404
        with pytest.raises(EntryNotFound) as caught:
            client.get("a/b")
        assert caught.value.identifier == "a/b"
        with pytest.raises(EntryNotFound) as caught:
            client.get("demo-example/versions")
        assert caught.value.identifier == "demo-example/versions"

    def test_write_retries_when_the_stale_connection_fails_to_send(
            self, served):
        """A keep-alive connection the server dropped while idle fails
        at *send* time — the request never left, so one retry on a
        fresh connection is safe for writes too (without it, the first
        write after every idle gap dies with 'unreachable')."""
        _server, client = served
        client.add(minimal_entry())
        # Simulate the idle drop: the connection's reader holds the
        # socket open past close(), so shut it down instead.
        client._local.connection.sock.shutdown(socket.SHUT_RDWR)
        client.add_version(minimal_entry(version=Version(0, 2)))
        assert client.versions("demo-example") == \
            [Version(0, 1), Version(0, 2)]

    def test_oversized_body_rejected_by_header_alone(self, served):
        """A huge Content-Length is refused before any body bytes are
        read into memory; the connection closes instead of draining."""
        server, _client = served
        import http.client as hc
        connection = hc.HTTPConnection("127.0.0.1", server.port,
                                       timeout=10)
        connection.putrequest("POST", "/entries")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str(1 << 31))
        connection.endheaders()
        response = connection.getresponse()
        detail = json.loads(response.read())["error"]
        assert response.status == 400
        assert "exceeds" in detail["message"]
        connection.close()

    def test_counter_endpoint_is_the_hot_path_subset(self, served):
        server, client = served
        client.add_many(entry_batch(3))
        payload = json.loads(fetch(server.url + "/counter")[2])
        assert set(payload) == {"entry_count", "change_counter"}
        assert payload["entry_count"] == 3
        assert payload["change_counter"] is None  # memory backend
        assert client.entry_count() == 3
        assert client.change_counter() is None

    def test_get_with_explicit_version(self, served):
        _server, client = served
        client.add(minimal_entry())
        client.add_version(minimal_entry(version=Version(0, 2),
                                         overview="Better."))
        assert client.get("demo-example").overview == "Better."
        old = client.get("demo-example", Version(0, 1))
        assert old.overview == "A demo."


class TestStatsEndpoint:
    def test_stats_shape(self, sqlite_served):
        server, client = sqlite_served
        client.add_many(entry_batch(3))
        client.get("entry-0")
        payload = json.loads(fetch(server.url + "/stats")[2])
        assert set(payload) == {"entry_count", "change_counter", "cache",
                                "server"}
        assert payload["entry_count"] == 3
        assert payload["change_counter"] == 1  # one add_many transaction
        assert "decode_memo" in payload["cache"]

    def test_client_namespaces_server_caches(self, sqlite_served):
        _server, client = sqlite_served
        client.add(minimal_entry())
        stats = client.cache_stats()
        assert all(name.startswith("server:") for name in stats)
        assert "server:decode_memo" in stats


class TestWikiEndpoint:
    def test_page_is_rendered_wikidot(self, served):
        server, client = served
        client.add(minimal_entry())
        status, content_type, body = fetch(
            server.url + "/wiki/demo-example")
        assert status == 200
        assert content_type == "text/plain"
        assert body.decode("utf-8").startswith("+ DEMO EXAMPLE")

    def test_a_page_is_the_stored_entry_rendered(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        for _round in range(2):
            body = fetch(server.url + "/wiki/entry-0")[2].decode("utf-8")
            assert body == render_wikidot(client.get("entry-0"))

    def test_a_write_shows_on_the_written_page_only(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        fetch(server.url + "/wiki/entry-0")
        untouched = fetch(server.url + "/wiki/entry-1")[2]
        client.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Patched."))
        assert "Patched." in fetch(server.url + "/wiki/entry-0")[2].decode()
        assert fetch(server.url + "/wiki/entry-1")[2] == untouched

    def test_missing_page_is_a_404(self, served):
        server, _client = served
        status, _type, body = fetch(server.url + "/wiki/ghost")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "EntryNotFound"


class TestConcurrency:
    def test_many_client_threads_read_consistently(self, served):
        """16 threads hammer reads through keep-alive connections while
        the service stays coherent (each thread gets its own
        HTTPConnection via the backend's thread-local)."""
        _server, client = served
        batch = entry_batch(10)
        client.add_many(batch)
        errors: list[Exception] = []

        def reader(seed: int) -> None:
            try:
                for index in range(20):
                    identifier = f"entry-{(seed + index) % 10}"
                    assert client.get(identifier).identifier == identifier
                assert client.entry_count() == 10
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []

    def test_readers_interleave_with_writers(self, served):
        _server, client = served
        client.add_many(entry_batch(4))
        stop = threading.Event()
        errors: list[Exception] = []

        def writer() -> None:
            try:
                for minor in range(2, 12):
                    client.add_version(
                        minimal_entry(title="ENTRY 0",
                                      version=Version(0, minor)))
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    entry = client.get("entry-0")
                    assert entry.identifier == "entry-0"
            except Exception as error:  # pragma: no cover - fail below
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert client.versions("entry-0")[-1] == Version(0, 11)

    def test_concurrent_http_writes_share_one_commit(self, sqlite_served):
        """Handler threads write through the facade's group commit:
        writes that arrive while another holds the write lock commit
        together, one SQLite transaction for all of them."""
        server, client = sqlite_served
        service = server.service
        first = minimal_entry(title="FIRST")
        holding, release = threading.Event(), threading.Event()

        def block(event):
            if event.entry == first:
                holding.set()
                release.wait(10)

        service.subscribe(block)
        writers = [threading.Thread(target=client.add, args=(first,))]
        writers[0].start()
        assert holding.wait(10)
        before = service.backend.change_counter()  # not behind the lock
        for entry in entry_batch(3):
            writers.append(
                threading.Thread(target=client.add, args=(entry,)))
            writers[-1].start()
        deadline = time.monotonic() + 10
        while len(service._pending) < 3:
            assert time.monotonic() < deadline, "writes never queued"
            time.sleep(0.001)
        release.set()
        for writer in writers:
            writer.join(10)
        assert not any(writer.is_alive() for writer in writers)
        assert service.backend.change_counter() - before == 1
        assert client.entry_count() == 4


class TestLifecycle:
    def test_context_manager_serves_and_stops(self):
        service = RepositoryService(MemoryBackend())
        with RepositoryServer(service) as server:
            url = server.url
            client = HTTPBackend(url)
            client.add(minimal_entry())
            assert client.has("demo-example")
            client.close()
        # Stopped: a fresh connection is refused.
        fresh = HTTPBackend(url)
        with pytest.raises(StorageError, match="unreachable"):
            fresh.identifiers()
        fresh.close()
        service.close()

    def test_stop_returns_promptly(self):
        """stop() waits one short accept-loop poll, not the stdlib's
        0.5 s default: five start/stop cycles finish within a second."""
        service = RepositoryService(MemoryBackend())
        server = RepositoryServer(service)
        started = time.perf_counter()
        for _ in range(5):
            server.start()
            server.stop()
        elapsed = time.perf_counter() - started
        service.close()
        assert elapsed < 1.0, f"5 start/stop cycles took {elapsed:.2f}s"

    def test_routed_get_with_unread_body_keeps_connection_usable(
            self, served):
        """A body sent with a routed GET is drained after the reply,
        so keep-alive framing stays intact on the success path too."""
        server, client = served
        client.add(minimal_entry())
        import http.client as hc
        connection = hc.HTTPConnection("127.0.0.1", server.port,
                                       timeout=10)
        payload = json.dumps({"unexpected": "body"})
        connection.request("GET", "/entries", body=payload,
                           headers={"Content-Type": "application/json"})
        first = connection.getresponse()
        assert first.status == 200
        assert json.loads(first.read())["identifiers"] == ["demo-example"]
        # Same connection: the next request must parse cleanly.
        connection.request("GET", "/entries/demo-example/has")
        second = connection.getresponse()
        assert second.status == 200
        assert json.loads(second.read())["has"] is True
        connection.close()

    def test_stop_drains_in_flight_requests(self):
        """stop() waits for requests already inside a handler, so they
        finish against a live service instead of a closed one."""
        import time

        class SlowBackend(MemoryBackend):
            def get(self, identifier, version=None):
                time.sleep(0.4)
                return super().get(identifier, version)

        service = RepositoryService(SlowBackend())
        server = RepositoryServer(service, close_service=True).start()
        url = server.url
        client = HTTPBackend(url)
        client.add(minimal_entry())
        outcome: list[object] = []

        def slow_read() -> None:
            try:
                outcome.append(client.get("demo-example"))
            except Exception as error:  # pragma: no cover - fail below
                outcome.append(error)

        reader = threading.Thread(target=slow_read)
        reader.start()
        time.sleep(0.15)  # the request is inside the handler now
        server.stop()  # closes the service — must drain first
        reader.join(timeout=10)
        client.close()
        assert len(outcome) == 1
        assert getattr(outcome[0], "identifier", None) == "demo-example", \
            outcome

    def test_idle_connection_refreshed_before_reuse(self, served):
        """A kept-alive connection idle past the reuse limit is
        replaced up front — the idle-close race would otherwise
        surface at response time, where writes cannot retry."""
        import time

        _server, client = served
        client.add(minimal_entry())
        client.idle_reuse_limit = 0.05
        stale = client._local.connection
        time.sleep(0.12)
        client.add_version(minimal_entry(version=Version(0, 2)))  # a write
        assert client._local.connection is not stale
        assert client.versions("demo-example") == \
            [Version(0, 1), Version(0, 2)]

    def test_chunked_request_body_rejected_and_connection_closed(
            self, served):
        """No Content-Length means no way to drain: the request is
        refused and the connection closes instead of parsing the
        chunk stream as the next request."""
        server, _client = served
        import http.client as hc
        connection = hc.HTTPConnection("127.0.0.1", server.port,
                                       timeout=10)
        connection.putrequest("POST", "/entries")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert "chunked" in json.loads(response.read())["error"]["message"]
        with pytest.raises((hc.HTTPException, OSError)):
            connection.request("GET", "/entries")
            connection.getresponse()
        connection.close()

    def test_unstarted_server_leaves_no_subscriber_behind(self):
        service = RepositoryService(MemoryBackend())
        baseline = len(service._subscribers)
        server = RepositoryServer(service)
        assert len(service._subscribers) == baseline
        server.stop()  # never started: a safe no-op
        server.start()  # a serving server subscribes to nothing either
        assert len(service._subscribers) == baseline
        server.stop()
        assert len(service._subscribers) == baseline
        service.close()

    def test_base_url_path_prefix_is_honoured(self):
        client = HTTPBackend("http://127.0.0.1:1/repo/")
        assert client._prefix == "/repo"
        plain = HTTPBackend("http://127.0.0.1:1")
        assert plain._prefix == ""
        client.close()
        plain.close()

    def test_a_restarted_server_serves_the_write(self):
        """A page served before stop() must not come back after a
        restart once its entry has been written."""
        service = RepositoryService(MemoryBackend())
        server = RepositoryServer(service).start()
        client = HTTPBackend(server.url)
        client.add(minimal_entry())
        assert "A demo." in fetch(server.url + "/wiki/demo-example")[2] \
            .decode()
        client.close()
        server.stop()

        server.start()
        fresh = HTTPBackend(server.url)
        fresh.replace_latest(minimal_entry(overview="Patched."))
        page = fetch(server.url + "/wiki/demo-example")[2].decode()
        assert "Patched." in page
        fresh.close()
        server.stop()
        service.close()

    def test_port_property_requires_running_server(self):
        server = RepositoryServer(RepositoryService(MemoryBackend()))
        with pytest.raises(StorageError, match="not running"):
            _ = server.port

    def test_bare_backend_is_wrapped_in_a_service(self):
        server = RepositoryServer(MemoryBackend())
        assert isinstance(server.service, RepositoryService)

    def test_closed_client_refuses_requests(self, served):
        _server, client = served
        client.add(minimal_entry())
        client.close()
        with pytest.raises(StorageError, match="closed"):
            client.identifiers()

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(StorageError, match="http://"):
            HTTPBackend("ftp://example.org")


def raw_get(port: int, path: str, **headers):
    """One GET over a dedicated connection, headers fully controlled."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        connection.close()


class TestClientHangUp:
    def test_no_second_response_after_the_client_hangs_up(self, caplog):
        """Regression: a client that closed before reading its response
        made the response write fail, which the handler logged as an
        internal error before writing an error response onto the same
        dead socket (raising again, with a traceback)."""
        entered, release = threading.Event(), threading.Event()

        class GatedBackend(MemoryBackend):
            def get(self, identifier, version=None):
                entered.set()
                release.wait(10)
                return super().get(identifier, version)

        service = RepositoryService(GatedBackend())
        service.add(minimal_entry())
        server = RepositoryServer(service, close_service=True).start()
        try:
            peer = socket.create_connection(("127.0.0.1", server.port))
            # Linger 0: close() resets the connection at once, so the
            # server's response write is certain to fail.
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            peer.sendall(b"GET /entries/demo-example HTTP/1.1\r\n"
                         b"Host: test\r\n\r\n")
            assert entered.wait(10)
            peer.close()
            release.set()
            assert server._tracker.wait_idle(10)
            assert server.metrics.snapshot()["client_aborted"] == 1
            status, _type, body = fetch(server.url + "/entries/demo-example")
            assert status == 200
            assert json.loads(body)["entry"]["title"] == "DEMO EXAMPLE"
        finally:
            release.set()
            server.stop()
        assert not [record for record in caplog.records
                    if "internal error" in record.getMessage()]

    def test_a_hang_up_mid_stream_is_counted(self, caplog):
        """A peer that resets between two NDJSON pages: the next page
        write fails, and the abort is counted instead of logged."""
        entered, release = threading.Event(), threading.Event()

        class GatedBackend(MemoryBackend):
            pages = None  # None: not streaming yet

            def versions_many(self, identifiers):
                if self.pages is not None:
                    self.pages += 1
                    if self.pages == 2:  # page one is already out
                        entered.set()
                        release.wait(10)
                return super().versions_many(identifiers)

        backend = GatedBackend()
        batch = entry_batch(STREAM_PAGE_SIZE + 1)
        backend.add_many(batch)
        backend.pages = 0
        server = RepositoryServer(RepositoryService(backend),
                                  close_service=True).start()
        body = json.dumps(
            {"identifiers": [entry.identifier for entry in batch]}).encode()
        try:
            peer = socket.create_connection(("127.0.0.1", server.port))
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            peer.sendall(b"POST /batch/versions HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Accept: application/x-ndjson\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            assert entered.wait(10)
            peer.close()
            release.set()
            assert server._tracker.wait_idle(10)
            snapshot = server.metrics.snapshot()
            assert snapshot["client_aborted"] == 1
            assert snapshot["stream"]["responses"] == 0
        finally:
            release.set()
            server.stop()
        assert not [record for record in caplog.records
                    if record.levelno >= logging.ERROR]


def read_until_closed(peer: socket.socket) -> tuple[bytes, bool]:
    """Everything the server sends, and whether it then closed."""
    received = b""
    try:
        while chunk := peer.recv(65536):
            received += chunk
    except TimeoutError:
        return received, False
    return received, True


class TestFailureAfterHeaders:
    """A failure after the status line went out must not write a second
    response into the first one's body: the server sends nothing more
    and closes the connection."""

    @staticmethod
    def fail_after_headers(monkeypatch, error):
        def handle_wiki(self, identifier, query_string=""):
            self._send_json(200, {"has": False})
            raise error
        monkeypatch.setattr(_Handler, "_handle_wiki", handle_wiki)

    @pytest.mark.parametrize("error, logged, aborted", [
        (TimeoutError("timed out"), False, 1),
        (ConnectionAbortedError("aborted"), False, 1),
        (EntryNotFound("gone"), False, 0),
        pytest.param(RuntimeError("handler bug"), True, 0,
                     marks=pytest.mark.internal_error),
    ], ids=["timeout", "aborted", "typed", "untyped"])
    def test_exactly_one_response_then_close(self, served, monkeypatch,
                                             caplog, error, logged,
                                             aborted):
        server, _client = served
        self.fail_after_headers(monkeypatch, error)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=2) as peer:
            peer.sendall(b"GET /wiki/demo-example HTTP/1.1\r\n"
                         b"Host: test\r\n\r\n")
            received, closed = read_until_closed(peer)
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 200 ")
        assert received.endswith(b'{"has": false}')
        assert closed
        internal = [record for record in caplog.records
                    if "internal error" in record.getMessage()]
        assert bool(internal) == logged
        # Only a socket failure is the peer's abort; a typed answer is
        # neither, and a server bug is logged instead.
        assert server.metrics.snapshot()["client_aborted"] == aborted

    def test_failure_before_headers_still_gets_its_error_response(
            self, served, monkeypatch):
        server, _client = served

        def handle_wiki(self, identifier, query_string=""):
            raise EntryNotFound("gone")
        monkeypatch.setattr(_Handler, "_handle_wiki", handle_wiki)
        status, _type, body = fetch(server.url + "/wiki/x")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "EntryNotFound"


class TestRestart:
    """A restarted server starts with cold caches, so it is never stale:
    not after a write through the previous server, and not after a
    write that reached the database while no server was running."""

    @pytest.mark.parametrize("writer", ["served", "foreign"])
    def test_restarted_server_serves_the_written_wiki_page(self, tmp_path,
                                                           writer):
        path = tmp_path / "repo.db"
        patched = minimal_entry(title="ENTRY 0", overview="Patched.")
        first = RepositoryServer(RepositoryService(SQLiteBackend(path)),
                                 close_service=True).start()
        try:
            client = HTTPBackend(first.url)
            client.add_many(entry_batch(2))
            _status, before, _body = raw_get(first.port, "/wiki/entry-0")
            if writer == "served":
                client.replace_latest(patched)
            client.close()
        finally:
            first.stop()
        if writer == "foreign":
            with SQLiteBackend(path) as backend:
                backend.replace_latest(patched)

        second = RepositoryServer(RepositoryService(SQLiteBackend(path)),
                                  close_service=True).start()
        try:
            status, _headers, body = raw_get(
                second.port, "/wiki/entry-0",
                **{"If-None-Match": before["ETag"]})
        finally:
            second.stop()
        assert status == 200
        assert "Patched." in body.decode("utf-8")


class TestConditionalReads:
    def test_200_carries_a_weak_etag(self, served):
        server, client = served
        client.add(minimal_entry())
        status, headers, _body = raw_get(server.port,
                                         "/entries/demo-example")
        assert status == 200
        assert headers["ETag"].startswith('W/"')

    def test_if_none_match_answers_304_with_no_body(self, served):
        server, client = served
        client.add(minimal_entry())
        _status, headers, body = raw_get(server.port,
                                         "/entries/demo-example")
        status, revalidated, nothing = raw_get(
            server.port, "/entries/demo-example",
            **{"If-None-Match": headers["ETag"]})
        assert status == 304
        assert nothing == b""
        assert revalidated["ETag"] == headers["ETag"]
        assert len(body) > 0  # the 200 did carry the entry

    def test_wiki_etag_survives_writes_elsewhere(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        _s, before, _b = raw_get(server.port, "/wiki/entry-0")
        client.replace_latest(minimal_entry(title="ENTRY 1",
                                            overview="Patched."))
        status, after, _b = raw_get(
            server.port, "/wiki/entry-0",
            **{"If-None-Match": before["ETag"]})
        # The validator is entry-0's digest: entry-1's write leaves
        # entry-0's page revalidatable.
        assert status == 304
        assert after["ETag"] == before["ETag"]

    def test_wiki_etag_moves_with_its_own_entry(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        _s, before, _b = raw_get(server.port, "/wiki/entry-0")
        client.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Patched."))
        status, _after, body = raw_get(
            server.port, "/wiki/entry-0",
            **{"If-None-Match": before["ETag"]})
        assert status == 200
        assert "Patched." in body.decode("utf-8")

    def test_versioned_and_latest_etags_are_distinct(self, served):
        server, client = served
        client.add(minimal_entry())
        _s, latest, _b = raw_get(server.port, "/entries/demo-example")
        _s, pinned, _b = raw_get(server.port,
                                 "/entries/demo-example?version=0.1")
        assert latest["ETag"] != pinned["ETag"]

    def test_stats_is_never_a_304(self, any_served):
        """``/stats`` is live counters: reads move them as much as
        writes do, so no validator can vouch for an earlier body."""
        server, client = any_served
        client.add(minimal_entry())
        _s, headers, _b = raw_get(server.port, "/stats")
        for _read in range(6):
            raw_get(server.port, "/entries/demo-example")
        status, _h, body = raw_get(
            server.port, "/stats",
            **{"If-None-Match": headers.get("ETag", "*")})
        assert status == 200
        requests = json.loads(body)["server"]["requests"]
        assert requests["GET get_entry"] == 6
        assert "ETag" not in headers

    def test_client_serves_304_hits_from_its_validation_cache(
            self, served):
        server, client = served
        client.add(minimal_entry())
        first = client.get("demo-example")
        second = client.get("demo-example")
        # Same immutable snapshot object: the 304 answered from cache.
        assert second is first
        assert client.wire_cache_stats()["validation"]["hits"] == 1
        metrics = server.metrics.snapshot()
        assert metrics["conditional"]["not_modified"] == 1
        assert metrics["conditional"]["hit_rate"] == 1.0

    def test_client_revalidation_miss_fetches_fresh_content(self, served):
        _server, client = served
        client.add(minimal_entry())
        client.get("demo-example")
        client.replace_latest(minimal_entry(overview="Patched."))
        assert client.get("demo-example").overview == "Patched."

    def test_malformed_if_none_match_is_a_400(self, served):
        server, client = served
        client.add(minimal_entry())
        for bad in ("not-quoted", 'W/"ok", ???', '"unterminated'):
            status, _h, body = raw_get(server.port,
                                       "/entries/demo-example",
                                       **{"If-None-Match": bad})
            detail = json.loads(body)["error"]
            assert status == 400, bad
            assert detail["type"] == "StorageError"
            assert "If-None-Match" in detail["message"]


class TestServersSharingOneDatabase:
    """Two servers over one SQLite file — two processes serving one
    repository — must both serve an in-place revision at once."""

    @pytest.mark.parametrize("path", ["/entries/demo-example",
                                      "/wiki/demo-example"],
                             ids=["entry", "wiki"])
    def test_a_write_through_one_server_is_fresh_through_the_other(
            self, tmp_path, path):
        servers, clients = [], []
        for _side in ("a", "b"):
            service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
            servers.append(
                RepositoryServer(service, close_service=True).start())
            clients.append(HTTPBackend(servers[-1].url))
        (server_a, server_b), (client_a, client_b) = servers, clients
        try:
            client_a.add(minimal_entry())
            assert client_b.get("demo-example").overview == "A demo."
            _s, before, _b = raw_get(server_b.port, path)
            client_a.replace_latest(minimal_entry(overview="Revised."))
            # No false 304: the validator B minted before A's write
            # must not revalidate, and the 200 must carry the revision.
            status, after, body = raw_get(
                server_b.port, path, **{"If-None-Match": before["ETag"]})
            assert status == 200
            assert after["ETag"] != before["ETag"]
            assert "Revised." in body.decode("utf-8")
            _s, _h, body = raw_get(server_b.port, path)
            assert "Revised." in body.decode("utf-8")
            # Both servers mint the one validator the stored entry has.
            assert raw_get(server_a.port, path)[1]["ETag"] == after["ETag"]
            # B's own client revalidates its cached copy the same way.
            assert client_b.get("demo-example").overview == "Revised."
        finally:
            for client in clients:
                client.close()
            for server in servers:
                server.stop()


def insert_raw_row(db_path, identifier: str, payload: str) -> None:
    """Store one snapshot row behind the backend's back, as an older
    build (or a newer one) would have written it."""
    connection = sqlite3.connect(db_path)
    try:
        with connection:
            connection.execute(
                "INSERT INTO entries (identifier, major, minor, payload) "
                "VALUES (?, 0, 1, ?)", (identifier, payload))
    finally:
        connection.close()


@pytest.fixture(params=["memory", "file", "sqlite"])
def any_served(request, tmp_path):
    """A served repository over each backend kind."""
    backend = {
        "memory": MemoryBackend,
        "file": lambda: FileBackend(tmp_path / "repo"),
        "sqlite": lambda: SQLiteBackend(tmp_path / "repo.db"),
    }[request.param]()
    server = RepositoryServer(RepositoryService(backend),
                              close_service=True).start()
    client = HTTPBackend(server.url)
    yield server, client
    client.close()
    server.stop()


class TestPerEntryValidators:
    """On every backend an entry's ETag digests its codec bytes: it
    moves when that entry is written and survives writes to any
    other."""

    def test_an_unrelated_add_leaves_the_etag_valid(self, any_served):
        server, client = any_served
        client.add(minimal_entry())
        first = client.get("demo-example")
        _s, before, _b = raw_get(server.port, "/entries/demo-example")
        client.add(minimal_entry(title="OTHER EXAMPLE"))
        status, after, body = raw_get(
            server.port, "/entries/demo-example",
            **{"If-None-Match": before["ETag"]})
        assert status == 304
        assert body == b""
        assert after["ETag"] == before["ETag"]
        # The client's cached snapshot revalidates the same way.
        assert client.get("demo-example") is first
        assert server.metrics.snapshot()["conditional"]["not_modified"] == 2

    @pytest.mark.parametrize("write", ["replace_latest", "add_version"])
    def test_a_write_to_the_entry_moves_its_etag(self, any_served, write):
        server, client = any_served
        client.add(minimal_entry())
        _s, before, _b = raw_get(server.port, "/entries/demo-example")
        revised = minimal_entry(
            overview="Revised.",
            version=Version(0, 2) if write == "add_version"
            else Version(0, 1))
        getattr(client, write)(revised)
        status, after, body = raw_get(
            server.port, "/entries/demo-example",
            **{"If-None-Match": before["ETag"]})
        assert status == 200
        assert after["ETag"] != before["ETag"]
        assert json.loads(body)["entry"]["overview"] == "Revised."
        assert client.get("demo-example") == revised

    def test_the_etag_is_a_digest_of_the_body_and_the_version_slot(
            self, any_served):
        server, client = any_served
        entry = minimal_entry()
        client.add(entry)
        payload = encode_entry(entry).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        _s, latest, body = raw_get(server.port, "/entries/demo-example")
        _s, pinned, _b = raw_get(server.port,
                                 "/entries/demo-example?version=0.1")
        assert body == b'{"entry":' + payload + b"}"
        assert latest["ETag"] == f'W/"{digest}/latest"'
        assert pinned["ETag"] == f'W/"{digest}/0.1"'

    def test_a_wiki_page_is_tagged_with_the_epoch_and_its_entry_digest(
            self, any_served):
        server, client = any_served
        entry = minimal_entry()
        client.add(entry)
        payload = encode_entry(entry).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        status, headers, body = raw_get(server.port, "/wiki/demo-example")
        assert status == 200
        assert headers["ETag"] == f'W/"{PAGE_EPOCH}/{digest}"'
        assert body.decode("utf-8") == render_wikidot(entry)

    def test_a_wiki_tag_holds_until_its_own_entry_is_written(
            self, any_served):
        server, client = any_served
        client.add_many(entry_batch(2))
        _s, before, _b = raw_get(server.port, "/wiki/entry-0")
        client.replace_latest(minimal_entry(title="ENTRY 1",
                                            overview="Elsewhere."))
        status, _h, body = raw_get(server.port, "/wiki/entry-0",
                                   **{"If-None-Match": before["ETag"]})
        assert (status, body) == (304, b"")
        client.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Patched."))
        status, after, body = raw_get(server.port, "/wiki/entry-0",
                                      **{"If-None-Match": before["ETag"]})
        assert status == 200
        assert after["ETag"] != before["ETag"]
        assert "Patched." in body.decode("utf-8")

    def test_a_wiki_tag_never_labels_another_generation(self, any_served):
        """The page and its tag come from one read, so while a writer
        races the readers every 200 carries the tag of the generation
        it shows: a 304 for that tag can never hide a newer write."""
        server, client = any_served
        generations = [minimal_entry(overview=f"Generation {number}.")
                       for number in range(40)]
        tag_of = [f'W/"{PAGE_EPOCH}/{entry_digest(entry)}"'
                  for entry in generations]
        client.add(generations[0])
        writer_done = threading.Event()
        reads: list[tuple[str, str]] = []

        def write() -> None:
            try:
                for entry in generations[1:]:
                    client.replace_latest(entry)
            finally:
                writer_done.set()

        def read() -> None:
            while True:
                finished = writer_done.is_set()
                status, headers, body = raw_get(server.port,
                                                "/wiki/demo-example")
                assert status == 200
                shown = int(re.search(r"Generation (\d+)\.",
                                      body.decode("utf-8")).group(1))
                reads.append((headers["ETag"], tag_of[shown]))
                if finished:
                    return

        threads = [threading.Thread(target=read) for _ in range(2)]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reads) >= 2  # each reader read at least once
        assert [tag for tag, _expected in reads] == \
            [expected for _tag, expected in reads]

    def test_servers_over_one_database_mint_the_same_etag(self, tmp_path):
        servers = [
            RepositoryServer(
                RepositoryService(SQLiteBackend(tmp_path / "repo.db")),
                close_service=True).start()
            for _side in ("a", "b")]
        client_a = HTTPBackend(servers[0].url)
        try:
            client_a.add(minimal_entry())
            _s, minted_a, _b = raw_get(servers[0].port,
                                       "/entries/demo-example")
            _s, minted_b, _b = raw_get(servers[1].port,
                                       "/entries/demo-example")
            assert minted_a["ETag"] == minted_b["ETag"]
            # A write to another entry through A leaves A's tag valid
            # at B.
            client_a.add(minimal_entry(title="OTHER EXAMPLE"))
            status, _h, _b = raw_get(
                servers[1].port, "/entries/demo-example",
                **{"If-None-Match": minted_a["ETag"]})
            assert status == 304
        finally:
            client_a.close()
            for server in servers:
                server.stop()

    def test_a_legacy_untagged_row_is_served_canonical(
            self, sqlite_served, tmp_path):
        server, client = sqlite_served
        entry = minimal_entry(title="LEGACY EXAMPLE")
        insert_raw_row(tmp_path / "repo.db", entry.identifier,
                       json.dumps(entry.to_dict(), indent=2))
        _s, headers, body = raw_get(server.port, "/entries/legacy-example")
        canonical = encode_entry(entry).encode("utf-8")
        assert body == b'{"entry":' + canonical + b"}"
        digest = hashlib.blake2b(canonical, digest_size=16).hexdigest()
        assert headers["ETag"] == f'W/"{digest}/latest"'
        assert client.get("legacy-example") == entry

    def test_a_newer_codec_row_is_a_typed_error(self, sqlite_served,
                                                tmp_path):
        server, client = sqlite_served
        data = minimal_entry().to_dict()
        data["_codec"] = CODEC_VERSION + 1
        insert_raw_row(tmp_path / "repo.db", "demo-example",
                       json.dumps(data, sort_keys=True,
                                  separators=(",", ":")))
        status, _h, body = raw_get(server.port, "/entries/demo-example")
        assert status == 400
        detail = json.loads(body)["error"]
        assert detail["type"] == "StorageError"
        assert "codec version" in detail["message"]
        with pytest.raises(StorageError, match="codec version"):
            client.get("demo-example")

    @pytest.mark.parametrize("stored, problem", [
        (f"'{CANONICAL_PREFIX}\"title\":'", "not JSON"),
        ("CAST(X'7B22FF' AS TEXT)", "not UTF-8"),
    ], ids=["cut short", "not UTF-8"])
    def test_a_corrupt_stored_row_is_a_typed_error(
            self, sqlite_served, tmp_path, caplog, stored, problem):
        server, client = sqlite_served
        client.add(minimal_entry())
        connection = sqlite3.connect(tmp_path / "repo.db")
        try:
            with connection:
                connection.execute(
                    f"UPDATE entries SET payload = {stored} "
                    "WHERE identifier = 'demo-example'")
        finally:
            connection.close()
        assert_corrupt_entry_is_a_typed_error(server, client, caplog, problem)
        with SQLiteBackend(tmp_path / "repo.db") as backend:
            for read in (backend.get, backend.get_payload,
                         lambda identifier: backend.get_many([identifier])):
                with pytest.raises(StorageError, match=problem):
                    read("demo-example")

    @pytest.mark.parametrize("stored, problem", [
        ((CANONICAL_PREFIX + '"title":').encode("utf-8"), "not JSON"),
        (b'{"\xff', "not UTF-8"),
    ], ids=["cut short", "not UTF-8"])
    def test_a_corrupt_entry_file_is_a_typed_error(self, tmp_path, caplog,
                                                   stored, problem):
        with FileBackend(tmp_path / "repo") as writer:
            writer.add(minimal_entry())
        (tmp_path / "repo" / "entries" / "demo-example" / "0.1.json"
         ).write_bytes(stored)
        server = RepositoryServer(
            RepositoryService(FileBackend(tmp_path / "repo")),
            close_service=True).start()
        client = HTTPBackend(server.url)
        try:
            assert_corrupt_entry_is_a_typed_error(server, client, caplog,
                                                  problem)
        finally:
            client.close()
            server.stop()


def assert_corrupt_entry_is_a_typed_error(server, client, caplog,
                                          problem: str) -> None:
    """A stored payload that is not JSON answers a typed 400 and logs no
    internal error."""
    status, _h, body = raw_get(server.port, "/entries/demo-example")
    assert status == 400
    detail = json.loads(body)["error"]
    assert detail["type"] == "StorageError"
    assert problem in detail["message"]
    with pytest.raises(StorageError, match=problem):
        client.get("demo-example")
    assert not [record for record in caplog.records
                if "internal error" in record.getMessage()]


def rewrite_raw_payload(db_path, identifier: str, payload: str) -> None:
    """Rewrite one row's payload behind the backend's back and leave its
    stored digest alone, as a build that predates the digest column
    would."""
    connection = sqlite3.connect(db_path)
    try:
        with connection:
            connection.execute(
                "UPDATE entries SET payload = ? WHERE identifier = ?",
                (payload, identifier))
    finally:
        connection.close()


def stored_digests(db_path) -> dict:
    """identifier -> the digest column of its row (one version each)."""
    connection = sqlite3.connect(db_path)
    try:
        return dict(connection.execute(
            "SELECT identifier, digest FROM entries"))
    finally:
        connection.close()


def expected_answer(entry, slot: str = "latest"):
    """The 200 body and ETag every backend serves for ``entry``."""
    payload = encode_entry(entry).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    return b'{"entry":' + payload + b"}", f'W/"{digest}/{slot}"'


#: The ``entries`` table as databases from before the digest column
#: declare it.
PRE_DIGEST_ENTRIES_DDL = """
CREATE TABLE entries (
    identifier TEXT    NOT NULL,
    major      INTEGER NOT NULL,
    minor      INTEGER NOT NULL,
    payload    TEXT    NOT NULL,
    PRIMARY KEY (identifier, major, minor)
)
"""


class TestStoredPayloads:
    """Over SQLite the entry GET serves the stored row: its payload is
    the body and its stored digest the validator, with no decode, as
    long as the row has a digest.  A payload rewritten without one
    loses it, and every row without one is decoded and answered as
    before."""

    @pytest.mark.parametrize("write", ["add", "add_many", "replace_latest",
                                       "replace_latest with the same bytes"])
    def test_an_entry_get_does_no_codec_work(self, tmp_path, monkeypatch,
                                             write):
        entry = minimal_entry(overview=f"Stored by {write}.")
        expected_body, expected_etag = expected_answer(entry)
        with SQLiteBackend(tmp_path / "repo.db") as writer:
            if write == "add_many":
                writer.add_many([entry])
            elif write == "replace_latest":
                writer.add(minimal_entry())
                writer.replace_latest(entry)
            else:
                writer.add(entry)
                if write != "add":
                    writer.replace_latest(entry)
        calls = []
        decode, from_dict = sqlite_module.decode_entry, ExampleEntry.from_dict
        to_dict = ExampleEntry.to_dict
        monkeypatch.setattr(
            sqlite_module, "decode_entry",
            lambda payload: calls.append("decode_entry") or decode(payload))
        monkeypatch.setattr(
            ExampleEntry, "from_dict",
            staticmethod(lambda data: calls.append("from_dict")
                         or from_dict(data)))
        monkeypatch.setattr(
            ExampleEntry, "to_dict",
            lambda self: calls.append("to_dict") or to_dict(self))
        # A fresh backend: its decode memo is cold.
        service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
        with RepositoryServer(service, close_service=True) as server:
            status, headers, body = raw_get(server.port,
                                            "/entries/demo-example")
            revalidated, _h, empty = raw_get(
                server.port, "/entries/demo-example",
                **{"If-None-Match": headers["ETag"]})
        assert (status, body, headers["ETag"]) == (
            200, expected_body, expected_etag)
        assert (revalidated, empty) == (304, b"")
        assert calls == []

    def test_a_row_without_a_digest_is_served_canonical(
            self, sqlite_served, tmp_path):
        server, client = sqlite_served
        entry = minimal_entry()
        insert_raw_row(tmp_path / "repo.db", entry.identifier,
                       encode_entry(entry))
        assert stored_digests(tmp_path / "repo.db") == {
            entry.identifier: None}
        _s, headers, body = raw_get(server.port, "/entries/demo-example")
        assert (body, headers["ETag"]) == expected_answer(entry)
        assert client.get("demo-example") == entry

    def test_a_payload_rewritten_behind_its_digest_is_decoded(
            self, sqlite_served, tmp_path):
        server, client = sqlite_served
        client.add(minimal_entry())
        _s, before, _b = raw_get(server.port, "/entries/demo-example")
        rewritten = minimal_entry(overview="Rewritten behind the back.")
        rewrite_raw_payload(tmp_path / "repo.db", "demo-example",
                            encode_entry(rewritten))
        # The stored digest is stale: it must not validate the old tag,
        # and the answer is the rewritten row's own bytes and digest.
        status, after, body = raw_get(
            server.port, "/entries/demo-example",
            **{"If-None-Match": before["ETag"]})
        assert status == 200
        assert (body, after["ETag"]) == expected_answer(rewritten)
        assert client.get("demo-example") == rewritten

    def test_a_rewritten_payload_that_no_longer_decodes_is_a_typed_error(
            self, sqlite_served, tmp_path):
        server, client = sqlite_served
        entry = minimal_entry()
        client.add(entry)
        broken = encode_entry(entry).replace('"title":"DEMO EXAMPLE"',
                                             '"title":5')
        assert broken.startswith(CANONICAL_PREFIX)
        assert broken != encode_entry(entry)
        rewrite_raw_payload(tmp_path / "repo.db", "demo-example", broken)
        status, _h, body = raw_get(server.port, "/entries/demo-example")
        assert status == 400
        detail = json.loads(body)["error"]
        assert detail["type"] == "TemplateError"
        assert "title" in detail["message"]

    def test_every_backend_serves_the_same_bytes_and_etags(self, tmp_path):
        entry = minimal_entry(overview="Über-élan " * 200,
                              version=Version(1, 0))
        backends = {
            "memory": MemoryBackend(),
            "file": FileBackend(tmp_path / "repo"),
            "sqlite": SQLiteBackend(tmp_path / "repo.db"),
        }
        paths = ("/entries/demo-example", "/entries/demo-example?version=1.0")
        answers = {}
        for name, backend in backends.items():
            with RepositoryServer(RepositoryService(backend),
                                  close_service=True) as server:
                client = HTTPBackend(server.url)
                client.add(entry)
                client.close()
                answers[name] = [raw_get(server.port, path)[1:]
                                 for path in paths]
        # A second SQLite server over the same file reads it cold.
        with RepositoryServer(
                RepositoryService(SQLiteBackend(tmp_path / "repo.db")),
                close_service=True) as server:
            answers["sqlite, cold"] = [raw_get(server.port, path)[1:]
                                       for path in paths]
        for name, answer in answers.items():
            served = [(body, headers["ETag"]) for headers, body in answer]
            assert served == [expected_answer(entry),
                              expected_answer(entry, "1.0")], name

    def test_a_database_from_before_the_digest_column_opens(self, tmp_path):
        database = tmp_path / "old.db"
        old = [minimal_entry(title=f"OLD {index}") for index in range(3)]
        connection = sqlite3.connect(database)
        try:
            with connection:
                connection.execute(PRE_DIGEST_ENTRIES_DDL)
                connection.executemany(
                    "INSERT INTO entries VALUES (?, 0, 1, ?)",
                    [(entry.identifier, encode_entry(entry))
                     for entry in old])
        finally:
            connection.close()
        service = RepositoryService(SQLiteBackend(database))
        with RepositoryServer(service, close_service=True) as server:
            for entry in old:
                _s, headers, body = raw_get(
                    server.port, f"/entries/{entry.identifier}")
                assert (body, headers["ETag"]) == expected_answer(entry)
            assert stored_digests(database) == dict.fromkeys(
                (entry.identifier for entry in old), None)
            client = HTTPBackend(server.url)
            revised = minimal_entry(title="OLD 0", overview="Revised.")
            added = minimal_entry(title="NEW")
            client.replace_latest(revised)
            client.add(added)
            client.close()
            digests = stored_digests(database)
            for entry in (revised, added):
                _s, headers, body = raw_get(
                    server.port, f"/entries/{entry.identifier}")
                assert (body, headers["ETag"]) == expected_answer(entry)
                digest = digests[entry.identifier]
                assert headers["ETag"] == f'W/"{digest}/latest"'
            assert digests["old-1"] is None and digests["old-2"] is None


class TestReadConnections:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open files through /proc")
    def test_closed_client_connections_leave_no_read_connections(
            self, sqlite_served, tmp_path):
        """A thread-per-connection server must not keep one SQLite
        reader per client connection it ever accepted: readers are
        pooled, so the pool tracks concurrent reads, not history."""
        server, client = sqlite_served
        client.add(minimal_entry())
        for _request in range(200):
            status, _headers, _body = raw_get(
                server.port, "/entries/demo-example", Connection="close")
            assert status == 200
        database = str(tmp_path / "repo.db")
        opened = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue  # closed while listing
            if target.startswith(database):
                opened.append(target)
        # The writer plus a few pooled readers, each holding the
        # database, its WAL and its shared-memory index.
        assert len(opened) <= 12, opened

    def test_concurrent_readers_never_share_a_connection(self, tmp_path):
        """The pool under contention: more reader threads than cores,
        switching as often as the interpreter allows.  A connection
        handed to two borrowers at once would come back twice."""
        backend = SQLiteBackend(tmp_path / "pool.db")
        backend.add_many(entry_batch(8))
        identifiers = backend.identifiers()
        wrong: list[object] = []

        def reader() -> None:
            try:
                for _round in range(40):
                    for identifier in identifiers:
                        if backend.get(identifier).identifier != identifier:
                            wrong.append(identifier)
            except Exception as error:  # noqa: BLE001 - asserted below
                wrong.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        idle = backend._idle_readers
        assert len({id(conn) for conn in idle}) == len(idle) <= 8
        backend.close()


class TestCompression:
    def test_large_response_is_gzipped_when_accepted(self, served):
        server, client = served
        client.add(minimal_entry(overview="tok " * 2000))
        status, headers, body = raw_get(server.port,
                                        "/entries/demo-example",
                                        **{"Accept-Encoding": "gzip"})
        assert status == 200
        assert headers.get("Content-Encoding") == "gzip"
        payload = json.loads(gzip.decompress(body))
        assert payload["entry"]["overview"].startswith("tok ")

    def test_small_response_stays_identity(self, served):
        server, client = served
        client.add(minimal_entry())
        _s, headers, body = raw_get(server.port, "/entries/demo-example/has",
                                    **{"Accept-Encoding": "gzip"})
        assert "Content-Encoding" not in headers
        assert json.loads(body) == {"has": True}

    def test_no_accept_encoding_means_identity(self, served):
        server, client = served
        client.add(minimal_entry(overview="tok " * 2000))
        _s, headers, body = raw_get(server.port, "/entries/demo-example")
        assert "Content-Encoding" not in headers
        json.loads(body)  # plain JSON, not gzip bytes

    def test_client_inflates_transparently(self, served):
        _server, client = served
        big = minimal_entry(overview="tok " * 2000)
        client.add(big)
        assert client.get("demo-example") == big

    def test_unacceptable_accept_encoding_is_a_406(self, served):
        server, client = served
        client.add(minimal_entry())
        status, _h, body = raw_get(
            server.port, "/entries/demo-example",
            **{"Accept-Encoding": "identity;q=0, *;q=0"})
        detail = json.loads(body)["error"]
        assert status == 406
        assert detail["type"] == "StorageError"
        assert "Accept-Encoding" in detail["message"]

    def test_unknown_codings_are_ignored_not_406(self, served):
        server, client = served
        client.add(minimal_entry())
        status, _h, _b = raw_get(server.port, "/entries/demo-example",
                                 **{"Accept-Encoding": "br, deflate"})
        assert status == 200

    def test_unknown_content_encoding_is_a_415(self, served):
        server, _client = served
        request = urllib.request.Request(
            server.url + "/query", data=b"{}",
            headers={"Content-Type": "application/json",
                     "Content-Encoding": "br"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 415
        detail = json.loads(caught.value.read())["error"]
        assert "Content-Encoding" in detail["message"]

    def test_gzipped_request_body_is_accepted(self, served):
        server, client = served
        entry = minimal_entry()
        raw = json.dumps({"entry": entry.to_dict()}).encode("utf-8")
        request = urllib.request.Request(
            server.url + "/entries", data=gzip.compress(raw),
            headers={"Content-Type": "application/json",
                     "Content-Encoding": "gzip"},
            method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 201
        assert client.get("demo-example") == entry

    def test_corrupt_gzip_request_body_is_a_400(self, served):
        server, _client = served
        request = urllib.request.Request(
            server.url + "/query", data=b"\x1f\x8bnot really gzip",
            headers={"Content-Type": "application/json",
                     "Content-Encoding": "gzip"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400
        assert "gzip" in json.loads(caught.value.read())["error"]["message"]

    def test_client_gzips_large_request_bodies(self, served):
        """A bulk load whose JSON crosses the threshold travels
        compressed — observable as a round-trip that still works plus
        the server's gzip-request tolerance (no 415, same entries)."""
        _server, client = served
        batch = [minimal_entry(title=f"ENTRY {index}",
                               overview="tok " * 200)
                 for index in range(20)]
        assert client.add_many(batch) == 20
        assert client.entry_count() == 20


class TestStreamingBatches:
    def test_get_many_streams_and_matches_buffered(self, served):
        server, client = served
        client.add_many(entry_batch(10))
        requests = [f"entry-{index}" for index in range(10)]
        streamed = client.get_many(requests)
        buffered_client = HTTPBackend(server.url, stream_batches=False)
        assert buffered_client.get_many(requests) == streamed
        buffered_client.close()
        metrics = server.metrics.snapshot()
        assert metrics["stream"]["responses"] == 1
        assert metrics["stream"]["lines"] == 10

    def test_multi_page_stream(self, served):
        server, client = served
        count = STREAM_PAGE_SIZE + 20
        client.add_many(entry_batch(count))
        requests = [f"entry-{index}" for index in range(count)]
        entries = client.get_many(requests)
        assert [entry.title for entry in entries] == \
            [f"ENTRY {index}" for index in range(count)]
        assert server.metrics.snapshot()["stream"]["lines"] == count

    def test_iter_many_yields_incrementally(self, served):
        _server, client = served
        client.add_many(entry_batch(5))
        iterator = client.iter_many([f"entry-{i}" for i in range(5)])
        assert next(iterator).identifier == "entry-0"
        assert [entry.identifier for entry in iterator] == \
            [f"entry-{i}" for i in range(1, 5)]

    def test_abandoned_iterator_does_not_poison_the_connection(
            self, served):
        _server, client = served
        client.add_many(entry_batch(4))
        iterator = client.iter_many([f"entry-{i}" for i in range(4)])
        next(iterator)
        iterator.close()  # mid-stream: the connection is dropped...
        assert client.entry_count() == 4  # ...and the next call works

    def test_versions_many_streams(self, served):
        server, client = served
        client.add_many(entry_batch(3))
        client.add_version(minimal_entry(title="ENTRY 0",
                                         version=Version(0, 2)))
        listing = client.versions_many(["entry-0", "entry-1", "entry-2"])
        assert listing["entry-0"] == [Version(0, 1), Version(0, 2)]
        assert listing["entry-1"] == [Version(0, 1)]
        assert server.metrics.snapshot()["stream"]["responses"] >= 1

    def test_error_in_the_first_page_is_an_ordinary_status(self, served):
        _server, client = served
        client.add_many(entry_batch(2))
        with pytest.raises(EntryNotFound) as caught:
            client.get_many(["entry-0", "ghost"])
        assert caught.value.identifier == "ghost"
        assert client.entry_count() == 2  # connection still in sync

    def test_error_on_a_later_page_arrives_as_a_frame(self, served):
        """Once the 200 and the first chunks are on the wire, a failure
        can only travel in-band: the client must re-raise it as the
        same exception class after consuming the good prefix."""
        _server, client = served
        count = STREAM_PAGE_SIZE + 5
        client.add_many(entry_batch(count))
        requests = [f"entry-{index}" for index in range(count)]
        requests[STREAM_PAGE_SIZE + 2] = "ghost"  # page two fails
        received = []
        with pytest.raises(EntryNotFound) as caught:
            for entry in client.iter_many(requests):
                received.append(entry)
        assert caught.value.identifier == "ghost"
        assert len(received) == STREAM_PAGE_SIZE  # page one arrived whole
        assert client.entry_count() == count  # stream stayed framed

    def test_a_warm_stream_does_no_codec_work(self, served, monkeypatch):
        _server, client = served
        client.add_many(entry_batch(8))
        requests = [f"entry-{index}" for index in range(8)]
        first = client.get_many(requests)
        calls = []
        to_dict = ExampleEntry.to_dict
        monkeypatch.setattr(
            ExampleEntry, "to_dict",
            lambda entry: calls.append(entry) or to_dict(entry))
        # Second pass: every line is the payload the served entry
        # object already carries (no to_dict, no dumps) on the server,
        # every entry comes from the line memo (no loads, no from_dict)
        # on the client.
        assert client.get_many(requests) == first
        assert calls == []
        assert client.wire_cache_stats()["line_memo"]["hits"] == 8

    def test_a_warm_buffered_batch_does_no_encode_work(
            self, served, monkeypatch):
        """Without the NDJSON Accept header the batch body splices each
        entry's kept payload: no ``to_dict`` on either end."""
        server, client = served
        client.add_many(entry_batch(8))
        requests = [f"entry-{index}" for index in range(8)]
        buffered = HTTPBackend(server.url, stream_batches=False)
        first = buffered.get_many(requests)
        calls = []
        to_dict = ExampleEntry.to_dict
        monkeypatch.setattr(
            ExampleEntry, "to_dict",
            lambda entry: calls.append(entry) or to_dict(entry))
        assert buffered.get_many(requests) == first
        assert [entry.title for entry in first] == [
            f"ENTRY {index}" for index in range(8)]
        assert calls == []
        assert server.metrics.snapshot()["stream"]["responses"] == 0
        buffered.close()

    def test_a_stream_after_a_write_carries_the_new_entry(self, served):
        _server, client = served
        client.add_many(entry_batch(2))
        client.get_many(["entry-0", "entry-1"])
        client.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Patched."))
        entries = client.get_many(["entry-0", "entry-1"])
        assert entries[0].overview == "Patched."
        assert entries[1] == minimal_entry(title="ENTRY 1")

    def test_a_file_backed_stream_has_no_blank_lines(self, tmp_path):
        """File snapshots end in a newline; the payload an entry keeps
        from them must not, or every NDJSON line would be followed by
        an empty one."""
        FileBackend(tmp_path / "repo").add_many(entry_batch(3))
        service = RepositoryService(FileBackend(tmp_path / "repo"))
        with RepositoryServer(service, close_service=True) as server:
            raw = json.dumps(
                {"requests": [f"entry-{i}" for i in range(3)]}).encode()
            request = urllib.request.Request(
                server.url + "/batch/get", data=raw,
                headers={"Accept": "application/x-ndjson"})
            with urllib.request.urlopen(request) as response:
                lines = response.read().split(b"\n")
        assert lines[-1] == b""
        assert b"" not in lines[:-1]
        assert [json.loads(line)["title"] for line in lines[:3]] == [
            f"ENTRY {i}" for i in range(3)]

    def test_streamed_bodies_gzip_end_to_end(self, served):
        """The NDJSON stream negotiates gzip like sized bodies do, and
        the incremental inflater still yields per-page lines."""
        server, client = served
        client.add_many([minimal_entry(title=f"ENTRY {i}",
                                       overview="tok " * 300)
                         for i in range(6)])
        entries = client.get_many([f"entry-{i}" for i in range(6)])
        assert len(entries) == 6
        metrics = server.metrics.snapshot()
        assert metrics["gzip"]["responses"] >= 1
        assert metrics["gzip"]["bytes_saved_ratio"] > 0.5


def read_scripted_request(rfile):
    """Parse one HTTP request off a raw socket file."""
    request_line = rfile.readline()
    headers = {}
    while True:
        line = rfile.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = rfile.read(length) if length else b""
    return request_line.decode("latin-1"), headers, body


class ScriptedServer:
    """A raw socket peer speaking just enough HTTP for one scenario.

    Each handler in ``scripts`` gets one accepted connection (after its
    request has been read) and decides how to misbehave: close without
    answering, truncate a stream, or answer properly.  This is how the
    client's failure handling is pinned deterministically — a real
    server cannot be told to die at an exact protocol position.
    """

    def __init__(self, *scripts):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.requests = []
        self._scripts = list(scripts)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for script in self._scripts:
            try:
                connection, _ = self.sock.accept()
            except OSError:  # closed while waiting
                return
            with connection:
                rfile = connection.makefile("rb")
                self.requests.append(read_scripted_request(rfile))
                script(connection)
                rfile.close()

    def close(self):
        self.sock.close()
        self._thread.join(timeout=5)


def scripted_response(connection, body: bytes, status: str = "200 OK",
                      content_type: str = "application/json"):
    connection.sendall(
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n".encode("latin-1") + body)


def chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def ndjson_head() -> bytes:
    return (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")


class TestRetryOnStaleSocket:
    def test_write_retries_once_when_the_server_kills_the_socket(self):
        """The stale keep-alive signature: the server reads the whole
        request, then closes without a byte of response.  The send
        succeeded, so only the RemoteDisconnected response-phase retry
        can save the write — without it this add() dies with 'no
        response' even though the request was never processed."""
        def kill_after_reading(connection):
            pass  # the with-block closes the socket: FIN, no response

        def answer(connection):
            scripted_response(connection,
                              b'{"identifier": "demo-example"}',
                              status="201 Created")

        fake = ScriptedServer(kill_after_reading, answer)
        client = HTTPBackend(fake.url)
        try:
            client.add(minimal_entry())  # a WRITE, not a GET
        finally:
            client.close()
            fake.close()
        assert len(fake.requests) == 2  # one kill, one retry
        first, second = fake.requests
        assert first[0] == second[0]  # the same request, resent
        assert first[2] == second[2]

    def test_mid_stream_truncation_raises_a_storage_error(self):
        """An abrupt close inside the chunked NDJSON body (no end
        frame, no terminator) must surface as StorageError, not hang
        or silently yield a short result."""
        line = encode_entry(minimal_entry()).encode("utf-8")

        def truncate_mid_stream(connection):
            connection.sendall(ndjson_head() + chunk(line + b"\n"))
            # ...and vanish: no further chunks, no zero terminator.

        fake = ScriptedServer(truncate_mid_stream)
        client = HTTPBackend(fake.url)
        try:
            with pytest.raises(StorageError, match="mid-stream"):
                client.get_many(["demo-example", "other"])
        finally:
            client.close()
            fake.close()

    def test_missing_end_frame_raises_a_storage_error(self):
        """A well-formed chunked body that simply never sends the end
        frame is truncation too — the count handshake is what makes
        silent partial results impossible."""
        line = encode_entry(minimal_entry()).encode("utf-8")

        def finish_without_end_frame(connection):
            connection.sendall(ndjson_head() + chunk(line + b"\n")
                               + b"0\r\n\r\n")

        fake = ScriptedServer(finish_without_end_frame)
        client = HTTPBackend(fake.url)
        try:
            with pytest.raises(StorageError, match="without an end frame"):
                client.get_many(["demo-example", "other"])
        finally:
            client.close()
            fake.close()

    @staticmethod
    def full_stream(entries, coding: str) -> tuple[bytes, int, int]:
        """The whole answer to a streamed ``/batch/get`` of ``entries``,
        framed as the server frames it: one chunk per line (gzip
        sync-flushed per line, then its trailer), the end frame, the
        terminator.  Returns the bytes, the head's length and the
        offset at which the end frame has fully arrived."""
        lines = [encode_entry(entry) + "\n" for entry in entries]
        lines.append(f'{{"_stream": "end", "count": {len(entries)}}}\n')
        head = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                + (b"Content-Encoding: gzip\r\n" if coding == "gzip"
                   else b"")
                + b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n")
        gzipper = (zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
                   if coding == "gzip" else None)
        body = b""
        for text in lines:
            data = text.encode("utf-8")
            if gzipper is not None:
                data = (gzipper.compress(data)
                        + gzipper.flush(zlib.Z_SYNC_FLUSH))
            body += chunk(data)
        end_frame_arrived = len(head) + len(body) - len(b"\r\n")
        if gzipper is not None:
            body += chunk(gzipper.flush(zlib.Z_FINISH))
        return head + body + b"0\r\n\r\n", len(head), end_frame_arrived

    @pytest.mark.parametrize("coding", ["identity", "gzip"])
    def test_a_stream_cut_at_any_byte_is_an_error_or_the_full_list(
            self, coding):
        """A close at any byte past the head either raises a
        StorageError or, once the end frame is in, yields the whole
        batch: never a short list, an untyped error or a hang."""
        entries = [minimal_entry(), minimal_entry(title="OTHER")]
        full, head_length, end_frame_arrived = self.full_stream(
            entries, coding)
        cuts = range(head_length, len(full) + 1)

        def send_prefix(cut):
            def script(connection):
                connection.sendall(full[:cut])
            return script

        fake = ScriptedServer(*(send_prefix(cut) for cut in cuts))
        client = HTTPBackend(fake.url, timeout=5,
                             retry_policy=RetryPolicy(max_attempts=1))
        outcomes = {}
        try:
            for cut in cuts:
                try:
                    result = client.get_many(["demo-example", "other"])
                except StorageError:
                    outcomes[cut] = "error"
                else:
                    assert result == entries, cut
                    assert cut >= end_frame_arrived, cut
                    outcomes[cut] = "full"
        finally:
            client.close()
            fake.close()
        assert len(fake.requests) == len(cuts)  # one request per cut
        assert outcomes[len(full)] == "full"
        assert outcomes[end_frame_arrived - 1] == "error"

    def test_end_frame_count_mismatch_raises(self):
        line = encode_entry(minimal_entry()).encode("utf-8")

        def lie_about_the_count(connection):
            frame = b'{"_stream": "end", "count": 5}\n'
            connection.sendall(ndjson_head() + chunk(line + b"\n")
                               + chunk(frame) + b"0\r\n\r\n")

        fake = ScriptedServer(lie_about_the_count)
        client = HTTPBackend(fake.url)
        try:
            with pytest.raises(StorageError, match="dropped lines"):
                client.get_many(["demo-example"])
        finally:
            client.close()
            fake.close()


class TestOneRequestPath:
    """Buffered calls and streamed batches open through one step, so a
    failure raises the same typed error on either path."""

    @staticmethod
    def cut_short(status: str):
        def script(connection):
            # The head promises 100 bytes; 10 arrive, then the close.
            connection.sendall(
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 100\r\n\r\n".encode("latin-1")
                + b'{"error": ')
        return script

    @staticmethod
    def good_stream(connection):
        line = encode_entry(minimal_entry()).encode("utf-8")
        connection.sendall(ndjson_head() + chunk(line + b"\n")
                           + chunk(b'{"_stream": "end", "count": 1}\n')
                           + b"0\r\n\r\n")

    @pytest.mark.parametrize("status", ["404 Not Found",
                                        "503 Service Unavailable"])
    @pytest.mark.parametrize("call", ["get", "get_many"])
    def test_a_body_cut_short_is_a_typed_error_on_both_paths(
            self, call, status):
        fake = ScriptedServer(self.cut_short(status))
        client = HTTPBackend(fake.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            with pytest.raises(BackendUnavailableError):
                if call == "get":
                    client.get("demo-example")
                else:
                    client.get_many(["demo-example"])
        finally:
            client.close()
            fake.close()

    def test_a_shed_stream_request_retries_then_streams(self):
        def shed(connection):
            body = b'{"error": {"type": "BackendUnavailableError"}}'
            connection.sendall(
                b"HTTP/1.1 503 Service Unavailable\r\n"
                b"Content-Type: application/json\r\n"
                b"Retry-After: 0\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body)

        fake = ScriptedServer(shed, self.good_stream)
        client = HTTPBackend(fake.url)
        try:
            assert client.get_many(["demo-example"]) == [minimal_entry()]
        finally:
            client.close()
            fake.close()
        assert len(fake.requests) == 2

    def test_a_stream_request_carries_the_ambient_deadline(self):
        fake = ScriptedServer(self.good_stream)
        client = HTTPBackend(fake.url)
        try:
            with deadline_scope(Deadline.after(5.0)):
                client.get_many(["demo-example"])
        finally:
            client.close()
            fake.close()
        (request_line, headers, _), = fake.requests
        assert request_line.startswith("POST /batch/get ")
        assert 0 < int(headers["x-deadline-ms"]) <= 5000

    def test_a_connection_close_answer_leaves_the_next_call_working(self):
        """``http.client`` drops the socket of a ``Connection: close``
        answer; the next call opens a fresh connection instead of
        failing on the dead one."""
        def answer(connection):
            body = {"entry": minimal_entry().to_dict()}
            scripted_response(connection, json.dumps(body).encode("utf-8"))

        fake = ScriptedServer(answer, answer)
        client = HTTPBackend(fake.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            assert client.get("demo-example") == minimal_entry()
            assert client.get("demo-example") == minimal_entry()
        finally:
            client.close()
            fake.close()
        assert len(fake.requests) == 2

    def test_get_sends_each_attempt_through_exchange(self, served):
        """perfbench's traced mode wraps the instance's ``_exchange`` to
        split a point read into wire and client time, so ``get()`` must
        reach the wire through ``self._exchange``: once for a cold read
        and once for a 304 revalidation."""
        server, client = served
        client.add(minimal_entry())
        statuses: list[int] = []
        exchange = client._exchange

        def traced(*args, **kwargs):
            status, headers, body = exchange(*args, **kwargs)
            statuses.append(status)
            return status, headers, body

        client._exchange = traced
        assert client.get("demo-example") == minimal_entry()
        assert client.get("demo-example") == minimal_entry()
        assert statuses == [200, 304]

    def test_a_plain_json_answer_to_a_stream_request_is_an_error(self):
        def plain_json(connection):
            body = json.dumps({"entries": [minimal_entry().to_dict()]})
            scripted_response(connection, body.encode("utf-8"))

        fake = ScriptedServer(plain_json)
        client = HTTPBackend(fake.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            with pytest.raises(StorageError, match="without a stream"):
                client.get_many(["demo-example"])
        finally:
            client.close()
            fake.close()


class TestClientCodecCheck:
    def test_an_entry_body_from_a_newer_codec_is_rejected(self):
        """Entry bodies carry the stored payload and its codec tag; the
        client refuses a tag newer than it understands instead of
        silently dropping fields it does not know."""
        data = minimal_entry().to_dict()
        data["_codec"] = CODEC_VERSION + 1

        def answer(connection):
            scripted_response(connection,
                              json.dumps({"entry": data}).encode("utf-8"))

        fake = ScriptedServer(answer)
        client = HTTPBackend(fake.url)
        try:
            with pytest.raises(StorageError, match="codec version"):
                client.get("demo-example")
        finally:
            client.close()
            fake.close()


class TestObservability:
    def test_stats_exposes_route_counters_and_wire_ratios(self, served):
        server, client = served
        client.add(minimal_entry(overview="tok " * 2000))
        client.get("demo-example")   # 200, gzipped (large), cached
        client.get("demo-example")   # revalidated: 304
        client.get_many(["demo-example"])  # one streamed batch
        payload = json.loads(fetch(server.url + "/stats")[2])
        section = payload["server"]
        assert section["requests"]["POST add"] == 1
        assert section["requests"]["GET get_entry"] == 2
        assert section["requests"]["POST batch_get"] == 1
        assert section["conditional"] == {
            "requests": 1, "not_modified": 1, "hit_rate": 1.0}
        assert section["gzip"]["responses"] >= 1
        assert 0 < section["gzip"]["bytes_saved_ratio"] < 1
        assert section["stream"] == {"responses": 1, "lines": 1}

    def test_access_log_is_built_only_when_debug_is_on(self, caplog):
        class Peer:
            def address_string(self):
                self.asked = True
                return "127.0.0.1"

        peer = Peer()
        with caplog.at_level(logging.INFO, logger="repro.repository.server"):
            _Handler.log_message(peer, "%s %s", "GET", "/entries")
        assert not hasattr(peer, "asked")
        assert not caplog.records
        with caplog.at_level(logging.DEBUG,
                             logger="repro.repository.server"):
            _Handler.log_message(peer, "%s %s", "GET", "/entries")
        assert peer.asked
        assert caplog.records[-1].getMessage() == "127.0.0.1 - GET /entries"

    @pytest.mark.internal_error
    def test_only_an_untyped_failure_logs_an_internal_error(self, caplog):
        """A typed 503 (here a breaker that is open) is an expected
        answer with a Retry-After, not a server bug: no traceback.  An
        untyped exception is a 500 and still logs one."""
        class FailingBackend(MemoryBackend):
            def get(self, identifier, version=None):
                if identifier == "breaker":
                    raise CircuitOpenError("breaker is open", retry_after=2.0)
                raise RuntimeError("unexpected bug")

        def internal_errors():
            return [record for record in caplog.records
                    if "internal error" in record.getMessage()]

        service = RepositoryService(FailingBackend())
        with RepositoryServer(service, close_service=True) as server:
            with caplog.at_level(logging.ERROR,
                                 logger="repro.repository.server"):
                status, headers, _body = raw_get(server.port,
                                                 "/entries/breaker")
                assert status == 503
                assert headers["Retry-After"] == "2"
                assert internal_errors() == []
                status, _headers, _body = raw_get(server.port,
                                                  "/entries/other")
                assert status == 500
                assert len(internal_errors()) == 1

    def test_stats_carries_the_backend_caches(self, sqlite_served):
        server, client = sqlite_served
        client.add(minimal_entry())
        payload = json.loads(fetch(server.url + "/stats")[2])
        assert payload["cache"] == server.service.cache_stats()

    def test_unrouted_requests_are_counted(self, served):
        server, _client = served
        fetch(server.url + "/nope")
        assert server.metrics.snapshot()["requests"]["unrouted"] == 1


class TestCommandLine:
    def test_the_cli_boots_without_a_runtime_warning(self):
        """Importing the package must not import the server module, or
        ``-m repro.repository.server`` runs it twice and runpy warns."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.repository.server", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
        assert result.returncode == 0, result.stderr
        assert "--scheme" in result.stdout
