"""The HTTP serving layer: routing, wire fidelity, the wiki cache.

The conformance suites (test_backends.py, test_query_conformance.py)
already hold HTTPBackend-through-RepositoryServer to the storage and
query contracts; this file covers what only the HTTP layer itself can
get wrong — routes, status codes, malformed input, the render-cache
endpoint, concurrent handler threads, and lifecycle.
"""

from __future__ import annotations

import gzip
import http.client
import json
import os
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.errors import EntryNotFound, StorageError
from repro.repository.aservice import AsyncRepositoryService
from repro.repository.backends import MemoryBackend, SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.codec import encode_entry
from repro.repository.server import STREAM_PAGE_SIZE, RepositoryServer
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
        client._local.connection.sock.close()  # simulate the idle drop
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
        assert set(payload) == {"entry_count", "change_counter",
                                "change_token"}
        assert payload["entry_count"] == 3
        assert payload["change_counter"] is None  # memory backend
        # ...but the service overlays its epoch+sequence token, so the
        # wire always has a validator.
        assert isinstance(payload["change_token"], str)
        assert client.entry_count() == 3
        assert client.change_counter() is None
        assert client.change_token() == payload["change_token"]

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
        assert payload["entry_count"] == 3
        assert payload["change_counter"] == 1  # one add_many transaction
        assert "decode_memo" in payload["cache"]
        assert set(payload["render_cache"]) >= {"hits", "misses"}

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

    def test_pages_come_from_the_render_cache(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        for _round in range(3):
            fetch(server.url + "/wiki/entry-0")
        stats = server.render_cache.cache_stats()
        assert stats["misses"] == 1  # rendered once...
        assert stats["hits"] == 2  # ...then served warm

    def test_write_evicts_exactly_the_written_page(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        fetch(server.url + "/wiki/entry-0")
        fetch(server.url + "/wiki/entry-1")
        client.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Patched."))
        assert "Patched." in fetch(server.url + "/wiki/entry-0")[2].decode()
        stats = server.render_cache.cache_stats()
        assert stats["invalidations"] == 1
        assert stats["misses"] == 3  # entry-0 re-rendered, entry-1 not

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
        assert server.render_cache is None
        assert len(service._subscribers) == baseline
        server.stop()  # never started: a safe no-op
        server.start()
        assert len(service._subscribers) == baseline + 1
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

    def test_restart_resubscribes_the_render_cache(self):
        """stop() detaches the render cache; a restarted server must
        build a fresh, subscribed one — not serve stale pages that no
        longer evict on writes."""
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
        assert "Patched." in page  # the new cache heard the write
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

    def test_async_facade_is_unwrapped_to_its_sync_service(self):
        service = RepositoryService(MemoryBackend())
        aservice = AsyncRepositoryService(service)
        server = RepositoryServer(aservice)
        assert server.service is service

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
            status, _type, body = fetch(server.url + "/entries/demo-example")
            assert status == 200
            assert json.loads(body)["entry"]["title"] == "DEMO EXAMPLE"
        finally:
            release.set()
            server.stop()
        assert not [record for record in caplog.records
                    if "internal error" in record.getMessage()]


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

    def test_a_write_anywhere_moves_the_entry_etag(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        _s, before, _b = raw_get(server.port, "/entries/entry-0")
        client.replace_latest(minimal_entry(title="ENTRY 1",
                                            overview="Patched."))
        status, after, _b = raw_get(
            server.port, "/entries/entry-0",
            **{"If-None-Match": before["ETag"]})
        # The service-token ETag is deliberately coarse: ANY write
        # moves it, so revalidation misses and a fresh 200 arrives.
        assert status == 200
        assert after["ETag"] != before["ETag"]

    def test_wiki_etag_survives_writes_elsewhere(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        _s, before, _b = raw_get(server.port, "/wiki/entry-0")
        client.replace_latest(minimal_entry(title="ENTRY 1",
                                            overview="Patched."))
        status, after, _b = raw_get(
            server.port, "/wiki/entry-0",
            **{"If-None-Match": before["ETag"]})
        # Finer than the service token: entry-1's write leaves
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

    def test_stats_is_conditional_too(self, served):
        server, client = served
        client.add(minimal_entry())
        _s, headers, _b = raw_get(server.port, "/stats")
        status, _h, _b = raw_get(server.port, "/stats",
                                 **{"If-None-Match": headers["ETag"]})
        assert status == 304

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

    def test_a_write_through_one_server_is_fresh_through_the_other(
            self, tmp_path):
        servers, clients = [], []
        for _side in ("a", "b"):
            service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
            servers.append(
                RepositoryServer(service, close_service=True).start())
            clients.append(HTTPBackend(servers[-1].url))
        (_server_a, server_b), (client_a, client_b) = servers, clients
        try:
            client_a.add(minimal_entry())
            assert client_b.get("demo-example").overview == "A demo."
            _s, before, _b = raw_get(server_b.port, "/entries/demo-example")
            client_a.replace_latest(minimal_entry(overview="Revised."))
            # No false 304: the validator B minted before A's write
            # must not revalidate, and the 200 must carry the revision.
            status, after, body = raw_get(
                server_b.port, "/entries/demo-example",
                **{"If-None-Match": before["ETag"]})
            assert status == 200
            assert after["ETag"] != before["ETag"]
            assert json.loads(body)["entry"]["overview"] == "Revised."
            # B's own client revalidates its cached copy the same way.
            assert client_b.get("demo-example").overview == "Revised."
        finally:
            for client in clients:
                client.close()
            for server in servers:
                server.stop()


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

    def test_warm_streams_hit_the_wire_memos(self, served):
        server, client = served
        client.add_many(entry_batch(8))
        requests = [f"entry-{index}" for index in range(8)]
        client.get_many(requests)
        cold_server = server.wire_memo.stats()
        client.get_many(requests)
        warm_server = server.wire_memo.stats()
        # Second pass: every line from the encode memo (no fetch, no
        # dumps) on the server, every entry from the line memo (no
        # loads, no from_dict) on the client.
        assert warm_server["hits"] == cold_server["hits"] + 8
        assert client.wire_cache_stats()["line_memo"]["hits"] == 8

    def test_a_write_orphans_the_wire_memo_lines(self, served):
        server, client = served
        client.add_many(entry_batch(2))
        client.get_many(["entry-0", "entry-1"])
        client.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Patched."))
        entries = client.get_many(["entry-0", "entry-1"])
        assert entries[0].overview == "Patched."
        # The token moved, so the warm lines were unfindable.
        assert server.wire_memo.stats()["hits"] == 0

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

    def test_stats_carries_the_change_token_and_wire_memo(self, served):
        server, client = served
        client.add(minimal_entry())
        payload = json.loads(fetch(server.url + "/stats")[2])
        assert isinstance(payload["change_token"], str)
        assert "wire_memo" in payload["cache"]

    def test_unrouted_requests_are_counted(self, served):
        server, _client = served
        fetch(server.url + "/nope")
        assert server.metrics.snapshot()["requests"]["unrouted"] == 1
