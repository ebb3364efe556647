"""The wire contract: one ``ROUTES`` table that both ends read.

Every ``API_METHODS`` name is called once through ``HTTPBackend``
against a live server and must answer what the served
``RepositoryService`` answers in process.  Every name but ``query`` is
``HTTPBackend``'s own, so no remote call falls back to an in-process
default.  A special row (no ``serve`` function) has a hand-written
``_handle_<name>`` on the server and a plain row has none, so each
route is served one way.  Malformed request arguments are typed 400s.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace

import pytest

from repro.repository.backends import MemoryBackend
from repro.repository.client import HTTPBackend
from repro.repository.query import Q, plan
from repro.repository.routes import ROUTES
from repro.repository.server import RepositoryServer, _Handler
from repro.repository.service import API_METHODS, RepositoryService
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry
from tests.repository.test_wire import exchange

CORPUS = [
    minimal_entry(title=f"ENTRY {index}", overview=f"Entry {index} on trees.")
    for index in range(3)
]

#: One call per API method, run against the remote client and against
#: an in-process service holding the same data.
CALLS = {
    "identifiers": lambda api: api.identifiers(),
    "versions": lambda api: api.versions("entry-0"),
    "versions_many": lambda api: api.versions_many(["entry-0", "entry-2"]),
    "has": lambda api: (api.has("entry-1"), api.has("ghost")),
    "entry_count": lambda api: api.entry_count(),
    "get": lambda api: api.get("entry-1"),
    "get_many": lambda api: api.get_many(
        ["entry-2", ("entry-0", Version(0, 1))]),
    "add": lambda api: api.add(minimal_entry(title="NEWCOMER")),
    "add_version": lambda api: api.add_version(
        CORPUS[0].with_version(Version(0, 2))),
    "replace_latest": lambda api: api.replace_latest(
        replace(CORPUS[1], overview="Patched.")),
    "add_many": lambda api: api.add_many(
        [minimal_entry(title=f"BULK {index}") for index in range(2)]),
    "query": lambda api: api.query(Q.text("trees"), limit=2),
    "execute_query": lambda api: api.execute_query(
        plan(Q.text("entry"), sort="identifier")),
    "query_stats": lambda api: api.query_stats(["trees", "entry", "none"]),
    "change_counter": lambda api: api.change_counter(),
    "cache_stats": lambda api: api.cache_stats(),
    "close": lambda api: api.close(),
}

#: Calls that change state: each runs on a twin service with the same
#: data, and the two states are compared afterwards.
WRITES = {"add", "add_version", "replace_latest", "add_many", "close"}


def loaded_service() -> RepositoryService:
    service = RepositoryService(MemoryBackend())
    service.add_many(CORPUS)
    return service


@pytest.fixture()
def remote():
    service = loaded_service()
    server = RepositoryServer(service).start()
    client = HTTPBackend(server.url)
    yield service, client
    client.close()
    server.stop()
    service.close()


class TestEveryApiMethodCrossesTheWire:
    @pytest.mark.parametrize(
        "name", sorted(API_METHODS, key=lambda name: name == "close"))
    def test_the_remote_answer_is_the_in_process_one(self, remote, name):
        service, client = remote
        call = CALLS[name]
        if name not in WRITES:
            answer = call(client)
            if name == "cache_stats":
                # The client namespaces the server's groups.
                expected = {f"server:{group}": counters
                            for group, counters in service.cache_stats().items()}
            else:
                expected = call(service)
            assert answer == expected
            return
        twin = loaded_service()
        assert call(client) == call(twin)
        if name != "close":
            assert service.identifiers() == twin.identifiers()
            assert (service.get_many(service.identifiers())
                    == twin.get_many(twin.identifiers()))
            assert (service.versions_many(service.identifiers())
                    == twin.versions_many(twin.identifiers()))

    def test_every_api_method_but_query_is_the_clients_own(self):
        """``query`` builds a plan and calls ``execute_query``; any
        other inherited method would run ``StorageBackend``'s
        in-process default instead of crossing the wire."""
        inherited = [name for name in API_METHODS
                     if name != "query" and name not in vars(HTTPBackend)]
        assert inherited == []


class TestTheTable:
    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_a_row_is_served_one_way(self, route):
        handler = getattr(_Handler, f"_handle_{route.name}", None)
        if route.serve is None:
            assert callable(handler)
        else:
            assert handler is None

    @pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
    def test_a_client_path_matches_its_own_row(self, route):
        """An identifier holding "/" stays one encoded segment."""
        match = route.pattern().match(route.url("a/b c"))
        assert match is not None
        if "{identifier}" in route.path:
            assert match["identifier"] == "a%2Fb%20c"


def entry_body(**overrides) -> dict:
    data = minimal_entry().to_dict()
    data.update(overrides)
    return {"entry": data}


class TestArgumentErrors:
    """Arguments from outside the program are typed 400s, never 500s."""

    @pytest.mark.parametrize("path, body, error", [
        ("/batch/get", {"requests": [["x", 5]]}, "VersioningError"),
        ("/entries", {"entries": [1]}, "TemplateError"),
        ("/entries", entry_body(version=5), "VersioningError"),
        ("/entries", entry_body(types=["bogus"]), "TemplateError"),
        ("/entries", entry_body(models=[1]), "TemplateError"),
        ("/entries", entry_body(restoration=3), "TemplateError"),
        ("/entries", entry_body(authors=7), "TemplateError"),
        ("/entries", entry_body(title=5), "TemplateError"),
        ("/entries", entry_body(overview=5), "TemplateError"),
        ("/entries", entry_body(consistency=[]), "TemplateError"),
        ("/entries", entry_body(discussion=None), "TemplateError"),
        ("/entries", entry_body(authors="Ann"), "TemplateError"),
        ("/entries", entry_body(reviewers="Bob"), "TemplateError"),
        # json.loads raises RecursionError on a body nested this deep
        ("/entries", b"[" * 10_000 + b"]" * 10_000, "StorageError"),
    ], ids=["batch-version", "bulk-entry", "version", "types", "models",
            "restoration", "authors", "title", "overview", "consistency",
            "discussion", "authors-string", "reviewers-string",
            "nested-past-json-limit"])
    def test_a_malformed_argument_is_a_typed_400(self, remote, caplog, path,
                                                 body, error):
        service, client = remote
        caplog.set_level(logging.ERROR, logger="repro.repository.server")
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        port = int(client.base_url.rsplit(":", 1)[1])
        received, _closed = exchange(
            port,
            b"POST " + path.encode("ascii") + b" HTTP/1.1\r\nHost: a\r\n"
            b"Connection: close\r\nContent-Length: "
            + str(len(raw)).encode("ascii") + b"\r\n\r\n" + raw)
        head, _, answer = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(answer)["error"]["type"] == error
        assert not [record for record in caplog.records
                    if "internal error" in record.getMessage()]
        assert service.identifiers() == [entry.identifier for entry in CORPUS]
