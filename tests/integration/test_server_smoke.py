"""The CLI-booted server end to end, as CI has always smoked it.

``RepositoryServer`` on an ephemeral port over a fresh SQLite store: a
write -> query -> read round trip through ``HTTPBackend``, a revalidated
read (a 304 served from the client's validation cache), a gzip-compressed
streamed batch round trip and a second revalidation after that bulk
write (per-entry validators survive writes elsewhere).  Then a restart
over the same file, the ``python -m repro.repository.server`` CLI over
SQLite answering malformed heads and arguments with 400s and
revalidating a ``/wiki`` page by its entry's digest (a 304 after a write
elsewhere, a 200 after a write to the entry and after a CLI restart),
and the CLI's default memory scheme answering a 304 to an entry
revalidated after a write to another entry.  The CLI runs in its own
process, so this covers the packaging surface the in-process tests
cannot.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import urllib.request
from dataclasses import replace

from repro.repository import (
    HTTPBackend,
    Q,
    RepositoryServer,
    RepositoryService,
    SQLiteBackend,
)
from repro.repository.entry import (
    ExampleEntry,
    ModelDescription,
    RestorationSpec,
)
from repro.repository.template import EntryType
from repro.repository.versioning import Version

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   os.pardir, "src"))


def entry_named(title):
    return ExampleEntry(
        title=title, version=Version(0, 1),
        types=(EntryType.SKETCH,),
        overview="A smoke-test entry. " * 100,  # gzip-sized
        models=(ModelDescription("M", "Left."),
                ModelDescription("N", "Right.")),
        consistency="They agree.",
        restoration=RestorationSpec(combined="Copy."),
        discussion="CI smoke.", authors=("CI",))


def wiki_get(port, etag=None):
    """``GET /wiki/smoke-example``, conditional on ``etag`` if given:
    the status, the ETag and the page text."""
    peer = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        peer.request("GET", "/wiki/smoke-example",
                     headers={} if etag is None else {"If-None-Match": etag})
        answer = peer.getresponse()
        page = answer.read().decode("utf-8")
    finally:
        peer.close()
    return answer.status, answer.headers["ETag"], page


def boot_cli(*arguments):
    """The server CLI in its own process, booted without a warning."""
    return subprocess.Popen(
        [sys.executable, "-u", "-W", "error::RuntimeWarning",
         "-m", "repro.repository.server", *arguments, "--port", "0"],
        stdout=subprocess.PIPE, text=True)


def test_server_smoke(tmp_path, monkeypatch):
    # The store is smoke.db in the working directory, and the CLI
    # subprocesses import the package from this checkout.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC)
    entry = entry_named("SMOKE EXAMPLE")
    service = RepositoryService(SQLiteBackend("smoke.db"))
    with RepositoryServer(service, port=0) as server:  # random port
        print(f"server up on {server.url}")
        client = HTTPBackend(server.url)
        client.add(entry)                               # write
        result = client.query(Q.text("smoke"))          # query
        assert result.identifiers == ["smoke-example"], result
        fetched = client.get("smoke-example")           # read
        assert fetched == entry

        # 304 path: the second read revalidates, no body moves.
        assert client.get("smoke-example") is fetched
        hits = client.wire_cache_stats()["validation"]["hits"]
        assert hits == 1, client.wire_cache_stats()
        metrics = server.metrics.snapshot()
        assert metrics["conditional"]["not_modified"] == 1, metrics

        # gzip + streamed batch: bulk write up, NDJSON stream down.
        batch = [entry_named(f"SMOKE BULK {i}") for i in range(40)]
        client.add_many(batch)                          # gzipped up
        streamed = client.get_many(
            [e.identifier for e in batch])
        assert streamed == batch
        metrics = server.metrics.snapshot()
        assert metrics["stream"]["responses"] >= 1, metrics
        assert metrics["gzip"]["responses"] >= 1, metrics
        assert 0 < metrics["gzip"]["bytes_saved_ratio"] < 1, metrics

        # Per-entry validators: the bulk write touched 40 other
        # entries, so smoke-example's ETag still revalidates.
        assert client.get("smoke-example") is fetched
        metrics = server.metrics.snapshot()
        assert metrics["conditional"]["not_modified"] == 2, metrics
        client.close()
    service.close()

    # Restart: a fresh service and server over the same file start
    # cold (search index and decode memo) and still answer everything.
    expected = sorted(["smoke-example"]
                      + [e.identifier for e in batch])
    service = RepositoryService(SQLiteBackend("smoke.db"))
    with RepositoryServer(service, port=0) as server:
        client = HTTPBackend(server.url)
        result = client.query(Q.text("smoke"))
        assert sorted(result.identifiers) == expected, result
        assert len(expected) == 41, expected
        with urllib.request.urlopen(
                server.url + "/wiki/smoke-example") as response:
            assert response.status == 200, response.status
            page = response.read().decode("utf-8")
        assert entry.title in page, page
        client.close()
    service.close()

    # Malformed heads against the CLI-booted server: a folded
    # header and a negative Content-Length are each a prompt 400
    # (no read until EOF), and so is a malformed argument (a
    # version that is not a string); the server keeps serving.
    # The boot itself must not warn.
    proc = boot_cli("--scheme", "sqlite", "--path", "smoke.db")
    try:
        url = proc.stdout.readline().split()[-1]
        port = int(url.rsplit(":", 1)[1])
        for raw in (b"GET /entries/smoke-example HTTP/1.1\r\n"
                    b"Host: a\r\n folded\r\n\r\n",
                    b"POST /entries HTTP/1.1\r\n"
                    b"Content-Length: -1\r\n\r\n{}",
                    b"POST /batch/get HTTP/1.1\r\n"
                    b"Content-Length: 36\r\n\r\n"
                    b'{"requests": [["smoke-example", 5]]}'):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as peer:
                peer.sendall(raw)
                answer = peer.recv(65536)
            assert answer.startswith(b"HTTP/1.1 400 "), answer
        client = HTTPBackend(url)
        assert client.get("smoke-example") == entry
        client.close()

        # A nested value of the wrong type (a model description that is a
        # list, an author that is a number) is a typed 400: it is never
        # stored, so no later read of it can fail.
        bad = entry_named("SMOKE NESTED").to_dict()
        bad["models"][0]["description"] = []
        bad["authors"] = [5]
        peer = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        peer.request("POST", "/entries", body=json.dumps({"entry": bad}),
                     headers={"Content-Type": "application/json"})
        answer = peer.getresponse()
        detail = json.loads(answer.read())["error"]
        peer.close()
        assert (answer.status, detail["type"]) == (400, "TemplateError"), \
            detail

        # /wiki revalidates by the entry's digest: a write to another
        # entry leaves the page's ETag valid, a write to this entry
        # moves it and the 200 carries the new text.
        status, etag, page = wiki_get(port)
        assert status == 200 and etag.startswith('W/"'), status
        client = HTTPBackend(url)
        client.add(entry_named("SMOKE WIKI OTHER"))
        status, again, _page = wiki_get(port, etag)
        assert (status, again) == (304, etag), status
        client.replace_latest(replace(entry, overview="Revised."))
        client.close()
        status, etag, page = wiki_get(port, etag)
        assert status == 200 and "Revised." in page, status
    finally:
        proc.terminate()
        proc.wait(10)

    # A restarted CLI renders in a new process, so the page's ETag from
    # before the restart is refused even though the entry is unchanged.
    proc = boot_cli("--scheme", "sqlite", "--path", "smoke.db")
    try:
        port = int(proc.stdout.readline().split()[-1].rsplit(":", 1)[1])
        status, fresh, page = wiki_get(port, etag)
        assert status == 200 and fresh != etag, status
        assert "Revised." in page, page
    finally:
        proc.terminate()
        proc.wait(10)

    # The CLI's default scheme (memory) has per-entry validators
    # too: a write to another entry leaves smoke-example's ETag
    # valid, so the resent GET is a 304.
    proc = boot_cli()
    try:
        url = proc.stdout.readline().split()[-1]
        port = int(url.rsplit(":", 1)[1])
        client = HTTPBackend(url)
        client.add(entry)
        peer = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        peer.request("GET", "/entries/smoke-example")
        first = peer.getresponse()
        first.read()
        assert first.status == 200, first.status
        client.add(entry_named("SMOKE OTHER"))
        client.close()
        peer.request("GET", "/entries/smoke-example",
                     headers={"If-None-Match": first.headers["ETag"]})
        again = peer.getresponse()
        again.read()
        peer.close()
        assert (again.version, again.status) == (11, 304), again.status
    finally:
        proc.terminate()
        proc.wait(10)
    print("server smoke OK: write/query/read, 304 revalidation, "
          "gzip streamed batch, restart, /wiki revalidation across a CLI "
          "restart, memory-scheme 304")
