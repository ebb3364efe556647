#!/usr/bin/env python3
"""Serving demo: the repository behind HTTP, browsed like a community site.

Run with::

    python examples/serving_demo.py

Boots the PR-5 serving stack end to end, in one process:

1. a SQLite-backed `RepositoryService` loaded with the catalogue;
2. a `RepositoryServer` on an ephemeral port (the stdlib-only
   HTTP/JSON API);
3. an `HTTPBackend` client — the same `StorageBackend` interface,
   but over the wire — writing, querying and reading back;
4. `GET /wiki/{id}` revalidated by its ETag (the entry's digest):
   a second fetch that sends it back is a bodiless 304;
5. a thread pool fanning concurrent reads out over the *same*
   service the HTTP handlers used, then closing it at the end.
"""

from __future__ import annotations

import http.client
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.catalogue import populate_store
from repro.repository.backends import SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.query import Q
from repro.repository.server import RepositoryServer
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="bx-serving-"))

    # 1. The repository: catalogue entries in SQLite, behind the facade.
    service = RepositoryService(SQLiteBackend(root / "repo.db"))
    populate_store(service)
    print(f"repository: {service.entry_count()} entries in {root}")

    # 2. The server: one handler thread per connection, ephemeral port.
    with RepositoryServer(service) as server:
        print(f"serving on {server.url}")

        # 3. A client that IS a StorageBackend — write, query, read.
        client = HTTPBackend(server.url)
        first = client.get(client.identifiers()[0])
        print(f"over the wire: fetched {first.identifier!r} "
              f"(version {first.version})")

        result = client.query(Q.text("composers"), limit=3)
        print(f"POST /query 'composers': {result.total} matches, "
              f"top page {result.identifiers}")

        new_version = first.with_version(
            Version(first.version.major, first.version.minor + 1))
        client.add_version(new_version)
        print(f"wrote {new_version.identifier!r} "
              f"v{new_version.version} through HTTP")

        # 4. A wiki page, then the same page revalidated by its ETag.
        def wiki(identifier: str, **headers: str):
            peer = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                peer.request("GET", f"/wiki/{identifier}", headers=headers)
                response = peer.getresponse()
                return response, response.read()
            finally:
                peer.close()

        first_page, page = wiki(first.identifier)
        again, body = wiki(first.identifier,
                           **{"If-None-Match": first_page.headers["ETag"]})
        print(f"GET /wiki/{first.identifier}: {first_page.status}, "
              f"{len(page)} bytes; resent with its ETag: {again.status}, "
              f"{len(body)} bytes")

        client.close()

    # 5. Thread fan-out over the same service (one lock, one write
    #    queue): the facade's read lock admits every reader at once.
    #    The pool has finished before close() closes the backend, so
    #    close runs last.
    identifiers = service.identifiers()[:6]
    with ThreadPoolExecutor(max_workers=3) as pool:
        entries = list(pool.map(service.get, identifiers))
    print("thread fan-out: fetched "
          f"{[entry.identifier for entry in entries]}")
    print("entries served:", service.entry_count())
    service.close()
    print("stack shut down cleanly")


if __name__ == "__main__":
    main()
