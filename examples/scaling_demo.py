#!/usr/bin/env python3
"""Scaling demo: a sharded primary, a replicated copy, and repair.

Run with::

    python examples/scaling_demo.py

Builds the deployment the scaling layer was written for: the catalogue
(plus generated filler) hash-sharded across four SQLite databases, the
whole cluster mirrored into a directory-of-JSON replica (the paper's
§5.4 wiki-independent copy), and a `RepositoryService` in front serving
concurrent readers.  Then the replica "goes offline", misses writes,
and an anti-entropy pass repairs it.
"""

from __future__ import annotations

import dataclasses
import tempfile
import threading
from pathlib import Path

from repro.catalogue import populate_store
from repro.harness.workloads import zipfian_identifiers
from repro.repository.backends import (
    FileBackend,
    ReplicatedBackend,
    ShardedBackend,
)
from repro.repository.query import Q
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="bx-scaling-"))

    # 1. The cluster: four SQLite shards behind one ReplicatedBackend,
    #    mirrored into a durable file-tree replica, fronted by the
    #    caching/locking service facade.
    shards = ShardedBackend.create("sqlite", root / "cluster",
                                   shard_count=4)
    replica = FileBackend(root / "wiki-independent-copy")
    service = RepositoryService(ReplicatedBackend(shards, replica))

    count = populate_store(service)
    filler = [dataclasses.replace(service.get("composers"),
                                  title=f"COMPOSERS VARIATION {index}")
              for index in range(60)]
    count += service.add_many(
        [dataclasses.replace(entry, version=Version(0, 1))
         for entry in filler])
    print(f"loaded {count} entries into 4 sqlite shards "
          f"(sizes {shards.shard_sizes()}) with a file replica")

    # 2. Concurrent readers: a Zipf-skewed stream, served in parallel
    #    through the read/write lock and the shard fan-out.
    requests = zipfian_identifiers(400, service.identifiers(), seed=11)
    chunks = [requests[start:start + 100]
              for start in range(0, len(requests), 100)]
    results: list[int] = []

    def reader(chunk: list[str]) -> None:
        results.append(len(service.get_many(chunk)))

    threads = [threading.Thread(target=reader, args=(chunk,))
               for chunk in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    memo = service.cache_stats()["decode_memo"]
    print(f"served {sum(results)} zipfian reads from "
          f"{len(threads)} reader threads "
          f"(decode memo hits {memo['hits']}, misses {memo['misses']})")

    # 3. Divergence: the replica misses writes that land directly on
    #    the sharded primary (an "offline replica" window).
    target = service.get("composers")
    shards.add_version(dataclasses.replace(
        target, version=Version(0, 2),
        overview=target.overview + " Revised while the copy was down."))
    print("\nreplica diverged: primary now has",
          [str(v) for v in shards.versions("composers")],
          "but the copy has",
          [str(v) for v in replica.versions("composers")])

    # 4. Anti-entropy: one pass reconciles the histories.
    report = service.backend.anti_entropy()
    print(f"anti_entropy(): copied {report.entries_copied} entries, "
          f"appended {report.versions_appended} versions, "
          f"replaced {report.payloads_replaced} payloads, "
          f"{len(report.conflicts)} conflicts")
    assert replica.versions("composers") == shards.versions("composers")
    follow_up = service.backend.anti_entropy()
    assert not follow_up.changed
    print("replica equality restored; second pass found nothing to do")

    # 5. The copy is an independent artifact: read it raw off disk.
    page = replica.get("composers")
    print(f"\nwiki-independent copy serves: {page.title!r} "
          f"at {page.version} from {replica.root}")

    # 6. Faceted retrieval over the cluster: the service pushes the
    #    plan down, the replicated layer routes it to a healthy copy,
    #    and the shards execute it in parallel with *global* IDF
    #    statistics — so the ranked page is identical to what a single
    #    store would return.
    result = service.query(Q.text("composers nationality")
                           & Q.property("correct"),
                           limit=5)
    print(f"\nfan-out query over {shards.shard_count} shards: "
          f"top {len(result.hits)} of {result.total} matches "
          f"{result.identifiers}")
    print(f"  facets: types {result.facets['type']}, "
          f"review {result.facets['review']}")
    service.close()


if __name__ == "__main__":
    main()
