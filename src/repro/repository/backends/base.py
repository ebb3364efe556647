"""The storage backend interface: the seam the repository scales through.

§5.2's usability commitments (stable references, versions that stay
resolvable, a wiki-independent local copy) are *access* guarantees, not
storage decisions — so the access API is pinned down here once, and the
storage mechanics live behind it in interchangeable backends:

* :class:`~repro.repository.backends.memory.MemoryBackend` — dict of
  version histories (tests, ephemeral composition);
* :class:`~repro.repository.backends.file.FileBackend` — directory of
  JSON snapshots (the durable, wiki-independent local copy);
* :class:`~repro.repository.backends.sqlite.SQLiteBackend` — a single
  indexed database file with transactional batch writes (the first step
  towards serving the collection at scale);
* :class:`~repro.repository.backends.sharded.ShardedBackend` /
  :class:`~repro.repository.backends.replicated.ReplicatedBackend` —
  composites that scale horizontally across child backends (hash
  routing with parallel fan-out; primary/replica mirroring with
  anti-entropy repair).

Consumers should normally not talk to a backend directly but through the
:class:`~repro.repository.service.RepositoryService` facade, which adds
batching, thread safety, group commit and change events on top of any
backend.

Batch operations (``add_many``, ``get_many``, ``versions_many``) have
straightforward loop defaults here; backends override them when the
medium offers something better (a single SQLite transaction, one shared
directory scan).  The default ``add_many`` is **not** atomic — a failing
entry leaves earlier ones stored; transactional backends document
stronger guarantees.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence, Union

from repro.core.errors import EntryNotFound
from repro.repository.codec import encode_entry, entry_digest
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    Query,
    QueryPlan,
    QueryResult,
    QueryStats,
    corpus_stats,
    evaluate_plan,
    plan as build_plan,
)
from repro.repository.search import SearchIndex
from repro.repository.versioning import Version

__all__ = ["StorageBackend", "GetRequest", "merge_cache_stats"]

#: One ``get_many`` request: an identifier (latest) or (identifier, version).
GetRequest = Union[str, "tuple[str, Version | None]"]


class StorageBackend(ABC):
    """Interface for versioned entry storage.

    The contract every backend honours:

    * identifiers are stable — once assigned they always resolve;
    * version histories are append-only and strictly increasing;
    * ``replace_latest`` is the single sanctioned in-place overwrite
      (comment attachment), and must keep the stored latest version.
    """

    # ------------------------------------------------------------------
    # Required point operations.
    # ------------------------------------------------------------------

    @abstractmethod
    def identifiers(self) -> list[str]:
        """All stored identifiers, sorted."""

    @abstractmethod
    def versions(self, identifier: str) -> list[Version]:
        """All stored versions of one entry, oldest first."""

    @abstractmethod
    def get(self, identifier: str, version: Version | None = None) -> ExampleEntry:
        """The entry at ``version`` (default: latest)."""

    def get_payload(
        self, identifier: str, version: Version | None = None
    ) -> tuple[str, str]:
        """The entry's canonical codec payload and its digest.

        What the HTTP entry GET serves: the payload is the 200 body and
        the digest its ETag.  The default encodes the entry ``get``
        returns (both are kept on the entry object); a backend that
        stores payloads may answer from storage instead, as long as it
        returns exactly these bytes.
        """
        entry = self.get(identifier, version)
        return encode_entry(entry), entry_digest(entry)

    @abstractmethod
    def add(self, entry: ExampleEntry) -> None:
        """Store a brand-new entry; fails if the identifier exists."""

    @abstractmethod
    def add_version(self, entry: ExampleEntry) -> None:
        """Append a new version of an existing entry (must increase)."""

    @abstractmethod
    def replace_latest(self, entry: ExampleEntry) -> None:
        """Overwrite the latest snapshot without a version bump.

        Only two consumers use this, both keeping the curated version
        history intact: comment attachment (comments are not part of
        the versioned description) and the §5.4 wiki synchronisation
        (the wiki page and the local copy are two renderings of the
        *same* version).  The entry's version must equal the stored
        latest version.
        """

    # ------------------------------------------------------------------
    # Existence: override with a direct check (don't list everything).
    # ------------------------------------------------------------------

    def has(self, identifier: str) -> bool:
        """Whether the identifier resolves.

        The default enumerates every identifier; every shipped backend
        overrides it with a direct O(1)/indexed membership check.
        """
        return identifier in self.identifiers()

    # ------------------------------------------------------------------
    # Batch operations (loop defaults; backends may do better).
    # ------------------------------------------------------------------

    def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        """Store many brand-new entries; returns the count stored.

        Non-atomic by default: entries are added one by one, in one
        :meth:`write_group`, and a failure leaves the earlier ones in
        place.  Transactional backends (SQLite) override this with
        all-or-nothing semantics.
        """
        count = 0
        with self.write_group():
            for entry in entries:
                self.add(entry)
                count += 1
        return count

    @contextmanager
    def write_group(self) -> Iterator["StorageBackend"]:
        """Group adjacent writes into one commit unit (group commit).

        Writes issued inside the ``with`` block — by the *same* thread —
        are allowed to share whatever per-write overhead the medium
        charges: SQLite runs the whole group in a single transaction
        with one deferred dirty-flush and bumps the change counter once
        at commit; the file backend batches its counter-file writes the
        same way (two durable counter updates per group instead of two
        per entry).  Semantics that callers may rely on:

        * a failing write inside the group raises at that write and
          affects only itself — earlier writes in the group remain
          staged (transactional backends commit them together at exit);
        * the change counter observed *after* the group reflects
          exactly one logical change, so memo/cache invalidation is per
          group, not per entry;
        * nesting a group inside an active group on the same thread
          joins the outer group.

        The default is a no-op pass-through: backends with no per-write
        commit cost (memory) inherit it unchanged, which keeps the
        conformance suite uniform.  Groups are single-writer: the block
        must not be shared across threads.
        """
        yield self

    def get_many(self, requests: Sequence[GetRequest]) -> list[ExampleEntry]:
        """Resolve many entries in request order.

        Each request is either an identifier (meaning: latest version)
        or an ``(identifier, version)`` pair (``version=None`` again
        meaning latest).
        """
        results = []
        for request in requests:
            identifier, version = _split_request(request)
            results.append(self.get(identifier, version))
        return results

    def versions_many(self, identifiers: Sequence[str]) -> dict[str, list[Version]]:
        """Version lists for many identifiers at once."""
        return {identifier: self.versions(identifier) for identifier in identifiers}

    # ------------------------------------------------------------------
    # The query capability protocol (see repro.repository.query).
    # ------------------------------------------------------------------

    #: Whether :meth:`execute_query` is cheaper than materialising the
    #: corpus in Python — SQLite compiles the plan to SQL; composites
    #: inherit the capability from their children.  The service facade
    #: pushes plans down when this is True and otherwise evaluates them
    #: over its own incrementally maintained index.
    supports_native_query = False

    def change_counter(self) -> int | None:
        """A persisted counter that increases on every write, or None.

        The server reports it as ``GET /counter``; because it is
        persisted, a write by another process moves it too.  Backends
        that cannot provide a durable counter return None.
        """
        return None

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction counters of this backend's read caches.

        Keys name a cache (``"decode_memo"``, ``"listing"``); values are
        counter dicts.  The default is empty — ``MemoryBackend`` stores
        live objects and decodes nothing.  Composites merge their
        children's counters (:func:`merge_cache_stats`), and
        ``RepositoryService.cache_stats()`` reports its backend's.
        """
        return {}

    def query_stats(self, terms: Sequence[str]) -> QueryStats:
        """Corpus statistics for the ranker: N and per-term df.

        The default materialises the corpus; indexed backends answer
        from their term tables, and the sharded composite sums its
        children — which is how fan-out scoring stays equal to
        single-store scoring.
        """
        return corpus_stats(SearchIndex().build(self), terms)

    def execute_query(
        self, plan: QueryPlan, stats: QueryStats | None = None
    ) -> QueryResult:
        """Execute one query plan; every backend answers identically.

        The default builds a throwaway
        :class:`~repro.repository.search.SearchIndex` over the latest
        snapshots and runs the shared evaluator — always correct, never
        fast.  Backends with a cheaper native path (SQL pushdown,
        sharded fan-out, replica routing) override this and set
        :attr:`supports_native_query`; ``stats`` lets a composite
        impose corpus-global ranking statistics on its children.
        """
        return evaluate_plan(SearchIndex().build(self), plan, stats)

    def query(
        self,
        query: Query | str | None = None,
        *,
        sort: str = "relevance",
        offset: int = 0,
        limit: int | None = None,
    ) -> QueryResult:
        """Execute one composable query; the single retrieval surface.

        ``query`` is a :class:`~repro.repository.query.Q` expression
        (``Q.text("tree") & Q.type(...)``), a bare string (shorthand
        for ``Q.text``), or None for everything.  Returns a
        :class:`~repro.repository.query.QueryResult`: the requested
        page of ranked hits plus the total match count and facet
        counts over the full match set.

        A concrete convenience over :meth:`execute_query`, shared by
        every layer of the stack (backends, the service facade, the
        HTTP client) — so it composes the plan here and lets each layer's
        ``execute_query`` decide where the work runs (SQL pushdown,
        sharded fan-out, the service's lazily enabled index, a remote
        server).
        """
        return self.execute_query(
            build_plan(query, sort=sort, offset=offset, limit=limit)
        )

    # ------------------------------------------------------------------
    # Conveniences shared by implementations.
    # ------------------------------------------------------------------

    def latest_version(self, identifier: str) -> Version:
        stored = self.versions(identifier)
        if not stored:
            raise EntryNotFound(identifier)
        return stored[-1]

    def entry_count(self) -> int:
        return len(self.identifiers())

    # ------------------------------------------------------------------
    # Lifecycle (meaningful for connection-holding backends).
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release any held resources; a closed backend may reject calls."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _split_request(request: GetRequest) -> tuple[str, Version | None]:
    if isinstance(request, str):
        return request, None
    identifier, version = request
    return identifier, version


def merge_cache_stats(
    parts: Iterable[dict[str, dict[str, int]]],
) -> dict[str, dict[str, int]]:
    """Sum per-cache counters across child backends (composites)."""
    merged: dict[str, dict[str, int]] = {}
    for part in parts:
        for group, counters in part.items():
            target = merged.setdefault(group, {})
            for name, value in counters.items():
                target[name] = target.get(name, 0) + value
    return merged
