"""The repository service: one facade in front of any storage backend.

Consumers (curation, search, export, wiki sync, examples, benchmarks)
talk to a :class:`RepositoryService`, never to a backend directly.  The
facade adds, on top of any
:class:`~repro.repository.backends.StorageBackend`:

* **batch APIs** (``add_many``, ``get_many``, ``versions_many``) that
  forward to the backend's bulk paths (one SQLite transaction instead of
  n single-row commits);
* **change events** — every write emits a :class:`RepositoryEvent` to
  subscribers, which is what drives *incremental*
  :class:`~repro.repository.search.SearchIndex` maintenance instead of
  full rebuilds;
* **thread safety** — a
  :class:`~repro.repository.concurrency.ReadWriteLock` lets any number
  of reader threads proceed concurrently (a sharded backend fans their
  requests out further) while each write is exclusive, so backend
  write, token bump and event dispatch form one atomic step.  The lock
  is writer-preference and writer-reentrant: subscribers called during
  a write may read back through the service;
* **group commit** — concurrent writers coalesce.  Each write joins a
  FIFO of pending writes and takes the write lock; whichever thread
  holds the lock (the *leader*) commits everything queued, up to
  :data:`MAX_GROUP_WRITES`, through one backend
  :meth:`~StorageBackend.write_group` — one transaction, one fsync.
  Every write's result or error is settled only after its group
  commits, so a *follower* that gets the lock next simply returns or
  raises its own outcome.  HTTP handler threads, plain threads and the
  async adapter all share this one path.

The facade keeps **no snapshot cache** of its own: every read goes to
the backend, whose own caches (the SQLite decode memo keyed by the
stored payload, the file backend's counter-keyed memo) can never serve
a snapshot the backend itself would not return.  So two services over
one durable store — in one process or several — always agree, and
``replace_latest`` through either is visible through both.

The service implements the full :class:`StorageBackend` interface
itself, so everything that accepts a backend accepts a service too —
including another service, though stacking them buys nothing.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.repository.backends import MemoryBackend, StorageBackend
from repro.repository.backends.base import GetRequest
from repro.repository.concurrency import Mutex, ReadWriteLock
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    Query,
    QueryPlan,
    QueryResult,
    QueryStats,
    corpus_stats,
    evaluate_plan,
)
from repro.repository.versioning import Version

__all__ = [
    "API_METHODS",
    "MAX_GROUP_WRITES",
    "RepositoryAPI",
    "RepositoryEvent",
    "RepositoryService",
]

#: Every method of the :class:`RepositoryAPI` contract, by name — the
#: single list the protocol-coverage tests (and any new variant of the
#: facade) check themselves against, so a refactor of one layer cannot
#: silently drop a method from another.
API_METHODS = (
    # reads
    "identifiers", "versions", "versions_many", "has", "entry_count",
    "get", "get_many",
    # writes
    "add", "add_version", "replace_latest", "add_many",
    # queries
    "query", "execute_query", "query_stats", "change_counter",
    "change_token",
    # introspection / lifecycle
    "cache_stats", "close",
)


@runtime_checkable
class RepositoryAPI(Protocol):
    """The read/write/query surface every serving variant shares.

    One explicit contract extracted from :class:`RepositoryService`, so
    the sync facade, the async variant
    (:class:`~repro.repository.aservice.AsyncRepositoryService`), the
    HTTP server (:mod:`repro.repository.server`) and the HTTP client
    backend (:class:`~repro.repository.client.HTTPBackend`) all expose
    the *same* operations — a consumer written against this protocol
    runs unchanged against any of them.  Every
    :class:`~repro.repository.backends.StorageBackend` satisfies it
    structurally too (the async variant satisfies it with coroutine
    methods of the same names and signatures).

    :data:`API_METHODS` lists the member names; the protocol is
    ``runtime_checkable`` so ``isinstance(obj, RepositoryAPI)`` verifies
    an implementation has the full surface (presence, not signatures —
    the conformance suites check behaviour).
    """

    def identifiers(self) -> list[str]: ...

    def versions(self, identifier: str) -> list[Version]: ...

    def versions_many(
            self, identifiers: Sequence[str]) -> dict[str, list[Version]]: ...

    def has(self, identifier: str) -> bool: ...

    def entry_count(self) -> int: ...

    def get(self, identifier: str,
            version: Version | None = None) -> ExampleEntry: ...

    def get_many(
            self, requests: Sequence[GetRequest]) -> list[ExampleEntry]: ...

    def add(self, entry: ExampleEntry) -> None: ...

    def add_version(self, entry: ExampleEntry) -> None: ...

    def replace_latest(self, entry: ExampleEntry) -> None: ...

    def add_many(self, entries: Iterable[ExampleEntry]) -> int: ...

    def query(self, query: Query | str | None = None, *,
              sort: str = "relevance", offset: int = 0,
              limit: int | None = None) -> QueryResult: ...

    def execute_query(self, plan: QueryPlan,
                      stats: QueryStats | None = None) -> QueryResult: ...

    def query_stats(self, terms: Sequence[str]) -> QueryStats: ...

    def change_counter(self) -> int | None: ...

    def change_token(self) -> str | None: ...

    def cache_stats(self) -> dict[str, dict[str, int]]: ...

    def close(self) -> None: ...


def _noop() -> None:
    """Placeholder unsubscribe for a search index not yet attached."""

#: Event kinds, matching the three write operations.
EVENT_KINDS = ("add", "add_version", "replace_latest")

#: The most queued writes one leader commits as one group.  It bounds
#: how long a single group holds the write lock (readers wait behind
#: it); writes beyond it go in the next group.
MAX_GROUP_WRITES = 128


class PendingWrite:
    """One queued facade write and, once its group commits, its outcome.

    ``kind`` names the facade method (``add`` / ``add_version`` /
    ``replace_latest`` / ``add_many``).  ``context`` is the submitter's
    :mod:`contextvars` context, so the write runs under the submitter's
    ambient deadline on whichever thread leads its group.  The leader
    fills ``result`` or ``error`` and sets ``done`` last, once the group
    has committed, so an op seen ``done`` carries its final outcome.
    """

    __slots__ = ("kind", "payload", "context", "done", "result", "error")

    def __init__(self, kind: str, payload: object) -> None:
        self.kind = kind
        self.payload = payload
        self.context = contextvars.copy_context()
        self.done = False
        self.result: object = None
        self.error: BaseException | None = None


@dataclass(frozen=True)
class RepositoryEvent:
    """One repository change: what happened, and the entry as written.

    For every kind the carried ``entry`` is the new *latest* snapshot of
    its identifier, so a subscriber maintaining a latest-version view
    (the search index, a replica, a render cache) only ever needs to
    upsert.
    """

    kind: str
    entry: ExampleEntry

    @property
    def identifier(self) -> str:
        return self.entry.identifier


class RepositoryService(StorageBackend):
    """Batching, event-emitting facade over a storage backend."""

    def __init__(self, backend: StorageBackend | None = None, *,
                 index_path: str | Path | None = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self._rwlock = ReadWriteLock()
        #: Writes waiting for a leader, in submission order.
        self._pending: deque[PendingWrite] = deque()
        self._pending_mutex = Mutex()
        self._subscribers: list[Callable[[RepositoryEvent], None]] = []
        self._subscribers_mutex = Mutex()
        self._search_index = None  # lazily built, then kept in sync
        self._search_unsubscribe: Callable[[], None] = _noop
        #: Where the search index snapshots itself (None: in-memory
        #: only).  With a path set, ``enable_search`` restores the
        #: snapshot instead of rebuilding — provided its stamped change
        #: counter still matches the backend — and ``close`` re-saves.
        self.index_path = Path(index_path) if index_path else None
        #: The in-process half of :meth:`change_token`: a per-instance
        #: epoch (so tokens from a previous process can never validate
        #: against this one) plus a write sequence bumped under the
        #: write lock on every write through the facade.
        self._token_epoch = f"{time.time_ns():x}"
        self._write_seq = 0

    # ------------------------------------------------------------------
    # Reads (any number may run concurrently).
    # ------------------------------------------------------------------

    def identifiers(self) -> list[str]:
        with self._rwlock.read_locked():
            return self.backend.identifiers()

    def versions(self, identifier: str) -> list[Version]:
        with self._rwlock.read_locked():
            return self.backend.versions(identifier)

    def versions_many(
            self, identifiers: Sequence[str]) -> dict[str, list[Version]]:
        with self._rwlock.read_locked():
            return self.backend.versions_many(identifiers)

    def has(self, identifier: str) -> bool:
        with self._rwlock.read_locked():
            return self.backend.has(identifier)

    def entry_count(self) -> int:
        with self._rwlock.read_locked():
            return self.backend.entry_count()

    def get(self, identifier: str,
            version: Version | None = None) -> ExampleEntry:
        with self._rwlock.read_locked():
            return self.backend.get(identifier, version)

    def get_many(self,
                 requests: Sequence[GetRequest]) -> list[ExampleEntry]:
        """Resolve many entries in one backend ``get_many`` call (one
        transaction / one scan where the backend supports it)."""
        with self._rwlock.read_locked():
            return self.backend.get_many(requests)

    # ------------------------------------------------------------------
    # Writes (queued, then committed in groups under the write lock).
    # ------------------------------------------------------------------

    def add(self, entry: ExampleEntry) -> None:
        self._write("add", entry)

    def add_version(self, entry: ExampleEntry) -> None:
        self._write("add_version", entry)

    def replace_latest(self, entry: ExampleEntry) -> None:
        self._write("replace_latest", entry)

    def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        return self._write("add_many", list(entries))  # type: ignore[return-value]

    def _write(self, kind: str, payload: object) -> object:
        if self._rwlock.owns_write():
            # A subscriber callback or an explicit write_group() body:
            # this thread is already inside a commit unit, so it applies
            # its own write and leaves other threads' writes queued.
            return self._apply(kind, payload)
        return self.commit_write(self.enqueue_write(kind, payload))

    def enqueue_write(self, kind: str, payload: object) -> PendingWrite:
        """Queue one write without waiting for the write lock.

        Queue order is commit order.  The caller must then hand the
        returned record to :meth:`commit_write`, which is what the async
        adapter does on its writer thread after queueing on the event
        loop.
        """
        op = PendingWrite(kind, payload)
        with self._pending_mutex:
            self._pending.append(op)
        return op

    def commit_write(self, op: PendingWrite) -> object:
        """Wait until ``op``'s group has committed; return or raise its
        own outcome.

        A follower waits for the write lock only until some leader has
        committed ``op``.  If it gets the lock first, it leads: it
        commits queued groups until ``op`` is settled.
        """
        try:
            leading = not op.done and self._rwlock.acquire_write(
                give_up=lambda: op.done)
        except RuntimeError:
            # This thread holds a read lock, so no leader can run until
            # it lets go: withdraw the write before anyone applies it.
            with self._pending_mutex:
                self._pending.remove(op)
            raise
        if leading:
            try:
                while not op.done:
                    self._commit_group()
            finally:
                self._rwlock.release_write()
        if op.error is not None:
            raise op.error
        return op.result

    def _commit_group(self) -> None:
        """Leader, under the write lock: commit the head of the queue.

        A lone write commits on its own; several share one backend
        :meth:`~StorageBackend.write_group`.  A write that fails
        (duplicate identifier, non-increasing version) fails alone and
        its groupmates still commit.  If the group itself fails, every
        write in it that had not failed on its own gets the group's
        error: on a transactional backend none of them landed.
        """
        with self._pending_mutex:
            count = min(len(self._pending), MAX_GROUP_WRITES)
            ops = [self._pending.popleft() for _ in range(count)]
        try:
            if len(ops) == 1:
                self._run(ops[0])
            else:
                with self.write_group():
                    for op in ops:
                        self._run(op)
        except BaseException as exc:  # noqa: BLE001 - an interrupt is re-raised
            for op in ops:
                if op.error is None:
                    op.result, op.error = None, exc
            if not isinstance(exc, Exception):
                raise
        finally:
            for op in ops:
                op.done = True

    def _run(self, op: PendingWrite) -> None:
        try:
            op.result = op.context.run(self._apply, op.kind, op.payload)
        except Exception as exc:  # noqa: BLE001 - raised to its submitter
            op.error = exc

    def _apply(self, kind: str, payload: object) -> object:
        """One write on the backend plus its events; the lock is held."""
        if kind == "add_many":
            return self._apply_many(payload)  # type: ignore[arg-type]
        getattr(self.backend, kind)(payload)
        self._after_write(kind, payload)  # type: ignore[arg-type]
        return None

    def _apply_many(self, batch: list[ExampleEntry]) -> int:
        try:
            count = self.backend.add_many(batch)
        except Exception:  # noqa: BLE001 - re-raised below after announcing the stored prefix
            # A non-transactional backend may have stored a prefix of
            # the batch before failing; subscribers must still hear
            # about what actually landed — once per identifier whose
            # stored latest is a batch entry.
            announced: set[str] = set()
            for entry in batch:
                if (entry.identifier not in announced
                        and self.backend.has(entry.identifier)
                        and self.backend.get(entry.identifier) == entry):
                    announced.add(entry.identifier)
                    self._after_write("add", entry)
            raise
        for entry in batch:
            self._after_write("add", entry)
        return count

    @contextmanager
    def write_group(self):
        """Group commit through the facade: one lock hold, one backend
        transaction, per-entry events.

        Writes issued inside the block (by this thread — the write
        lock is writer-reentrant) share the backend's
        :meth:`StorageBackend.write_group` commit unit, so a coalesced
        group pays one transaction / one change-counter bump, while
        every successful write still dispatches its own
        :class:`RepositoryEvent` in order — subscribers (the search
        index, replicas) see the same per-entry stream they would for
        serial writes.  A write that fails inside the block raises at
        that write; the caller decides whether the group continues.
        If the block itself escapes with an exception, the backend
        rolls the group back but per-entry event dispatch (index
        upserts, token bumps) has already happened — so the facade
        bumps the token once more and drops its search index to
        restore coherence before re-raising.

        Other threads' writes stay queued while the block runs: it
        never commits them, so a block that raises cannot take them
        down with it.  Their leader commits them once the block exits.
        """
        self._rwlock.acquire_write()
        try:
            try:
                with self.backend.write_group():
                    yield self
            except Exception:
                self.invalidate()
                self.disable_search()
                raise
        finally:
            self._rwlock.release_write()

    # ------------------------------------------------------------------
    # Events.
    # ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[RepositoryEvent], None],
                  ) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe function."""
        with self._subscribers_mutex:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._subscribers_mutex:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return unsubscribe

    def _after_write(self, kind: str, entry: ExampleEntry) -> None:
        # The token sequence bumps under the write lock, so a reader can
        # never observe the new entry under the old token (stale token,
        # fresh entry is the safe direction: it costs one spurious
        # revalidation, never a false 304).
        self._write_seq += 1
        event = RepositoryEvent(kind, entry)
        with self._subscribers_mutex:
            listeners = list(self._subscribers)
        for callback in listeners:
            callback(event)

    # ------------------------------------------------------------------
    # The unified query API (see repro.repository.query).
    # ------------------------------------------------------------------

    # ``query()`` is inherited from :class:`StorageBackend`: it builds
    # the plan and calls :meth:`execute_query` below, which pushes the
    # plan down to a native backend or evaluates it over the service's
    # own search index, **lazily enabling it on first use** — callers
    # never need to call :meth:`enable_search` first.

    def execute_query(self, plan: QueryPlan,
                      stats: QueryStats | None = None) -> QueryResult:
        """The :class:`StorageBackend` query hook, facade-style.

        Pushes the plan down when the backend can execute it natively;
        otherwise evaluates it over the (lazily enabled, incrementally
        maintained) search index, under the read lock — index mutation
        happens only in event subscribers, which run under the write
        lock, so readers can never observe a half-applied upsert.
        """
        if self.backend.supports_native_query:
            with self._rwlock.read_locked():
                return self.backend.execute_query(plan, stats)
        index = self._ensure_index()
        with self._rwlock.read_locked():
            return evaluate_plan(index, plan, stats)

    @property
    def supports_native_query(self) -> bool:  # type: ignore[override]
        """A service is as pushdown-capable as the backend it fronts."""
        return self.backend.supports_native_query

    def query_stats(self, terms: Sequence[str]) -> QueryStats:
        if self.backend.supports_native_query:
            with self._rwlock.read_locked():
                return self.backend.query_stats(terms)
        index = self._ensure_index()
        with self._rwlock.read_locked():
            return corpus_stats(index, terms)

    def change_counter(self) -> int | None:
        with self._rwlock.read_locked():
            return self.backend.change_counter()

    def change_token(self) -> str:
        """An opaque validator that changes on every write; never None.

        The wire layer (ETags, the server's encode memo, the client's
        validation cache) keys on this.  A backend with its own token —
        a durable counter, or a remote server's validator — wins, so
        foreign-process writes are visible; otherwise the facade's own
        epoch + write sequence stands in, which covers every write that
        can reach an in-process-only backend.  :meth:`invalidate` (the
        escape hatch for mutating such a backend behind the facade)
        bumps the sequence too.
        """
        with self._rwlock.read_locked():
            token = self.backend.change_token()
            if token is not None:
                return token
            return f"e{self._token_epoch}.{self._write_seq}"

    # ------------------------------------------------------------------
    # Search (incremental; built on the event hooks).
    # ------------------------------------------------------------------

    def enable_search(self):
        """Ensure the search index exists; afterwards events keep it
        fresh.

        Returns the :class:`~repro.repository.search.SearchIndex`, which
        may also be queried directly for structured filters.  When the
        service has an :attr:`index_path` and a snapshot is on disk
        whose stamped change counter still matches the backend, the
        index is *restored* instead of rebuilt — no batch ``get_many``,
        no re-tokenisation.  Any write since the snapshot (the counters
        differ) forces the rebuild.

        Runs under the *write* lock: the index lifecycle shares the one
        service lock (no separate mutex to order against), writers are
        excluded for the whole restore-or-build-then-subscribe step so
        no write can land between the two and go permanently unindexed,
        and the build's own reads re-enter via writer reentrancy.
        """
        with self._rwlock.write_locked():
            if self._search_index is None:
                from repro.repository.search import SearchIndex
                index = self._load_index_snapshot(SearchIndex)
                if index is not None:
                    self._search_unsubscribe = self.subscribe(
                        lambda event: index.add_entry(event.entry))
                else:
                    index = SearchIndex()
                    self._search_unsubscribe = index.sync_with(self)
                self._search_index = index
            return self._search_index

    def _load_index_snapshot(self, index_class):
        if self.index_path is None:
            return None
        counter = self.backend.change_counter()
        if counter is None:
            return None
        return index_class.load(self.index_path,
                                expected_change_counter=counter)

    def save_index(self) -> bool:
        """Snapshot the live index to :attr:`index_path`; True if saved.

        Runs under the write lock so the saved postings and the change
        counter stamped on them are a consistent pair.  A service with
        no live index, no ``index_path``, or a backend that cannot
        provide a change counter saves nothing and returns False.
        ``close`` calls this automatically.
        """
        with self._rwlock.write_locked():
            index = self._search_index
            if index is None or self.index_path is None:
                return False
            counter = self.backend.change_counter()
            if counter is None:
                return False
            index.save(self.index_path, change_counter=counter)
            return True

    def disable_search(self) -> None:
        """Detach and drop the search index (a later search rebuilds)."""
        with self._rwlock.write_locked():
            if self._search_index is not None:
                self._search_unsubscribe()
                self._search_index = None

    @property
    def search_index(self):
        """The live index (None until :meth:`enable_search`/``search``)."""
        return self._search_index

    def _ensure_index(self):
        """The live index, lazily enabling it on first use."""
        with self._rwlock.read_locked():
            index = self._search_index
        if index is not None:
            return index
        return self.enable_search()

    # The deprecated ``search()`` shim is gone: ``query()`` (with the
    # same lazy index enablement) is the one retrieval surface.  The
    # :class:`~repro.repository.search.SearchIndex` object keeps its own
    # ``search()`` — that is the index's API, not the facade's.

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Every read-cache counter on this service's read path.

        The facade caches nothing itself, so these are the backend's
        caches — the decode memo, the file listing cache, summed across
        composite children (see :meth:`StorageBackend.cache_stats`).
        The companion :class:`~repro.repository.render_cache.RenderCache`
        reports its counters through its own ``cache_stats()``.
        """
        return self.backend.cache_stats()

    def invalidate(self) -> None:
        """Move the change token after a mutation behind the facade.

        Reads always reach the backend, so nothing is cached here to
        drop.  Backends with a durable counter already move the token
        on a foreign write; for one without (an in-process backend
        mutated directly), this bumps the in-process sequence so
        validators minted before the mutation stop matching.
        """
        self._write_seq += 1

    def close(self) -> None:
        """Snapshot the index (when configured) and close the backend."""
        self.save_index()
        self.backend.close()

