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
  write and event dispatch form one atomic step.  The lock
  is writer-preference and writer-reentrant: subscribers called during
  a write may read back through the service.  Point reads (``get``)
  skip it: each backend's own point read is safe against a concurrent
  writer, so they never wait behind a lone write's event dispatch.
  Batch reads, listings and queries keep it;
* **group commit** — concurrent writers coalesce.  Each write joins a
  FIFO of pending writes and takes the write lock; whichever thread
  holds the lock (the *leader*) commits everything queued, up to
  :data:`MAX_GROUP_WRITES`, through one backend
  :meth:`~StorageBackend.write_group` — one transaction, one fsync.
  Every write's result or error is settled only after its group
  commits, so a *follower* that gets the lock next simply returns or
  raises its own outcome.  HTTP handler threads and plain threads all
  share this one path.  A single thread can also keep a window of
  writes in flight with the pipelining API, :meth:`enqueue_write`
  then :meth:`commit_write`: its first commit can lead the whole
  window as one group.

The facade keeps **no snapshot cache** of its own: every read goes to
the backend, whose own caches (the SQLite decode memo keyed by the
stored payload, the file backend's counter-keyed memo) can never serve
a snapshot the backend itself would not return.  So two services over
one durable store — in one process or several — always agree, and
``replace_latest`` through either is visible through both.  Queries
agree too: a native backend answers them itself, and the search index
that answers them over any other backend records the backend's change
counter and is rebuilt once another service's write has moved it.
Nor does the facade mint a validator: the wire's one validator is the
digest an entry carries (:func:`~repro.repository.codec.entry_digest`),
which every service over the same store computes alike.

The service implements the full :class:`StorageBackend` interface
itself, so everything that accepts a backend accepts a service too —
including another service, though stacking them buys nothing.
"""

from __future__ import annotations

import contextvars
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.repository.backends import MemoryBackend, StorageBackend
from repro.repository.backends.base import GetRequest
from repro.repository.concurrency import Mutex, ReadWriteLock
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    QueryPlan,
    QueryResult,
    QueryStats,
    corpus_stats,
    evaluate_plan,
)
from repro.repository.search import SearchIndex
from repro.repository.versioning import Version

__all__ = [
    "API_METHODS",
    "MAX_GROUP_WRITES",
    "RepositoryEvent",
    "RepositoryService",
]

#: The read/write/query methods of the :class:`StorageBackend` contract
#: that every serving layer shares, by name.  The coverage tests check
#: every layer against it: the backends and this facade in
#: ``tests/repository/test_store.py``, and ``HTTPBackend`` in
#: ``tests/repository/test_routes.py``, which calls each name once over
#: a live server and compares the answer with this facade's.
API_METHODS = (
    # reads
    "identifiers", "versions", "versions_many", "has", "entry_count",
    "get", "get_many",
    # writes
    "add", "add_version", "replace_latest", "add_many",
    # queries
    "query", "execute_query", "query_stats", "change_counter",
    # introspection / lifecycle
    "cache_stats", "close",
)


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
    (the search index, a replica) only ever needs to upsert.
    """

    kind: str
    entry: ExampleEntry

    @property
    def identifier(self) -> str:
        return self.entry.identifier


class RepositoryService(StorageBackend):
    """Batching, event-emitting facade over a storage backend."""

    def __init__(self, backend: StorageBackend | None = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self._rwlock = ReadWriteLock()
        #: Writes waiting for a leader, in submission order.
        self._pending: deque[PendingWrite] = deque()
        self._pending_mutex = Mutex()
        self._subscribers: list[Callable[[RepositoryEvent], None]] = []
        self._subscribers_mutex = Mutex()
        self._search_index = None  # lazily built, then kept in sync
        self._search_unsubscribe: Callable[[], None] = _noop
        #: The backend's change counter the index is known to reflect;
        #: None while there is no index, or when the backend has no
        #: counter or answers queries natively (nothing to track).
        self._index_counter: int | None = None

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
        # No read lock: the backend's own get is safe against a
        # concurrent writer.
        return self.backend.get(identifier, version)

    def get_payload(self, identifier: str,
                    version: Version | None = None) -> tuple[str, str]:
        # No read lock, for the same reason as get.
        return self.backend.get_payload(identifier, version)

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

        The first half of the pipelining API.  ``kind`` names a facade
        write method (``add``, ``add_version``, ``replace_latest`` or
        ``add_many``; ``add_many`` takes a list).  Queue order is commit
        order.  The caller must hand every returned record to
        :meth:`commit_write`.  A thread that queues a window of writes
        and then commits them in order can lead the whole window as one
        group on its first commit, so one writer thread pays one
        transaction per window instead of one per write.
        """
        op = PendingWrite(kind, payload)
        with self._pending_mutex:
            self._pending.append(op)
        return op

    def commit_write(self, op: PendingWrite) -> object:
        """Wait until ``op``'s group has committed; return or raise its
        own outcome.

        The second half of the pipelining API (see :meth:`enqueue_write`).
        A follower waits for the write lock only until some leader has
        committed ``op``.  If it gets the lock first, it leads: it
        commits queued groups until ``op`` is settled.  A write that is
        already settled returns at once.
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

        Several writes share one backend
        :meth:`~StorageBackend.write_group`.  A lone write skips it and
        calls the backend write, which is its own group of one in the
        durable backends, so its events fire after the backend has
        committed it.  Inside the backend's group they would fire with
        the backend's lock held: a subscriber parked in an event would
        hold up every point read, and it would see a write not yet
        committed.  A write that fails
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
                with self._index_follows_commit():
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
        upserts) has already happened — so the facade drops its search
        index to restore coherence before re-raising.

        Other threads' writes stay queued while the block runs: it
        never commits them, so a block that raises cannot take them
        down with it.  Their leader commits them once the block exits.
        """
        self._rwlock.acquire_write()
        try:
            try:
                with self._index_follows_commit(), self.backend.write_group():
                    yield self
            except Exception:
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
        maintained, rebuilt after a foreign write) search index, under
        the read lock — index mutation
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

    # ------------------------------------------------------------------
    # Search (incremental; built on the event hooks).
    # ------------------------------------------------------------------

    def enable_search(self):
        """Ensure the search index exists; afterwards events keep it
        fresh.

        Returns the :class:`~repro.repository.search.SearchIndex`, which
        may also be queried directly for structured filters.  The first
        call builds it from the backend (one batch ``get_many``); from
        then on each write event upserts exactly the written entry.

        Runs under the *write* lock: the index lifecycle shares the one
        service lock (no separate mutex to order against), writers are
        excluded for the whole build-then-subscribe step so no write
        can land between the two and go permanently unindexed, and the
        build's own reads re-enter via writer reentrancy.
        """
        with self._rwlock.write_locked():
            if self._search_index is None:
                # Read before the build: a write by another service
                # during it leaves the index stale, never wrongly fresh.
                counter = (None if self.backend.supports_native_query
                           else self.backend.change_counter())
                index = SearchIndex()
                self._search_unsubscribe = index.sync_with(self)
                self._search_index = index
                self._index_counter = counter
            return self._search_index

    def disable_search(self) -> None:
        """Detach and drop the search index (a later search rebuilds)."""
        with self._rwlock.write_locked():
            if self._search_index is not None:
                self._search_unsubscribe()
                self._search_index = None
                self._index_counter = None

    @property
    def search_index(self):
        """The live index (None until :meth:`enable_search`/``search``)."""
        return self._search_index

    def _ensure_index(self):
        """The live index, lazily enabling it on first use.

        Over a backend with a change counter, the index is rebuilt when
        the counter has moved past the last value this service saw: a
        write by another service over the same store raised no event
        here.  A thread inside a commit unit trusts the index, which
        this service's own events keep current.
        """
        with self._rwlock.read_locked():
            index, seen = self._search_index, self._index_counter
        if index is None:
            return self.enable_search()
        if (seen is None or self._rwlock.owns_write()
                or self.backend.change_counter() == seen):
            return index
        with self._rwlock.write_locked():
            if self._index_counter == seen:  # no other reader rebuilt it
                self.disable_search()
            return self.enable_search()

    @contextmanager
    def _index_follows_commit(self):
        """Carry the index's counter across one commit of this service.

        The commit's events keep the index current, so afterwards it
        reflects the new counter, but only if the counter had not
        already moved before the commit: another service's write left
        the index stale, and the next query rebuilds it.
        """
        seen = self._index_counter
        if seen is None:
            yield
            return
        before = self.backend.change_counter()
        try:
            yield
        finally:
            if before == seen and self._index_counter == seen:
                self._index_counter = self.backend.change_counter()

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
        """
        return self.backend.cache_stats()

    def close(self) -> None:
        """Close the backend."""
        self.backend.close()
