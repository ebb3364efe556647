"""The async adapter over the repository facade: coroutines, one loop.

:class:`AsyncRepositoryService` exposes the
:class:`~repro.repository.service.RepositoryAPI` surface as coroutine
methods over a synchronous
:class:`~repro.repository.service.RepositoryService`, so an event loop
can serve many readers without blocking on storage I/O.  It is a thin
executor adapter: every lock, event and group commit lives in the sync
facade, which the HTTP server's handler threads and plain threads share.

* **Reads fan out.**  Read coroutines run on a bounded reader pool
  (``max_readers`` threads); the facade's read lock admits them all at
  once.  A bulk :meth:`get_many` stays ONE job, so it answers from one
  consistent snapshot (see the method docstring).
* **Writes queue on the loop, commit on one writer thread.**  A write
  coroutine queues its write on the facade with
  :meth:`~repro.repository.service.RepositoryService.enqueue_write`
  while still on the loop thread, so gathered writes keep their
  submission order.  It then waits on the single writer thread in
  :meth:`~repro.repository.service.RepositoryService.commit_write`.
  Whichever thread takes the facade's write lock commits everything
  queued as one group (the facade's leader/follower group commit), so
  a burst of async writes pays one transaction per group, and each
  coroutine still gets its own result or error once its group commits.
  A queued write commits even if its coroutine is cancelled.
* **Admission control, not unbounded queues.**  Each lane accepts at
  most a watermark of pending jobs (``max_pending_reads`` /
  ``max_pending_writes``); past that a call is *shed* at once with
  :class:`~repro.core.errors.BackendUnavailableError` carrying a
  ``retry_after`` hint.  :meth:`drain` flips the service into a
  refuse-new/finish-old mode for graceful shutdown or failover.
* **The context manager owns shutdown.**  ``async with`` closes the
  service on exit: :meth:`close` lets in-flight reads finish,
  snapshots the search index (when the sync service has an
  ``index_path``), closes the backend after every earlier write, and
  shuts both executors down.  Later calls raise ``RuntimeError``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.errors import BackendUnavailableError
from repro.repository.backends import StorageBackend
from repro.repository.backends.base import GetRequest
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    Query,
    QueryPlan,
    QueryResult,
    QueryStats,
    plan as build_plan,
)
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version

__all__ = ["AsyncRepositoryService"]

_T = TypeVar("_T")


class AsyncRepositoryService:
    """Async repository facade: the RepositoryAPI surface as coroutines.

    Wraps a :class:`~repro.repository.service.RepositoryService` (or
    builds one over a bare backend), running reads on a bounded thread
    pool and write commits on a single writer thread.  See the module
    docstring for the reasoning.
    """

    def __init__(
        self,
        service: RepositoryService | StorageBackend | None = None,
        *,
        max_readers: int = 8,
        max_pending_reads: int | None = None,
        max_pending_writes: int | None = 64,
        shed_retry_after: float = 0.5,
    ) -> None:
        if service is None:
            service = RepositoryService()
        elif not isinstance(service, RepositoryService):
            service = RepositoryService(service)
        #: The wrapped sync facade — the single owner of the lock and
        #: the event stream.  Shared sync access (e.g. the HTTP
        #: server fronting the same repository) stays safe because all
        #: coordination lives there, not here.
        self.service = service
        if max_readers <= 0:
            raise ValueError("max_readers must be positive")
        self.max_readers = max_readers
        self._readers = ThreadPoolExecutor(
            max_workers=max_readers, thread_name_prefix="aservice-read"
        )
        #: One thread: however many async writes are in flight, at most
        #: one thread waits on the facade's write lock for them.
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="aservice-write"
        )
        self._closed = False
        #: Watermarks on *pending* jobs (queued + running) per executor.
        #: ``None`` means unbounded.  All counters live on the event
        #: loop thread, so plain ints are race-free.
        self.max_pending_reads = max_pending_reads
        self.max_pending_writes = max_pending_writes
        self.shed_retry_after = shed_retry_after
        self._pending_reads = 0
        self._pending_writes = 0
        self._shed_total = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Executor plumbing.
    # ------------------------------------------------------------------

    async def _read(self, fn: Callable[[], _T]) -> _T:
        self._admit(self._pending_reads, self.max_pending_reads, "reader")
        self._pending_reads += 1
        self._idle.clear()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._readers, fn)
        finally:
            self._pending_reads -= 1
            self._note_if_idle()

    async def _write(self, fn: Callable[[], _T]) -> _T:
        self._admit(self._pending_writes, self.max_pending_writes, "writer")
        return await self._on_writer(fn)

    async def _queue_write(self, kind: str, payload: object) -> object:
        """Queue one write on the facade, then wait for its group.

        Admission comes first, so a shed write never reaches the
        facade's queue.  Queueing happens here on the loop thread, in
        submission order; the commit wait runs on the writer thread.
        """
        self._admit(self._pending_writes, self.max_pending_writes, "writer")
        if self._closed:
            raise RuntimeError("cannot queue a write after close")
        op = self.service.enqueue_write(kind, payload)
        try:
            return await self._on_writer(lambda: self.service.commit_write(op))
        except asyncio.CancelledError:
            # The cancellation may have cancelled the commit job before
            # it started, but the write is queued all the same: commit
            # it now rather than whenever some later writer leads.  Its
            # outcome belongs to a caller that is gone.
            if not self._closed:
                self._writer.submit(self.service.commit_write, op)
            raise

    async def _on_writer(self, fn: Callable[[], _T]) -> _T:
        self._pending_writes += 1
        self._idle.clear()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._writer, fn)
        finally:
            self._pending_writes -= 1
            self._note_if_idle()

    def _admit(self, pending: int, watermark: int | None, lane: str) -> None:
        """Refuse work past the watermark (or while draining), cheaply.

        Runs on the event loop before the executor is touched, so an
        overloaded service sheds in microseconds instead of queueing.
        A *closed* service deliberately skips these checks: the
        shut-down executor raises the documented ``RuntimeError``.
        """
        if self._closed:
            return
        if self._draining:
            self._shed_total += 1
            raise BackendUnavailableError(
                "async repository service is draining; retry elsewhere",
                retry_after=self.shed_retry_after,
            )
        if watermark is not None and pending >= watermark:
            self._shed_total += 1
            raise BackendUnavailableError(
                f"async {lane} queue is full ({pending} pending); "
                f"retry after {self.shed_retry_after:g}s",
                retry_after=self.shed_retry_after,
            )

    def _note_if_idle(self) -> None:
        if self._pending_reads == 0 and self._pending_writes == 0:
            self._idle.set()

    # ------------------------------------------------------------------
    # Reads (fanned out over the reader pool).
    # ------------------------------------------------------------------

    async def identifiers(self) -> list[str]:
        return await self._read(self.service.identifiers)

    async def versions(self, identifier: str) -> list[Version]:
        return await self._read(lambda: self.service.versions(identifier))

    async def versions_many(
        self, identifiers: Sequence[str]
    ) -> dict[str, list[Version]]:
        return await self._read(
            lambda: self.service.versions_many(identifiers)
        )

    async def has(self, identifier: str) -> bool:
        return await self._read(lambda: self.service.has(identifier))

    async def entry_count(self) -> int:
        return await self._read(self.service.entry_count)

    async def get(
        self, identifier: str, version: Version | None = None
    ) -> ExampleEntry:
        return await self._read(
            lambda: self.service.get(identifier, version)
        )

    async def get_many(
        self, requests: Sequence[GetRequest]
    ) -> list[ExampleEntry]:
        """Resolve many entries as ONE service call, atomically.

        Deliberately *not* chunked across the reader pool: the sync
        facade holds its read lock across the whole batch, so the
        result is a single consistent snapshot — a racing write can
        land before or after the batch, never in the middle of it.
        Splitting the batch over several reader threads would release
        and re-acquire the lock per chunk and could return a torn
        snapshot no sync caller can ever observe.  Concurrency across
        *separate* awaits (``gather(get_many(...), get_many(...))``)
        still fans out over the pool, and a sharded backend fans one
        batch out further under the lock.
        """
        requests = list(requests)
        return await self._read(lambda: self.service.get_many(requests))

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    async def query(
        self,
        query: Query | str | None = None,
        *,
        sort: str = "relevance",
        offset: int = 0,
        limit: int | None = None,
    ) -> QueryResult:
        """The composable retrieval surface, asynchronously.

        Builds the plan on the event loop (cheap, pure) and executes it
        on a reader thread — through the sync facade's pushdown-or-index
        path, so results are identical to the sync ``query()``.
        """
        return await self.execute_query(
            build_plan(query, sort=sort, offset=offset, limit=limit)
        )

    async def execute_query(
        self, plan: QueryPlan, stats: QueryStats | None = None
    ) -> QueryResult:
        return await self._read(
            lambda: self.service.execute_query(plan, stats)
        )

    async def query_stats(self, terms: Sequence[str]) -> QueryStats:
        return await self._read(lambda: self.service.query_stats(terms))

    async def change_counter(self) -> int | None:
        return await self._read(self.service.change_counter)

    async def change_token(self) -> str | None:
        return await self._read(self.service.change_token)

    # ------------------------------------------------------------------
    # Writes (queued on the facade, committed on the writer thread).
    # ------------------------------------------------------------------

    async def add(self, entry: ExampleEntry) -> None:
        await self._queue_write("add", entry)

    async def add_version(self, entry: ExampleEntry) -> None:
        await self._queue_write("add_version", entry)

    async def replace_latest(self, entry: ExampleEntry) -> None:
        await self._queue_write("replace_latest", entry)

    async def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        return await self._queue_write("add_many", list(entries))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------

    async def cache_stats(self) -> dict[str, dict[str, int]]:
        return await self._read(self.service.cache_stats)

    def admission_stats(self) -> dict[str, int | bool]:
        """Pending-job counts per lane, the shed count, and drain state."""
        return {
            "pending_reads": self._pending_reads,
            "pending_writes": self._pending_writes,
            "shed_total": self._shed_total,
            "draining": self._draining,
        }

    async def drain(self, timeout: float | None = None) -> bool:
        """Refuse new work and wait for in-flight calls to finish.

        Returns True when the service went idle within ``timeout``
        (None: wait forever).  The service stays in the draining state
        either way; :meth:`resume` re-opens admission — the failover
        dance is drain, hand off, resume (or close).
        """
        self._draining = True
        if self._pending_reads == 0 and self._pending_writes == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def resume(self) -> None:
        """Re-open admission after a :meth:`drain`."""
        self._draining = False

    async def save_index(self) -> bool:
        """Snapshot the search index (see the sync ``save_index``)."""
        return await self._write(self.service.save_index)

    async def close(self) -> None:
        """Save the index, close the backend, shut the executors down.

        Idempotent.  Ordering matters: the reader pool drains *first*
        (a read still in flight must finish against a live backend —
        closing underneath it would surface as a backend-specific
        crash, not the documented post-close ``RuntimeError``), then
        the index snapshot and backend close run on the writer thread,
        after every previously submitted write.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        # shutdown(wait=True) blocks until in-flight reads finish, so
        # it runs off-loop; new submissions now raise RuntimeError.
        await loop.run_in_executor(None, self._readers.shutdown)
        await self._write(self.service.close)
        # Same rule for the writer: its queue holds the service.close
        # submitted above, so shutdown(wait=True) blocks until that
        # drains — run it off-loop too, or close() stalls every other
        # coroutine on the loop for the duration.
        await loop.run_in_executor(
            None, lambda: self._writer.shutdown(wait=True))

    async def __aenter__(self) -> "AsyncRepositoryService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
