"""The async variant of the repository facade: many readers, one loop.

The ROADMAP's serving north-star wants the collection answering "many
readers" without each of them blocking the event loop on storage I/O.
:class:`AsyncRepositoryService` is that variant: a thin asynchronous
shell around the synchronous
:class:`~repro.repository.service.RepositoryService`, exposing the same
:class:`~repro.repository.service.RepositoryAPI` surface as coroutine
methods.

Design decisions, and why:

* **Wrap, don't reimplement.**  The sync facade already owns the hard
  parts — the writer-preference
  :class:`~repro.repository.concurrency.ReadWriteLock`, event
  dispatch, index lifecycle.  Every coroutine here delegates to the
  sync service inside an executor thread, so there is exactly one lock
  regardless of how many layers (sync callers, async callers, the HTTP
  server's handler threads) touch the same service concurrently.
* **Reads fan out, writes serialise.**  Read operations run on a
  bounded reader pool (``max_readers`` threads) — the read lock admits
  them all concurrently, and a sharded backend fans each one out
  further.  Write operations run on a dedicated single-thread executor:
  they are serialised among themselves *before* ever contending for the
  write lock, so a burst of async writes cannot stack up blocked writer
  threads (and the writer-preference lock never starves readers longer
  than one write).
* **``asyncio.gather``-safe by construction.**  Each coroutine submits
  one executor job and awaits it; nothing shares mutable state outside
  the sync service's own locks.  ``gather(get(...), query(...), ...)``
  simply keeps up to ``max_readers`` storage calls in flight.  A bulk
  :meth:`get_many` stays ONE job on purpose — the sync facade holds
  its read lock across the whole batch, so the answer is a single
  consistent snapshot (see the method docstring).
* **Admission control, not unbounded queues.**  Each executor accepts
  at most a watermark of pending jobs (``max_pending_reads`` /
  ``max_pending_writes``); past that the call is *shed* immediately
  with :class:`~repro.core.errors.BackendUnavailableError` carrying a
  ``retry_after`` pacing hint, instead of stacking futures until the
  process falls over.  :meth:`drain` flips the service into a
  refuse-new/finish-old mode for graceful shutdown or failover.
* **The context manager owns shutdown.**  ``async with`` closes the
  service on exit — :meth:`close` snapshots the search index (when the
  sync service has an ``index_path``), closes the backend, and shuts
  both executors down.  After close, further calls raise
  ``RuntimeError`` from the executors rather than touching a closed
  backend.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.errors import BackendUnavailableError
from repro.repository.backends import StorageBackend
from repro.repository.backends.base import GetRequest
from repro.repository.concurrency import Mutex
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


class _QueuedWrite:
    """One queued write op awaiting the writer thread.

    ``kind`` selects the service call (``add`` / ``add_version`` /
    ``replace_latest`` / ``add_chunk``), ``payload`` is its argument
    (an entry, or a list for a chunk), and ``future`` is the
    per-op :class:`concurrent.futures.Future` the submitting coroutine
    awaits — resolved individually, so one invalid entry fails its own
    caller and nobody else in the group.
    """

    __slots__ = ("kind", "payload", "future")

    def __init__(self, kind: str, payload) -> None:
        self.kind = kind
        self.payload = payload
        self.future: Future = Future()


class AsyncRepositoryService:
    """Async repository facade: the RepositoryAPI surface as coroutines.

    Wraps a :class:`~repro.repository.service.RepositoryService` (or
    builds one over a bare backend), running reads on a bounded thread
    pool and writes on a single serialising thread.  See the module
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
        max_coalesce: int = 128,
        coalesce_chunk: int = 512,
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
        #: One thread: async writes are serialised before they contend
        #: for the service's write lock.
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
        #: Write coalescing: ops queue here (on the loop thread) and
        #: the single writer thread drains *runs* of them as one group
        #: committed through ``service.write_group()`` — one backend
        #: transaction, one change-counter bump, per-op futures.
        if max_coalesce <= 0:
            raise ValueError("max_coalesce must be positive")
        if coalesce_chunk <= 0:
            raise ValueError("coalesce_chunk must be positive")
        self.max_coalesce = max_coalesce
        self.coalesce_chunk = coalesce_chunk
        self._write_queue: deque[_QueuedWrite] = deque()
        self._queue_mutex = Mutex()
        #: Coalescing accounting (written by the writer thread; read by
        #: ``admission_stats`` — monotonic ints, torn reads impossible
        #: under the GIL).
        self._coalesced_groups = 0
        self._coalesced_writes = 0
        self._coalesce_high_water = 0

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
    # Write coalescing.  Each write coroutine appends one op to the
    # queue and submits a drain job; the single writer thread pops a
    # *run* of adjacent ops per drain and commits them as one group.
    # A drain that finds the queue already emptied (a previous drain
    # absorbed its op) returns immediately, so the invariant is cheap:
    # every queued op has at least one drain job behind it.
    # ------------------------------------------------------------------

    async def _enqueue_write(self, kind: str, payload) -> object:
        self._admit(self._pending_writes, self.max_pending_writes, "writer")
        self._pending_writes += 1
        self._idle.clear()
        op = _QueuedWrite(kind, payload)
        with self._queue_mutex:
            self._write_queue.append(op)
        try:
            try:
                self._writer.submit(self._drain_write_queue)
            except RuntimeError:
                # Writer executor already shut down: withdraw the op so
                # no later drain can apply it against a closed backend.
                with self._queue_mutex:
                    if op in self._write_queue:
                        self._write_queue.remove(op)
                raise
            return await asyncio.wrap_future(op.future)
        finally:
            self._pending_writes -= 1
            self._note_if_idle()

    def _drain_write_queue(self) -> None:
        """Writer thread: pop one run of ops and commit it as a group.

        At most ``max_coalesce`` ops per group (the coalescing
        watermark) so one drain can never monopolise the write lock
        unboundedly.  Per-op outcomes resolve individually: a write
        that fails (duplicate identifier, non-increasing version) fails
        its own future and the rest of the group still commits.
        """
        with self._queue_mutex:
            ops: list[_QueuedWrite] = []
            while self._write_queue and len(ops) < self.max_coalesce:
                ops.append(self._write_queue.popleft())
        live = [op for op in ops if op.future.set_running_or_notify_cancel()]
        if not live:
            return
        if len(live) == 1:
            self._resolve(live[0], *self._apply_op(live[0]))
            return
        self._coalesced_groups += 1
        self._coalesced_writes += len(live)
        if len(live) > self._coalesce_high_water:
            self._coalesce_high_water = len(live)
        # Outcomes are staged and futures resolved only AFTER the group
        # transaction commits: an awaiter must never see "added" while
        # the commit is still in flight (or worse, about to roll back).
        outcomes: list[tuple[bool, object]] = []
        try:
            with self.service.write_group():
                for op in live:
                    outcomes.append(self._apply_op(op))
        except BaseException as exc:  # noqa: BLE001 - the rollback fans out to every op whose write is gone
            for index, op in enumerate(live):
                if index < len(outcomes) and not outcomes[index][0]:
                    self._resolve(op, *outcomes[index])  # its own error
                else:
                    self._resolve(op, False, exc)
            return
        for op, outcome in zip(live, outcomes):
            self._resolve(op, *outcome)

    @staticmethod
    def _resolve(op: _QueuedWrite, ok: bool, value: object) -> None:
        if ok:
            op.future.set_result(value)
        else:
            op.future.set_exception(value)  # type: ignore[arg-type]

    def _apply_op(self, op: _QueuedWrite) -> tuple[bool, object]:
        """Apply one op through the sync facade; never raises.

        Returns ``(ok, result-or-exception)`` instead of touching the
        future — the drain resolves futures once the op's commit unit
        (its own, or the surrounding group's) is actually durable.
        """
        try:
            if op.kind == "add":
                result = self.service.add(op.payload)
            elif op.kind == "add_version":
                result = self.service.add_version(op.payload)
            elif op.kind == "replace_latest":
                result = self.service.replace_latest(op.payload)
            else:  # "add_chunk"
                result = self.service.add_many(op.payload)
        except BaseException as exc:  # noqa: BLE001 - the op's outcome, good or bad, belongs to its own future
            return False, exc
        return True, result

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
    # Writes (serialised through the one-thread writer executor).
    # ------------------------------------------------------------------

    async def add(self, entry: ExampleEntry) -> None:
        await self._enqueue_write("add", entry)

    async def add_version(self, entry: ExampleEntry) -> None:
        await self._enqueue_write("add_version", entry)

    async def replace_latest(self, entry: ExampleEntry) -> None:
        await self._enqueue_write("replace_latest", entry)

    async def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        """Bulk-load through the coalescing path, one chunk at a time.

        The batch splits into ``coalesce_chunk``-sized chunks and each
        chunk queues as one op, so a huge ingest (a 100k corpus) can
        never starve queued point writes — they interleave between
        chunks.  Each chunk keeps the backend's all-or-nothing
        guarantee; across chunks the load is resumable, not atomic (a
        failing chunk leaves earlier chunks committed and raises).
        Batches at or under one chunk behave exactly as before.
        """
        batch = list(entries)
        if len(batch) <= self.coalesce_chunk:
            return await self._enqueue_write("add_chunk", batch)  # type: ignore[return-value]
        total = 0
        for start in range(0, len(batch), self.coalesce_chunk):
            chunk = batch[start:start + self.coalesce_chunk]
            total += await self._enqueue_write("add_chunk", chunk)  # type: ignore[operator]
        return total

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------

    async def cache_stats(self) -> dict[str, dict[str, int]]:
        return await self._read(self.service.cache_stats)

    def admission_stats(self) -> dict[str, int | bool]:
        """Pending-job counts, shed count, and coalescing accounting.

        ``coalesced_groups``/``coalesced_writes`` count multi-op groups
        and the ops they carried; ``coalesce_high_water`` is the
        largest group committed so far and ``max_coalesce`` the
        configured watermark it can never exceed.
        """
        return {
            "pending_reads": self._pending_reads,
            "pending_writes": self._pending_writes,
            "queued_writes": len(self._write_queue),
            "shed_total": self._shed_total,
            "draining": self._draining,
            "coalesced_groups": self._coalesced_groups,
            "coalesced_writes": self._coalesced_writes,
            "coalesce_high_water": self._coalesce_high_water,
            "max_coalesce": self.max_coalesce,
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
