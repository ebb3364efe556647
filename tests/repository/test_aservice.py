"""AsyncRepositoryService: the RepositoryAPI surface as coroutines.

No pytest-asyncio in the container: each test drives its own event
loop with ``asyncio.run`` — which also keeps the loop lifecycle explicit
(the executors must survive exactly as long as the context manager
says they do).
"""

from __future__ import annotations

import asyncio
import inspect
import threading

import pytest

from repro.core.errors import DuplicateEntry, EntryNotFound
from repro.repository.aservice import AsyncRepositoryService
from repro.repository.backends import FileBackend, MemoryBackend
from repro.repository.query import Q, plan
from repro.repository.service import (
    API_METHODS,
    RepositoryAPI,
    RepositoryService,
)
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry


def entry_batch(count: int):
    return [minimal_entry(title=f"ENTRY {index}") for index in range(count)]


class TestConstruction:
    def test_wraps_a_bare_backend(self):
        backend = MemoryBackend()
        aservice = AsyncRepositoryService(backend)
        assert isinstance(aservice.service, RepositoryService)
        assert aservice.service.backend is backend

    def test_reuses_an_existing_service(self):
        service = RepositoryService()
        aservice = AsyncRepositoryService(service)
        assert aservice.service is service

    def test_default_is_memory_backed(self):
        aservice = AsyncRepositoryService()
        assert isinstance(aservice.service.backend, MemoryBackend)

    def test_rejects_nonpositive_reader_pool(self):
        with pytest.raises(ValueError):
            AsyncRepositoryService(max_readers=0)

    def test_satisfies_the_repository_api_protocol(self):
        """The protocol extraction cannot silently drop a method: every
        RepositoryAPI member exists here, as a coroutine function."""
        aservice = AsyncRepositoryService()
        assert isinstance(aservice, RepositoryAPI)
        for name in API_METHODS:
            assert inspect.iscoroutinefunction(getattr(aservice, name)), \
                f"{name} must be async"


class TestReadsAndWrites:
    def test_round_trip_matches_sync_facade(self):
        async def scenario():
            async with AsyncRepositoryService() as aservice:
                await aservice.add(minimal_entry())
                await aservice.add_version(
                    minimal_entry(version=Version(0, 2),
                                  overview="Better."))
                assert (await aservice.get("demo-example")).overview \
                    == "Better."
                assert (await aservice.get(
                    "demo-example", Version(0, 1))).overview == "A demo."
                assert await aservice.identifiers() == ["demo-example"]
                assert await aservice.has("demo-example")
                assert not await aservice.has("nope")
                assert await aservice.entry_count() == 1
                assert await aservice.versions("demo-example") == \
                    [Version(0, 1), Version(0, 2)]
                assert await aservice.versions_many(["demo-example"]) == {
                    "demo-example": [Version(0, 1), Version(0, 2)],
                }

        asyncio.run(scenario())

    def test_errors_propagate_unchanged(self):
        async def scenario():
            async with AsyncRepositoryService() as aservice:
                with pytest.raises(EntryNotFound):
                    await aservice.get("nope")
                await aservice.add(minimal_entry())
                with pytest.raises(DuplicateEntry):
                    await aservice.add(minimal_entry())

        asyncio.run(scenario())

    def test_gather_fans_reads_out(self):
        """Concurrent awaits run on distinct reader threads (the read
        lock admits them all), and every one answers correctly."""
        async def scenario():
            async with AsyncRepositoryService(max_readers=4) as aservice:
                await aservice.add_many(entry_batch(12))
                seen_threads = set()
                barrier = threading.Barrier(4, timeout=5)

                def tracked_get(identifier):
                    # Prove real fan-out: four reads must be *inside*
                    # the service concurrently to pass the barrier.
                    seen_threads.add(threading.get_ident())
                    barrier.wait()
                    return aservice.service.get(identifier)

                entries = await asyncio.gather(*(
                    aservice._read(
                        lambda identifier=f"entry-{i}":
                        tracked_get(identifier))
                    for i in range(4)
                ))
                assert [e.identifier for e in entries] == \
                    [f"entry-{i}" for i in range(4)]
                assert len(seen_threads) == 4

        asyncio.run(scenario())

    def test_get_many_is_one_atomic_batch(self):
        """A bulk read is a single service call under one read lock —
        a concurrent write lands before or after the whole batch,
        never between two halves of it (no torn snapshot)."""
        async def scenario():
            async with AsyncRepositoryService(max_readers=4) as aservice:
                batch = entry_batch(30)
                await aservice.add_many(batch)
                requests = [e.identifier for e in batch]
                requests.append(("entry-0", Version(0, 1)))
                entries = await aservice.get_many(requests)
                assert [e.identifier for e in entries] == \
                    [e.identifier for e in batch] + ["entry-0"]

                calls = []
                original = aservice.service.get_many

                def spying(reqs):
                    calls.append(len(reqs))
                    return original(reqs)

                aservice.service.get_many = spying
                try:
                    await aservice.get_many(requests)
                finally:
                    aservice.service.get_many = original
                assert calls == [len(requests)]  # one call, whole batch

        asyncio.run(scenario())

    def test_writes_are_serialised_in_submission_order(self):
        """A gather of dependent writes cannot interleave: the single
        writer thread runs them FIFO, so each version lands on the
        previous one."""
        async def scenario():
            async with AsyncRepositoryService() as aservice:
                await aservice.add(minimal_entry())
                await asyncio.gather(*(
                    aservice.add_version(
                        minimal_entry(version=Version(0, minor)))
                    for minor in range(2, 10)
                ))
                assert await aservice.versions("demo-example") == \
                    [Version(0, minor) for minor in range(1, 10)]

        asyncio.run(scenario())


class TestQueries:
    def test_query_matches_sync_results(self):
        async def scenario():
            service = RepositoryService()
            async with AsyncRepositoryService(service) as aservice:
                await aservice.add_many(entry_batch(6))
                await aservice.add(minimal_entry(
                    title="ZYGOTE", overview="A distinctive cell."))
                result = await aservice.query(
                    "zygote distinctive", limit=3)
                expected = service.query("zygote distinctive", limit=3)
                assert result.identifiers == expected.identifiers
                assert result.total == expected.total
                assert result.facets == expected.facets

        asyncio.run(scenario())

    def test_execute_query_and_stats(self):
        async def scenario():
            async with AsyncRepositoryService() as aservice:
                await aservice.add_many(entry_batch(4))
                result = await aservice.execute_query(
                    plan(Q.author("Ann"), sort="identifier", limit=2))
                assert result.identifiers == ["entry-0", "entry-1"]
                assert result.total == 4
                stats = await aservice.query_stats(["entry"])
                assert stats.document_count == 4
                assert await aservice.change_counter() is None
                # A memory backend decodes nothing, and the facade
                # adds no cache of its own.
                assert await aservice.cache_stats() == {}

        asyncio.run(scenario())


class TestLifecycle:
    def test_context_exit_saves_index_and_closes(self, tmp_path):
        async def scenario():
            # A file backend: no native pushdown, so query() lazily
            # enables the index — and it has the durable change counter
            # the snapshot is stamped with.
            backend = FileBackend(tmp_path / "repo")
            service = RepositoryService(
                backend, index_path=tmp_path / "index.json")
            async with AsyncRepositoryService(service) as aservice:
                await aservice.add_many(entry_batch(3))
                assert (await aservice.query("entry")).total == 3

        asyncio.run(scenario())
        # close() ran save_index: the snapshot is on disk and a fresh
        # service restores it instead of rebuilding.
        assert (tmp_path / "index.json").is_file()

    def test_close_waits_for_in_flight_reads(self, tmp_path):
        """close() drains the reader pool before the backend closes:
        a read racing the shutdown finishes against a live store
        instead of crashing on a closed connection."""
        import time

        from repro.repository.backends import SQLiteBackend

        async def scenario():
            service = RepositoryService(SQLiteBackend(tmp_path / "a.db"))
            aservice = AsyncRepositoryService(service)
            await aservice.add(minimal_entry())

            def slow_get():
                time.sleep(0.3)  # the backend must still be open after
                return aservice.service.get("demo-example")

            entry, _ = await asyncio.gather(aservice._read(slow_get),
                                            aservice.close())
            assert entry.identifier == "demo-example"

        asyncio.run(scenario())

    def test_close_never_blocks_the_event_loop(self):
        """Regression (found by the `async-purity` analysis rule):
        close() used to call ``self._writer.shutdown(wait=True)``
        directly on the loop, so a writer queue that takes a while to
        drain froze every other coroutine.  Both executor shutdowns now
        run off-loop; a ticker task must keep ticking throughout."""
        import time

        async def scenario():
            aservice = AsyncRepositoryService()
            await aservice.add(minimal_entry())

            real_shutdown = aservice._writer.shutdown

            def slow_shutdown(wait=True):
                time.sleep(0.3)  # a writer queue that drains slowly
                real_shutdown(wait=wait)

            aservice._writer.shutdown = slow_shutdown

            ticks = 0
            closed = asyncio.Event()

            async def ticker():
                nonlocal ticks
                while not closed.is_set():
                    ticks += 1
                    await asyncio.sleep(0.01)

            ticking = asyncio.ensure_future(ticker())
            await aservice.close()
            closed.set()
            await ticking
            # ~30 ticks fit into the slow shutdown alone; even a loaded
            # CI box manages a handful unless the loop was blocked.
            assert ticks >= 5, f"event loop starved during close ({ticks})"

        asyncio.run(scenario())

    def test_close_is_idempotent_and_final(self):
        async def scenario():
            aservice = AsyncRepositoryService()
            await aservice.add(minimal_entry())
            await aservice.close()
            await aservice.close()  # second close: a no-op
            with pytest.raises(RuntimeError):
                await aservice.get("demo-example")

        asyncio.run(scenario())


class TestWriteCoalescing:
    """Gathered async writes coalesce through the facade's group commit."""

    def test_concurrent_writes_coalesce_into_fewer_commits(self):
        from repro.repository.backends import SQLiteBackend

        async def main():
            backend = SQLiteBackend()
            async with AsyncRepositoryService(backend) as service:
                before = backend.change_counter()
                await asyncio.gather(
                    *[service.add(entry) for entry in entry_batch(40)])
                commits = backend.change_counter() - before
                count = await service.entry_count()
                return commits, count

        commits, count = asyncio.run(main())
        assert count == 40
        # All 40 adds queue on the loop before the writer thread takes
        # the write lock, so they land in far fewer commit units than
        # writes (one counter bump per commit unit).
        assert 1 <= commits < 40

    def test_events_fire_per_entry_in_submission_order(self):
        events = []

        async def main():
            sync = RepositoryService(MemoryBackend())
            sync.subscribe(lambda event: events.append(event))
            entries = entry_batch(24)
            async with AsyncRepositoryService(sync) as service:
                await asyncio.gather(
                    *[service.add(entry) for entry in entries])
            return entries

        entries = asyncio.run(main())
        assert [event.kind for event in events] == ["add"] * len(entries)
        # The queue is FIFO and the writer thread drains runs in order,
        # so events replay the submission order exactly — grouped or not.
        assert [event.entry.identifier for event in events] \
            == [entry.identifier for entry in entries]

    def test_invalid_entry_fails_alone_its_groupmates_commit(self):
        async def main():
            async with AsyncRepositoryService(MemoryBackend()) as service:
                first = minimal_entry(title="ENTRY 0")
                await service.add(first)
                batch = entry_batch(12)[1:]  # ENTRY 1..11
                results = await asyncio.gather(
                    service.add(minimal_entry(title="ENTRY 0")),  # dup
                    *[service.add(entry) for entry in batch],
                    return_exceptions=True,
                )
                return results, await service.entry_count(), \
                    service.admission_stats()

        results, count, stats = asyncio.run(main())
        failures = [r for r in results if isinstance(r, BaseException)]
        assert len(failures) == 1
        assert isinstance(failures[0], DuplicateEntry)
        assert count == 12  # ENTRY 0..11: everyone else landed
        assert stats["shed_total"] == 0

    def test_futures_resolve_only_after_the_group_commits(self):
        """An awaited add() is durable: the moment the coroutine
        resumes, a fresh read connection must see the entry — the ack
        comes after the group transaction, never inside it."""
        from repro.repository.backends import SQLiteBackend

        async def main(tmp):
            backend = SQLiteBackend(tmp / "acks.db")
            loop = asyncio.get_running_loop()
            async with AsyncRepositoryService(backend) as service:
                entries = entry_batch(32)
                before = backend.change_counter()

                async def add_then_probe(entry):
                    await service.add(entry)
                    # Probe from a plain thread: a separate read-only
                    # connection, no group-membership special cases.
                    return await loop.run_in_executor(
                        None, backend.has, entry.identifier)

                probes = await asyncio.gather(
                    *[add_then_probe(entry) for entry in entries])
                commits = backend.change_counter() - before
            return probes, commits

        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            probes, commits = asyncio.run(main(Path(tmp)))
        assert all(probes), "an acked write was not yet readable"
        assert commits < 32  # the acks came from grouped commits

    def test_a_cancelled_write_still_commits(self):
        """Once queued on the facade a write commits, even if its
        coroutine is cancelled while the writer thread is busy."""
        async def main():
            loop = asyncio.get_running_loop()
            async with AsyncRepositoryService(MemoryBackend()) as service:
                release = threading.Event()
                busy = loop.run_in_executor(
                    service._writer, release.wait, 5.0)
                write = asyncio.ensure_future(service.add(minimal_entry()))
                await asyncio.sleep(0.05)  # queued, its job behind busy
                write.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await write
                release.set()
                await busy
                await loop.run_in_executor(service._writer, lambda: None)
                return service.service.has("demo-example")

        assert asyncio.run(main())

    def test_add_many_is_all_or_nothing_on_sqlite(self):
        """One async add_many is one facade write: on a transactional
        backend a duplicate anywhere in the batch stores nothing."""
        from repro.repository.backends import SQLiteBackend

        async def main():
            async with AsyncRepositoryService(SQLiteBackend()) as service:
                entries = entry_batch(20)
                entries[12] = entries[3]  # duplicate inside the batch
                with pytest.raises(DuplicateEntry):
                    await service.add_many(entries)
                return await service.entry_count()

        assert asyncio.run(main()) == 0
