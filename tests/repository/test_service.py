"""The RepositoryService facade: read coherence, batching, events,
incremental search — over every backend."""

from __future__ import annotations

import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core.errors import DuplicateEntry, EntryNotFound, StorageError
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
)
from repro.repository.concurrency import ReadWriteLock
from repro.repository.curation import CuratedRepository, Role, User
from repro.repository.resilience import (
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.repository.search import SearchIndex
from repro.repository.service import (
    MAX_GROUP_WRITES,
    RepositoryEvent,
    RepositoryService,
)
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry


@pytest.fixture(params=["memory", "file", "sqlite"])
def service(request, tmp_path):
    if request.param == "memory":
        backend = MemoryBackend()
    elif request.param == "file":
        backend = FileBackend(tmp_path / "repo")
    else:
        backend = SQLiteBackend(tmp_path / "repo.db")
    built = RepositoryService(backend)
    yield built
    built.close()


def entry_batch(count: int):
    return [minimal_entry(title=f"ENTRY {index}") for index in range(count)]


class TestFacadeBasics:
    def test_is_a_storage_backend(self):
        assert issubclass(RepositoryService, StorageBackend)

    def test_default_backend_is_memory(self):
        service = RepositoryService()
        assert isinstance(service.backend, MemoryBackend)

    def test_point_operations_delegate(self, service):
        entry = minimal_entry()
        service.add(entry)
        assert service.get("demo-example") == entry
        assert service.has("demo-example")
        assert service.identifiers() == ["demo-example"]
        assert service.entry_count() == 1
        assert service.versions("demo-example") == [Version(0, 1)]


def memo_counts(service):
    """``(hits, misses)`` of the backend's decode memo; memory has none."""
    memo = service.cache_stats().get("decode_memo")
    if memo is None:
        return None
    return memo["hits"], memo["misses"]


class TestCache:
    """The facade caches nothing; the backend's memo is the one cache.

    A repeated read hands back one snapshot object on every backend:
    the stored entry in memory, the decode memo's on file and SQLite.
    """

    def test_repeated_get_hits_cache(self, service):
        service.add(minimal_entry())
        first = service.get("demo-example")
        before = memo_counts(service)
        assert service.get("demo-example") is first
        after = memo_counts(service)
        if before is None:
            assert service.cache_stats() == {}
        else:
            assert after == (before[0] + 1, before[1])

    def test_explicit_version_primed_by_latest_get(self, service):
        service.add(minimal_entry())
        latest = service.get("demo-example")
        before = memo_counts(service)
        # The latest read and the explicit read of its version share
        # one memo slot (one stored payload on SQLite).
        assert service.get("demo-example", Version(0, 1)) is latest
        if before is not None:
            assert memo_counts(service) == (before[0] + 1, before[1])

    def test_lru_eviction(self, tmp_path):
        from repro.repository.codec import DecodeMemo
        backend = SQLiteBackend(tmp_path / "repo.db")
        backend._memo = DecodeMemo(maxsize=2)
        service = RepositoryService(backend)
        service.add_many(entry_batch(3))
        for identifier in ("entry-0", "entry-1", "entry-2"):
            assert service.get(identifier).identifier == identifier
        memo = service.cache_stats()["decode_memo"]
        assert memo["currsize"] <= 2
        assert memo["evictions"] >= 1
        service.close()

    def test_coherent_after_replace_latest(self, service):
        service.add(minimal_entry())
        service.get("demo-example")  # warm the backend's memo
        service.replace_latest(minimal_entry(overview="Patched."))
        assert service.get("demo-example").overview == "Patched."
        assert service.get("demo-example",
                           Version(0, 1)).overview == "Patched."

    def test_coherent_after_add_version(self, service):
        service.add(minimal_entry())
        service.get("demo-example")  # warm the backend's memo
        service.add_version(minimal_entry(version=Version(0, 2),
                                          overview="Better."))
        assert service.get("demo-example").version == Version(0, 2)
        # The old explicit version still resolves to the old snapshot.
        assert service.get("demo-example",
                           Version(0, 1)).overview == "A demo."

    def test_failed_write_leaves_cache_coherent(self, service):
        service.add(minimal_entry())
        warm = service.get("demo-example")
        with pytest.raises(DuplicateEntry):
            service.add(minimal_entry(overview="Impostor."))
        assert service.get("demo-example") == warm

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_second_service_over_the_same_store_sees_replace_latest(
            self, kind, tmp_path):
        """Two services over one durable store — as two processes
        serving one repository would hold — agree after an in-place
        revision through either: no facade keeps a stale snapshot."""
        def open_backend():
            if kind == "file":
                return FileBackend(tmp_path / "repo")
            return SQLiteBackend(tmp_path / "repo.db")

        writer = RepositoryService(open_backend())
        reader = RepositoryService(open_backend())
        writer.add(minimal_entry())
        assert reader.get("demo-example").overview == "A demo."  # warm
        assert reader.get_many(["demo-example"])[0].overview == "A demo."
        writer.replace_latest(minimal_entry(overview="Revised."))
        assert reader.get("demo-example").overview == "Revised."
        assert reader.get("demo-example",
                          Version(0, 1)).overview == "Revised."
        assert reader.get_many(["demo-example"])[0].overview == "Revised."
        writer.close()
        reader.close()

    def test_file_writes_prime_one_memo_slot_each(self, tmp_path):
        """A file write primes the decode memo once, at the counter its
        group commits, so ten lone adds fill ten slots, not twenty."""
        backend = FileBackend(tmp_path / "repo")
        for entry in entry_batch(10):
            backend.add(entry)
        assert backend.cache_stats()["decode_memo"]["currsize"] == 10
        # The last write's slot is keyed on the current counter, so
        # reading it back decodes nothing.
        before = backend.cache_stats()["decode_memo"]
        assert backend.get("entry-9") == minimal_entry(title="ENTRY 9")
        after = backend.cache_stats()["decode_memo"]
        assert (after["hits"], after["misses"]) == (
            before["hits"] + 1, before["misses"])

    def test_service_cache_stats_shape(self, tmp_path):
        service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
        service.add_many(entry_batch(3))
        service.get("entry-0")
        service.get("entry-0")
        stats = service.cache_stats()
        assert stats["decode_memo"]["hits"] >= 1
        assert {"misses", "evictions", "currsize",
                "maxsize"} <= set(stats["decode_memo"])
        service.close()

    def test_service_cache_stats_include_backend_caches(self, tmp_path):
        service = RepositoryService(FileBackend(tmp_path / "repo"))
        service.add(minimal_entry())
        service.get("demo-example")
        stats = service.cache_stats()
        assert "decode_memo" in stats
        assert "listing" in stats
        service.close()


class TestBatching:
    def test_add_many_and_get_many(self, service):
        batch = entry_batch(4)
        assert service.add_many(batch) == 4
        results = service.get_many([e.identifier for e in batch])
        assert results == batch

    def test_get_many_serves_from_cache(self, service):
        service.add_many(entry_batch(3))
        # add_many primed the backend's memo with what it stored.
        before = memo_counts(service)
        results = service.get_many(["entry-0", "entry-1", "entry-2"])
        assert results == entry_batch(3)
        after = memo_counts(service)
        if after is not None:
            # All hits.  SQLite keys the memo on the stored payload; the
            # file backend stores the batch as one write group and primes
            # every entry at the counter the group committed at.
            assert after == (before[0] + 3, before[1])

    def test_get_many_mixed_cache_states(self, service):
        service.add_many(entry_batch(3))
        results = service.get_many([
            ("entry-0", None),
            ("entry-1", Version(0, 1)),
            "entry-2",
        ])
        assert [e.identifier for e in results] == \
            ["entry-0", "entry-1", "entry-2"]

    def test_get_many_is_one_atomic_batch(self, service):
        """A bulk read runs under one read lock: a racing multi-entry
        write lands before or after the whole batch, never between two
        halves of it (no torn snapshot)."""
        batch = entry_batch(10)
        service.add_many(batch)
        identifiers = [entry.identifier for entry in batch]
        generations = 40
        writer_done = threading.Event()
        seen: set[str] = set()
        torn: list[list[str]] = []

        def write() -> None:
            try:
                for generation in range(1, generations + 1):
                    with service.write_group():
                        for index in range(len(batch)):
                            service.replace_latest(minimal_entry(
                                title=f"ENTRY {index}",
                                overview=f"Generation {generation}."))
            finally:
                writer_done.set()

        def read() -> None:
            while not writer_done.is_set():
                overviews = [entry.overview
                             for entry in service.get_many(identifiers)]
                seen.update(overviews)
                if len(set(overviews)) != 1:
                    torn.append(overviews)

        reader = threading.Thread(target=read)
        writer = threading.Thread(target=write)
        reader.start()
        writer.start()
        join_all([writer, reader])
        assert torn == []
        final = service.get_many(identifiers)
        assert {entry.overview for entry in final} == \
            {f"Generation {generations}."}
        assert seen  # the reader ran while the writer did

    def test_add_many_is_all_or_nothing_on_sqlite(self):
        """One add_many through the facade is one write: on a
        transactional backend a duplicate anywhere in the batch stores
        nothing."""
        service = RepositoryService(SQLiteBackend())
        entries = entry_batch(20)
        entries[12] = entries[3]  # duplicate inside the batch
        with pytest.raises(DuplicateEntry):
            service.add_many(entries)
        assert service.entry_count() == 0
        service.close()

    def test_versions_many(self, service):
        service.add_many(entry_batch(2))
        service.add_version(minimal_entry(title="ENTRY 0",
                                          version=Version(0, 2)))
        assert service.versions_many(["entry-0", "entry-1"]) == {
            "entry-0": [Version(0, 1), Version(0, 2)],
            "entry-1": [Version(0, 1)],
        }


class TestEvents:
    def test_every_write_kind_emits(self, service):
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        service.add(minimal_entry())
        service.add_version(minimal_entry(version=Version(0, 2)))
        service.replace_latest(
            minimal_entry(version=Version(0, 2), overview="Patched."))
        assert [event.kind for event in seen] == \
            ["add", "add_version", "replace_latest"]
        assert all(event.identifier == "demo-example" for event in seen)
        assert seen[-1].entry.overview == "Patched."

    def test_add_many_emits_per_entry(self, service):
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        service.add_many(entry_batch(3))
        assert [event.kind for event in seen] == ["add"] * 3

    def test_failed_write_emits_nothing(self, service):
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        with pytest.raises(EntryNotFound):
            service.add_version(minimal_entry())
        assert seen == []

    def test_partial_add_many_still_reports_stored_entries(self):
        """A prefix stored by a failing non-transactional bulk load is
        announced, so subscribers (the search index) stay coherent."""
        service = RepositoryService(MemoryBackend())
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        batch = entry_batch(2) + [minimal_entry(title="ENTRY 0")]
        with pytest.raises(DuplicateEntry):
            service.add_many(batch)
        assert service.backend.entry_count() == 2  # the stored prefix
        assert sorted(event.identifier for event in seen) == \
            ["entry-0", "entry-1"]

    def test_unsubscribe(self, service):
        seen: list[RepositoryEvent] = []
        unsubscribe = service.subscribe(seen.append)
        service.add(minimal_entry(title="ENTRY 0"))
        unsubscribe()
        service.add(minimal_entry(title="ENTRY 1"))
        assert len(seen) == 1


WAIT = 10.0  # generous upper bound for anything that should be instant


def wait_until(condition) -> None:
    deadline = time.monotonic() + WAIT
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def hold_write_lock(service, first):
    """Write ``first`` on a thread whose event blocks, so that thread
    holds the write lock until the returned event is set."""
    holding, release = threading.Event(), threading.Event()

    def block(event):
        if event.entry == first and not holding.is_set():
            holding.set()
            release.wait(WAIT)

    service.subscribe(block)
    writer = threading.Thread(target=service.add, args=(first,))
    writer.start()
    assert holding.wait(WAIT)
    return release, writer


def queue_writes(service, calls):
    """Start one thread per call, each only once the previous thread's
    write is queued, so queue order is list order.  Returns the threads
    and a list each fills with ``("ok", result)`` or ``("error", exc)``."""
    outcomes: list = [None] * len(calls)
    threads = []
    for index, call in enumerate(calls):
        def run(index=index, call=call):
            try:
                outcomes[index] = ("ok", call())
            except Exception as error:  # noqa: BLE001 - asserted on
                outcomes[index] = ("error", error)
        thread = threading.Thread(target=run)
        thread.start()
        threads.append(thread)
        wait_until(lambda: len(service._pending) == index + 1)
    return threads, outcomes


def join_all(threads) -> None:
    for thread in threads:
        thread.join(WAIT)
    assert not any(thread.is_alive() for thread in threads), "deadlock"


class TestGroupCommit:
    """Leader/follower group commit: writes queued behind the write
    lock commit together, and each writer gets its own outcome."""

    def test_queued_writers_share_one_transaction(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        service.add(minimal_entry(title="TAKEN"))
        release, leader = hold_write_lock(
            service, minimal_entry(title="FIRST"))
        before = backend.change_counter()
        threads, outcomes = queue_writes(service, [
            lambda: service.add_many(entry_batch(1)),
            lambda: service.add_many(
                [minimal_entry(title=f"PAIR {i}") for i in range(2)]),
            lambda: service.add(minimal_entry(title="TAKEN")),
            lambda: service.add_many(
                [minimal_entry(title=f"TRIO {i}") for i in range(3)]),
        ])
        release.set()
        join_all(threads + [leader])
        assert backend.change_counter() - before == 1  # one commit
        assert outcomes[0] == ("ok", 1)
        assert outcomes[1] == ("ok", 2)
        assert outcomes[2][0] == "error"
        assert isinstance(outcomes[2][1], DuplicateEntry)
        assert outcomes[3] == ("ok", 3)
        assert service.entry_count() == 8  # the duplicate failed alone
        service.close()

    def test_events_fire_once_per_entry_in_queue_order(self):
        service = RepositoryService(MemoryBackend())
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        first = minimal_entry(title="FIRST")
        release, leader = hold_write_lock(service, first)
        threads, _outcomes = queue_writes(service, [
            lambda: service.add(minimal_entry(title="B")),
            lambda: service.add_many(
                [minimal_entry(title="C"), minimal_entry(title="D")]),
            lambda: service.add(minimal_entry(title="E")),
        ])
        release.set()
        join_all(threads + [leader])
        assert [event.identifier for event in seen] == \
            ["first", "b", "c", "d", "e"]
        assert [event.kind for event in seen] == ["add"] * 5

    def test_an_acknowledged_write_is_durable(self, tmp_path):
        path = tmp_path / "repo.db"
        backend = SQLiteBackend(path)
        service = RepositoryService(backend)
        release, leader = hold_write_lock(
            service, minimal_entry(title="FIRST"))
        before = backend.change_counter()

        def add_then_probe(entry):
            service.add(entry)
            # A fresh connection sees only what has committed.
            with sqlite3.connect(path) as fresh:
                row = fresh.execute(
                    "SELECT 1 FROM entries WHERE identifier = ?",
                    (entry.identifier,)).fetchone()
            return row is not None

        threads, outcomes = queue_writes(service, [
            lambda entry=entry: add_then_probe(entry)
            for entry in entry_batch(4)
        ])
        release.set()
        join_all(threads + [leader])
        assert outcomes == [("ok", True)] * 4
        assert backend.change_counter() - before == 1
        service.close()

    def test_each_write_runs_under_its_own_callers_deadline(self):
        """Whichever thread leads, a write runs in its submitter's
        context, so it sees its own caller's ambient deadline."""
        service = RepositoryService(MemoryBackend())
        seen: dict[str, object] = {}
        service.subscribe(lambda event: seen.setdefault(
            event.identifier, current_deadline()))
        release, leader = hold_write_lock(
            service, minimal_entry(title="FIRST"))
        deadlines = [Deadline.after(60), Deadline.after(120)]

        def add_under(deadline, title):
            with deadline_scope(deadline):
                service.add(minimal_entry(title=title))

        threads, outcomes = queue_writes(service, [
            lambda: add_under(deadlines[0], "X"),
            lambda: add_under(deadlines[1], "Y"),
        ])
        release.set()
        join_all(threads + [leader])
        assert outcomes == [("ok", None)] * 2
        assert seen["x"] is deadlines[0]
        assert seen["y"] is deadlines[1]

    def test_a_subscriber_write_applies_only_its_own(self):
        """A write from inside an event callback re-enters the write
        lock: it applies itself and leaves other threads' writes
        queued for their own leader."""
        service = RepositoryService(MemoryBackend())
        first = minimal_entry(title="FIRST")
        nested = minimal_entry(title="NESTED")
        in_callback = threading.Event()
        still_queued: list[int] = []

        def on_event(event):
            if event.entry == first:
                in_callback.set()
                wait_until(lambda: len(service._pending) == 1)
                service.add(nested)
                still_queued.append(len(service._pending))

        service.subscribe(on_event)
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        leader = threading.Thread(target=service.add, args=(first,))
        leader.start()
        assert in_callback.wait(WAIT)
        other = threading.Thread(
            target=service.add, args=(minimal_entry(title="OTHER"),))
        other.start()
        join_all([leader, other])
        assert still_queued == [1]
        assert [event.identifier for event in seen] == \
            ["nested", "first", "other"]

    def test_a_failed_explicit_group_spares_queued_writers(self, tmp_path):
        """An explicit write_group() that raises rolls back its own
        writes only: another thread's write queued meanwhile is neither
        lost nor acknowledged and then rolled back."""
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        with pytest.raises(RuntimeError, match="abort"):
            with service.write_group():
                threads, outcomes = queue_writes(service, [
                    lambda: service.add(minimal_entry(title="QUEUED")),
                ])
                service.add(minimal_entry(title="GHOST"))
                raise RuntimeError("abort the group")
        join_all(threads)
        assert outcomes == [("ok", None)]
        reopened = SQLiteBackend(tmp_path / "repo.db")
        assert reopened.identifiers() == ["queued"]
        reopened.close()
        service.close()

    def test_a_failed_group_commit_fails_every_write_it_took_down(
            self, tmp_path):
        class FailingCommit(SQLiteBackend):
            armed = False

            @contextmanager
            def write_group(self):
                # Every backend write opens a group; only the outermost
                # group armed for the test fails, and the writes that
                # join it commit nothing of their own.
                failing = self.armed and not self._in_own_group()
                with super().write_group():
                    yield self
                    if failing:
                        raise sqlite3.OperationalError("disk I/O error")

        backend = FailingCommit(tmp_path / "repo.db")
        service = RepositoryService(backend)
        service.add(minimal_entry(title="TAKEN"))
        release, leader = hold_write_lock(
            service, minimal_entry(title="FIRST"))
        backend.armed = True  # FIRST is committed; fail the next group
        threads, outcomes = queue_writes(service, [
            lambda: service.add(minimal_entry(title="LOST")),
            lambda: service.add(minimal_entry(title="TAKEN")),
        ])
        release.set()
        join_all(threads + [leader])
        assert isinstance(outcomes[0][1], sqlite3.OperationalError)
        assert isinstance(outcomes[1][1], DuplicateEntry)  # its own error
        assert not service.has("lost")
        service.close()

    def test_stress_every_acknowledged_write_lands_once(self, tmp_path):
        """More writer threads than cores, a tiny switch interval: every
        acknowledged write is stored and announced exactly once, every
        rejected one is not, and contended version bumps lose nothing."""
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        service.add(minimal_entry(title="SHARED"))
        events: list[RepositoryEvent] = []
        service.subscribe(events.append)
        workers, per_worker = 8, 12
        bumps = [0] * workers
        errors: list[BaseException] = []

        def writer(worker):
            def run():
                try:
                    write(worker)
                except BaseException as error:  # noqa: BLE001 - re-raised
                    errors.append(error)
            return run

        def write(worker):
            for index in range(per_worker):
                title = f"W{worker} E{index}"
                if index % 3 == 0:
                    service.add_many([minimal_entry(title=title)])
                else:
                    service.add(minimal_entry(title=title))
                with pytest.raises(DuplicateEntry):
                    service.add(minimal_entry(title="SHARED"))
                latest = service.versions("shared")[-1]
                try:
                    service.add_version(minimal_entry(
                        title="SHARED",
                        version=Version(0, latest.minor + 1)))
                except StorageError:
                    continue  # lost the race for that version
                bumps[worker] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer(worker))
                       for worker in range(workers)]
            for thread in threads:
                thread.start()
            join_all(threads)
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]
        total_bumps = sum(bumps)
        assert service.entry_count() == 1 + workers * per_worker
        assert service.versions("shared") == \
            [Version(0, minor) for minor in range(1, total_bumps + 2)]
        assert len(events) == workers * per_worker + total_bumps
        assert len({(e.identifier, e.entry.version) for e in events}) \
            == len(events)
        service.close()

    def test_one_leader_commits_in_bounded_groups(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        before = backend.change_counter()
        ops = [service.enqueue_write("add", entry)
               for entry in entry_batch(MAX_GROUP_WRITES + 2)]
        assert service.commit_write(ops[-1]) is None
        assert all(op.done and op.error is None for op in ops)
        assert backend.change_counter() - before == 2
        assert service.entry_count() == MAX_GROUP_WRITES + 2
        service.close()

    def test_a_follower_stops_waiting_once_its_write_is_done(self):
        """A follower's wait for the write lock ends as soon as a leader
        has committed its write, even while someone holds the lock."""
        lock = ReadWriteLock()
        holding, release = threading.Event(), threading.Event()

        def hold():
            with lock.write_locked():
                holding.set()
                release.wait(WAIT)

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(WAIT)
        try:
            assert lock.acquire_write(give_up=lambda: True) is False
        finally:
            release.set()
            join_all([holder])
        # A free lock is simply taken: there is nothing to wait out.
        assert lock.acquire_write(give_up=lambda: True) is True
        lock.release_write()

    def test_a_reader_cannot_write_and_leaves_nothing_queued(self):
        service = RepositoryService(MemoryBackend())
        with service._rwlock.read_locked():
            with pytest.raises(RuntimeError):
                service.add(minimal_entry())
        assert not service._pending
        assert not service.has("demo-example")


def commit_all(service, ops) -> list:
    """Commit a window in queue order; each slot holds
    ``("ok", result)`` or ``("error", exc)``."""
    outcomes = []
    for op in ops:
        try:
            outcomes.append(("ok", service.commit_write(op)))
        except Exception as error:  # noqa: BLE001 - asserted on
            outcomes.append(("error", error))
    return outcomes


class TestPipelining:
    """The public pipelining API: one thread queues a window of writes
    with ``enqueue_write`` and then hands each to ``commit_write``."""

    def test_a_window_commits_on_its_first_commit(self, service):
        ops = [service.enqueue_write("add", entry)
               for entry in entry_batch(8)]
        assert not any(op.done for op in ops)
        assert service.commit_write(ops[0]) is None
        # The first commit led the whole queue: every later record is
        # already settled, and committing it returns at once.
        assert all(op.done and op.error is None for op in ops)
        assert commit_all(service, ops[1:]) == [("ok", None)] * 7
        assert service.entry_count() == 8

    def test_a_window_is_one_transaction_on_sqlite(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        before = backend.change_counter()
        ops = [service.enqueue_write("add", entry)
               for entry in entry_batch(32)]
        commit_all(service, ops)
        assert backend.change_counter() - before == 1
        assert service.entry_count() == 32
        service.close()

    def test_each_write_gets_its_own_result(self, service):
        service.add(minimal_entry(title="ENTRY 0"))
        ops = [
            service.enqueue_write("add", minimal_entry(title="SOLO")),
            service.enqueue_write("add_many", [
                minimal_entry(title=f"PAIR {i}") for i in range(2)]),
            service.enqueue_write("add_version", minimal_entry(
                title="ENTRY 0", version=Version(0, 2))),
            service.enqueue_write("replace_latest", minimal_entry(
                title="ENTRY 0", version=Version(0, 2),
                overview="Fixed.")),
        ]
        assert commit_all(service, ops) == \
            [("ok", None), ("ok", 2), ("ok", None), ("ok", None)]
        assert service.get("entry-0").overview == "Fixed."
        assert service.versions("entry-0") == \
            [Version(0, 1), Version(0, 2)]

    def test_a_failing_write_fails_alone_in_its_window(self, service):
        service.add(minimal_entry(title="ENTRY 0"))
        batch = entry_batch(12)[1:]  # ENTRY 1..11
        ops = [service.enqueue_write("add", minimal_entry(title="ENTRY 0"))]
        ops += [service.enqueue_write("add", entry) for entry in batch]
        outcomes = commit_all(service, ops)
        assert outcomes[0][0] == "error"
        assert isinstance(outcomes[0][1], DuplicateEntry)
        assert outcomes[1:] == [("ok", None)] * len(batch)
        assert service.entry_count() == 12  # everyone else landed

    def test_queue_order_is_commit_order(self, service):
        """Dependent writes in one window land in the order they were
        queued: each version builds on the one before it."""
        ops = [service.enqueue_write("add", minimal_entry())]
        ops += [service.enqueue_write(
                    "add_version", minimal_entry(version=Version(0, minor)))
                for minor in range(2, 10)]
        assert all(kind == "ok" for kind, _ in commit_all(service, ops))
        assert service.versions("demo-example") == \
            [Version(0, minor) for minor in range(1, 10)]

    def test_events_fire_per_entry_in_queue_order(self):
        service = RepositoryService(MemoryBackend())
        seen: list[RepositoryEvent] = []
        service.subscribe(seen.append)
        entries = entry_batch(24)
        commit_all(service, [service.enqueue_write("add", entry)
                             for entry in entries])
        assert [event.kind for event in seen] == ["add"] * len(entries)
        assert [event.identifier for event in seen] == \
            [entry.identifier for entry in entries]

    def test_a_committed_write_is_durable(self, tmp_path):
        """commit_write returns only after the group transaction: a
        separate connection to the same file sees every write."""
        path = tmp_path / "repo.db"
        service = RepositoryService(SQLiteBackend(path))
        entries = entry_batch(16)
        ops = [service.enqueue_write("add", entry) for entry in entries]
        probe = SQLiteBackend(path)
        try:
            for op, entry in zip(ops, entries, strict=True):
                service.commit_write(op)
                assert probe.has(entry.identifier)
        finally:
            probe.close()
            service.close()

    def test_add_many_in_a_window_is_all_or_nothing_on_sqlite(self):
        service = RepositoryService(SQLiteBackend())
        batch = entry_batch(6)
        batch[4] = batch[1]  # duplicate inside the batch
        ops = [
            service.enqueue_write("add", minimal_entry(title="BEFORE")),
            service.enqueue_write("add_many", batch),
            service.enqueue_write("add", minimal_entry(title="AFTER")),
        ]
        outcomes = commit_all(service, ops)
        assert outcomes[0] == ("ok", None)
        assert outcomes[1][0] == "error"
        assert isinstance(outcomes[1][1], DuplicateEntry)
        assert outcomes[2] == ("ok", None)
        assert service.identifiers() == ["after", "before"]
        service.close()

    def test_windows_from_many_threads_share_one_commit(self, tmp_path):
        """Four writer threads queue their windows before any of them
        commits: the first committer leads all of them as one group."""
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        workers, window = 4, 16
        queued = threading.Barrier(workers, timeout=WAIT)
        failures: list[BaseException] = []

        def write(worker: int) -> None:
            try:
                ops = [service.enqueue_write("add", minimal_entry(
                           title=f"W{worker} E{index}"))
                       for index in range(window)]
                queued.wait()
                for op in ops:
                    service.commit_write(op)
            except BaseException as error:  # noqa: BLE001 - asserted on
                failures.append(error)

        before = backend.change_counter()
        threads = [threading.Thread(target=write, args=(worker,))
                   for worker in range(workers)]
        for thread in threads:
            thread.start()
        join_all(threads)
        assert failures == []
        assert backend.change_counter() - before == 1
        assert service.entry_count() == workers * window
        service.close()

    def test_a_reader_cannot_commit_and_its_write_is_withdrawn(self):
        service = RepositoryService(MemoryBackend())
        op = service.enqueue_write("add", minimal_entry())
        with service._rwlock.read_locked():
            with pytest.raises(RuntimeError):
                service.commit_write(op)
        assert not service._pending
        assert not op.done
        assert not service.has("demo-example")


class TestThreadedReads:
    """Reads from many threads: the read lock admits them together."""

    def test_readers_are_inside_the_backend_together(self, service):
        service.add_many(entry_batch(4))
        readers = 4
        inside = threading.Barrier(readers, timeout=WAIT)
        original = service.backend.get
        seen_threads: set[int] = set()

        def tracked_get(identifier, version=None):
            # Only passes once all four reads are in here at once.
            seen_threads.add(threading.get_ident())
            inside.wait()
            return original(identifier, version)

        service.backend.get = tracked_get
        try:
            with ThreadPoolExecutor(max_workers=readers) as pool:
                entries = list(pool.map(
                    service.get, [f"entry-{i}" for i in range(readers)]))
        finally:
            service.backend.get = original
        assert [entry.identifier for entry in entries] == \
            [f"entry-{i}" for i in range(readers)]
        assert len(seen_threads) == readers

    def test_a_thread_pool_fan_out_matches_serial_reads(self, service):
        service.add_many(entry_batch(12))
        service.add_version(minimal_entry(title="ENTRY 3",
                                          version=Version(0, 2)))
        identifiers = service.identifiers()
        with ThreadPoolExecutor(max_workers=4) as pool:
            fanned = list(pool.map(service.get, identifiers))
            histories = list(pool.map(service.versions, identifiers))
        assert fanned == [service.get(i) for i in identifiers]
        assert histories == [service.versions(i) for i in identifiers]

    def test_concurrent_queries_match_a_serial_query(self, service):
        service.add_many(entry_batch(6))
        service.add(minimal_entry(title="ZYGOTE",
                                  overview="A distinctive cell."))
        expected = service.query("zygote distinctive", limit=3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda _: service.query("zygote distinctive", limit=3),
                range(8)))
        for result in results:
            assert result.identifiers == expected.identifiers
            assert result.total == expected.total
            assert result.facets == expected.facets


class TestLockFreePointReads:
    """Point reads go to the backend without the facade's read lock."""

    def test_a_point_read_does_not_wait_for_a_parked_write(self, service):
        first = minimal_entry()
        release, writer = hold_write_lock(service, first)
        got: list = []
        reader = threading.Thread(
            target=lambda: got.append(service.get(first.identifier)))
        try:
            reader.start()
            reader.join(WAIT / 5)
            assert got == [first]  # returned while the write is parked
        finally:
            release.set()
            join_all([writer, reader])

    def test_a_scan_racing_a_group_never_hides_its_writes(self, tmp_path):
        """FileBackend rebuilds its listing cache by scanning the tree.
        A point read that scans while a coalesced group renames entries
        in must not leave that cache without one of the group's
        entries: after the group, each is listed and readable."""
        service = RepositoryService(FileBackend(tmp_path / "repo"))
        service.add_many(entry_batch(200))  # a scan takes a while
        foreign = FileBackend(tmp_path / "repo")
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                service.get("entry-0")

        readers = [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for round_ in range(20):
                # A foreign write moves the counter, so the readers
                # rescan while the group below runs.
                foreign.replace_latest(
                    minimal_entry(title="ENTRY 0", overview=f"{round_}."))
                added = [minimal_entry(title=f"ROUND {round_} ENTRY {k}")
                         for k in range(8)]
                with service.write_group():
                    for entry in added:
                        service.add(entry)
                for entry in added:
                    assert service.has(entry.identifier)
                    assert service.get(entry.identifier) == entry
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            join_all(readers)
            service.close()


class TestIncrementalSearch:
    def test_query_sees_later_writes(self, service):
        service.add_many(entry_batch(2))
        assert service.query("demo").hits  # lazily ready, any backend
        service.add(minimal_entry(title="ZYGOMORPH",
                                  overview="A very distinctive flower."))
        hits = service.query("zygomorph").hits
        assert [hit.identifier for hit in hits] == ["zygomorph"]

    def test_search_shim_is_gone(self):
        """The deprecated free-text shim was removed: ``query()`` is
        the one retrieval surface (SearchIndex keeps its own search)."""
        assert not hasattr(RepositoryService, "search")

    def test_updates_are_incremental_not_rebuilds(self, service, monkeypatch):
        service.add_many(entry_batch(2))
        index = service.enable_search()

        def forbidden_build(store):  # pragma: no cover - fails the test
            raise AssertionError("full rebuild after a single write")

        monkeypatch.setattr(index, "build", forbidden_build)
        service.add_version(minimal_entry(title="ENTRY 0",
                                          version=Version(0, 2),
                                          overview="Sharper text."))
        hits = index.search("sharper")
        assert [hit.identifier for hit in hits] == ["entry-0"]
        assert hits[0].entry.version == Version(0, 2)

    def test_replace_latest_reindexes(self, service):
        service.add(minimal_entry(overview="Original ephemeral text."))
        service.enable_search()
        service.replace_latest(minimal_entry(overview="Quixotic rewrite."))
        assert service.query("quixotic").hits
        assert not service.query("ephemeral").hits  # the old text is gone

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_a_second_service_over_the_same_store_finds_its_writes(
            self, kind, tmp_path):
        """The index answering one service's queries rebuilds after a
        write through another service over the same store, including
        when this service has written since."""
        def open_backend():
            if kind == "file":
                return FileBackend(tmp_path / "repo")
            return SQLiteBackend(tmp_path / "repo.db")

        reader, writer = (RepositoryService(open_backend()),
                          RepositoryService(open_backend()))
        reader.add(minimal_entry(overview="Original ephemeral text."))
        assert reader.query("ephemeral").identifiers == ["demo-example"]
        writer.replace_latest(minimal_entry(overview="A zebra."))
        assert reader.query("zebra").identifiers == ["demo-example"]
        assert reader.query("ephemeral").identifiers == []
        writer.add(minimal_entry(title="OTHER", overview="Another zebra."))
        reader.add(minimal_entry(title="THIRD", overview="No stripes."))
        assert reader.query("zebra").identifiers == ["demo-example", "other"]
        writer.close()
        reader.close()

    def test_own_writes_keep_the_index(self, tmp_path):
        """Over a file root, this service's own commits move the stamp
        with the counter: a lone write, a queued group and an explicit
        write_group all leave the same index in place."""
        service = RepositoryService(FileBackend(tmp_path / "repo"))
        service.add(minimal_entry())
        index = service.enable_search()
        service.add(minimal_entry(title="LONE", overview="Solitary."))
        with service.write_group():
            service.add(minimal_entry(title="GROUPED", overview="Herded."))
        release, leader = hold_write_lock(
            service, minimal_entry(title="FIRST"))
        threads, outcomes = queue_writes(service, [
            lambda: service.add(minimal_entry(title="QUEUED 0")),
            lambda: service.add(minimal_entry(title="QUEUED 1")),
        ])
        release.set()
        join_all(threads + [leader])
        assert [outcome[0] for outcome in outcomes] == ["ok", "ok"]
        assert service.query("solitary").identifiers == ["lone"]
        assert service.query("herded").identifiers == ["grouped"]
        assert len(service.query("queued").identifiers) == 2
        assert service.search_index is index
        service.close()

    def test_disable_search_detaches(self, service):
        service.add(minimal_entry())
        index = service.enable_search()
        service.disable_search()
        assert service.search_index is None
        service.add(minimal_entry(title="XENON LAMP", overview="Bright."))
        assert len(index) == 1  # the old index no longer tracks
        assert service.query("xenon").hits  # served fresh regardless

    def test_sync_with_external_index(self, service):
        service.add(minimal_entry())
        index = SearchIndex()
        unsubscribe = index.sync_with(service)
        service.add(minimal_entry(title="XENON LAMP",
                                  overview="Bright."))
        assert len(index) == 2
        unsubscribe()
        service.add(minimal_entry(title="QUARTZ", overview="Clear."))
        assert len(index) == 2  # detached


class TestCurationThroughFacade:
    def test_plain_store_is_wrapped(self):
        backend = MemoryBackend()
        repo = CuratedRepository(backend)
        assert isinstance(repo.store, RepositoryService)
        assert repo.store.backend is backend

    def test_existing_service_is_reused(self):
        service = RepositoryService()
        repo = CuratedRepository(service)
        assert repo.store is service

    def test_curated_writes_reach_attached_search(self):
        service = RepositoryService()
        repo = CuratedRepository(service)
        service.enable_search()
        ann = User("Ann", Role.MEMBER)
        repo.submit(ann, minimal_entry())
        assert repo.query("demo").hits
        rex = User("Rex", Role.REVIEWER)
        repo.approve(rex, "demo-example")
        hits = repo.query("demo").hits
        assert hits[0].entry.version == Version(1, 0)
