"""Backend conformance: one shared suite run against every backend.

Every :class:`~repro.repository.backends.StorageBackend` must honour the
same contract — stable identifiers, append-only strictly-increasing
histories, ``replace_latest`` pinned to the stored version, batch
operations consistent with their point equivalents.  The suite is
parametrised over memory, file and sqlite so a new backend only has to
join the fixture list to be held to the contract.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import (
    DuplicateEntry,
    EntryNotFound,
    StorageError,
)
from repro.repository.backends import (
    BACKEND_SCHEMES,
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    create_backend,
)
from repro.repository.client import HTTPBackend
from repro.repository.faults import FaultInjector, FlakyBackend
from repro.repository.server import RepositoryServer
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry

#: "http" is a full wire round-trip: an in-process RepositoryServer
#: over a memory-backed service, spoken to through HTTPBackend — the
#: unchanged conformance suite below holds the whole serving stack to
#: the storage contract.  "flaky" is the fault-injection wrapper with
#: nothing armed: the suite proves the seam is observationally
#: invisible until a fault is scheduled.
ALL_BACKENDS = ["memory", "file", "sqlite", "http", "flaky"]


class ServedBackend(HTTPBackend):
    """An HTTPBackend owning its in-process server: one fixture object
    whose close() tears down client connections, listener and the
    served service alike."""

    def __init__(self, backend: StorageBackend) -> None:
        self.server = RepositoryServer(
            RepositoryService(backend), close_service=True).start()
        super().__init__(self.server.url)

    def close(self) -> None:
        super().close()
        self.server.stop()


def make_backend(kind: str, tmp_path) -> StorageBackend:
    if kind == "memory":
        return MemoryBackend()
    if kind == "file":
        return FileBackend(tmp_path / "repo")
    if kind == "http":
        return ServedBackend(MemoryBackend())
    if kind == "flaky":
        return FlakyBackend(FileBackend(tmp_path / "repo"),
                            FaultInjector(), "conformance")
    return SQLiteBackend(tmp_path / "repo.db")


@pytest.fixture(params=ALL_BACKENDS)
def backend(request, tmp_path):
    built = make_backend(request.param, tmp_path)
    yield built
    built.close()


def entry_batch(count: int, start: int = 0):
    return [minimal_entry(title=f"ENTRY {index}")
            for index in range(start, start + count)]


class TestConformance:
    def test_add_and_get(self, backend):
        entry = minimal_entry()
        backend.add(entry)
        assert backend.get("demo-example") == entry
        assert backend.identifiers() == ["demo-example"]
        assert backend.entry_count() == 1

    def test_direct_existence_check(self, backend):
        assert not backend.has("demo-example")
        backend.add(minimal_entry())
        assert backend.has("demo-example")
        assert not backend.has("nope")

    def test_duplicate_add_rejected(self, backend):
        backend.add(minimal_entry())
        with pytest.raises(DuplicateEntry):
            backend.add(minimal_entry())

    def test_unknown_identifier(self, backend):
        with pytest.raises(EntryNotFound):
            backend.get("nope")
        with pytest.raises(EntryNotFound):
            backend.versions("nope")
        with pytest.raises(EntryNotFound):
            backend.add_version(minimal_entry())

    def test_versioned_retrieval(self, backend):
        backend.add(minimal_entry())
        backend.add_version(minimal_entry(version=Version(0, 2),
                                          overview="Better."))
        assert backend.get("demo-example").overview == "Better."
        assert backend.get("demo-example", Version(0, 1)).overview \
            == "A demo."
        assert backend.versions("demo-example") == \
            [Version(0, 1), Version(0, 2)]
        assert backend.latest_version("demo-example") == Version(0, 2)

    def test_version_ordering_not_lexicographic(self, backend):
        """0.9 < 0.10 — orderings must be numeric in every medium."""
        backend.add(minimal_entry(version=Version(0, 9)))
        backend.add_version(minimal_entry(version=Version(0, 10)))
        assert backend.latest_version("demo-example") == Version(0, 10)
        assert backend.get("demo-example").version == Version(0, 10)

    def test_unknown_version(self, backend):
        backend.add(minimal_entry())
        with pytest.raises(EntryNotFound):
            backend.get("demo-example", Version(0, 9))

    def test_add_version_must_increase(self, backend):
        backend.add(minimal_entry(version=Version(0, 2)))
        with pytest.raises(StorageError):
            backend.add_version(minimal_entry(version=Version(0, 1)))
        with pytest.raises(StorageError):
            backend.add_version(minimal_entry(version=Version(0, 2)))

    def test_replace_latest(self, backend):
        backend.add(minimal_entry())
        backend.replace_latest(minimal_entry(overview="Patched."))
        assert backend.get("demo-example").overview == "Patched."
        assert backend.versions("demo-example") == [Version(0, 1)]

    def test_replace_latest_rejects_version_change(self, backend):
        backend.add(minimal_entry())
        with pytest.raises(StorageError):
            backend.replace_latest(minimal_entry(version=Version(0, 2)))

    def test_replace_latest_unknown_entry(self, backend):
        with pytest.raises(EntryNotFound):
            backend.replace_latest(minimal_entry())

    def test_add_many_matches_point_adds(self, backend):
        batch = entry_batch(5)
        assert backend.add_many(batch) == 5
        assert backend.entry_count() == 5
        for entry in batch:
            assert backend.get(entry.identifier) == entry

    def test_add_many_rejects_existing_identifier(self, backend):
        backend.add(minimal_entry(title="ENTRY 1"))
        with pytest.raises(DuplicateEntry):
            backend.add_many(entry_batch(3))  # ENTRY 0..2 collides

    def test_get_many_mixed_requests(self, backend):
        backend.add_many(entry_batch(3))
        backend.add_version(minimal_entry(title="ENTRY 1",
                                          version=Version(0, 2)))
        results = backend.get_many([
            "entry-0",
            ("entry-1", Version(0, 1)),
            ("entry-1", None),
            "entry-2",
        ])
        assert [e.identifier for e in results] == \
            ["entry-0", "entry-1", "entry-1", "entry-2"]
        assert results[1].version == Version(0, 1)
        assert results[2].version == Version(0, 2)

    def test_get_many_unknown_raises(self, backend):
        with pytest.raises(EntryNotFound):
            backend.get_many(["nope"])

    def test_versions_many(self, backend):
        backend.add_many(entry_batch(2))
        backend.add_version(minimal_entry(title="ENTRY 0",
                                          version=Version(0, 2)))
        assert backend.versions_many(["entry-0", "entry-1"]) == {
            "entry-0": [Version(0, 1), Version(0, 2)],
            "entry-1": [Version(0, 1)],
        }

    def test_context_manager(self, tmp_path, request):
        with make_backend("sqlite", tmp_path) as backend:
            backend.add(minimal_entry())
            assert backend.has("demo-example")


class TestSQLiteSpecifics:
    def test_reopen_preserves_contents(self, tmp_path):
        with SQLiteBackend(tmp_path / "repo.db") as backend:
            backend.add(minimal_entry())
            backend.add_version(minimal_entry(version=Version(0, 2)))
        with SQLiteBackend(tmp_path / "repo.db") as reopened:
            assert reopened.versions("demo-example") == \
                [Version(0, 1), Version(0, 2)]
            assert reopened.get("demo-example").version == Version(0, 2)

    def test_add_many_is_transactional(self, tmp_path):
        """A failing bulk load stores nothing (all-or-nothing)."""
        with SQLiteBackend(tmp_path / "repo.db") as backend:
            batch = entry_batch(3) + [minimal_entry(title="ENTRY 0")]
            with pytest.raises(DuplicateEntry):
                backend.add_many(batch)
            assert backend.entry_count() == 0
            assert backend.identifiers() == []

    def test_in_memory_default(self):
        backend = SQLiteBackend()
        backend.add(minimal_entry())
        assert backend.has("demo-example")
        backend.close()


class TestFileCrashSafety:
    """A crashed writer leaves fragments every read path must ignore."""

    def test_partial_temp_file_ignored(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        entry_dir = tmp_path / "repo" / "entries" / "demo-example"
        (entry_dir / "0.2.json.tmp").write_text('{"title": "TRUNCAT')
        assert backend.versions("demo-example") == [Version(0, 1)]
        assert backend.get("demo-example").version == Version(0, 1)
        # ...and the next committed write succeeds over the debris.
        backend.add_version(minimal_entry(version=Version(0, 2)))
        assert backend.latest_version("demo-example") == Version(0, 2)

    def test_empty_entry_dir_is_not_an_entry(self, tmp_path):
        """mkdir happened, the snapshot rename did not."""
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        (tmp_path / "repo" / "entries" / "ghost").mkdir()
        assert backend.identifiers() == ["demo-example"]
        assert not backend.has("ghost")
        with pytest.raises(EntryNotFound):
            backend.get("ghost")

    def test_add_recovers_over_empty_dir(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        (tmp_path / "repo" / "entries" / "demo-example").mkdir()
        backend.add(minimal_entry())  # not a duplicate: nothing committed
        assert backend.get("demo-example").title == "DEMO EXAMPLE"

    def test_reopen_after_crash_fragments(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        entries = tmp_path / "repo" / "entries"
        (entries / "demo-example" / "0.2.json.tmp").write_text("{")
        (entries / "ghost").mkdir()
        reopened = FileBackend(tmp_path / "repo")
        assert reopened.identifiers() == ["demo-example"]
        assert reopened.get("demo-example").version == Version(0, 1)


class TestFileListingCache:
    """identifiers()/has()/versions() stop scanning the tree per call:
    one scan per change-counter value, maintained incrementally by this
    backend's own writes, invalidated by anyone else's counter bump."""

    def scans(self, backend) -> int:
        return backend.cache_stats()["listing"]["scans"]

    def test_repeated_reads_cost_one_scan(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add_many(entry_batch(5))
        baseline = self.scans(backend)
        for _round in range(10):
            assert backend.identifiers() == [f"entry-{i}"
                                             for i in range(5)]
            assert backend.has("entry-3")
            assert not backend.has("nope")
            assert backend.versions("entry-0") == [Version(0, 1)]
        assert self.scans(backend) <= baseline + 1

    def test_own_writes_update_without_rescan(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        backend.identifiers()  # make the cache current
        baseline = self.scans(backend)
        backend.add(minimal_entry(title="SECOND"))
        backend.add_version(minimal_entry(title="SECOND",
                                          version=Version(0, 2)))
        assert backend.identifiers() == ["demo-example", "second"]
        assert backend.versions("second") == [Version(0, 1),
                                              Version(0, 2)]
        assert self.scans(backend) == baseline  # incremental, no rescan

    def test_foreign_writer_triggers_exactly_one_rescan(self, tmp_path):
        ours = FileBackend(tmp_path / "repo")
        ours.add(minimal_entry())
        assert ours.identifiers() == ["demo-example"]
        theirs = FileBackend(tmp_path / "repo")
        theirs.add(minimal_entry(title="FOREIGN"))
        baseline = self.scans(ours)
        assert ours.identifiers() == ["demo-example", "foreign"]
        assert ours.has("foreign")
        assert ours.identifiers() == ["demo-example", "foreign"]
        assert self.scans(ours) == baseline + 1

    def test_crash_debris_still_invisible(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        entries = tmp_path / "repo" / "entries"
        (entries / "ghost").mkdir()
        (entries / "demo-example" / "0.2.json.tmp").write_text("{")
        fresh = FileBackend(tmp_path / "repo")  # scans over the debris
        assert fresh.identifiers() == ["demo-example"]
        assert not fresh.has("ghost")
        assert fresh.versions("demo-example") == [Version(0, 1)]


class TestCompatibilityShim:
    def test_create_backend_schemes(self, tmp_path):
        assert set(BACKEND_SCHEMES) == {"memory", "file", "sqlite"}
        assert isinstance(create_backend("memory"), MemoryBackend)
        assert isinstance(create_backend("file", tmp_path / "r"),
                          FileBackend)
        sqlite_backend = create_backend("sqlite", tmp_path / "r.db")
        assert isinstance(sqlite_backend, SQLiteBackend)
        sqlite_backend.close()

    def test_create_backend_rejects_unknown(self):
        with pytest.raises(StorageError, match="unknown storage backend"):
            create_backend("cloud")

    def test_create_backend_requires_path(self):
        with pytest.raises(StorageError, match="needs a path"):
            create_backend("sqlite")

    def test_file_layout_unchanged(self, tmp_path):
        """The on-disk format is the seed's: entries/<id>/<version>.json."""
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry())
        path = tmp_path / "repo" / "entries" / "demo-example" / "0.1.json"
        assert path.is_file()
        assert json.loads(path.read_text())["title"] == "DEMO EXAMPLE"
