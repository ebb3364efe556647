"""The RepositoryService facade: read coherence, batching, events,
incremental search — over every backend."""

from __future__ import annotations

import pytest

from repro.core.errors import DuplicateEntry, EntryNotFound
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
)
from repro.repository.curation import CuratedRepository, Role, User
from repro.repository.search import SearchIndex
from repro.repository.service import RepositoryEvent, RepositoryService
from repro.repository.store import RepositoryStore
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
    def test_is_a_repository_store(self):
        assert issubclass(RepositoryService, RepositoryStore)

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


class TestChangeToken:
    """The wire validator: never None on a service, moves per write."""

    def test_every_backend_has_a_token_through_the_facade(self, service):
        token = service.change_token()
        assert isinstance(token, str) and token

    def test_token_moves_on_every_write_kind(self, service):
        seen = {service.change_token()}
        service.add(minimal_entry())
        seen.add(service.change_token())
        service.add_version(minimal_entry(version=Version(0, 2)))
        seen.add(service.change_token())
        service.replace_latest(
            minimal_entry(version=Version(0, 2), overview="Patched."))
        seen.add(service.change_token())
        assert len(seen) == 4  # all distinct

    def test_token_stable_across_reads(self, service):
        service.add(minimal_entry())
        token = service.change_token()
        service.get("demo-example")
        service.identifiers()
        assert service.change_token() == token

    def test_durable_counter_wins_when_available(self, service):
        """Backends with a persisted counter expose it as ``c<n>`` —
        so a foreign process's writes are visible in the token; the
        epoch+sequence overlay only covers counterless backends."""
        service.add(minimal_entry())
        counter = service.change_counter()
        token = service.change_token()
        if counter is not None:
            assert token == f"c{counter}"
        else:
            assert token.startswith("e")

    def test_invalidate_moves_the_overlay_token(self):
        service = RepositoryService(MemoryBackend())
        token = service.change_token()
        service.invalidate()
        assert service.change_token() != token


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
        if isinstance(service.backend, SQLiteBackend):
            # Keyed on the stored payload: a later write never orphans
            # an earlier prime, so this is all hits.
            assert after == (before[0] + 3, before[1])
        elif after is not None:
            # Keyed on the change counter: only the last add's prime is
            # at the current counter; the file backend adds one by one.
            assert after == (before[0] + 1, before[1] + 2)

    def test_get_many_mixed_cache_states(self, service):
        service.add_many(entry_batch(3))
        results = service.get_many([
            ("entry-0", None),
            ("entry-1", Version(0, 1)),
            "entry-2",
        ])
        assert [e.identifier for e in results] == \
            ["entry-0", "entry-1", "entry-2"]

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
