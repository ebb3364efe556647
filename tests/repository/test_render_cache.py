"""The event-driven render cache: exact invalidation and byte-identical
output through the cached consumers."""

from __future__ import annotations

import pytest

from repro.core.errors import StorageError, WikiSyncError
from repro.repository.backends import FileBackend, MemoryBackend, SQLiteBackend
from repro.repository.export import (
    render_markdown,
    render_repository_markdown,
    render_wikidot,
)
from repro.repository.query import Q
from repro.repository.render_cache import RenderCache
from repro.repository.service import RepositoryService
from repro.repository.versioning import Version
from repro.repository.wiki_sync import render_wiki_pages
from tests.repository.test_entry import minimal_entry


def entry_batch(count: int):
    return [minimal_entry(title=f"ENTRY {index}",
                          overview=f"Unique token tok{index}.")
            for index in range(count)]


@pytest.fixture()
def service():
    built = RepositoryService(MemoryBackend())
    built.add_many(entry_batch(3))
    return built


class TestRendering:
    def test_pages_match_the_uncached_renderer(self, service):
        cache = RenderCache(service)
        assert render_wiki_pages(service, cache=cache) == \
            render_wiki_pages(service)
        assert render_repository_markdown(service, cache=cache) == \
            render_repository_markdown(service)

    def test_query_slices_match(self, service):
        cache = RenderCache(service)
        query = Q.text("tok1")
        assert render_wiki_pages(service, query, cache=cache) == \
            render_wiki_pages(service, query)
        assert render_repository_markdown(service, query=query,
                                          cache=cache) == \
            render_repository_markdown(service, query=query)

    def test_single_page_accessors(self, service):
        cache = RenderCache(service)
        entry = service.get("entry-1")
        assert cache.wiki_page("entry-1") == render_wikidot(entry)
        assert cache.markdown_fragment("entry-1") == \
            render_markdown(entry)

    def test_cache_bound_to_another_store_is_rejected(self, service):
        other = RepositoryService(MemoryBackend())
        cache = RenderCache(other)
        with pytest.raises(WikiSyncError, match="different store"):
            render_wiki_pages(service, cache=cache)
        with pytest.raises(StorageError, match="different store"):
            render_repository_markdown(service, cache=cache)


class TestInvalidation:
    """Events must evict exactly the touched identifier's pages."""

    def fill(self, service):
        cache = RenderCache(service)
        cache.wiki_pages()
        cache.markdown_fragments()
        return cache

    def assert_only_rerenders(self, service, cache, identifier,
                              monkeypatch):
        """A warm pass may render ``identifier`` and nothing else."""
        from repro.repository import render_cache as module
        original = module.render_wikidot

        def guarded(entry):
            assert entry.identifier == identifier, \
                f"untouched {entry.identifier!r} was re-rendered"
            return original(entry)

        monkeypatch.setattr(module, "render_wikidot", guarded)
        before = cache.cache_stats()["misses"]
        pages = cache.wiki_pages()
        assert cache.cache_stats()["misses"] == before + 1
        assert pages == render_wiki_pages(service)

    def test_add_evicts_only_the_new_identifier(self, service,
                                                monkeypatch):
        cache = self.fill(service)
        service.add(minimal_entry(title="LATECOMER"))
        self.assert_only_rerenders(service, cache, "latecomer",
                                   monkeypatch)

    def test_add_version_evicts_only_the_touched_identifier(
            self, service, monkeypatch):
        cache = self.fill(service)
        service.add_version(minimal_entry(title="ENTRY 1",
                                          version=Version(0, 2),
                                          overview="Sharper."))
        self.assert_only_rerenders(service, cache, "entry-1",
                                   monkeypatch)
        assert "Sharper." in cache.wiki_page("entry-1")

    def test_replace_latest_evicts_only_the_touched_identifier(
            self, service, monkeypatch):
        cache = self.fill(service)
        service.replace_latest(minimal_entry(title="ENTRY 2",
                                             overview="Quixotic."))
        self.assert_only_rerenders(service, cache, "entry-2",
                                   monkeypatch)
        assert "Quixotic." in cache.wiki_page("entry-2")

    def test_markdown_side_is_evicted_too(self, service):
        cache = self.fill(service)
        service.replace_latest(minimal_entry(title="ENTRY 0",
                                             overview="Rewritten."))
        assert "Rewritten." in cache.markdown_fragment("entry-0")
        document = render_repository_markdown(service, cache=cache)
        assert document == render_repository_markdown(service)

    def test_write_racing_a_query_render_is_not_cached_stale(
            self, service):
        """A write landing between the query fetch and the store must
        win: the stale render is dropped, not cached as fresh."""
        cache = RenderCache(service)

        class RacingService:
            """The cache's store, with a write sneaking in after the
            query snapshot is taken but before the render is stored."""

            def __getattr__(self, name):
                return getattr(service, name)

            def execute_query(self, plan, stats=None):
                result = service.execute_query(plan, stats)
                service.replace_latest(
                    minimal_entry(title="ENTRY 1",
                                  overview="Racing rewrite."))
                return result  # carries the pre-write snapshot

        cache.service = RacingService()
        stale_pages = cache.wiki_pages(Q.text("tok1"))
        assert "Racing rewrite." not in stale_pages["entry-1"]  # raced
        cache.service = service
        # The stale render must not have been cached: a fresh call
        # re-renders and sees the write.
        assert "Racing rewrite." in cache.wiki_page("entry-1")

    def test_detached_cache_stops_tracking(self, service):
        cache = self.fill(service)
        cache.close()  # unsubscribes
        service.replace_latest(minimal_entry(title="ENTRY 0",
                                             overview="Unseen."))
        assert "Unseen." not in cache.wiki_page("entry-0")  # stale by design


class TestColdStart:
    """Pages never outlive their cache: a new cache over a reopened
    store renders what the backend holds, a write behind its back
    included."""

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_new_cache_renders_a_foreign_write(self, kind, tmp_path):
        def open_backend():
            if kind == "file":
                return FileBackend(tmp_path / "repo")
            return SQLiteBackend(tmp_path / "repo.db")

        first = RepositoryService(open_backend())
        first.add_many(entry_batch(3))
        cache = RenderCache(first)
        cache.wiki_pages()
        cache.close()
        first.close()

        behind = open_backend()
        behind.replace_latest(minimal_entry(title="ENTRY 0",
                                            overview="Sneaked."))
        behind.close()

        second = RepositoryService(open_backend())
        fresh = RenderCache(second)
        assert fresh.cache_stats()["wiki_pages"] == 0
        assert "Sneaked." in fresh.wiki_page("entry-0")
        assert fresh.wiki_pages() == {
            entry.identifier: render_wikidot(entry)
            for entry in second.get_many(second.identifiers())}
        second.close()


class TestInstrumentation:
    def test_hit_miss_invalidation_counters(self, service):
        cache = RenderCache(service)
        cache.wiki_pages()  # 3 misses
        cache.wiki_pages()  # 3 hits
        service.replace_latest(minimal_entry(title="ENTRY 0",
                                             overview="Patched."))
        cache.wiki_pages()  # 2 hits + 1 miss
        stats = cache.cache_stats()
        assert stats["misses"] == 4
        assert stats["hits"] == 5
        assert stats["invalidations"] == 1
        assert stats["wiki_pages"] == 3

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
