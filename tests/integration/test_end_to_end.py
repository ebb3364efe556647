"""End-to-end lifecycle: populate, curate, sync to the wiki, search,
cite — the repository used the way the paper imagines it."""

from __future__ import annotations

import pytest

from repro.catalogue import builtin_catalogue, populate_store
from repro.repository.backends import FileBackend
from repro.repository.citation import cite_entry
from repro.repository.curation import CuratedRepository, Role, User
from repro.repository.search import SearchIndex
from repro.repository.template import EntryType
from repro.repository.versioning import Version
from repro.repository.wiki_sync import WikiSyncLens, normalise_entry


@pytest.fixture
def repo(tmp_path) -> CuratedRepository:
    store = FileBackend(tmp_path / "bx-repo")
    populate_store(store)
    return CuratedRepository(store)


class TestLifecycle:
    def test_full_curation_cycle(self, repo):
        """Comment -> revise -> approve, with history intact."""
        bob = User("Bob", Role.MEMBER)
        rex = User("Rex", Role.REVIEWER)
        cleo = User("Cleo", Role.CURATOR)

        repo.comment(bob, "composers", "2014-03-28",
                     "Clarify duplicate handling?")
        current = repo.get("composers")
        assert current.comments[-1].author == "Bob"

        revised = current.with_version(Version(0, 2))
        repo.revise(cleo, revised)
        approved = repo.approve(rex, "composers")

        assert approved.version == Version(1, 0)
        assert repo.review_status("composers") == "reviewed"
        # The full lineage is still addressable (E11):
        assert repo.store.versions("composers") == [
            Version(0, 1), Version(0, 2), Version(1, 0)]
        original = repo.get("composers", Version(0, 1))
        assert original.reviewers == ()

    def test_citations_pin_versions(self, repo):
        rex = User("Rex", Role.REVIEWER)
        before = cite_entry(repo.get("composers"))
        repo.approve(rex, "composers")
        after = cite_entry(repo.get("composers"))
        assert before != after
        assert "version 0.1" in before
        assert "version 1.0" in after

    def test_search_over_populated_store(self, repo):
        index = SearchIndex().build(repo.store)
        hits = index.search("composers nationality")
        assert hits[0].identifier in {"composers", "composers-string"}
        sketches = index.by_type(EntryType.SKETCH)
        assert [e.identifier for e in sketches] == ["model-code-sync"]
        not_undoable = index.by_property("undoable", holds=False)
        assert {e.identifier for e in not_undoable} >= {
            "composers", "uml2rdbms"}

    def test_wiki_round_trip_for_every_entry(self, repo):
        """E12 over the whole repository: every stored entry survives
        rendering to wikidot and parsing back."""
        lens = WikiSyncLens()
        for identifier in repo.identifiers():
            entry = normalise_entry(repo.get(identifier))
            page = lens.get(entry)
            assert lens.put(page, entry) == entry, identifier

    def test_wiki_edit_then_sync_updates_store(self, repo):
        """The §5.4 workflow: edit the wiki page, put back, persist."""
        lens = WikiSyncLens()
        entry = normalise_entry(repo.get("dirtree"))
        page = lens.get(entry).replace(
            "A directory tree and its sorted path listing.",
            "A file tree and its sorted path listing.")
        merged = lens.put(page, entry)
        repo.store.replace_latest(merged.with_version(entry.version))
        assert "file tree" in repo.get("dirtree").overview

    def test_store_survives_reopen(self, repo, tmp_path):
        reopened = FileBackend(tmp_path / "bx-repo")
        assert reopened.identifiers() == repo.store.identifiers()
        assert reopened.get("composers").title == "COMPOSERS"


class TestCatalogueEntryPages:
    def test_markdown_rendering_of_all_entries(self, repo):
        from repro.repository.export import render_markdown
        for example in builtin_catalogue():
            text = render_markdown(example.entry())
            assert text.startswith(f"# {example.entry().title}")
