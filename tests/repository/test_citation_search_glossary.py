"""Tests for citations (E11), search, and the glossary."""

from __future__ import annotations

import pytest

from repro.core.errors import CitationError
from repro.repository.backends import MemoryBackend
from repro.repository.citation import (
    REPOSITORY_URL,
    archive_manuscript,
    cite_archive,
    cite_entry,
    cite_repository,
    entry_url,
)
from repro.repository.glossary import (
    define,
    glossary_terms,
    known_property_names,
)
from repro.repository.search import SearchIndex, tokenize
from repro.repository.template import EntryType
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry


class TestCiteEntry:
    def test_plain_includes_version_and_url(self):
        entry = minimal_entry()
        citation = cite_entry(entry)
        assert "version 0.1" in citation
        assert entry_url(entry) in citation
        assert "Ann" in citation

    def test_bibtex_shape(self):
        text = cite_entry(minimal_entry(), style="bibtex")
        assert text.startswith("@misc{bx-example-demo-example-0.1,")
        assert "url = {" in text

    def test_version_distinguishes_citations(self):
        old = cite_entry(minimal_entry())
        new = cite_entry(minimal_entry(version=Version(0, 2)))
        assert old != new

    def test_unknown_style(self):
        with pytest.raises(CitationError):
            cite_entry(minimal_entry(), style="chicago")

    def test_no_authors_rejected(self):
        entry = minimal_entry(authors=())
        with pytest.raises(CitationError):
            cite_entry(entry)


class TestRepositoryAndArchive:
    def test_cite_repository_names_the_paper(self):
        citation = cite_repository()
        assert "Towards a Repository of Bx Examples" in citation
        assert REPOSITORY_URL in citation
        assert "87" in citation

    def test_cite_repository_bibtex(self):
        assert "@inproceedings" in cite_repository(style="bibtex")

    def test_archive_manuscript_collects_contributors(self):
        store = MemoryBackend()
        store.add(minimal_entry())
        store.add(minimal_entry(title="OTHER", authors=("Zoe",),
                                reviewers=("Rex",)))
        manuscript = archive_manuscript(store)
        assert manuscript["authors"] == ["Ann", "Zoe"]
        assert manuscript["reviewers"] == ["Rex"]
        assert manuscript["entry_count"] == 2

    def test_cite_archive(self):
        store = MemoryBackend()
        store.add(minimal_entry())
        assert "1 examples" in cite_archive(store)
        assert "@techreport" in cite_archive(store, style="bibtex")


class TestTokenize:
    def test_lowercases_and_drops_stopwords(self):
        assert tokenize("The Composers of the list") == \
            ["composers", "list"]

    def test_numbers_kept(self):
        assert "2014" in tokenize("BX 2014")


class TestSearchIndex:
    @pytest.fixture
    def index(self) -> SearchIndex:
        store = MemoryBackend()
        store.add(minimal_entry(
            title="COMPOSERS", overview="Musical composers and lists.",
            discussion="Undoability is too strong."))
        store.add(minimal_entry(
            title="UML2RDBMS",
            overview="Class diagrams persisted to schemas.",
            types=(EntryType.SKETCH,),
            authors=("Zoe",),
            discussion="The notorious example, in many variants."))
        return SearchIndex().build(store)

    def test_free_text_finds_by_overview(self, index):
        hits = index.search("musical composers")
        assert hits[0].identifier == "composers"

    def test_title_hits_outrank_discussion_hits(self, index):
        hits = index.search("uml2rdbms")
        assert hits and hits[0].identifier == "uml2rdbms"

    def test_no_hits(self, index):
        assert index.search("quantum") == []

    def test_limit(self, index):
        assert len(index.search("example composers schemas", limit=1)) == 1

    def test_by_type(self, index):
        sketches = index.by_type(EntryType.SKETCH)
        assert [e.identifier for e in sketches] == ["uml2rdbms"]

    def test_by_property(self, index):
        assert [e.identifier for e in index.by_property("correct")] == \
            ["composers", "uml2rdbms"]
        assert index.by_property("correct", holds=False) == []

    def test_by_author(self, index):
        assert [e.identifier for e in index.by_author("Zoe")] == \
            ["uml2rdbms"]

    def test_review_status_filters(self, index):
        assert len(index.provisional()) == 2
        assert index.reviewed() == []

    def test_reindexing_replaces(self, index):
        index.add_entry(minimal_entry(
            title="COMPOSERS", overview="Completely different now."))
        hits = index.search("musical")
        assert all(hit.identifier != "composers" for hit in hits)

    def test_remove_entry(self, index):
        index.remove_entry("composers")
        assert len(index) == 1
        assert index.search("composers") == [] or \
            all(h.identifier != "composers"
                for h in index.search("composers"))


class TestGlossary:
    def test_checkable_terms_come_from_registry(self):
        terms = {t.term: t for t in glossary_terms()}
        assert terms["hippocratic"].checkable
        assert "do no harm" in terms["hippocratic"].definition

    def test_plain_terms_present(self):
        terms = {t.term for t in glossary_terms()}
        assert {"bx", "model", "consistency relation",
                "state-based"} <= terms

    def test_known_property_names_for_validation(self):
        names = known_property_names()
        assert "hippocratic" in names
        assert "least change" in names

    def test_define_lookup(self):
        assert define("undoable").checkable
        assert define("least change").term == "least change"
        with pytest.raises(KeyError):
            define("sparkliness")

    def test_display_marks_checkable(self):
        assert "[checkable]" in define("correct").display()
