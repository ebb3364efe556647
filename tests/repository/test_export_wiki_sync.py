"""E2 rendering and E12 wiki-sync tests (export + wiki_sync)."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.errors import WikiSyncError
from repro.core.laws import CheckConfig, check_lens_laws
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
)
from repro.repository.entry import Comment, PropertyClaim
from repro.repository.export import (
    render_glossary_wikidot,
    render_markdown,
    render_repository_markdown,
    render_wikidot,
)
from repro.repository.query import Q
from repro.repository.service import RepositoryService
from repro.repository.template import TEMPLATE
from repro.repository.versioning import Version
from repro.repository.wiki_sync import (
    WikiSyncLens,
    _random_entry,
    entry_space,
    normalise_entry,
    parse_wikidot,
    render_wiki_pages,
    wikidot_space,
)
from tests.repository.test_entry import minimal_entry


class TestRenderWikidot:
    def test_all_template_sections_present(self):
        page = render_wikidot(minimal_entry())
        for spec in TEMPLATE:
            if spec.name in ("Title", "Version", "Type"):
                continue
            assert f"++ {spec.name}" in page, spec.name

    def test_title_and_metadata(self):
        page = render_wikidot(minimal_entry())
        assert page.startswith("+ DEMO EXAMPLE")
        assert "||~ Version || 0.1 ||" in page
        assert "||~ Type || PRECISE ||" in page

    def test_empty_sections_render_none_yet(self):
        """The paper's own §4 instance writes 'None yet'."""
        page = render_wikidot(minimal_entry())
        assert page.count("None yet") >= 3  # reviewers, comments, ...

    def test_negative_property_renders_not(self):
        entry = minimal_entry(properties=(
            PropertyClaim("undoable", holds=False),))
        assert "* Not undoable" in render_wikidot(entry)


class TestRenderMarkdown:
    def test_headings(self):
        text = render_markdown(minimal_entry())
        assert text.startswith("# DEMO EXAMPLE")
        assert "## Consistency Restoration" in text
        assert "### Forward" in text

    def test_glossary_page(self):
        page = render_glossary_wikidot()
        assert "+ Glossary of Bx Terms" in page
        assert "++ hippocratic" in page


class TestParseWikidot:
    def test_parse_inverts_render(self):
        entry = normalise_entry(minimal_entry())
        fields = parse_wikidot(render_wikidot(entry))
        assert fields["title"] == entry.title
        assert fields["version"] == entry.version
        assert fields["models"] == entry.models
        assert fields["restoration"] == entry.restoration

    def test_requires_title(self):
        with pytest.raises(WikiSyncError, match="TITLE"):
            parse_wikidot("++ Overview\nwords\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(WikiSyncError, match="unknown section"):
            parse_wikidot("+ T\n++ Mystery\nwords\n")

    def test_unterminated_code_block(self):
        with pytest.raises(WikiSyncError, match="unterminated"):
            parse_wikidot("+ T\n++ Models\n+++ M\n[[code]]\nx\n")

    def test_bad_comment_bullet(self):
        with pytest.raises(WikiSyncError, match="comment"):
            parse_wikidot("+ T\n++ Comments\n* not the format\n")

    def test_partial_page_yields_partial_fields(self):
        fields = parse_wikidot("+ T\n++ Overview\nJust this.\n")
        assert fields == {"title": "T", "overview": "Just this."}


class TestWikiSyncLens:
    def test_round_trip_many_random_entries(self):
        rng = random.Random(99)
        lens = WikiSyncLens()
        for _ in range(150):
            entry = _random_entry(rng)
            assert lens.put(lens.get(entry), entry) == entry

    def test_lens_laws(self):
        report = check_lens_laws(
            WikiSyncLens(),
            config=CheckConfig(trials=60, seed=3, shrink=False))
        assert report.all_passed, report.summary()

    def test_put_merges_deleted_sections_from_old_entry(self):
        """A wiki edit that drops a section must not destroy curated
        content: the put restores it from the structured copy."""
        lens = WikiSyncLens()
        entry = normalise_entry(minimal_entry(
            comments=(Comment("Bob", "2014-03-28", "Keep me."),)))
        page = lens.get(entry)
        # Simulate a careless edit removing everything after Discussion.
        truncated = page.split("++ Discussion")[0]
        merged = lens.put(truncated, entry)
        assert merged.comments == entry.comments
        assert merged.authors == entry.authors
        assert merged.discussion == entry.discussion

    def test_put_applies_page_edits(self):
        lens = WikiSyncLens()
        entry = normalise_entry(minimal_entry())
        page = lens.get(entry).replace("A demo.", "An edited demo.")
        merged = lens.put(page, entry)
        assert merged.overview == "An edited demo."

    def test_create_fills_defaults(self):
        lens = WikiSyncLens()
        created = lens.create("+ FRESH\n++ Overview\nBrand new.\n")
        assert created.title == "FRESH"
        assert created.overview == "Brand new."
        assert created.version == Version(0, 1)
        assert created.authors  # placeholder author present


class TestNormalisation:
    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            entry = _random_entry(rng)
            assert normalise_entry(entry) == entry

    def test_collapses_whitespace(self):
        entry = minimal_entry(overview="Too   many\nspaces.")
        assert normalise_entry(entry).overview == "Too many spaces."

    def test_spaces_sample_their_own_members(self, rng):
        space = entry_space()
        sample = space.sample(rng)
        assert space.contains(sample)
        pages = wikidot_space()
        page = pages.sample(rng)
        assert pages.contains(page)
        assert not pages.contains("not a page at all")


def open_backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "file":
        return FileBackend(tmp_path / "repo")
    return SQLiteBackend(tmp_path / "repo.db")


def entry_batch(count: int):
    return [minimal_entry(title=f"ENTRY {index}",
                          overview=f"Unique token tok{index}.")
            for index in range(count)]


#: One write of each kind, and the identifier it touches.
WRITES = {
    "add": (lambda service: service.add(
        minimal_entry(title="LATECOMER")), "latecomer"),
    "add_version": (lambda service: service.add_version(
        minimal_entry(title="ENTRY 1", version=Version(0, 2),
                      overview="Sharper.")), "entry-1"),
    "replace_latest": (lambda service: service.replace_latest(
        minimal_entry(title="ENTRY 2", overview="Quixotic.")), "entry-2"),
}


class TestCollectionRendering:
    """``render_wiki_pages`` and ``render_repository_markdown`` render
    the stored snapshots they select, on every call."""

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_pages_show_a_write_through_a_second_service(
            self, kind, tmp_path):
        a = RepositoryService(open_backend(kind, tmp_path))
        b = RepositoryService(open_backend(kind, tmp_path))
        a.add_many([minimal_entry(title=f"ENTRY {index}")
                    for index in range(3)])
        assert "Sneaked." not in render_wiki_pages(a)["entry-0"]
        b.replace_latest(minimal_entry(title="ENTRY 0",
                                       overview="Sneaked."))
        pages = render_wiki_pages(a)
        assert "Sneaked." in pages["entry-0"]
        assert pages == {entry.identifier: render_wikidot(entry)
                         for entry in b.get_many(b.identifiers())}
        assert "Sneaked." in render_repository_markdown(a)
        a.close()
        b.close()

    def test_an_unfiltered_render_runs_no_query(self, tmp_path,
                                                monkeypatch):
        service = RepositoryService(SQLiteBackend(tmp_path / "repo.db"))
        service.add_many([minimal_entry(title=f"ENTRY {index}")
                          for index in range(3)])

        def no_query(*args, **kwargs):
            raise AssertionError("an unfiltered render ran a query")

        monkeypatch.setattr(service, "execute_query", no_query)
        monkeypatch.setattr(service.backend, "execute_query", no_query)
        entries = service.get_many(service.identifiers())
        assert render_wiki_pages(service) == {
            entry.identifier: render_wikidot(entry) for entry in entries}
        document = render_repository_markdown(service)
        assert all(render_markdown(entry).rstrip() in document
                   for entry in entries)
        service.close()

    @pytest.mark.parametrize("write", sorted(WRITES))
    @pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
    def test_a_write_changes_exactly_its_own_page(self, kind, write,
                                                  tmp_path):
        service = RepositoryService(open_backend(kind, tmp_path))
        service.add_many(entry_batch(3))
        before = render_wiki_pages(service)
        document_before = render_repository_markdown(service)
        apply_write, identifier = WRITES[write]
        apply_write(service)
        after = render_wiki_pages(service)
        assert set(before) <= set(after)
        assert {name for name, page in after.items()
                if before.get(name) != page} == {identifier}
        entry = service.get(identifier)
        assert after[identifier] == render_wikidot(entry)
        document = render_repository_markdown(service)
        assert document != document_before
        assert render_markdown(entry).rstrip() in document
        service.close()

    @pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
    def test_both_renderers_select_the_same_slice(self, kind, tmp_path):
        service = RepositoryService(open_backend(kind, tmp_path))
        service.add_many(entry_batch(3))
        query = Q.text("tok1")
        pages = render_wiki_pages(service, query)
        assert pages == {"entry-1": render_wikidot(service.get("entry-1"))}
        document = render_repository_markdown(service, query=query)
        assert "ENTRY 1" in document
        assert "ENTRY 0" not in document and "ENTRY 2" not in document
        service.close()

    def test_neither_renderer_takes_a_cache(self):
        service = RepositoryService(MemoryBackend())
        service.add_many(entry_batch(1))
        with pytest.raises(TypeError, match="cache"):
            render_wiki_pages(service, cache=None)
        with pytest.raises(TypeError, match="cache"):
            render_repository_markdown(service, cache=None)
