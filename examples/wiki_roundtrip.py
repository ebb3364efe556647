#!/usr/bin/env python3
"""§5.4 dogfooding: wiki page and local copy kept consistent by a bx.

Run with::

    python examples/wiki_roundtrip.py

Simulates the situation the paper describes: the repository keeps a
structured local copy (JSON in a FileBackend) while the public face is a
wikidot page.  A community member edits the *page*; the wiki-sync lens
puts the edit back into the structured copy — and restores a section the
careless editor deleted.  Collection-scale rendering goes through the
event-driven render cache: after the edit, exactly one page re-renders.
"""

from __future__ import annotations

import tempfile

from repro.catalogue import populate_store
from repro.repository.backends import FileBackend
from repro.repository.render_cache import RenderCache
from repro.repository.service import RepositoryService
from repro.repository.wiki_sync import (
    WikiSyncLens,
    apply_wiki_edit,
    normalise_entry,
    render_wiki_pages,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        store = RepositoryService(FileBackend(root))
        populate_store(store)
        lens = WikiSyncLens()

        # The whole collection rendered once, through the render cache
        # (later calls re-render only what was written in between).
        cache = RenderCache(store)
        pages = render_wiki_pages(store, cache=cache)
        print(f"rendered {len(pages)} wiki pages (cold)")

        # The local structured copy and its rendered wiki page.
        entry = normalise_entry(store.get("roman-numerals"))
        page = lens.get(entry)
        print("--- the wiki page (first lines) ---")
        print("\n".join(page.splitlines()[:10]))

        # A wiki member edits the overview... and deletes the whole
        # References-to-Artefacts tail by accident.
        edited = page.replace(
            "A pure bijection: integers 1..3999",
            "A pure bijection: whole numbers 1..3999")
        edited = edited.split("++ Authors")[0]
        print("\nedited page: overview reworded; sections below "
              "Discussion lost")

        # apply_wiki_edit puts the page back through the facade: the
        # edit lands, the lost sections come back from the structured
        # copy, and the stored latest snapshot is replaced in one step.
        merged = apply_wiki_edit(store, "roman-numerals", edited)
        print("\n--- after synchronisation ---")
        print("overview:", merged.overview)
        print("authors restored:", merged.authors)
        print("artefacts restored:",
              [artefact.name for artefact in merged.artefacts])
        print("stored overview now:",
              store.get("roman-numerals").overview)

        # The replace_latest event evicted exactly the edited entry:
        # a warm collection render re-renders one page, serves the rest.
        before = cache.cache_stats()
        pages = render_wiki_pages(store, cache=cache)
        after = cache.cache_stats()
        print(f"\nwarm re-render: {after['misses'] - before['misses']} "
              f"page(s) re-rendered, "
              f"{after['hits'] - before['hits']} served from cache")

        # Round-trip sanity over the whole repository, selected through
        # the unified query API (one ranked/sorted result instead of an
        # identifiers() + get() loop).
        result = store.query(sort="identifier")
        clean = 0
        for hit in result.hits:
            stored = normalise_entry(hit.entry)
            if lens.put(lens.get(stored), stored) == stored:
                clean += 1
        print(f"\nround-trip clean for {clean}/{result.total} entries")


if __name__ == "__main__":
    main()
