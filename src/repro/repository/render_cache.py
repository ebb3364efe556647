"""Event-driven render cache: pages re-render only when written.

The repository is read-dominated — the §5.4 wiki pages and the §5.2
manuscript export are served far more often than entries are edited —
yet ``render_wiki_pages`` and ``render_repository_markdown`` used to
re-render every entry on every call.  :class:`RenderCache` closes that
gap the same way the search index went incremental in PR 1: it
subscribes to :class:`~repro.repository.service.RepositoryEvent`\\ s
from a :class:`~repro.repository.service.RepositoryService` and keeps
two renderings per entry — the wikidot page
(:func:`~repro.repository.export.render_wikidot`, i.e. what
``WikiSyncLens.get`` produces) and the Markdown fragment
(:func:`~repro.repository.export.render_markdown`) — evicting **exactly
the written identifier** on every add / add_version / replace_latest.
A warm call therefore renders only what changed since the last call.

The cache always starts cold: pages render on first request and stay
until a write event evicts them.  It hears only the writes made
through its own service, so it serves collections inside one process;
the HTTP server keeps no page cache (``GET /wiki/{id}`` renders from
the entry whose digest it validates by).

Thread safety: events fire under the service's write lock while pages
are requested by reader threads, so all cache state sits behind one
internal mutex.  The mutex is **never held across a service call**
(that would deadlock against a writer's event dispatch); instead each
render captures an event-clock before fetching, and the store step
drops the render if its identifier was evicted in between — a racing
write wins, the cache stays coherent.
"""

from __future__ import annotations

from repro.repository.concurrency import Mutex
from repro.repository.export import render_markdown, render_wikidot
from repro.repository.query import plan

__all__ = ["RenderCache"]


class RenderCache:
    """Wiki pages and Markdown fragments, cached per written entry."""

    def __init__(self, service) -> None:
        self.service = service
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._mutex = Mutex()
        #: identifier -> rendered text of its latest version (staleness
        #: is governed by events, never by comparing versions —
        #: replace_latest keeps the version).
        self._wiki: dict[str, str] = {}
        self._markdown: dict[str, str] = {}
        #: Event clock: bumped per event; per-identifier eviction times
        #: let a render that raced a write detect it lost.
        self._clock = 0
        self._evicted_at: dict[str, int] = {}
        self._unsubscribe = service.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # Event subscription: exact per-identifier eviction.
    # ------------------------------------------------------------------

    def _on_event(self, event) -> None:
        with self._mutex:
            self._clock += 1
            self._evicted_at[event.identifier] = self._clock
            dropped_wiki = self._wiki.pop(event.identifier, None)
            dropped_md = self._markdown.pop(event.identifier, None)
            if dropped_wiki is not None or dropped_md is not None:
                self.invalidations += 1

    # ------------------------------------------------------------------
    # Single-page access.
    # ------------------------------------------------------------------

    def wiki_page(self, identifier: str) -> str:
        """The wikidot page of an entry's latest version (cached)."""
        return self._pages([identifier])[identifier]

    def markdown_fragment(self, identifier: str) -> str:
        """The Markdown rendering of an entry's latest version (cached)."""
        return self._pages([identifier], kind="markdown")[identifier]

    # ------------------------------------------------------------------
    # Collection access (what render_wiki_pages / the exporter use).
    # ------------------------------------------------------------------

    def wiki_pages(self, query=None) -> dict[str, str]:
        """Wikidot pages of a query's matches (None: everything),
        keyed by identifier in identifier order — re-rendering only
        identifiers written since the pages were last produced."""
        return self._collection(query, kind="wiki")

    def markdown_fragments(self, query=None) -> dict[str, str]:
        """Markdown fragments of a query's matches, identifier order."""
        return self._collection(query, kind="markdown")

    def _collection(self, query, *, kind: str) -> dict[str, str]:
        # The clock is captured BEFORE any service call fetches
        # snapshots: a write landing after this point evicts its
        # identifier at a strictly later clock, so the guarded store
        # below drops any render made from the pre-write snapshot.
        with self._mutex:
            clock = self._clock
        if query is None:
            identifiers = self.service.identifiers()
            entries_by_id = None
        else:
            result = self.service.execute_query(
                plan(query, sort="identifier"))
            identifiers = [hit.identifier for hit in result.hits]
            entries_by_id = {hit.identifier: hit.entry
                             for hit in result.hits}
        return self._pages(identifiers, kind=kind, entries=entries_by_id,
                           clock=clock)

    def _pages(self, identifiers, *, kind: str = "wiki",
               entries=None, clock: int | None = None) -> dict[str, str]:
        cache = self._wiki if kind == "wiki" else self._markdown
        render = render_wikidot if kind == "wiki" else render_markdown
        rendered: dict[str, str] = {}
        missing: list[str] = []
        with self._mutex:
            if clock is None:
                clock = self._clock
            for identifier in identifiers:
                cached = cache.get(identifier)
                if cached is not None:
                    rendered[identifier] = cached
                    self.hits += 1
                else:
                    missing.append(identifier)
                    self.misses += 1
        if missing:
            if entries is None:
                fetched = self.service.get_many(missing)
            else:
                fetched = [entries[identifier] for identifier in missing]
            for entry in fetched:
                text = render(entry)
                rendered[entry.identifier] = text
                self._store(cache, entry.identifier, text, clock)
        return {identifier: rendered[identifier]
                for identifier in identifiers}

    def _store(self, cache: dict, identifier: str, text: str,
               clock: int) -> None:
        with self._mutex:
            if self._evicted_at.get(identifier, 0) > clock:
                return  # a write raced this render; stay evicted
            cache[identifier] = text

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/invalidation counters plus current sizes."""
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "wiki_pages": len(self._wiki),
                "markdown_fragments": len(self._markdown),
            }

    def close(self) -> None:
        """Detach from the service."""
        self._unsubscribe()
