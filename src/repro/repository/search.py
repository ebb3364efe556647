"""Search over repository entries: find the right example quickly.

§5.2 asks "Will people be able to find and refer to relevant examples?"
and notes that making the wiki indexable "goes a long way".  For the
local copy we provide the equivalent: a small inverted index with

* free-text ranked search over title, overview, discussion, consistency
  and model descriptions — term frequency with a field boost for titles,
  now **IDF-weighted** (:func:`repro.repository.query.
  inverse_document_frequency`), so ubiquitous domain words ("model",
  "update") no longer drown out the terms that actually discriminate;
* structured filters (entry type, claimed property with polarity,
  author, review status) — kept as thin conveniences over the unified
  query AST of :mod:`repro.repository.query`, which is the preferred
  retrieval surface (``RepositoryService.query``).

The index is rebuilt from a store explicitly (:meth:`SearchIndex.build`);
it does not watch a raw store, keeping the dependency one-directional.
When the store is a :class:`~repro.repository.service.RepositoryService`,
:meth:`SearchIndex.sync_with` builds once and then subscribes to the
service's change events, so each add/add_version/replace_latest costs one
incremental :meth:`SearchIndex.add_entry` instead of a full rebuild.

The index is also **persistent**: :meth:`SearchIndex.save` snapshots the
postings and entries to one JSON file, stamped with the storage
backend's change counter, and :meth:`SearchIndex.load` restores it —
but only if the stamp still matches the backend, so a snapshot can
never serve stale results.  A service constructed with ``index_path=``
does both automatically, which is what stops the index being rebuilt
(one full scan + tokenisation of every entry) in every new process.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping

from repro.core.errors import BxError
from repro.repository.backends import StorageBackend
from repro.repository.entry import ExampleEntry
from repro.repository.query import (
    Q,
    QueryPlan,
    SearchHit,
    entry_terms,
    evaluate_plan,
    tokenize,
)
from repro.repository.template import EntryType

__all__ = ["SearchHit", "SearchIndex", "tokenize"]

#: Snapshot format version; bump when the on-disk layout changes.
_SNAPSHOT_FORMAT = 1


class SearchIndex:
    """An inverted index over the latest versions in a store."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[str, float]] = {}
        self._entries: dict[str, ExampleEntry] = {}

    # ------------------------------------------------------------------
    # Building.
    # ------------------------------------------------------------------

    def build(self, store: StorageBackend) -> "SearchIndex":
        """(Re)build the index from the latest version of every entry.

        Goes through the store's batch ``get_many`` (part of the
        :class:`~repro.repository.backends.StorageBackend` interface),
        so backends with a bulk path answer in one query.
        """
        self._postings.clear()
        self._entries.clear()
        for entry in store.get_many(store.identifiers()):
            self.add_entry(entry)
        return self

    def sync_with(self, service) -> "Callable[[], None]":
        """Build from a RepositoryService, then track it incrementally.

        Subscribes to the service's change events; every write upserts
        exactly the written entry.  Returns the unsubscribe function.
        """
        self.build(service)
        return service.subscribe(lambda event: self.add_entry(event.entry))

    def add_entry(self, entry: ExampleEntry) -> None:
        """Index one entry (replacing any previous version of it)."""
        identifier = entry.identifier
        if identifier in self._entries:
            self.remove_entry(identifier)
        self._entries[identifier] = entry
        for term, weight in entry_terms(entry).items():
            self._postings.setdefault(term, {})[identifier] = weight

    def remove_entry(self, identifier: str) -> None:
        self._entries.pop(identifier, None)
        for postings in self._postings.values():
            postings.pop(identifier, None)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # The query-evaluator protocol (see repro.repository.query).
    # ------------------------------------------------------------------

    def document_count(self) -> int:
        return len(self._entries)

    def latest_entries(self) -> Mapping[str, ExampleEntry]:
        return self._entries

    def term_postings(self, term: str) -> Mapping[str, float]:
        return self._postings.get(term, {})

    # ------------------------------------------------------------------
    # Persistence: snapshot keyed by the backend's change counter.
    # ------------------------------------------------------------------

    def save(self, path: str | Path, *, change_counter: int) -> None:
        """Snapshot the index to ``path``, stamped with the counter.

        The stamp must be the owning backend's
        :meth:`~repro.repository.backends.StorageBackend.change_counter`
        *at a moment when the index is in sync with the backend* (the
        service saves under its write lock for exactly this reason).
        The write is atomic (temp file + rename).
        """
        payload = {
            "format": _SNAPSHOT_FORMAT,
            "change_counter": change_counter,
            "entries": [entry.to_dict()
                        for _identifier, entry in sorted(
                            self._entries.items())],
            "postings": {term: postings
                         for term, postings in sorted(
                             self._postings.items())},
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        with temp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        temp.replace(path)

    @classmethod
    def load(cls, path: str | Path, *,
             expected_change_counter: int) -> "SearchIndex | None":
        """Restore a snapshot, or return None when it cannot be trusted.

        None (caller should rebuild) when the file is missing or
        unreadable, the format is unknown, or the stored change counter
        differs from ``expected_change_counter`` — i.e. the backend has
        been written since the snapshot was taken.
        """
        path = Path(path)
        try:
            with path.open(encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != _SNAPSHOT_FORMAT:
            return None
        if payload.get("change_counter") != expected_change_counter:
            return None
        try:
            index = cls()
            for data in payload["entries"]:
                entry = ExampleEntry.from_dict(data)
                index._entries[entry.identifier] = entry
            index._postings = {
                term: {identifier: float(weight)
                       for identifier, weight in postings.items()}
                for term, postings in payload["postings"].items()}
        except (BxError, KeyError, TypeError, ValueError, AttributeError):
            # Malformed snapshot shapes (missing keys, junk weights,
            # entries that fail validation) mean "rebuild"; anything
            # else is a real bug and now propagates.
            return None
        return index

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def search(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Ranked free-text search; all query terms are optional (OR).

        Scores are IDF-weighted: each term contributes its smoothed
        inverse document frequency times the entry's field-boosted term
        frequency, so rare discriminating terms outrank corpus-wide
        filler.  A thin shim over the unified query evaluator.
        """
        result = evaluate_plan(self, QueryPlan(Q.text(query), limit=limit))
        return [hit for hit in result.hits if hit.score > 0.0]

    def query(self, query_plan: QueryPlan):
        """Execute a full :class:`~repro.repository.query.QueryPlan`."""
        return evaluate_plan(self, query_plan)

    def by_type(self, entry_type: EntryType) -> list[ExampleEntry]:
        """All entries of a given class, sorted by identifier."""
        return self._filter(Q.type(entry_type))

    def by_property(self, name: str,
                    holds: bool | None = None) -> list[ExampleEntry]:
        """Entries claiming a property (optionally with given polarity)."""
        return self._filter(Q.property(name, holds))

    def by_author(self, author: str) -> list[ExampleEntry]:
        """Entries a given author contributed."""
        return self._filter(Q.author(author))

    def reviewed(self) -> list[ExampleEntry]:
        """Entries at version 1.0 or above."""
        return self._filter(Q.reviewed())

    def provisional(self) -> list[ExampleEntry]:
        """Entries still at 0.x."""
        return self._filter(Q.provisional())

    def _filter(self, query) -> list[ExampleEntry]:
        result = evaluate_plan(self, QueryPlan(query, sort="identifier"))
        return [hit.entry for hit in result.hits]
