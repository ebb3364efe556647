"""Directory-of-JSON backend: the durable, wiki-independent local copy.

Layout::

    <root>/
      entries/<identifier>/<version>.json

Writes are atomic per file (write to a temp name, then rename), so a
crashed writer can leave behind at most a ``*.json.tmp`` fragment or an
empty entry directory — both of which every read path ignores.  They
survive a process crash, not a power loss: nothing here calls
``fsync``, on a file or a directory.

The read path is cached at two levels, both keyed by the durable
change counter (``<root>/change-counter``), which bumps on every write
— this backend's own, or a foreign process's through another
``FileBackend`` over the same root:

* the **listing cache** replaces the per-call directory scan that
  ``identifiers()`` / ``has()`` / ``versions()`` used to do (a
  ``glob("*.json")`` per call — hot in the sharded fan-out): one scan
  builds an identifier → versions map, writes through this backend
  maintain it incrementally, and a counter mismatch (someone else
  wrote) triggers exactly one rescan;
* the **decode memo** (:class:`~repro.repository.codec.DecodeMemo`)
  caches hydrated :class:`ExampleEntry` objects per ``(identifier,
  version, counter)``, so a snapshot is parsed at most once between
  writes; writes prime it with the entry object they just encoded.

Every write commits through :meth:`FileBackend.write_group`: a write
outside any group is a group of one.  A group bumps the counter once
before its first rename and once after its last, so one write and a
group of many both cost two counter-file writes.

Threads: reads share a readers-writer lock that a write, or a whole
write group, holds alone, so no read sees a write half done.  Writers
must still be serialised (``add`` is check-then-act), as the facade is.

Mutating the tree out of band *without* bumping the counter (dropping
files in by hand) leaves both caches stale until the next counted
write; mutating it through any ``FileBackend`` — or bumping the
counter file — is always coherent.  Crash debris never counts: the
scan ignores ``*.json.tmp`` fragments and entry directories with no
committed snapshot, exactly as the old per-call scans did.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from repro.core.errors import DuplicateEntry, EntryNotFound, StorageError
from repro.repository.backends.base import StorageBackend, _split_request
from repro.repository.codec import DecodeMemo, decode_entry, encode_entry
from repro.repository.concurrency import ReadWriteLock
from repro.repository.entry import ExampleEntry
from repro.repository.versioning import Version

__all__ = ["FileBackend"]


class FileBackend(StorageBackend):
    """One JSON file per version snapshot under a root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self._counter_path = self.root / "change-counter"
        self._memo = DecodeMemo()
        #: Readers share it; a write or a whole group holds it alone.
        self._rwlock = ReadWriteLock()
        #: Fault-injection seam (see :mod:`repro.repository.faults`):
        #: when set, called with a point name inside the write sequence
        #: — between the leading counter bump and the content rename,
        #: the window where a crash leaves an advanced counter with no
        #: new content.  None (the default) costs one attribute check
        #: and changes nothing.
        self.fault_hook: "Callable[[str], None] | None" = None
        #: identifier -> sorted versions, valid while the change counter
        #: still equals ``_listing_counter`` (None: needs a scan).
        self._listing_map: dict[str, list[Version]] | None = None
        self._listing_counter = -1
        self._listing_scans = 0
        self._listing_serves = 0
        #: write_group state: the owning thread (None: no open group),
        #: the entries renamed in so far, and the counter the group
        #: opened at (its writes run under ``_group_base + 1``).
        self._group_owner: int | None = None
        self._group_entries: list[ExampleEntry] = []
        self._group_base = -1

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------

    def _entry_dir(self, identifier: str) -> Path:
        return self.entries_dir / identifier

    def _version_path(self, identifier: str, version: Version) -> Path:
        return self._entry_dir(identifier) / f"{version}.json"

    # ------------------------------------------------------------------
    # The listing cache (satisfies identifiers/has/versions without
    # re-scanning the tree on every call).
    # ------------------------------------------------------------------

    def _listing(self, counter: int | None = None) -> dict[str, list[Version]]:
        """The identifier → versions map at ``counter`` (default: now).

        Scans the tree only when the counter moved since the cached
        scan; callers that already read the counter (batch paths) pass
        it in so one batch costs one counter read.
        """
        if counter is None:
            counter = self.change_counter()
        if self._listing_map is None or self._listing_counter != counter:
            listing: dict[str, list[Version]] = {}
            for path in self.entries_dir.iterdir():
                if not path.is_dir():
                    continue
                found = [
                    Version.parse(snapshot.stem) for snapshot in path.glob("*.json")
                ]
                if found:  # an empty dir is a crashed mkdir, not an entry
                    listing[path.name] = sorted(found)
            self._listing_map = listing
            self._listing_counter = counter
            self._listing_scans += 1
        else:
            self._listing_serves += 1
        return self._listing_map

    def identifiers(self) -> list[str]:
        with self._rwlock.read_locked():
            return sorted(self._listing())

    def versions(self, identifier: str) -> list[Version]:
        with self._rwlock.read_locked():
            stored = self._listing().get(identifier)
            if stored is None:
                raise EntryNotFound(identifier)
            return list(stored)

    def has(self, identifier: str) -> bool:
        with self._rwlock.read_locked():
            return identifier in self._listing()

    # ------------------------------------------------------------------
    # Reads (decode-memoised).
    # ------------------------------------------------------------------

    def get(self, identifier: str, version: Version | None = None) -> ExampleEntry:
        with self._rwlock.read_locked():
            return self._get_at(identifier, version, self.change_counter())

    def get_many(self, requests) -> list[ExampleEntry]:
        """Resolve many entries with one counter read for the batch."""
        with self._rwlock.read_locked():
            counter = self.change_counter()
            return [
                self._get_at(identifier, version, counter)
                for identifier, version in map(_split_request, requests)
            ]

    def _get_at(
        self, identifier: str, version: Version | None, counter: int
    ) -> ExampleEntry:
        if version is None:
            stored = self._listing(counter).get(identifier)
            if not stored:
                raise EntryNotFound(identifier)
            version = stored[-1]
        cached = self._memo.get((identifier, str(version), counter))
        if cached is not None:
            return cached
        path = self._version_path(identifier, version)
        if not path.is_file():
            raise EntryNotFound(identifier, str(version))
        try:
            payload = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as error:
            raise StorageError(f"entry payload is not UTF-8: {error}") from error
        entry = decode_entry(payload)
        if entry.identifier != identifier:
            raise StorageError(
                f"file {path} contains entry {entry.identifier!r}, "
                f"expected {identifier!r}"
            )
        self._memo.put((identifier, str(version), counter), entry)
        return entry

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------

    @contextmanager
    def write_group(self) -> Iterator["FileBackend"]:
        """Group commit: two counter-file writes for the whole group.

        The one commit path: every write runs inside it, so a write
        outside any group is a group of one.  The counter bumps on
        *both* sides of the group's renames.  Before: a crash between
        the bump and a rename leaves an advanced counter and no new
        content, so the counter-keyed memos merely miss once — the
        opposite order would leave new content under an old counter,
        and a memo entry keyed on it would serve stale bytes as fresh.
        After: a reader through another FileBackend over this root,
        racing a rename, can have read the first-bumped counter and
        then the *pre-rename* state — old bytes on a replace_latest, or
        the entry's absence on an add — and cached it under that
        counter; the second bump orphans it.

        Each write inside is just temp-write + rename, and the trailing
        bump publishes them all as one logical change.  A write that
        fails mid-group raises at that write and affects only itself;
        the trailing bump still lands (in ``finally``), so whatever
        *did* rename in is published coherently and every cache keyed
        by the counter revalidates.  A group in which nothing renamed
        in changed no content and skips the trailing bump, which is the
        state a crash before the first rename leaves.  Re-entering on
        the owning thread joins the open group.
        """
        if self._group_owner == threading.get_ident():
            yield self
            return
        with self._rwlock.write_locked():
            previous = self.change_counter()
            self._bump_counter(previous + 1)
            if self._listing_map is not None and self._listing_counter == previous:
                # The bump changed no content; carry the listing forward so
                # in-group reads (duplicate checks) skip the rescan.
                self._listing_counter = previous + 1
            self._group_owner = threading.get_ident()
            self._group_entries = []
            self._group_base = previous
            try:
                yield self
            finally:
                entries, self._group_entries = self._group_entries, []
                self._group_owner = None
                if entries:  # appended right after each rename
                    counter = previous + 2
                    self._bump_counter(counter)
                    if self._listing_map is not None and (
                        self._listing_counter == previous + 1
                    ):
                        # _write maintained the map per entry; re-stamp it.
                        self._listing_counter = counter
                    else:
                        self._listing_map = None
                    # The bytes just written came from these very objects:
                    # prime the memo so the next read skips the decode.
                    for entry in entries:
                        key = (entry.identifier, str(entry.version), counter)
                        self._memo.put(key, entry)

    def add(self, entry: ExampleEntry) -> None:
        if self.has(entry.identifier):
            raise DuplicateEntry(entry.identifier)
        self._entry_dir(entry.identifier).mkdir(parents=True, exist_ok=True)
        self._write(entry)

    def add_version(self, entry: ExampleEntry) -> None:
        existing = self.versions(entry.identifier)  # raises if unknown
        if existing and entry.version <= existing[-1]:
            raise StorageError(
                f"version {entry.version} does not increase on "
                f"{existing[-1]} for {entry.identifier!r}"
            )
        self._write(entry)

    def replace_latest(self, entry: ExampleEntry) -> None:
        latest = self.latest_version(entry.identifier)
        if entry.version != latest:
            raise StorageError(
                f"replace_latest must keep the version ({latest}), "
                f"got {entry.version}"
            )
        self._write(entry)

    def change_counter(self) -> int:
        """Durable write counter, stored next to the entries tree.

        Lives in ``<root>/change-counter``, so a *later* process
        opening the same directory sees what earlier (serialised)
        writers did — which is what lets ``GET /counter`` (and the
        memos keyed on it) move on a foreign write.  Deliberately
        re-read from disk on every
        call (never cached in memory): the counter is also the
        invalidation channel for the listing cache and decode memo, so
        a foreign ``FileBackend`` writing to the same root stays
        visible.  Writers must be serialised, as everywhere else in
        this backend (``add`` itself is check-then-act); the service
        facade's write lock provides that within a process, and
        concurrent writer *processes* are outside FileBackend's
        contract.  A tree that predates the counter file reads as 0.
        """
        try:
            return int(self._counter_path.read_text().strip() or 0)
        except (OSError, ValueError):
            return 0

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return {
            "decode_memo": self._memo.stats(),
            "listing": {
                "scans": self._listing_scans,
                "serves": self._listing_serves,
            },
        }

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _write(self, entry: ExampleEntry) -> None:
        """One write in the open group (a group of one if none is open).

        Rename only, no counter I/O: the group's leading bump already
        opened the crash window (advanced counter, content trailing).
        The listing cache is maintained at the group's working counter
        so in-group reads (duplicate and version checks) stay coherent
        without a rescan.  The decode memo is primed once, at the
        committed counter, by the group's trailing bump.
        """
        with self.write_group():
            path = self._version_path(entry.identifier, entry.version)
            temp = path.with_suffix(".json.tmp")
            temp.write_text(encode_entry(entry) + "\n", encoding="utf-8")
            if self.fault_hook is not None:
                # Simulated crash window: counter already bumped, content
                # not yet renamed in — at worst a ``*.json.tmp`` fragment,
                # which every read path ignores.
                self.fault_hook("pre-rename")
            temp.replace(path)
            self._group_entries.append(entry)
            working = self._group_base + 1
            if self._listing_map is not None and self._listing_counter == working:
                stored = self._listing_map.setdefault(entry.identifier, [])
                if entry.version not in stored:
                    bisect.insort(stored, entry.version)
            else:
                self._listing_map = None

    def _bump_counter(self, counter: int) -> None:
        # Atomic per write (temp + rename), like the snapshots.
        temp = self._counter_path.with_name("change-counter.tmp")
        temp.write_text(f"{counter}\n")
        temp.replace(self._counter_path)
