"""The group-commit seam (PR 10): ``write_group`` on every layer.

Conformance across backends (the no-op default included), the
single-transaction / single-counter-bump guarantees of the durable
layers, per-entry events through the service facade, cache coherence
at the post-group counter, and the mid-group crash window of the
file backend.
"""

from __future__ import annotations

import pytest

from repro.core.errors import DuplicateEntry, StorageError
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
)
from repro.repository.faults import FaultInjector, InjectedFault
from repro.repository.export import render_wikidot
from repro.repository.service import RepositoryService
from tests.repository.test_entry import minimal_entry


def entry_batch(count: int, prefix: str = "GROUP"):
    return [minimal_entry(title=f"{prefix} {index}")
            for index in range(count)]


def make_backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "file":
        return FileBackend(tmp_path / "repo")
    if kind == "sqlite-memory":
        return SQLiteBackend()
    return SQLiteBackend(tmp_path / "repo.db")


BACKENDS = ("memory", "file", "sqlite-memory", "sqlite")


class TestBackendConformance:
    """Every backend honours the same observable group semantics."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_grouped_writes_all_land_and_are_readable_after(
            self, tmp_path, kind):
        backend = make_backend(kind, tmp_path)
        entries = entry_batch(6)
        with backend.write_group():
            for entry in entries:
                backend.add(entry)
        assert backend.entry_count() == len(entries)
        for entry in entries:
            assert backend.get(entry.identifier) == entry

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_failing_write_raises_at_that_write_and_alone(
            self, tmp_path, kind):
        backend = make_backend(kind, tmp_path)
        first = minimal_entry(title="GROUP 0")
        backend.add(first)
        with backend.write_group():
            backend.add(minimal_entry(title="GROUP 1"))
            with pytest.raises(DuplicateEntry):
                backend.add(minimal_entry(title="GROUP 0"))
            backend.add(minimal_entry(title="GROUP 2"))
        assert backend.entry_count() == 3

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_reads_inside_the_group_see_its_writes(self, tmp_path, kind):
        backend = make_backend(kind, tmp_path)
        entry = minimal_entry(title="GROUP 0")
        with backend.write_group():
            backend.add(entry)
            assert backend.has(entry.identifier)
            assert backend.get(entry.identifier) == entry
            assert entry.identifier in backend.identifiers()

    @pytest.mark.parametrize("kind", ("file", "sqlite-memory", "sqlite"))
    def test_same_thread_nesting_joins_the_outer_group(
            self, tmp_path, kind):
        backend = make_backend(kind, tmp_path)
        before = backend.change_counter()
        with backend.write_group():
            backend.add(minimal_entry(title="GROUP 0"))
            with backend.write_group():
                backend.add(minimal_entry(title="GROUP 1"))
            backend.add(minimal_entry(title="GROUP 2"))
        assert backend.entry_count() == 3
        # Joining must not mint extra commit units: the whole nest is
        # one group (sqlite: one bump; file: one bump-write-bump pair).
        delta = backend.change_counter() - before
        assert delta == (2 if kind == "file" else 1)


class TestSQLiteGroupCommit:
    def test_group_is_one_transaction_and_one_counter_bump(
            self, tmp_path):
        backend = SQLiteBackend(tmp_path / "repo.db")
        before = backend.change_counter()
        with backend.write_group():
            for entry in entry_batch(10):
                backend.add(entry)
        assert backend.change_counter() == before + 1
        assert backend.entry_count() == 10

    def test_escaping_exception_rolls_the_whole_group_back(
            self, tmp_path):
        backend = SQLiteBackend(tmp_path / "repo.db")
        before = backend.change_counter()
        with pytest.raises(RuntimeError):
            with backend.write_group():
                for entry in entry_batch(4):
                    backend.add(entry)
                raise RuntimeError("crash mid-group")
        assert backend.entry_count() == 0
        assert backend.change_counter() == before
        # The backend stays usable and the next group commits cleanly.
        with backend.write_group():
            backend.add(minimal_entry(title="GROUP AFTER"))
        assert backend.entry_count() == 1

    def test_durability_knob_validates_and_sticks(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "full.db", durability="full")
        assert backend.durability == "full"
        backend.add(minimal_entry(title="GROUP 0"))
        assert backend.entry_count() == 1
        with pytest.raises(StorageError):
            SQLiteBackend(tmp_path / "bad.db", durability="paranoid")


class TestFileGroupCommit:
    def test_group_batches_counter_writes_to_one_pair(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        solo = minimal_entry(title="SOLO")
        backend.add(solo)
        per_write = backend.change_counter()  # bump-write-bump = 2/write
        assert per_write == 2
        with backend.write_group():
            for entry in entry_batch(8):
                backend.add(entry)
        # Eight grouped writes cost the same two counter writes one
        # ungrouped write does — that is the fsync batching.
        assert backend.change_counter() == per_write + 2
        assert backend.entry_count() == 9

    def test_listing_and_memo_stay_coherent_after_the_group(
            self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        backend.add(minimal_entry(title="BEFORE"))
        assert backend.entry_count() == 1  # prime the listing cache
        entries = entry_batch(5)
        with backend.write_group():
            for entry in entries:
                backend.add(entry)
        assert sorted(backend.identifiers()) == sorted(
            ["before"] + [entry.identifier for entry in entries])
        for entry in entries:
            assert backend.get(entry.identifier) == entry

    def test_midgroup_crash_leaves_no_partially_indexed_debris(
            self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        injector = FaultInjector()
        backend.fault_hook = injector.hook("file.crash")
        committed = entry_batch(2, prefix="OK")
        doomed = minimal_entry(title="DOOMED")
        with backend.write_group():
            backend.add(committed[0])
            injector.arm("file.crash", mode="once")
            with pytest.raises(InjectedFault):
                backend.add(doomed)
            backend.add(committed[1])
        # The crashed write is invisible everywhere it counts: no
        # listing entry, no readable snapshot, nothing renamed in.  A
        # ``*.json.tmp`` fragment on disk is the documented (and
        # read-path-ignored) crash residue — same as the ungrouped
        # crash window — but no *committed* snapshot may exist.
        assert not backend.has(doomed.identifier)
        assert doomed.identifier not in backend.identifiers()
        committed_snapshots = [
            path for path in (tmp_path / "repo").rglob("*.json")
            if doomed.identifier in str(path.parent)
        ]
        assert committed_snapshots == []
        assert len(list((tmp_path / "repo").rglob("*.json.tmp"))) == 1
        # Its groupmates landed and survive a cold re-open.
        assert backend.entry_count() == 2
        reopened = FileBackend(tmp_path / "repo")
        for entry in committed:
            assert reopened.get(entry.identifier) == entry
        assert not reopened.has(doomed.identifier)


class TestServiceWriteGroup:
    def test_emits_per_entry_events_in_order(self):
        service = RepositoryService(MemoryBackend())
        events = []
        service.subscribe(lambda event: events.append(event))
        entries = entry_batch(5)
        with service.write_group():
            for entry in entries:
                service.add(entry)
        assert [event.kind for event in events] == ["add"] * 5
        assert [event.entry.identifier for event in events] \
            == [entry.identifier for entry in entries]

    def test_not_part_of_the_wire_api(self):
        from repro.repository.service import API_METHODS
        assert "write_group" not in API_METHODS

    def test_caches_see_the_post_group_change_counter(self, tmp_path):
        """DecodeMemo coherence: after a group commits, the service's
        counter is the group's single post-commit value and a page
        rendered after it shows the group's write — no stale page, no
        phantom intermediate counters."""
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        first = minimal_entry(title="GROUP 0")
        service.add(first)
        page_before = render_wikidot(service.get(first.identifier))
        counter_before = service.change_counter()
        bumped = minimal_entry(
            title="GROUP 0",
            overview="Rewritten inside the group commit.")
        with service.write_group():
            service.replace_latest(bumped)
            for entry in entry_batch(4, prefix="MORE"):
                service.add(entry)
        assert service.change_counter() == counter_before + 1
        page_after = render_wikidot(service.get(first.identifier))
        assert page_after != page_before
        assert "Rewritten inside the group commit." in page_after
        # And the backend-level memo serves the group's snapshot, not a
        # pre-group one.
        assert backend.get(first.identifier) == bumped

    def test_escaping_exception_drops_snapshot_cache(self, tmp_path):
        """The facade's write-through cache saw entries whose backend
        writes rolled back; an escaping group exception must flush it
        so no phantom entry survives."""
        backend = SQLiteBackend(tmp_path / "repo.db")
        service = RepositoryService(backend)
        ghost = minimal_entry(title="GHOST")
        with pytest.raises(RuntimeError):
            with service.write_group():
                service.add(ghost)
                assert service.get(ghost.identifier) == ghost
                raise RuntimeError("crash mid-group")
        assert not service.has(ghost.identifier)
        with pytest.raises(Exception):
            service.get(ghost.identifier)
