"""E11: versioned storage with stable identifiers (the memory and file
backends)."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import DuplicateEntry, EntryNotFound, StorageError
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    StorageBackend,
)
from repro.repository.service import (
    API_METHODS,
    RepositoryAPI,
    RepositoryService,
)
from repro.repository.versioning import Version
from tests.repository.test_entry import minimal_entry


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return FileBackend(tmp_path / "repo")


class TestStoreInterface:
    def test_add_and_get(self, store):
        entry = minimal_entry()
        store.add(entry)
        assert store.get("demo-example") == entry
        assert store.identifiers() == ["demo-example"]
        assert store.has("demo-example")
        assert store.entry_count() == 1

    def test_duplicate_add_rejected(self, store):
        store.add(minimal_entry())
        with pytest.raises(DuplicateEntry):
            store.add(minimal_entry())

    def test_unknown_identifier(self, store):
        with pytest.raises(EntryNotFound):
            store.get("nope")
        with pytest.raises(EntryNotFound):
            store.versions("nope")

    def test_versioned_retrieval(self, store):
        """Old references can still be followed."""
        store.add(minimal_entry())
        store.add_version(minimal_entry(version=Version(0, 2),
                                        overview="Better."))
        assert store.get("demo-example").overview == "Better."
        old = store.get("demo-example", Version(0, 1))
        assert old.overview == "A demo."
        assert store.versions("demo-example") == \
            [Version(0, 1), Version(0, 2)]
        assert store.latest_version("demo-example") == Version(0, 2)

    def test_unknown_version(self, store):
        store.add(minimal_entry())
        with pytest.raises(EntryNotFound):
            store.get("demo-example", Version(0, 9))

    def test_add_version_must_increase(self, store):
        store.add(minimal_entry(version=Version(0, 2)))
        with pytest.raises((StorageError, Exception)):
            store.add_version(minimal_entry(version=Version(0, 1)))

    def test_add_version_requires_existing_entry(self, store):
        with pytest.raises(EntryNotFound):
            store.add_version(minimal_entry())

    def test_replace_latest_keeps_version(self, store):
        store.add(minimal_entry())
        store.replace_latest(minimal_entry(overview="Patched."))
        assert store.get("demo-example").overview == "Patched."
        assert store.versions("demo-example") == [Version(0, 1)]

    def test_replace_latest_rejects_version_change(self, store):
        store.add(minimal_entry())
        with pytest.raises(StorageError):
            store.replace_latest(minimal_entry(version=Version(0, 2)))


class TestRepositoryAPIProtocol:
    """The storage interface carries the full RepositoryAPI surface.

    If the protocol extraction (or a later refactor of the base class)
    dropped a method, every backend would silently stop honouring the
    service contract.  API_METHODS is the single list both the protocol
    and this test check against."""

    def test_api_methods_mirror_the_protocol_exactly(self):
        declared = {name for name in vars(RepositoryAPI)
                    if not name.startswith("_")}
        assert declared == set(API_METHODS)

    def test_backends_carry_every_api_method(self, tmp_path):
        instances = [MemoryBackend(), FileBackend(tmp_path / "repo")]
        for instance in instances:
            for name in API_METHODS:
                assert callable(getattr(instance, name)), \
                    f"{type(instance).__name__}.{name} missing"
            assert isinstance(instance, RepositoryAPI)

    def test_storage_backend_declares_the_surface(self):
        for name in API_METHODS:
            assert hasattr(StorageBackend, name), \
                f"StorageBackend.{name} missing"

    def test_service_facade_satisfies_the_protocol(self):
        service = RepositoryService()
        assert isinstance(service, RepositoryAPI)
        for name in API_METHODS:
            assert callable(getattr(service, name))

    def test_backend_query_goes_through_execute_query(self):
        """The hoisted query() convenience reaches every backend: the
        single retrieval surface works on a bare store too."""
        store = MemoryBackend()
        store.add(minimal_entry())
        result = store.query("demo")
        assert result.identifiers == ["demo-example"]
        assert result.total == 1


class TestFileStoreSpecifics:
    def test_layout_on_disk(self, tmp_path):
        store = FileBackend(tmp_path / "repo")
        store.add(minimal_entry())
        path = tmp_path / "repo" / "entries" / "demo-example" / "0.1.json"
        assert path.is_file()
        data = json.loads(path.read_text())
        assert data["title"] == "DEMO EXAMPLE"

    def test_reopen_preserves_contents(self, tmp_path):
        FileBackend(tmp_path / "repo").add(minimal_entry())
        reopened = FileBackend(tmp_path / "repo")
        assert reopened.get("demo-example").title == "DEMO EXAMPLE"

    def test_no_temp_files_left(self, tmp_path):
        store = FileBackend(tmp_path / "repo")
        store.add(minimal_entry())
        store.add_version(minimal_entry(version=Version(0, 2)))
        leftovers = list((tmp_path / "repo").rglob("*.tmp"))
        assert not leftovers

    def test_mismatched_file_contents_detected(self, tmp_path):
        store = FileBackend(tmp_path / "repo")
        store.add(minimal_entry())
        path = tmp_path / "repo" / "entries" / "demo-example" / "0.1.json"
        data = json.loads(path.read_text())
        data["title"] = "SOMETHING ELSE"
        path.write_text(json.dumps(data))
        # A fresh store (decode memo empty) must detect the mismatch
        # when it actually parses the tampered file.
        reopened = FileBackend(tmp_path / "repo")
        with pytest.raises(StorageError, match="something-else"):
            reopened.get("demo-example")

    def test_json_is_stable_sorted(self, tmp_path):
        store = FileBackend(tmp_path / "repo")
        store.add(minimal_entry())
        path = tmp_path / "repo" / "entries" / "demo-example" / "0.1.json"
        first = path.read_text()
        store.replace_latest(minimal_entry())
        assert path.read_text() == first
