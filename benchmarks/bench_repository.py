"""E1/E10/E11: repository operation costs — template validation,
store round trips, versioned retrieval, search, citation — measured
through the :class:`RepositoryService` facade, which is how every
consumer now reaches storage."""

from __future__ import annotations

import pytest

from repro.catalogue import builtin_catalogue, populate_store
from repro.catalogue.composers import composers_entry
from repro.repository.backends import FileBackend, MemoryBackend, SQLiteBackend
from repro.repository.citation import archive_manuscript, cite_entry
from repro.repository.entry import ExampleEntry
from repro.repository.search import SearchIndex
from repro.repository.service import RepositoryService
from repro.repository.validation import validate_entry
from repro.repository.versioning import Version


@pytest.fixture(scope="module")
def populated_service():
    service = RepositoryService(MemoryBackend())
    populate_store(service)
    return service


def test_template_validation(benchmark):
    entry = composers_entry()
    report = benchmark(validate_entry, entry)
    assert report.ok


def test_entry_serialisation_round_trip(benchmark):
    entry = composers_entry()

    def round_trip():
        return ExampleEntry.from_dict(entry.to_dict())

    assert benchmark(round_trip) == entry


def test_file_backend_write_and_read(benchmark, tmp_path_factory):
    entry = composers_entry()
    counter = [0]

    def write_read():
        counter[0] += 1
        service = RepositoryService(
            FileBackend(tmp_path_factory.mktemp(f"s{counter[0]}")))
        service.add(entry)
        return service.get(entry.identifier)

    assert benchmark(write_read) == entry


def test_cached_point_get(benchmark):
    service = RepositoryService(SQLiteBackend())
    populate_store(service)
    service.get("composers")  # warm

    got = benchmark(service.get, "composers")
    assert got.identifier == "composers"
    assert service.cache_stats()["decode_memo"]["hits"] > 0


def test_versioned_history_retrieval(benchmark):
    service = RepositoryService(MemoryBackend())
    entry = composers_entry()
    service.add(entry)
    for minor in range(2, 30):
        service.add_version(entry.with_version(Version(0, minor)))

    old = benchmark(service.get, "composers", Version(0, 1))
    assert old.version == Version(0, 1)


def test_search_index_build(benchmark, populated_service):
    index = benchmark(lambda: SearchIndex().build(populated_service))
    assert len(index) == len(builtin_catalogue())


def test_search_query(benchmark, populated_service):
    hits = benchmark(
        lambda: populated_service.query(
            "composers nationality list").hits)
    assert hits


def test_incremental_index_update(benchmark, populated_service):
    """One write reindexes one entry — never the whole store."""
    populated_service.enable_search()
    entry = populated_service.get("composers")
    minor = [entry.version.minor]

    def write_and_reindex():
        minor[0] += 1
        populated_service.add_version(
            entry.with_version(Version(entry.version.major, minor[0])))

    benchmark(write_and_reindex)
    assert len(populated_service.search_index) == len(builtin_catalogue())


def test_citation_and_archive(benchmark, populated_service):
    def cite_all():
        texts = [cite_entry(entry)
                 for entry in populated_service.get_many(
                     populated_service.identifiers())]
        manuscript = archive_manuscript(populated_service)
        return texts, manuscript

    texts, manuscript = benchmark(cite_all)
    assert manuscript["entry_count"] == len(texts)
