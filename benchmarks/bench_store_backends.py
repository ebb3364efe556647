"""Backend comparison: memory vs file vs sqlite on the three paths that
matter at scale — bulk-load, point-get, and search-after-update.

Two layers:

* pytest-benchmark micro-benchmarks of each operation per backend
  (small sizes, so the suite stays quick; ``--bench-large`` raises them);
* :class:`TestAccelerationTargets` — explicit wall-clock ratio checks
  for the wins the service/backends refactor was built to deliver:

  - SQLite ``add_many`` bulk-load (1000 entries) ≥ 5× faster than the
    per-file ``FileBackend`` load of the same entries;
  - memoised point-gets through :class:`RepositoryService` ≥ 3× faster
    than uncached per-file ``FileBackend`` access;
  - the incremental index update after a single ``add_version`` ≥ 10×
    faster than a full :meth:`SearchIndex.build`;

* :class:`TestReadPathTargets` — the PR-4 read-path overhaul (this
  ratio is the CI bench regression gate's floor): a repeated
  ``get_many`` through the :class:`~repro.repository.codec.DecodeMemo`
  ≥ 3× faster than the same backend's cold first read;

* :class:`TestScalingTargets` — the sharded/replicated layer, driven by
  Zipfian read streams from :mod:`repro.harness.workloads`:

  - ``get_many`` over shards with per-request latency (the remote/cold
    child model, :class:`LatencyShard`) gets *faster with shard count*,
    because the fan-out overlaps the children's latencies;
  - over purely local in-process SQLite shards the same sweep is
    recorded as a *no-regression* bound: the GIL serialises the
    JSON-decode work, so fan-out cannot beat one warm local shard;
  - ``anti_entropy()`` restores primary/replica equality after injected
    divergence, and a clean pass reports nothing to repair.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.harness.workloads import zipfian_identifiers
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    ReplicatedBackend,
    ShardedBackend,
    SQLiteBackend,
    StorageBackend,
)
from repro.repository.query import Q, plan
from repro.repository.entry import (
    ExampleEntry,
    ModelDescription,
    PropertyClaim,
    RestorationSpec,
)
from repro.repository.search import SearchIndex
from repro.repository.service import RepositoryService
from repro.repository.template import EntryType
from repro.repository.versioning import Version
from repro.repository.wiki_sync import render_wiki_pages

_WORDS = ("composer sync view model schema tree update merge lens "
          "delta span alignment").split()


def make_entry(index: int) -> ExampleEntry:
    """A small but realistic entry with searchable text."""
    words = " ".join(_WORDS[(index + offset) % len(_WORDS)]
                     for offset in range(5))
    return ExampleEntry(
        title=f"GENERATED EXAMPLE {index}",
        version=Version(0, 1),
        types=(EntryType.PRECISE,),
        overview=f"Generated entry number {index}: {words}.",
        models=(ModelDescription("M", f"Left model {words}."),
                ModelDescription("N", f"Right model {index}.")),
        consistency=f"They agree on {words}.",
        restoration=RestorationSpec(forward="Copy.", backward="Copy back."),
        discussion=f"Benchmark filler {words} {index}.",
        authors=("Bench",),
        properties=(PropertyClaim("correct"),),
    )


def make_entries(count: int) -> list[ExampleEntry]:
    return [make_entry(index) for index in range(count)]


@pytest.fixture(scope="module")
def bulk_size(large_sizes) -> int:
    return 2000 if large_sizes else 200


def _backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "file":
        return FileBackend(tmp_path / "repo")
    return SQLiteBackend(tmp_path / "repo.db")


class LatencyShard(StorageBackend):
    """A shard whose batch reads cost realistic service time.

    Models what a shard looks like once it is *not* a warm local file: a
    fixed round trip per batch call plus a per-requested-entry service
    time paid on the shard's own hardware (cold reads, server-side
    CPU).  ``sleep`` releases the GIL, exactly as a remote child or the
    kernel would, so the fan-out genuinely overlaps the children — a
    single shard serves a batch in ``fixed + n·per_item``; N shards
    serve it in ``fixed + (n/N)·per_item``.
    """

    def __init__(self, inner: StorageBackend, *,
                 fixed: float = 0.001, per_item: float = 0.0001) -> None:
        self.inner = inner
        self.fixed = fixed
        self.per_item = per_item

    def identifiers(self):
        return self.inner.identifiers()

    def versions(self, identifier):
        return self.inner.versions(identifier)

    def get(self, identifier, version=None):
        time.sleep(self.fixed + self.per_item)
        return self.inner.get(identifier, version)

    def has(self, identifier):
        return self.inner.has(identifier)

    def add(self, entry):
        self.inner.add(entry)

    def add_version(self, entry):
        self.inner.add_version(entry)

    def replace_latest(self, entry):
        self.inner.replace_latest(entry)

    def add_many(self, entries):
        batch = list(entries)
        time.sleep(self.fixed + self.per_item * len(batch))
        return self.inner.add_many(batch)

    def get_many(self, requests):
        time.sleep(self.fixed + self.per_item * len(requests))
        return self.inner.get_many(requests)

    def versions_many(self, identifiers):
        time.sleep(self.fixed + self.per_item * len(identifiers))
        return self.inner.versions_many(identifiers)

    def entry_count(self):
        return self.inner.entry_count()

    def close(self):
        self.inner.close()


def sharded_sqlite(tmp_path, shard_count: int,
                   entries) -> ShardedBackend:
    backend = ShardedBackend.create("sqlite", tmp_path,
                                    shard_count=shard_count)
    backend.add_many(entries)
    return backend


# ----------------------------------------------------------------------
# Micro-benchmarks per backend.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
def test_bulk_load(benchmark, kind, bulk_size, tmp_path_factory):
    entries = make_entries(bulk_size)
    counter = [0]

    def load():
        counter[0] += 1
        backend = _backend(
            kind, tmp_path_factory.mktemp(f"{kind}{counter[0]}"))
        stored = backend.add_many(entries)
        backend.close()
        return stored

    assert benchmark(load) == bulk_size


@pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
def test_point_get_uncached(benchmark, kind, bulk_size, tmp_path_factory):
    backend = _backend(kind, tmp_path_factory.mktemp(f"g-{kind}"))
    backend.add_many(make_entries(bulk_size))
    identifier = f"generated-example-{bulk_size // 2}"

    got = benchmark(backend.get, identifier)
    assert got.identifier == identifier
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
def test_point_get_cached_service(benchmark, kind, bulk_size,
                                  tmp_path_factory):
    service = RepositoryService(
        _backend(kind, tmp_path_factory.mktemp(f"c-{kind}")))
    service.add_many(make_entries(bulk_size))
    identifier = f"generated-example-{bulk_size // 2}"
    service.get(identifier)  # warm

    got = benchmark(service.get, identifier)
    assert got.identifier == identifier
    service.close()


@pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
def test_search_after_update(benchmark, kind, bulk_size, tmp_path_factory):
    """One write plus the incremental reindex it triggers, plus a query."""
    service = RepositoryService(
        _backend(kind, tmp_path_factory.mktemp(f"u-{kind}")))
    service.add_many(make_entries(bulk_size))
    service.enable_search()
    target = service.get("generated-example-0")
    minor = [1]

    def update_and_search():
        minor[0] += 1
        service.add_version(target.with_version(Version(0, minor[0])))
        return service.query("generated composer").hits

    assert benchmark(update_and_search)
    service.close()


# ----------------------------------------------------------------------
# Micro-benchmarks of the scaling layer.
# ----------------------------------------------------------------------

#: The faceted query the pushdown benchmarks exercise: free text and
#: a structured filter, ranked, first page only.
def pushdown_plan():
    return plan(Q.text("composer tree") & Q.property("correct"),
                limit=10)


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_sharded_query_fanout(benchmark, shard_count, bulk_size,
                              tmp_path_factory):
    """One faceted query fanned out across N local sqlite shards.

    Phase one aggregates global IDF statistics, phase two runs the
    compiled plan on each shard in parallel and merge-sorts the
    partial pages — one row per shard count shows the fan-out
    overhead.
    """
    entries = make_entries(bulk_size)
    backend = sharded_sqlite(
        tmp_path_factory.mktemp(f"qshards{shard_count}"),
        shard_count, entries)

    result = benchmark(backend.execute_query, pushdown_plan())
    assert result.total > 0
    assert len(result.hits) == 10
    backend.close()


def test_sqlite_query_pushdown(benchmark, bulk_size, tmp_path_factory):
    """The compiled-to-SQL plan on one warm sqlite store."""
    backend = SQLiteBackend(
        tmp_path_factory.mktemp("qpush") / "repo.db")
    backend.add_many(make_entries(bulk_size))

    result = benchmark(backend.execute_query, pushdown_plan())
    assert result.total > 0
    backend.close()


def test_query_python_evaluator(benchmark, bulk_size, tmp_path_factory):
    """The same plan through the in-Python fallback (the baseline)."""
    backend = SQLiteBackend(
        tmp_path_factory.mktemp("qpy") / "repo.db")
    backend.add_many(make_entries(bulk_size))

    result = benchmark(
        lambda: StorageBackend.execute_query(backend, pushdown_plan()))
    assert result.total > 0
    backend.close()


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_sharded_zipfian_get_many(benchmark, shard_count, bulk_size,
                                  tmp_path_factory):
    """Zipf-skewed batch reads over N local sqlite shards."""
    entries = make_entries(bulk_size)
    backend = sharded_sqlite(
        tmp_path_factory.mktemp(f"shards{shard_count}"),
        shard_count, entries)
    requests = zipfian_identifiers(
        bulk_size, [entry.identifier for entry in entries], seed=7)

    results = benchmark(backend.get_many, requests)
    assert len(results) == len(requests)
    backend.close()


def test_replicated_write_through(benchmark, bulk_size, tmp_path_factory):
    """add_many through a sqlite primary mirrored to a file replica."""
    entries = make_entries(bulk_size)
    counter = [0]

    def load():
        counter[0] += 1
        root = tmp_path_factory.mktemp(f"repl{counter[0]}")
        backend = ReplicatedBackend(SQLiteBackend(root / "primary.db"),
                                    FileBackend(root / "replica"))
        stored = backend.add_many(entries)
        backend.close()
        return stored

    assert benchmark(load) == bulk_size


def test_anti_entropy_clean_pass(benchmark, bulk_size, tmp_path_factory):
    """The cost of verifying a replica that needs no repair."""
    entries = make_entries(bulk_size)
    root = tmp_path_factory.mktemp("entropy")
    backend = ReplicatedBackend(SQLiteBackend(root / "primary.db"),
                                SQLiteBackend(root / "replica.db"))
    backend.add_many(entries)

    report = benchmark(backend.anti_entropy)
    assert not report.changed
    backend.close()


# ----------------------------------------------------------------------
# The read-path caches: repeated-read micro-benchmarks.
# ----------------------------------------------------------------------


def test_repeated_get_many_through_decode_memo(benchmark, bulk_size,
                                               tmp_path_factory):
    """The decode-memo fast path: a warm batch read re-decodes nothing."""
    root = tmp_path_factory.mktemp("memo") / "repo"
    entries = make_entries(bulk_size)
    FileBackend(root).add_many(entries)
    backend = FileBackend(root)  # fresh instance: memo starts cold
    requests = [entry.identifier for entry in entries]
    backend.get_many(requests)  # warm the memo once

    results = benchmark(backend.get_many, requests)
    assert len(results) == bulk_size


def test_render_wiki_pages_after_one_write(benchmark, bulk_size,
                                          tmp_path_factory):
    """A collection render after a single-entry write: every call
    fetches and renders every page."""
    backend = SQLiteBackend(
        tmp_path_factory.mktemp("render") / "repo.db")
    service = RepositoryService(backend)
    service.add_many(make_entries(bulk_size))
    target = service.get("generated-example-0")
    minor = [1]

    def write_one_and_rerender():
        minor[0] += 1
        service.add_version(target.with_version(Version(0, minor[0])))
        return render_wiki_pages(service)

    pages = benchmark(write_one_and_rerender)
    assert len(pages) == bulk_size
    service.close()


# ----------------------------------------------------------------------
# The acceptance targets, as explicit wall-clock ratios.
# ----------------------------------------------------------------------

def _clock(operation) -> float:
    start = time.perf_counter()
    operation()
    return time.perf_counter() - start


def _clock_fresh(make_operation, rounds: int = 3) -> float:
    """Best-of-N for non-repeatable operations: each round gets a fresh
    operation from ``make_operation`` (e.g. a new empty store)."""
    return min(_clock(make_operation()) for _round in range(rounds))


class TestAccelerationTargets:
    SIZE = 1000

    def test_sqlite_bulk_load_beats_per_file_store(self, tmp_path):
        entries = make_entries(self.SIZE)
        counter = [0]

        def fresh_file_load():
            counter[0] += 1
            backend = FileBackend(tmp_path / f"files{counter[0]}")
            return lambda: [backend.add(entry) for entry in entries]

        def fresh_sqlite_load():
            counter[0] += 1
            backend = SQLiteBackend(tmp_path / f"repo{counter[0]}.db")
            return lambda: backend.add_many(entries)

        file_seconds = _clock_fresh(fresh_file_load)
        sqlite_seconds = _clock_fresh(fresh_sqlite_load)

        ratio = file_seconds / sqlite_seconds
        print(f"\nbulk-load {self.SIZE}: file {file_seconds:.3f}s, "
              f"sqlite add_many {sqlite_seconds:.3f}s "
              f"({ratio:.1f}x faster)")
        assert ratio >= 5.0

    def test_cached_point_get_beats_uncached_file_store(self, tmp_path):
        """Memoised point reads through the facade vs a decoding store.

        The baseline is the *decoding* per-file store the ratio was
        first defined against, so its decode memo is disabled.  The
        measured side is a service over a second, memoised
        ``FileBackend`` on the same root.  The floor is 3x, not the
        5x a facade snapshot cache once cleared: every read now
        re-reads the change-counter file, which is exactly the check
        that keeps a reader fresh after another process's write.
        """
        root = tmp_path / "files"
        uncached_backend = FileBackend(root)
        uncached_backend.add_many(make_entries(100))
        identifiers = [f"generated-example-{index % 100}"
                       for index in range(1000)]

        from repro.repository.codec import DecodeMemo
        uncached_backend._memo = DecodeMemo(maxsize=0)
        uncached = _clock(lambda: [uncached_backend.get(identifier)
                                   for identifier in identifiers])

        service = RepositoryService(FileBackend(root))
        for identifier in set(identifiers):
            service.get(identifier)  # warm the decode memo
        cached = _clock(lambda: [service.get(identifier)
                                 for identifier in identifiers])

        ratio = uncached / cached
        print(f"\npoint-get x1000: uncached file {uncached:.3f}s, "
              f"memoised service {cached:.3f}s ({ratio:.1f}x faster)")
        assert ratio >= 3.0

    def test_incremental_update_beats_full_rebuild(self):
        service = RepositoryService(MemoryBackend())
        service.add_many(make_entries(self.SIZE))
        service.enable_search()

        rebuild = _clock(lambda: SearchIndex().build(service))

        target = service.get("generated-example-0")
        incremental = _clock(
            lambda: service.add_version(target.with_version(Version(0, 2))))

        ratio = rebuild / incremental
        print(f"\nsearch update: full build {rebuild * 1000:.1f}ms, "
              f"incremental after add_version "
              f"{incremental * 1000:.2f}ms ({ratio:.1f}x faster)")
        assert ratio >= 10.0


class TestQueryPushdownTargets:
    """The unified-query acceptance ratio: SQL pushdown must beat the
    in-Python evaluator by >= 5x on a 5k-entry store."""

    SIZE = 5000

    def test_sql_pushdown_beats_python_evaluator(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "repo.db")
        backend.add_many(make_entries(self.SIZE))
        query_plan = pushdown_plan()

        # Same plan, same store, both paths must agree before we race
        # them: the native SQL compilation vs the base-class fallback
        # that materialises and tokenises every latest snapshot.
        pushed = backend.execute_query(query_plan)
        python = StorageBackend.execute_query(backend, query_plan)
        assert pushed.total == python.total > 0
        assert pushed.identifiers == python.identifiers
        assert pushed.facets == python.facets

        python_seconds = _clock(
            lambda: StorageBackend.execute_query(backend, query_plan))
        sqlite_seconds = min(
            _clock(lambda: backend.execute_query(query_plan))
            for _round in range(3))

        ratio = python_seconds / sqlite_seconds
        print(f"\nfaceted query over {self.SIZE}: in-Python evaluator "
              f"{python_seconds * 1000:.1f}ms, SQL pushdown "
              f"{sqlite_seconds * 1000:.1f}ms ({ratio:.1f}x faster)")
        assert ratio >= 5.0
        backend.close()


class TestScalingTargets:
    """The sharded/replicated layer, measured and bounded."""

    SIZE = 1000
    READS = 600
    PER_ITEM = 0.0001  # 100µs of shard-side service time per request

    def _zipf_requests(self, entries, count=None):
        identifiers = [entry.identifier for entry in entries]
        return zipfian_identifiers(count or self.READS, identifiers,
                                   seed=7)

    def test_sharded_get_many_scales_with_shard_count(self, tmp_path):
        """get_many throughput grows with N once shards do real work.

        Each latent shard serves its sub-batch in
        ``fixed + (n/N)·per_item`` on its own (simulated) hardware; the
        fan-out overlaps the shards, so the wall clock falls as N
        grows.  This is the scenario sharding exists for — the purely
        local warm-cache sweep next door records why it is *not*
        visible in-process.
        """
        entries = make_entries(self.SIZE)
        requests = self._zipf_requests(entries)
        timings = {}
        for shard_count in (1, 2, 4):
            root = tmp_path / f"lat{shard_count}"
            root.mkdir()
            backend = ShardedBackend(
                [LatencyShard(SQLiteBackend(root / f"shard-{index}.db"),
                              per_item=self.PER_ITEM)
                 for index in range(shard_count)])
            backend.add_many(entries)
            timings[shard_count] = _clock(
                lambda: backend.get_many(requests))
            backend.close()

        print("\nsharded get_many, latent shards "
              f"({self.PER_ITEM * 1e6:.0f}µs/item shard-side):")
        for shard_count, seconds in timings.items():
            print(f"  {shard_count} shard(s): {seconds * 1000:.1f}ms "
                  f"({self.READS / seconds:.0f} req/s)")
        speedup = timings[1] / timings[4]
        print(f"  speedup 1->4 shards: {speedup:.2f}x")
        assert timings[2] < timings[1]
        assert timings[4] < timings[2]
        assert speedup >= 1.5

    def test_sharded_get_many_local_no_regression(self, tmp_path):
        """In-process warm sqlite shards: fan-out must cost ~nothing.

        The GIL serialises JSON decode, so local sharding cannot beat
        one warm shard — this row pins the overhead with a
        no-regression bound.
        """
        from repro.repository.codec import DecodeMemo

        entries = make_entries(self.SIZE)
        requests = self._zipf_requests(entries)
        timings = {}
        for shard_count in (1, 2, 4):
            backend = sharded_sqlite(tmp_path / f"loc{shard_count}",
                                     shard_count, entries)
            # This row pins the *fan-out overhead* against real
            # per-request decode work, the PR-2 calibration.  The PR-4
            # decode memo would otherwise absorb the work entirely and
            # leave pool-dispatch overhead as the dominant term, making
            # the 2x bound a measure of scheduler noise instead — so it
            # is disabled here (its own rows live in TestReadPathTargets
            # and test_repeated_get_many_through_decode_memo).
            for shard in backend.shards:
                shard._memo = DecodeMemo(maxsize=0)
            timings[shard_count] = min(
                _clock(lambda: backend.get_many(requests))
                for _round in range(3))
            backend.close()
        print("\nsharded get_many, local warm shards:")
        for shard_count, seconds in timings.items():
            print(f"  {shard_count} shard(s): {seconds * 1000:.1f}ms "
                  f"({self.READS / seconds:.0f} req/s)")
        assert timings[4] <= timings[1] * 2.0

    def test_anti_entropy_repairs_injected_divergence(self, tmp_path):
        """After divergence, one repair pass restores replica equality."""
        primary = SQLiteBackend(tmp_path / "primary.db")
        replica = FileBackend(tmp_path / "replica")
        backend = ReplicatedBackend(primary, replica)
        entries = make_entries(300)
        backend.add_many(entries)

        # Injected divergence: 60 new versions and 20 hot rewrites land
        # on the primary while the replica is "offline".
        for entry in entries[:60]:
            primary.add_version(entry.with_version(Version(0, 2)))
        for entry in entries[60:80]:
            primary.replace_latest(
                dataclasses.replace(entry, overview="Rewritten."))

        seconds = _clock(backend.anti_entropy)
        print(f"\nanti-entropy over 300 entries, 80 divergent: "
              f"{seconds * 1000:.1f}ms")

        report = backend.anti_entropy()  # the timed pass repaired all
        assert not report.changed
        assert report.conflicts == []
        identifiers = primary.identifiers()
        assert identifiers == replica.identifiers()
        assert primary.versions_many(identifiers) == \
            replica.versions_many(identifiers)
        for entry in entries[60:80]:
            assert replica.get(entry.identifier).overview == "Rewritten."
        backend.close()


class TestReadPathTargets:
    """The PR-4 read-path overhaul, as an explicit wall-clock ratio.

    This is the floor the CI bench regression gate holds every PR to:
    the decode memo must make a repeated batch read >= 3x faster than
    the same backend's cold first read.
    """

    SIZE = 400

    def test_decode_memoised_get_many_beats_cold(self, tmp_path):
        entries = make_entries(self.SIZE)
        FileBackend(tmp_path / "repo").add_many(entries)
        requests = [entry.identifier for entry in entries]

        backend = FileBackend(tmp_path / "repo")  # fresh: memo cold
        cold = _clock(lambda: backend.get_many(requests))
        warm = min(_clock(lambda: backend.get_many(requests))
                   for _round in range(3))

        memo = backend.cache_stats()["decode_memo"]
        assert memo["hits"] >= 3 * self.SIZE  # the warm rounds hit

        ratio = cold / warm
        print(f"\nget_many x{self.SIZE}: cold decode {cold * 1000:.1f}ms, "
              f"memoised {warm * 1000:.2f}ms ({ratio:.1f}x faster)")
        assert ratio >= 3.0
