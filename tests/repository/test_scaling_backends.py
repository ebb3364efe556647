"""The scaling layer: sharded and replicated backends.

The conformance suite from ``test_backends`` is reused *unchanged* (the
whole point of the ``StorageBackend`` seam): :class:`TestConformance`
is subclassed here with a fixture that builds composite backends —
sharded over memory/sqlite/file children, replicated sqlite→file, and
sharded-over-replicated — so every contract test runs against each.

The classes below add what is specific to the composites: stable
routing and balance, parallel fan-out, mirroring, read failover, and
anti-entropy repair.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import DuplicateEntry, EntryNotFound, StorageError
from repro.repository import FaultInjector, FlakyBackend
from repro.repository.backends import (
    FileBackend,
    MemoryBackend,
    ReplicatedBackend,
    ShardedBackend,
    SQLiteBackend,
    shard_index,
)
from repro.repository.versioning import Version
# Aliased so pytest does not re-collect the suite under its own name on
# top of the TestScalingConformance subclass below.
from tests.repository.test_backends import (
    TestConformance as ConformanceContract,
)
from tests.repository.test_entry import minimal_entry

SCALING_BACKENDS = [
    "sharded-memory",
    "sharded-sqlite",
    "sharded-file",
    "replicated-memory",
    "replicated-sqlite-file",
    "sharded-replicated",
]


def make_scaling_backend(kind: str, tmp_path):
    if kind == "sharded-memory":
        return ShardedBackend([MemoryBackend() for _shard in range(3)])
    if kind == "sharded-sqlite":
        return ShardedBackend.create("sqlite", tmp_path / "shards",
                                     shard_count=3)
    if kind == "sharded-file":
        return ShardedBackend.create("file", tmp_path / "shards",
                                     shard_count=3)
    if kind == "replicated-memory":
        return ReplicatedBackend(MemoryBackend(), [MemoryBackend()])
    if kind == "replicated-sqlite-file":
        return ReplicatedBackend(SQLiteBackend(tmp_path / "primary.db"),
                                 FileBackend(tmp_path / "replica"))
    # Sharding composes with replication: each shard is itself a
    # primary/replica pair.
    shards = [ReplicatedBackend(MemoryBackend(), [MemoryBackend()])
              for _shard in range(2)]
    return ShardedBackend(shards)


@pytest.fixture(params=SCALING_BACKENDS)
def backend(request, tmp_path):
    built = make_scaling_backend(request.param, tmp_path)
    yield built
    built.close()


class TestScalingConformance(ConformanceContract):
    """The unmodified contract, over every composite backend."""


def entry_batch(count: int, start: int = 0):
    return [minimal_entry(title=f"ENTRY {index}")
            for index in range(start, start + count)]


def assert_same_contents(left, right):
    """Two backends hold identical identifiers, histories and snapshots."""
    identifiers = left.identifiers()
    assert identifiers == right.identifiers()
    assert left.versions_many(identifiers) == \
        right.versions_many(identifiers)
    for identifier in identifiers:
        assert left.get(identifier) == right.get(identifier)


# ----------------------------------------------------------------------
# Test doubles.
# ----------------------------------------------------------------------

class SlowBackend(MemoryBackend):
    """A memory backend with simulated per-batch latency."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay

    def get_many(self, requests):
        time.sleep(self.delay)
        return super().get_many(requests)


class OutageBackend(MemoryBackend):
    """A memory backend whose operations can be switched to fail."""

    def __init__(self) -> None:
        super().__init__()
        self.down = False

    def _check(self):
        if self.down:
            raise ConnectionError("simulated outage")

    def get(self, identifier, version=None):
        self._check()
        return super().get(identifier, version)

    def get_many(self, requests):
        self._check()
        return super().get_many(requests)

    def identifiers(self):
        self._check()
        return super().identifiers()

    def add(self, entry):
        self._check()
        super().add(entry)

    def add_version(self, entry):
        self._check()
        super().add_version(entry)


class GatedBackend(MemoryBackend):
    """A memory backend whose ``add`` parks until ``gate`` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def add(self, entry):
        self.entered.set()
        self.gate.wait(10)
        super().add(entry)


class SpyBackend(MemoryBackend):
    """Counts batch calls and close()."""

    def __init__(self) -> None:
        super().__init__()
        self.add_many_calls = 0
        self.closed = False

    def add_many(self, entries):
        self.add_many_calls += 1
        return super().add_many(entries)

    def close(self):
        self.closed = True


# ----------------------------------------------------------------------
# Sharding specifics.
# ----------------------------------------------------------------------

class TestSharding:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(StorageError):
            ShardedBackend([])

    def test_routing_is_stable_and_exhaustive(self):
        backend = ShardedBackend([MemoryBackend() for _shard in range(4)])
        backend.add_many(entry_batch(40))
        for entry in entry_batch(40):
            identifier = entry.identifier
            index = shard_index(identifier, 4)
            # The routed shard holds the entry; no other shard does.
            assert backend.shards[index].has(identifier)
            others = [shard for position, shard
                      in enumerate(backend.shards) if position != index]
            assert not any(shard.has(identifier) for shard in others)
        backend.close()

    def test_shards_are_reasonably_balanced(self):
        backend = ShardedBackend([MemoryBackend() for _shard in range(4)])
        backend.add_many(entry_batch(200))
        sizes = backend.shard_sizes()
        assert sum(sizes) == 200
        assert backend.entry_count() == 200
        assert min(sizes) >= 20  # CRC-32 spreads ~50 per shard
        backend.close()

    def test_get_many_preserves_request_order(self):
        backend = ShardedBackend([MemoryBackend() for _shard in range(3)])
        batch = entry_batch(12)
        backend.add_many(batch)
        wanted = [entry.identifier for entry in reversed(batch)]
        results = backend.get_many(wanted)
        assert [entry.identifier for entry in results] == wanted
        backend.close()

    def test_fan_out_runs_children_in_parallel(self):
        delay = 0.05
        backend = ShardedBackend([SlowBackend(delay) for _shard in range(4)])
        batch = entry_batch(40)
        backend.add_many(batch)
        identifiers = [entry.identifier for entry in batch]
        start = time.perf_counter()
        backend.get_many(identifiers)
        elapsed = time.perf_counter() - start
        # Serial execution would cost 4 * delay; parallel ~1 * delay.
        assert elapsed < 3 * delay
        backend.close()

    def test_add_many_is_one_bulk_call_per_shard(self):
        shards = [SpyBackend() for _shard in range(3)]
        backend = ShardedBackend(shards)
        assert backend.add_many(entry_batch(30)) == 30
        assert [shard.add_many_calls for shard in shards] == [1, 1, 1]

    def test_fan_out_propagates_lookup_errors(self):
        backend = ShardedBackend([MemoryBackend() for _shard in range(3)])
        backend.add_many(entry_batch(6))
        with pytest.raises(EntryNotFound):
            backend.get_many(["entry-0", "nope-1", "nope-2", "entry-1"])
        backend.close()

    def test_create_builds_durable_shards(self, tmp_path):
        backend = ShardedBackend.create("sqlite", tmp_path / "cluster",
                                        shard_count=2)
        backend.add_many(entry_batch(8))
        backend.close()
        assert (tmp_path / "cluster" / "shard-00.db").is_file()
        assert (tmp_path / "cluster" / "shard-01.db").is_file()
        reopened = ShardedBackend.create("sqlite", tmp_path / "cluster",
                                         shard_count=2)
        assert reopened.entry_count() == 8
        reopened.close()

    def test_create_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedBackend.create("memory", tmp_path)
        with pytest.raises(StorageError):
            ShardedBackend.create("sqlite", tmp_path, shard_count=0)

    def test_close_closes_every_child(self):
        shards = [SpyBackend() for _shard in range(3)]
        ShardedBackend(shards).close()
        assert all(shard.closed for shard in shards)


# ----------------------------------------------------------------------
# Replication specifics.
# ----------------------------------------------------------------------

class TestReplication:
    def test_writes_mirror_to_every_replica(self):
        replicas = [MemoryBackend(), MemoryBackend()]
        backend = ReplicatedBackend(MemoryBackend(), replicas)
        backend.add(minimal_entry())
        backend.add_version(minimal_entry(version=Version(0, 2)))
        backend.replace_latest(minimal_entry(version=Version(0, 2),
                                             overview="Patched."))
        backend.add_many(entry_batch(3))
        for replica in replicas:
            assert_same_contents(backend.primary, replica)
        assert backend.replica_write_failures == 0

    def test_primary_failure_fails_the_write_and_mirrors_nothing(self):
        replica = MemoryBackend()
        backend = ReplicatedBackend(MemoryBackend(), replica)
        backend.add(minimal_entry())
        with pytest.raises(DuplicateEntry):
            backend.add(minimal_entry())
        assert replica.versions("demo-example") == [Version(0, 1)]

    def test_replica_failure_is_swallowed_and_counted(self):
        replica = OutageBackend()
        backend = ReplicatedBackend(MemoryBackend(), replica)
        replica.down = True
        backend.add(minimal_entry())  # primary write still succeeds
        assert backend.replica_write_failures == 1
        assert backend.primary.has("demo-example")
        replica.down = False
        report = backend.anti_entropy()
        assert report.entries_copied == 1
        assert_same_contents(backend.primary, replica)

    def test_reads_fail_over_to_a_replica(self):
        primary = OutageBackend()
        backend = ReplicatedBackend(primary, MemoryBackend())
        backend.add(minimal_entry())
        primary.down = True
        assert backend.get("demo-example").title == "DEMO EXAMPLE"
        assert backend.identifiers() == ["demo-example"]

    def test_semantic_errors_do_not_fail_over(self):
        """EntryNotFound is an answer, not an outage — even when a
        diverged replica could have answered."""
        replica = MemoryBackend()
        replica.add(minimal_entry())  # replica-only entry
        backend = ReplicatedBackend(MemoryBackend(), replica)
        with pytest.raises(EntryNotFound):
            backend.get("demo-example")

    def test_read_failure_everywhere_raises_the_replica_error(self):
        primary, replica = OutageBackend(), OutageBackend()
        backend = ReplicatedBackend(primary, replica)
        backend.add(minimal_entry())
        primary.down = replica.down = True
        with pytest.raises(ConnectionError):
            backend.get("demo-example")


class TestAntiEntropy:
    def test_fresh_replica_receives_everything(self):
        primary = MemoryBackend()
        primary.add_many(entry_batch(4))
        primary.add_version(minimal_entry(title="ENTRY 0",
                                          version=Version(0, 2)))
        backend = ReplicatedBackend(primary, MemoryBackend())
        report = backend.anti_entropy()
        assert report.entries_copied == 4
        assert report.versions_appended == 1
        assert report.changed
        assert_same_contents(primary, backend.replicas[0])

    def test_behind_replica_receives_the_tail(self):
        backend = ReplicatedBackend(MemoryBackend(), MemoryBackend())
        backend.add(minimal_entry())
        # Divergence: versions land on the primary behind the mirror.
        backend.primary.add_version(minimal_entry(version=Version(0, 2)))
        backend.primary.add_version(minimal_entry(version=Version(0, 3)))
        report = backend.anti_entropy()
        assert report.entries_copied == 0
        assert report.versions_appended == 2
        assert_same_contents(backend.primary, backend.replicas[0])

    def test_divergent_latest_payload_is_replaced(self):
        backend = ReplicatedBackend(MemoryBackend(), MemoryBackend())
        backend.add(minimal_entry())
        backend.primary.replace_latest(minimal_entry(overview="Newer."))
        report = backend.anti_entropy()
        assert report.payloads_replaced == 1
        assert backend.replicas[0].get("demo-example").overview == "Newer."

    def test_replica_only_history_is_a_conflict_not_a_deletion(self):
        replica = MemoryBackend()
        backend = ReplicatedBackend(MemoryBackend(), replica)
        backend.add(minimal_entry())
        replica.add_version(minimal_entry(version=Version(0, 9),
                                          overview="Rogue."))
        report = backend.anti_entropy()
        assert len(report.conflicts) == 1
        assert "diverged" in report.conflicts[0]
        # Nothing was destroyed.
        assert replica.versions("demo-example") == \
            [Version(0, 1), Version(0, 9)]

    def test_replica_only_entry_is_a_conflict(self):
        replica = MemoryBackend()
        replica.add(minimal_entry(title="ROGUE ENTRY"))
        backend = ReplicatedBackend(MemoryBackend(), replica)
        backend.add(minimal_entry())
        report = backend.anti_entropy()
        assert any("unknown to the primary" in conflict
                   for conflict in report.conflicts)
        assert replica.has("rogue-entry")

    def test_repair_is_idempotent(self):
        primary = MemoryBackend()
        primary.add_many(entry_batch(5))
        backend = ReplicatedBackend(primary, MemoryBackend())
        assert backend.anti_entropy().changed
        second = backend.anti_entropy()
        assert not second.changed
        assert second.conflicts == []

    def test_repairs_durable_file_replica_of_sqlite_primary(self, tmp_path):
        """The §5.4 scenario: sqlite primary, wiki-independent file copy."""
        primary = SQLiteBackend(tmp_path / "primary.db")
        primary.add_many(entry_batch(6))
        backend = ReplicatedBackend(primary,
                                    FileBackend(tmp_path / "copy"))
        report = backend.anti_entropy()
        assert report.entries_copied == 6
        assert_same_contents(primary, backend.replicas[0])
        backend.close()


class TestOneMirrorPath:
    """Both modes mirror through the trailing log: same order, same
    breaker claim, same failure rule."""

    def test_a_switch_to_sync_keeps_replica_order(self):
        """A write that lands while the switch joins a parked applier
        queues behind the op the applier is still applying."""
        replica = GatedBackend()
        pair = ReplicatedBackend(MemoryBackend(), replica, mode="async")
        try:
            pair.add(minimal_entry())
            assert replica.entered.wait(5)  # the applier is parked in add
            switch = threading.Thread(
                target=pair.set_replication_mode, args=("sync",))
            switch.start()
            deadline = time.monotonic() + 5
            while pair.mode != "sync" and time.monotonic() < deadline:
                time.sleep(0.001)
            assert pair.mode == "sync"
            release = threading.Timer(0.2, replica.gate.set)
            release.start()
            pair.add_version(minimal_entry(version=Version(0, 2)))
            switch.join(5)
            release.join(5)
            assert replica.versions("demo-example") == \
                pair.primary.versions("demo-example")
            assert pair.replica_write_failures == 0
        finally:
            replica.gate.set()
            pair.close()

    def test_half_open_trial_in_async_mode_is_dialled_once(self):
        """The writer claims the half-open trial at enqueue; the applier
        must then dial it, not refuse it as a second claim."""
        now = [0.0]
        injector = FaultInjector()
        replica = FlakyBackend(MemoryBackend(), injector, "replica")
        pair = ReplicatedBackend(
            MemoryBackend(), replica, mode="async", failure_threshold=1,
            reset_timeout=5.0, clock=lambda: now[0])
        try:
            first, second = entry_batch(2)
            replica.kill()
            pair.add(first)
            assert pair.wait_for_replication(5)
            replica.revive()
            now[0] += 6.0  # past reset_timeout: the breaker is half-open
            pair.add(second)
            assert pair.wait_for_replication(5)
            stats = pair.resilience_stats()
            assert stats["replicas"][0]["state"] == "closed"
            assert stats["replica_write_failures"] == 1
        finally:
            pair.close()


# ----------------------------------------------------------------------
# Composite instrumentation: every child counted exactly once.
# ----------------------------------------------------------------------

class ProbeBackend(MemoryBackend):
    """A memory backend whose cache_stats carry a unique tag, so a
    merged composite report can be audited child by child."""

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag

    def cache_stats(self):
        return {"probe": {"children": 1},
                f"probe:{self.tag}": {"children": 1}}


class TestCompositeStats:
    """cache_stats()/query_stats() over composites must include every
    child exactly once — no child skipped, none double-counted — and
    that must survive nesting (sharded-of-replicated)."""

    def test_sharded_cache_stats_sum_each_shard_once(self):
        backend = ShardedBackend([ProbeBackend(f"s{i}") for i in range(3)])
        stats = backend.cache_stats()
        assert stats["probe"] == {"children": 3}
        for index in range(3):
            assert stats[f"probe:s{index}"] == {"children": 1}
        backend.close()

    def test_replicated_cache_stats_cover_every_copy_once(self):
        backend = ReplicatedBackend(
            ProbeBackend("primary"),
            [ProbeBackend("r0"), ProbeBackend("r1")])
        stats = backend.cache_stats()
        assert stats["probe"] == {"children": 3}
        assert set(stats) == {"probe", "probe:primary",
                              "probe:r0", "probe:r1"}

    def test_nested_sharded_of_replicated_counts_leaves_once(self):
        shards = [
            ReplicatedBackend(ProbeBackend(f"p{i}"),
                              [ProbeBackend(f"r{i}")])
            for i in range(2)
        ]
        backend = ShardedBackend(shards)
        stats = backend.cache_stats()
        # Four leaves in the tree, each contributing exactly one unit.
        assert stats["probe"] == {"children": 4}
        assert set(stats) == {"probe", "probe:p0", "probe:r0",
                              "probe:p1", "probe:r1"}
        backend.close()

    def test_service_reports_the_composite_stats(self):
        shards = [ReplicatedBackend(ProbeBackend(f"p{i}"),
                                    [ProbeBackend(f"r{i}")])
                  for i in range(2)]
        from repro.repository.service import RepositoryService
        service = RepositoryService(ShardedBackend(shards))
        stats = service.cache_stats()
        assert stats["probe"] == {"children": 4}
        assert stats == service.backend.cache_stats()  # no cache of its own
        service.close()

    def test_sharded_query_stats_count_each_entry_once(self):
        backend = ShardedBackend([MemoryBackend() for _shard in range(3)])
        reference = MemoryBackend()
        for store in (backend, reference):
            store.add_many(entry_batch(12))
        stats = backend.query_stats(["entry", "demo"])
        expected = reference.query_stats(["entry", "demo"])
        assert stats.document_count == 12
        assert stats.document_frequency == expected.document_frequency
        backend.close()

    def test_nested_query_stats_do_not_double_count_replicas(self):
        """A replicated shard holds the same corpus on every copy;
        stats must come from *one* copy, or IDF would be diluted by
        the replica count."""
        shards = [ReplicatedBackend(MemoryBackend(),
                                    [MemoryBackend(), MemoryBackend()])
                  for _shard in range(2)]
        backend = ShardedBackend(shards)
        reference = MemoryBackend()
        for store in (backend, reference):
            store.add_many(entry_batch(10))
        stats = backend.query_stats(["entry"])
        expected = reference.query_stats(["entry"])
        assert stats.document_count == 10  # not 30
        assert stats.document_frequency == expected.document_frequency
        backend.close()
