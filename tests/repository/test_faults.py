"""The fault-injection seam: FaultInjector, FlakyBackend, the
FileBackend crash hook, and how the scaling layer reacts to each.

The soak harness's chaos schedule is only trustworthy if the seam
itself is precise: a one-shot fault fires *exactly once*, an unarmed
wrapper is bit-identical to its inner backend, and every injected
failure is classified the way the composites expect (infra-class, so
replication fails over instead of propagating).
"""

from __future__ import annotations

import pytest

from repro.catalogue.composers import composers_entry
from repro.core.errors import BxError
from repro.repository import (
    FaultInjector,
    FileBackend,
    FlakyBackend,
    InjectedFault,
    MemoryBackend,
    ReplicatedBackend,
)
class TestFaultInjector:
    def test_one_shot_fires_exactly_once(self):
        injector = FaultInjector()
        injector.arm("p", mode="once")
        with pytest.raises(InjectedFault):
            injector.trip("p")
        # Disarmed by the first firing: every later trip is a no-op.
        injector.trip("p")
        injector.trip("p")
        assert injector.fired("p") == 1

    def test_latched_fires_until_healed(self):
        injector = FaultInjector()
        injector.arm("p", mode="latched")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                injector.trip("p")
        injector.heal("p")
        injector.trip("p")
        assert injector.fired("p") == 3

    def test_injected_fault_is_infra_class_not_bx(self):
        """ReplicatedBackend fails over on non-BxError exceptions; an
        injected fault must land in that class or chaos runs would
        surface outages as domain errors."""
        assert issubclass(InjectedFault, ConnectionError)
        assert not issubclass(InjectedFault, BxError)
        injector = FaultInjector()
        injector.arm("p", mode="once")
        with pytest.raises(ConnectionError) as outcome:
            injector.trip("p")
        assert outcome.value.point == "p"

    def test_hook_scopes_sub_points(self):
        injector = FaultInjector()
        fire = injector.hook("file.crash")
        fire("pre-rename")  # unarmed: no-op
        injector.arm("file.crash", mode="once")
        with pytest.raises(InjectedFault):
            fire("pre-rename")
        assert injector.fired("file.crash") == 1

    def test_fired_counts_snapshot(self):
        injector = FaultInjector()
        injector.arm("a", mode="latched")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.trip("a")
        assert injector.fired_counts() == {"a": 2}


class TestFlakyBackend:
    def test_unarmed_is_transparent(self):
        entry = composers_entry()
        flaky = FlakyBackend(MemoryBackend(), FaultInjector(), "p")
        flaky.add(entry)
        assert flaky.get(entry.identifier) == entry
        assert flaky.identifiers() == [entry.identifier]
        assert flaky.has(entry.identifier)
        assert flaky.entry_count() == 1

    def test_kill_blocks_reads_and_writes(self):
        entry = composers_entry()
        flaky = FlakyBackend(MemoryBackend(), FaultInjector(), "p")
        flaky.add(entry)
        flaky.kill()
        with pytest.raises(InjectedFault):
            flaky.get(entry.identifier)
        with pytest.raises(InjectedFault):
            flaky.replace_latest(entry)
        flaky.revive()
        assert flaky.get(entry.identifier) == entry

    def test_cache_stats_survive_the_outage(self):
        """Introspection stays up during a kill: composites poll
        ``cache_stats`` for reporting and must not trip the fault."""
        flaky = FlakyBackend(MemoryBackend(), FaultInjector(), "p")
        flaky.kill()
        assert isinstance(flaky.cache_stats(), dict)

    def test_kill_fails_before_mutation(self):
        """A write to a killed backend must not half-apply: the trip
        happens before delegation, so the inner store is untouched."""
        entry = composers_entry()
        inner = MemoryBackend()
        flaky = FlakyBackend(inner, FaultInjector(), "p")
        flaky.kill()
        with pytest.raises(InjectedFault):
            flaky.add(entry)
        assert not inner.has(entry.identifier)


class TestReplicationUnderFaults:
    def test_read_fails_over_when_primary_killed(self):
        entry = composers_entry()
        primary = FlakyBackend(MemoryBackend(), FaultInjector(), "p")
        replica = MemoryBackend()
        replicated = ReplicatedBackend(primary, [replica])
        replicated.add(entry)
        primary.kill()
        assert replicated.get(entry.identifier) == entry

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_replica_crash_is_counted_and_repaired(self, mode):
        """The file-crash fault end to end at the backend layer: the
        mirror write dies in the pre-rename window, the composite write
        still succeeds, and anti-entropy repairs the replica.  One
        failure rule in both modes: the op is tried once, not retried."""
        entry = composers_entry()
        injector = FaultInjector()
        primary = MemoryBackend()
        replica = MemoryBackend()
        flaky_replica = FlakyBackend(replica, injector, "replica")
        replicated = ReplicatedBackend(primary, [flaky_replica], mode=mode)
        injector.arm("replica", mode="once")
        replicated.add(entry)  # primary-first: succeeds
        assert replicated.wait_for_replication()
        assert replicated.replica_write_failures == 1
        assert injector.fired("replica") == 1
        assert not replica.has(entry.identifier)
        report = replicated.anti_entropy()
        assert report.entries_copied == 1
        assert replica.get(entry.identifier) == entry
        replicated.close()


class TestFileBackendCrashHook:
    def test_unhooked_backend_writes_normally(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        assert backend.fault_hook is None
        entry = composers_entry()
        backend.add(entry)
        assert backend.get(entry.identifier) == entry

    def test_crash_window_leaves_only_ignorable_debris(self, tmp_path):
        """A crash between counter bump and rename: the counter has
        advanced, the snapshot is absent, the ``*.json.tmp`` fragment
        is invisible to every read path — and the next (retried) write
        through a fresh backend lands cleanly."""
        root = tmp_path / "repo"
        backend = FileBackend(root)
        injector = FaultInjector()
        backend.fault_hook = injector.hook("crash")
        injector.arm("crash", mode="once")
        entry = composers_entry()
        counter_before = backend.change_counter()
        with pytest.raises(InjectedFault):
            backend.add(entry)
        assert injector.fired("crash") == 1
        assert backend.change_counter() == counter_before + 1
        debris = list(root.rglob("*.json.tmp"))
        assert len(debris) == 1
        # A fresh backend over the same tree (the restarted process).
        recovered = FileBackend(root)
        assert not recovered.has(entry.identifier)
        assert recovered.identifiers() == []
        recovered.add(entry)  # the retry
        assert recovered.get(entry.identifier) == entry

    def test_hook_fires_once_per_armed_fault(self, tmp_path):
        backend = FileBackend(tmp_path / "repo")
        injector = FaultInjector()
        backend.fault_hook = injector.hook("crash")
        entry = composers_entry()
        backend.add(entry)  # unarmed: writes fine, nothing fires
        assert injector.fired("crash") == 0
        injector.arm("crash", mode="once")
        import dataclasses
        from repro.repository.versioning import Version
        bumped = dataclasses.replace(
            entry, version=Version(entry.version.major,
                                   entry.version.minor + 1))
        with pytest.raises(InjectedFault):
            backend.add_version(bumped)
        backend.add_version(bumped)  # retry succeeds, hook spent
        assert injector.fired("crash") == 1
        assert backend.versions(entry.identifier)[-1] == bumped.version
