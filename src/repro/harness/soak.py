"""The soak runner: sustained mixed traffic with faults injected mid-run.

Microbenchmarks answer "how fast"; a repository serving millions of
users also has to answer "does it stay *correct* while things break".
This module drives Zipf-skewed read/write/query traffic for a
configurable wall-clock duration against any
:class:`~repro.repository.backends.StorageBackend` composition — the
service facade over a sharded-of-replicated stack, or an
:class:`~repro.repository.client.HTTPBackend` against a live
:class:`~repro.repository.server.RepositoryServer` — while a **fault
schedule** breaks components mid-run and an **invariant checker**
verifies, after every fault and at the end:

* **no stale cache read** — every read (and a post-fault sample) is
  compared against an in-memory oracle that mirrors exactly the writes
  the target acknowledged;
* **oracle-exact query results** — canned plans run on both sides and
  must agree on totals and identifier pages;
* **p99 latency within bound** — reads outside fault windows must stay
  under a configured ceiling.

The fault taxonomy (see :mod:`repro.repository.faults` for the seam):

* ``shard-kill`` — a shard's primary goes down (latched
  :class:`FlakyBackend`); reads must fail over to the replica, writes
  to that shard fail cleanly until the shard is revived;
* ``replica-diverge`` — a replica's latest payload is doctored behind
  the composite's back; ``anti_entropy()`` must detect and repair it;
* ``file-crash`` — a :class:`FileBackend` replica crashes between the
  change-counter bump and the content rename (the one window where the
  counter advances without content); the mirror failure is counted and
  repaired, and the crash debris must stay invisible;
* ``server-bounce`` — the HTTP server is stopped and restarted on the
  same port under keep-alive load; clients ride their stale-socket
  retry back in;
* ``brownout`` — a shard's primary turns slow-but-alive (latched
  :class:`SlowBackend`); the sharded layer's per-shard deadline must
  fail that key-range fast instead of stalling every caller;
* ``replica-recover`` — a replica dies until its circuit breaker opens
  and suspends it; after revival it must be anti-entropy-repaired
  *before* it rejoins the read rotation;
* ``overload`` — the server's admission bound is clamped and a burst of
  parallel clients drives ~2x capacity; the excess must be shed with
  503 + Retry-After while accepted requests stay oracle-correct;
* ``ingest-burst`` — a shard flips to streaming (async) replication,
  takes a write burst, and its applier thread is killed mid-burst;
  writes keep landing primary-first while replication lag accumulates,
  and ``anti_entropy()`` must drain the lag — replica/oracle equality
  is only asserted *after* the drain, and the drain time is the
  recovery metric the soak gate trends.

Run it directly for the CI tiers::

    PYTHONPATH=src python -m repro.harness.soak --seconds 20 \
        --entries 5000 --seed 7 --http --json soak.json --log soak.log
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import random
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.errors import BackendUnavailableError, StorageError
from repro.harness.metrics import LatencyRecorder
from repro.harness.workloads import (
    _CORPUS_TOPICS,
    CorpusSpec,
    corpus_author_pool,
    corpus_entry,
    zipfian_indices,
)
from repro.repository import (
    Q,
    Deadline,
    FaultInjector,
    FileBackend,
    FlakyBackend,
    HTTPBackend,
    InjectedFault,
    MemoryBackend,
    ReplicatedBackend,
    RepositoryServer,
    RepositoryService,
    RetryPolicy,
    ShardedBackend,
    SlowBackend,
    StorageBackend,
    shard_index,
)
from repro.repository.entry import Comment, ExampleEntry
from repro.repository.query import QueryResult
from repro.repository.versioning import Version

__all__ = [
    "SoakConfig",
    "SoakStack",
    "SoakRunner",
    "SoakReport",
    "FaultRecord",
    "SoakFault",
    "ShardKillFault",
    "ReplicaDivergenceFault",
    "FileCrashFault",
    "ServerBounceFault",
    "BrownoutFault",
    "ReplicaRecoverFault",
    "OverloadFault",
    "IngestBurstFault",
    "build_soak_stack",
    "default_faults",
    "run_soak",
    "main",
]

#: Errors an *active fault* is allowed to surface to the traffic loop.
#: ``StorageError`` is included because the wire layer re-raises remote
#: outages as typed storage errors; outside a fault window any
#: exception at all is an invariant violation.
_TOLERATED_DURING_FAULT = (
    InjectedFault, ConnectionError, OSError,
    http.client.HTTPException, StorageError,
)


# ----------------------------------------------------------------------
# Configuration and report rows.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SoakConfig:
    """One soak run, fully determined (wall clock aside) by its fields."""

    seconds: float = 10.0
    corpus: CorpusSpec = CorpusSpec(count=5000, seed=0)
    #: Entries loaded before traffic starts; the rest of the corpus
    #: (and indices beyond it) feed the live ``add`` stream.
    preload: int = 2000
    seed: int = 0
    batch_size: int = 16
    p99_bound_ms: float = 750.0
    #: Identifiers sampled per invariant check.
    check_sample: int = 50
    #: Operation mix (weights need not sum to 1).
    read_weight: float = 0.58
    batch_weight: float = 0.15
    query_weight: float = 0.08
    add_weight: float = 0.10
    add_version_weight: float = 0.05
    replace_weight: float = 0.04


@dataclass
class FaultRecord:
    """One injected fault: when, how long recovery took, what it did."""

    name: str
    at_seconds: float
    recovery_seconds: float
    fired: int
    details: dict[str, Any] = field(default_factory=dict)

    def row(self) -> tuple:
        return (self.name, f"{self.at_seconds:.1f}s",
                f"{self.recovery_seconds * 1e3:.0f} ms", self.fired,
                "; ".join(f"{key}={value}"
                          for key, value in sorted(self.details.items()))
                or "-")


@dataclass
class SoakReport:
    """What one soak run measured; ``ok`` is the pass/fail verdict."""

    stack: str
    seconds: float
    seed: int
    corpus_count: int
    preload: int
    entries_final: int
    ops_total: int
    expected_failures: int
    throughput_ops: float
    latencies: dict[str, dict[str, float]]
    faults: list[FaultRecord]
    invariant_checks: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def fault_names(self) -> list[str]:
        return [record.name for record in self.faults]

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["ok"] = self.ok
        return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# The stack under test.
# ----------------------------------------------------------------------

@dataclass
class SoakStack:
    """A sharded-of-replicated stack with fault handles, optionally
    fronted by a live HTTP server.

    ``target`` is what traffic talks to (the service facade, or the
    HTTP client when ``server`` is set); the remaining fields are the
    handles the fault schedule needs to break specific components.
    """

    target: StorageBackend
    service: RepositoryService
    sharded: ShardedBackend
    injector: FaultInjector
    flaky_primaries: list[FlakyBackend]
    slow_primaries: list[SlowBackend]
    replicas: list[Any]
    flaky_replicas: list[FlakyBackend]
    replicated: list[ReplicatedBackend]
    file_replica: FileBackend
    file_replica_shard: int
    server: RepositoryServer | None = None
    client: HTTPBackend | None = None

    @property
    def name(self) -> str:
        return "http" if self.server is not None else "direct"

    @property
    def shard_count(self) -> int:
        return len(self.flaky_primaries)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        self.service.close()


def build_soak_stack(root: str | Path, *, shards: int = 2,
                     http: bool = False,
                     shard_timeout: float = 0.25,
                     brownout_delay: float = 0.6,
                     breaker_reset: float = 0.2) -> SoakStack:
    """The canonical chaos target: sharded-of-replicated (+ HTTP door).

    ``shards`` replicated pairs: every primary is a
    :class:`FlakyBackend`-wrapped :class:`SlowBackend`-wrapped
    :class:`MemoryBackend` (killable *and* brownout-able), every
    replica is :class:`FlakyBackend`-wrapped (killable, so its breaker
    can open); shard 0's replica is a ``MemoryBackend`` (the divergence
    target), the last shard's replica is a :class:`FileBackend` under
    ``root`` (the crash-window target).  The sharded layer carries a
    per-shard read deadline (``shard_timeout`` < ``brownout_delay``, so
    a brownout is observable as fast typed failure), and the replicated
    pairs use a short ``breaker_reset`` so breaker-open windows resolve
    inside a CI-sized run.  With ``http=True`` the service is
    additionally served by a live :class:`RepositoryServer` and
    ``target`` is an :class:`HTTPBackend` against it.
    """
    if shards < 2:
        raise ValueError("the soak stack needs >= 2 shards "
                         "(distinct divergence and crash targets)")
    root = Path(root)
    injector = FaultInjector()
    flaky_primaries: list[FlakyBackend] = []
    slow_primaries: list[SlowBackend] = []
    replicas: list[Any] = []
    flaky_replicas: list[FlakyBackend] = []
    replicated: list[ReplicatedBackend] = []
    file_replica_shard = shards - 1
    file_replica = FileBackend(root / "file-replica")
    file_replica.fault_hook = injector.hook("file-replica.crash")
    for index in range(shards):
        slow = SlowBackend(MemoryBackend(), injector,
                           f"shard{index}.brownout",
                           delay=brownout_delay)
        primary = FlakyBackend(slow, injector, f"shard{index}.primary")
        replica: Any = (file_replica if index == file_replica_shard
                        else MemoryBackend())
        flaky_replica = FlakyBackend(replica, injector,
                                     f"shard{index}.replica")
        flaky_primaries.append(primary)
        slow_primaries.append(slow)
        replicas.append(replica)
        flaky_replicas.append(flaky_replica)
        replicated.append(ReplicatedBackend(
            primary, [flaky_replica], reset_timeout=breaker_reset))
    sharded = ShardedBackend(replicated, shard_timeout=shard_timeout)
    service = RepositoryService(sharded)
    stack = SoakStack(
        target=service, service=service, sharded=sharded,
        injector=injector, flaky_primaries=flaky_primaries,
        slow_primaries=slow_primaries,
        replicas=replicas, flaky_replicas=flaky_replicas,
        replicated=replicated,
        file_replica=file_replica, file_replica_shard=file_replica_shard,
    )
    if http:
        stack.server = RepositoryServer(service).start()
        stack.client = HTTPBackend(stack.server.url)
        stack.target = stack.client
    return stack


# ----------------------------------------------------------------------
# The fault taxonomy.
# ----------------------------------------------------------------------

class SoakFault:
    """One scheduled fault: inject, let traffic run, then recover.

    ``inject`` breaks the component (and may perform targeted traffic
    to make a one-shot fault fire); the runner then drives
    ``window_ops`` of ordinary traffic with the fault active (failures
    matching the outage are expected, anything else is a violation);
    ``recover`` repairs the component and asserts the repair took.
    Assertion failures in either phase become invariant violations.
    """

    name = "fault"
    #: Traffic operations driven while the fault is active.
    window_ops = 48

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        raise NotImplementedError

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        raise NotImplementedError


class ShardKillFault(SoakFault):
    """A shard's primary goes dark; reads fail over, writes fail clean."""

    window_ops = 64

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.name = f"shard-kill-{shard}"

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        primary = run.stack.flaky_primaries[self.shard]
        primary.kill()
        # The probe read reaches the dead primary, fails over, and
        # must still come back correct via the replica.
        identifier = run.identifier_on_shard(self.shard)
        if identifier is not None:
            survived = run.stack.target.get(identifier)
            expected = run.oracle.get(identifier)
            assert survived == expected, (
                f"failover read of {identifier!r} returned a stale "
                f"snapshot during {self.name}")
            assert run.stack.injector.fired(primary.point) >= 1, (
                f"{self.name}: probe read never reached the killed "
                f"primary")
        return {"point": primary.point}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        primary = run.stack.flaky_primaries[self.shard]
        primary.revive()
        # Recovery is proven by a write landing on the revived shard.
        # The primary's circuit breaker opened during the outage, so
        # the write fails fast (CircuitOpenError) until the breaker's
        # reset window passes and a half-open trial succeeds; the
        # sanctioned RetryPolicy rides that out.
        policy = RetryPolicy(max_attempts=30, base_delay=0.05,
                             max_delay=0.25)
        entry = policy.call(
            lambda: run.add_routed(self.shard),
            classify=lambda error: isinstance(error,
                                              BackendUnavailableError),
            deadline=Deadline.after(10.0))
        fired = run.stack.injector.fired(primary.point)
        assert fired >= 1, f"{self.name} never actually fired"
        return {"probe_write": entry.identifier, "fired": fired}


class ReplicaDivergenceFault(SoakFault):
    """A replica's latest payload is doctored; anti-entropy repairs it."""

    window_ops = 24

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.name = f"replica-diverge-{shard}"
        self._identifier: str | None = None

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        identifier = run.identifier_on_shard(self.shard)
        assert identifier is not None, \
            f"no identifier stored on shard {self.shard} to diverge"
        self._identifier = identifier
        replica = run.stack.replicas[self.shard]
        doctored = dataclasses.replace(
            replica.get(identifier),
            overview="DIVERGED by the soak harness.")
        replica.replace_latest(doctored)
        return {"identifier": identifier}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        identifier = self._identifier
        assert identifier is not None
        replica = run.stack.replicas[self.shard]
        if replica.get(identifier) == run.oracle.get(identifier):
            # Window traffic replaced the doctored payload through the
            # ordinary mirror path; doctor it again so the anti-entropy
            # repair is actually exercised.
            doctored = dataclasses.replace(
                replica.get(identifier),
                overview="DIVERGED by the soak harness.")
            replica.replace_latest(doctored)
        report = run.stack.replicated[self.shard].anti_entropy()
        assert report.payloads_replaced >= 1, (
            f"{self.name}: anti_entropy repaired nothing "
            f"(report {report})")
        assert not report.conflicts, \
            f"{self.name}: unexpected conflicts {report.conflicts}"
        repaired = run.stack.replicas[self.shard].get(identifier)
        expected = run.oracle.get(identifier)
        assert repaired == expected, \
            f"{self.name}: replica still diverged after anti_entropy"
        return {"payloads_replaced": report.payloads_replaced}


class FileCrashFault(SoakFault):
    """The file replica crashes between counter bump and content rename."""

    name = "file-crash"
    window_ops = 24
    POINT = "file-replica.crash"

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        stack = run.stack
        before = stack.injector.fired(self.POINT)
        failures_before = \
            stack.replicated[stack.file_replica_shard].replica_write_failures
        stack.injector.arm(self.POINT, mode="once")
        # A write routed to the file replica's shard makes the one-shot
        # fire inside the mirror write: the composite operation still
        # succeeds (primary-first), the mirror failure is counted.
        entry = run.add_routed(stack.file_replica_shard)
        fired = stack.injector.fired(self.POINT)
        assert fired == before + 1, (
            f"crash hook fired {fired - before} times for one armed "
            f"fault (expected exactly once)")
        failures = (stack.replicated[stack.file_replica_shard]
                    .replica_write_failures)
        assert failures == failures_before + 1, \
            "mirror failure was not counted for repair"
        self._entry = entry
        return {"identifier": entry.identifier, "fired": fired - before}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        stack = run.stack
        report = stack.replicated[stack.file_replica_shard].anti_entropy()
        assert report.changed, \
            f"{self.name}: anti_entropy found nothing to repair"
        entry = self._entry
        repaired = stack.file_replica.get(entry.identifier)
        assert repaired == run.oracle.get(entry.identifier), \
            f"{self.name}: file replica incoherent after repair"
        return {"entries_copied": report.entries_copied,
                "versions_appended": report.versions_appended}


class ServerBounceFault(SoakFault):
    """Stop and restart the HTTP server on the same port, under the
    keep-alive connections the traffic loop already holds open."""

    name = "server-bounce"
    window_ops = 48
    PROBE_TIMEOUT = 15.0

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        server = run.stack.server
        assert server is not None, "server-bounce needs an HTTP stack"
        port = server.port
        down = time.perf_counter()
        server.stop()
        server.requested_port = port  # rebind the same address
        server.start()
        return {"port": port,
                "downtime_ms": round((time.perf_counter() - down) * 1e3, 3)}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        # The server is up; prove a client (holding a now-stale
        # keep-alive socket) rides its retry back in.  The probe itself
        # goes through the sanctioned RetryPolicy — tolerated outage
        # errors are retried with jitter until the deadline runs out.
        identifier = run.hot_identifier()
        attempts = 0

        def count_attempt(_error: BaseException, _attempt: int) -> None:
            nonlocal attempts
            attempts += 1

        policy = RetryPolicy(max_attempts=120, base_delay=0.05,
                             max_delay=0.25)
        try:
            fetched = policy.call(
                lambda: run.stack.target.get(identifier),
                classify=lambda error: isinstance(
                    error, _TOLERATED_DURING_FAULT),
                deadline=Deadline.after(self.PROBE_TIMEOUT),
                on_retry=count_attempt)
        except _TOLERATED_DURING_FAULT as error:
            raise AssertionError(
                f"{self.name}: server did not come back within "
                f"{self.PROBE_TIMEOUT}s") from error
        assert fetched == run.oracle.get(identifier), \
            f"{self.name}: stale read after restart"
        return {"probe_attempts": attempts + 1}


class BrownoutFault(SoakFault):
    """A shard's primary turns slow-but-alive; the per-shard deadline
    must convert the stall into a fast typed failure for that key-range
    while the other shards stay fast."""

    window_ops = 24

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.name = f"brownout-{shard}"

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        slow = run.stack.slow_primaries[self.shard]
        slow.brownout()
        identifier = run.identifier_on_shard(self.shard)
        assert identifier is not None, \
            f"no identifier stored on shard {self.shard} to probe"
        # The browned-out shard must fail *faster* than the injected
        # delay: the deadline cuts the read off, it does not ride it.
        started = time.perf_counter()
        try:
            run.stack.target.get(identifier)
        except StorageError:
            elapsed = time.perf_counter() - started
        else:
            raise AssertionError(
                f"{self.name}: read of {identifier!r} succeeded while "
                f"the shard was browned out (deadline never engaged)")
        assert elapsed < slow.delay, (
            f"{self.name}: browned-out read took {elapsed:.3f}s — the "
            f"per-shard deadline did not fail it fast "
            f"(delay {slow.delay:.3f}s)")
        return {"probe_ms": round(elapsed * 1e3, 3)}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        slow = run.stack.slow_primaries[self.shard]
        slow.restore()
        # Deadline-abandoned stragglers may still be sleeping inside
        # the shard pool; one delay-length pause drains them so the
        # post-recovery probe measures the healthy path.
        time.sleep(slow.delay)
        identifier = run.identifier_on_shard(self.shard)
        assert identifier is not None
        started = time.perf_counter()
        fetched = run.stack.target.get(identifier)
        elapsed = time.perf_counter() - started
        assert fetched == run.oracle.get(identifier), \
            f"{self.name}: stale read after brownout recovery"
        assert elapsed < slow.delay, (
            f"{self.name}: recovered read still slow "
            f"({elapsed:.3f}s >= {slow.delay:.3f}s)")
        fired = run.stack.injector.fired(slow.point)
        assert fired >= 1, f"{self.name} never actually fired"
        return {"fired": fired, "recovered_ms": round(elapsed * 1e3, 3)}


class ReplicaRecoverFault(SoakFault):
    """A replica dies until its breaker opens and suspends it; after
    revival it must be anti-entropy-repaired *before* rejoining."""

    window_ops = 24

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.name = f"replica-recover-{shard}"

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        stack = run.stack
        pair = stack.replicated[self.shard]
        flaky = stack.flaky_replicas[self.shard]
        flaky.kill()
        # Enough mirror writes to cross the breaker's failure
        # threshold; each composite write still succeeds primary-first.
        writes = 0
        while self.shard not in pair.suspended_replicas() and writes < 8:
            run.add_routed(self.shard)
            writes += 1
        suspended = pair.suspended_replicas()
        assert suspended, (
            f"{self.name}: replica breaker never opened after "
            f"{writes} failed mirror writes")
        return {"writes_to_open": writes, "suspended": len(suspended)}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        stack = run.stack
        pair = stack.replicated[self.shard]
        flaky = stack.flaky_replicas[self.shard]
        # Still dead: a health check must NOT reintegrate it.
        assert pair.check_health() == [], (
            f"{self.name}: check_health reintegrated a replica that "
            f"is still down")
        assert pair.suspended_replicas(), \
            f"{self.name}: replica rejoined while still down"
        flaky.revive()
        started = time.perf_counter()
        recovered = pair.check_health()
        reintegration_ms = round((time.perf_counter() - started) * 1e3, 3)
        assert recovered == [0], (
            f"{self.name}: expected replica 0 to reintegrate, "
            f"got {recovered}")
        assert not pair.suspended_replicas(), \
            f"{self.name}: replica still suspended after reintegration"
        # Repair-before-rejoin: every entry the oracle saw on this
        # shard is now on the replica, payload-exact.
        replica = stack.replicas[self.shard]
        identifier = run.identifier_on_shard(self.shard)
        assert identifier is not None
        assert replica.get(identifier) == run.oracle.get(identifier), (
            f"{self.name}: replica rejoined before anti-entropy "
            f"repaired it")
        return {"reintegration_ms": reintegration_ms,
                "reintegrations": pair.reintegrations}


class OverloadFault(SoakFault):
    """The server's admission bound is clamped to one in-flight request
    and a parallel burst drives it past capacity; the excess must be
    shed (503 + Retry-After), never hung or silently dropped."""

    name = "overload"
    window_ops = 24
    BURST_CLIENTS = 6
    BURST_OPS = 4

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        server = run.stack.server
        assert server is not None, "overload needs an HTTP stack"
        self._saved_limit = server.max_inflight
        shed_before = \
            server.metrics.snapshot()["admission"]["shed_overload"]
        server.set_max_inflight(1)
        identifier = run.hot_identifier()
        sheds: list[BackendUnavailableError] = []
        served: list[float] = []

        def burst() -> None:
            # One attempt, no client-side retry: every 503 surfaces.
            client = HTTPBackend(
                server.url,
                retry_policy=RetryPolicy(max_attempts=1))
            try:
                for _ in range(self.BURST_OPS):
                    started = time.perf_counter()
                    fetched = client.get(identifier)
                    served.append(time.perf_counter() - started)
                    assert fetched == run.oracle.get(identifier), \
                        f"{self.name}: overloaded read came back stale"
            except BackendUnavailableError as error:
                sheds.append(error)
            finally:
                client.close()

        threads = [threading.Thread(target=burst, daemon=True)
                   for _ in range(self.BURST_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads), \
            f"{self.name}: burst clients hung instead of being shed"
        shed_after = \
            server.metrics.snapshot()["admission"]["shed_overload"]
        assert shed_after > shed_before, (
            f"{self.name}: no requests were shed at "
            f"2x+ capacity (limit 1, {self.BURST_CLIENTS} clients)")
        assert sheds, \
            f"{self.name}: shed requests never surfaced as typed errors"
        assert all(error.retry_after is not None for error in sheds), \
            f"{self.name}: shed responses carried no Retry-After hint"
        worst_accepted = max(served) if served else 0.0
        return {"shed_total": shed_after - shed_before,
                "client_sheds": len(sheds),
                "accepted": len(served),
                "accepted_worst_ms": round(worst_accepted * 1e3, 3)}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        server = run.stack.server
        assert server is not None
        server.set_max_inflight(self._saved_limit)
        identifier = run.hot_identifier()
        fetched = run.stack.target.get(identifier)
        assert fetched == run.oracle.get(identifier), \
            f"{self.name}: stale read after overload recovery"
        return {"restored_limit": self._saved_limit}


class IngestBurstFault(SoakFault):
    """A shard flips to streaming (async) replication, takes a write
    burst, and loses its applier thread mid-burst; ``anti_entropy()``
    must converge the lagging replica, and oracle equality against the
    replica is only asserted *after* the replication lag drains.

    The recovery wall clock the runner records for this fault *is* the
    lag-drain time (the backstop repair of every op still queued in the
    trailing log), so the soak-gate trend catches a PR that makes
    catching up slower.
    """

    window_ops = 24
    BURST_WRITES = 12

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.name = f"ingest-burst-{shard}"

    def inject(self, run: "SoakRunner") -> dict[str, Any]:
        pair = run.stack.replicated[self.shard]
        pair.set_replication_mode("async")
        # First half of the burst streams normally — prove it by
        # waiting for the applier to drain it...
        for _ in range(self.BURST_WRITES // 2):
            run.add_routed(self.shard)
        assert pair.wait_for_replication(timeout=5.0), (
            f"{self.name}: applier never drained the first half of "
            f"the burst (lag {pair.replication_lag()[0]})")
        applied = pair.async_applied
        assert applied >= self.BURST_WRITES // 2, (
            f"{self.name}: log drained but only {applied} ops were "
            f"applied asynchronously")
        # ...then the applier dies mid-burst and the rest of the burst
        # (plus the fault window's ordinary traffic) piles up in the
        # trailing log.  Writes keep succeeding primary-first: lag is
        # allowed, silent loss is not.
        killed = pair.kill_applier(0)
        for _ in range(self.BURST_WRITES - self.BURST_WRITES // 2):
            run.add_routed(self.shard)
        lag = pair.replication_lag()[0]
        assert lag >= 1, (
            f"{self.name}: trailing log empty right after the applier "
            f"was killed mid-burst")
        return {"applier_killed": killed, "lag_at_kill": lag}

    def recover(self, run: "SoakRunner") -> dict[str, Any]:
        stack = run.stack
        pair = stack.replicated[self.shard]
        lag_before = pair.replication_lag()[0]
        assert lag_before >= 1, (
            f"{self.name}: lag drained itself with a dead applier — "
            f"the log is leaking ops somewhere")
        # The replica is *expected* to be behind here; equality checks
        # against it would be wrong until the lag drains.  The primary
        # (which serves all reads) must already hold the whole burst.
        identifier = run.identifier_on_shard(self.shard)
        assert identifier is not None
        assert stack.target.get(identifier) == \
            run.oracle.get(identifier), (
                f"{self.name}: primary-side read went stale during "
                f"the burst")
        started = time.perf_counter()
        report = pair.anti_entropy()
        lag_drain_ms = round((time.perf_counter() - started) * 1e3, 3)
        assert pair.replication_lag() == [0], (
            f"{self.name}: anti_entropy left lag "
            f"{pair.replication_lag()[0]}")
        assert report.changed, (
            f"{self.name}: anti_entropy repaired nothing despite "
            f"{lag_before} logged ops")
        # Only NOW, with the lag drained, is replica/oracle equality a
        # valid invariant.
        replica = stack.replicas[self.shard]
        assert replica.get(identifier) == run.oracle.get(identifier), (
            f"{self.name}: replica still behind after the lag drained")
        # Back to the stack's steady-state synchronous mirroring (stops
        # any surviving applier after a final drain).
        pair.set_replication_mode("sync")
        return {"lag_before_repair": lag_before,
                "lag_drain_ms": lag_drain_ms,
                "entries_copied": report.entries_copied,
                "async_applied": pair.async_applied,
                "backpressure_syncs": pair.backpressure_syncs}



def default_faults(stack: SoakStack) -> list[SoakFault]:
    """One fault of every type the stack supports, spread over the run."""
    faults: list[SoakFault] = [
        ShardKillFault(0),
        ReplicaDivergenceFault(0),
        FileCrashFault(),
        BrownoutFault(0),
        ReplicaRecoverFault(0),
        IngestBurstFault(0),
    ]
    if stack.server is not None:
        faults.append(OverloadFault())
        faults.append(ServerBounceFault())
    return faults


# ----------------------------------------------------------------------
# The runner.
# ----------------------------------------------------------------------

class SoakRunner:
    """Drive mixed Zipfian traffic against a stack, breaking it on
    schedule and holding it to the oracle the whole way."""

    def __init__(self, stack: SoakStack, config: SoakConfig,
                 faults: Sequence[SoakFault] | None = None) -> None:
        self.stack = stack
        self.config = config
        self.faults = list(default_faults(stack)
                           if faults is None else faults)
        #: The in-memory oracle: a memory-backed service applied with
        #: exactly the writes the target acknowledged.  Its own index
        #: answers the expected query results.
        self.oracle = RepositoryService(MemoryBackend())
        self.rng = random.Random(config.seed)
        self.ids: list[str] = []  # hot-first (corpus order)
        self.latencies = {name: LatencyRecorder(name)
                          for name in ("get", "get_many", "query", "write")}
        self.ops_total = 0
        self.expected_failures = 0
        self.invariant_checks = 0
        self.violations: list[str] = []
        self.fault_records: list[FaultRecord] = []
        self.events: list[str] = []
        self.fault_active: SoakFault | None = None
        self._pools = config.corpus.pools()
        self._next_index = config.corpus.start + config.corpus.count
        self._fresh = config.corpus.start + config.preload
        self._zipf: "list[int]" = []
        self._zipf_at = 0
        self._started = time.monotonic()
        self._ops = self._build_mix()

    # -- setup ----------------------------------------------------------

    def _build_mix(self) -> list[tuple[str, float]]:
        config = self.config
        return [("get", config.read_weight),
                ("get_many", config.batch_weight),
                ("query", config.query_weight),
                ("add", config.add_weight),
                ("add_version", config.add_version_weight),
                ("replace_latest", config.replace_weight)]

    def preload(self) -> None:
        """Load the corpus head through the service (and the oracle)."""
        spec = self.config.corpus
        count = min(self.config.preload, spec.count)
        chunk: list[ExampleEntry] = []
        for index in range(spec.start, spec.start + count):
            chunk.append(corpus_entry(spec, index, self._pools))
            if len(chunk) >= 1000:
                self._preload_chunk(chunk)
                chunk = []
        if chunk:
            self._preload_chunk(chunk)
        self.log(f"preloaded {count} entries "
                 f"({self.stack.service.entry_count()} stored)")

    def _preload_chunk(self, chunk: list[ExampleEntry]) -> None:
        # Preload goes through the in-process service on purpose — it
        # is setup, not the traffic under measurement — and mirrors
        # into the oracle entry-object for entry-object.
        self.stack.service.add_many(chunk)
        self.oracle.add_many(chunk)
        self.ids.extend(entry.identifier for entry in chunk)

    # -- identifier streams ---------------------------------------------

    def hot_identifier(self) -> str:
        """The next identifier of the Zipfian read stream."""
        if self._zipf_at >= len(self._zipf):
            self._zipf = zipfian_indices(
                4096, len(self.ids), seed=self.rng.randrange(2 ** 31))
            self._zipf_at = 0
        index = self._zipf[self._zipf_at]
        self._zipf_at += 1
        return self.ids[min(index, len(self.ids) - 1)]

    def identifier_on_shard(self, shard: int) -> str | None:
        """Some stored identifier routed to ``shard`` (None if empty).

        Searches from the *cold* end of the corpus so faults that
        doctor a specific entry rarely collide with the Zipf-hot
        traffic stream rewriting it mid-window.
        """
        count = self.stack.shard_count
        for identifier in reversed(self.ids):
            if shard_index(identifier, count) == shard:
                return identifier
        return None

    def fresh_entry(self) -> ExampleEntry:
        """The next never-stored corpus entry (corpus tail, then beyond)."""
        spec = self.config.corpus
        if self._fresh < spec.start + spec.count:
            index = self._fresh
            self._fresh += 1
        else:
            index = self._next_index
            self._next_index += 1
        return corpus_entry(spec, index, self._pools)

    def add_routed(self, shard: int) -> ExampleEntry:
        """Add (through the target) a fresh entry routed to ``shard``."""
        count = self.stack.shard_count
        while True:
            entry = self.fresh_entry()
            if shard_index(entry.identifier, count) == shard:
                break
        self.stack.target.add(entry)
        self.oracle.add(entry)
        self.ids.append(entry.identifier)
        return entry

    # -- logging --------------------------------------------------------

    def log(self, message: str) -> None:
        stamp = time.monotonic() - self._started
        self.events.append(f"[{stamp:8.3f}s] {message}")

    # -- the run --------------------------------------------------------

    def run(self) -> SoakReport:
        self._started = time.monotonic()
        self.preload()
        start = time.monotonic()
        deadline = start + self.config.seconds
        pending = list(self.faults)
        spacing = self.config.seconds / (len(pending) + 1) \
            if pending else None
        schedule = [(start + spacing * (slot + 1), fault)
                    for slot, fault in enumerate(pending)]
        while time.monotonic() < deadline or schedule:
            if schedule and time.monotonic() >= schedule[0][0]:
                _, fault = schedule.pop(0)
                self._run_fault(fault, start)
                continue
            self._one_op()
        elapsed = time.monotonic() - start
        self._check_invariants("final")
        report = SoakReport(
            stack=self.stack.name,
            seconds=elapsed,
            seed=self.config.seed,
            corpus_count=self.config.corpus.count,
            preload=self.config.preload,
            entries_final=len(self.ids),
            ops_total=self.ops_total,
            expected_failures=self.expected_failures,
            throughput_ops=self.ops_total / elapsed if elapsed else 0.0,
            latencies={name: recorder.summary()
                       for name, recorder in self.latencies.items()},
            faults=self.fault_records,
            invariant_checks=self.invariant_checks,
            violations=self.violations,
        )
        self.log(f"run complete: {report.ops_total} ops, "
                 f"{len(report.violations)} violations")
        return report

    def _run_fault(self, fault: SoakFault, start: float) -> None:
        self.log(f"injecting {fault.name}")
        at_seconds = time.monotonic() - start
        self.fault_active = fault
        fired_before = sum(self.stack.injector.fired_counts().values())
        details: dict[str, Any] = {}
        try:
            details.update(fault.inject(self))
            for _ in range(fault.window_ops):
                self._one_op()
            recover_started = time.monotonic()
            details.update(fault.recover(self))
            recovery = time.monotonic() - recover_started
        except AssertionError as failure:
            self.violations.append(f"{fault.name}: {failure}")
            recovery = 0.0
        except Exception as failure:  # noqa: BLE001 - a broken fault is a finding
            self.violations.append(
                f"{fault.name}: {type(failure).__name__}: {failure}")
            recovery = 0.0
        finally:
            self.fault_active = None
        fired = sum(self.stack.injector.fired_counts().values()) \
            - fired_before
        self.fault_records.append(FaultRecord(
            name=fault.name, at_seconds=at_seconds,
            recovery_seconds=recovery, fired=fired, details=details))
        self._check_invariants(f"after {fault.name}")
        self.log(f"recovered from {fault.name} "
                 f"in {recovery * 1e3:.0f} ms ({details})")

    # -- one traffic operation ------------------------------------------

    def _one_op(self) -> None:
        roll = self.rng.random() * sum(w for _n, w in self._ops)
        name = self._ops[-1][0]
        for candidate, weight in self._ops:
            if roll < weight:
                name = candidate
                break
            roll -= weight
        self.ops_total += 1
        started = time.perf_counter()
        try:
            getattr(self, f"_op_{name}")()
        except Exception as error:  # noqa: BLE001 - classified below
            if self.fault_active is not None and isinstance(
                    error, _TOLERATED_DURING_FAULT):
                self.expected_failures += 1
                return
            self.violations.append(
                f"op {name}: unexpected {type(error).__name__}: {error}")
            return
        recorder = self.latencies[
            name if name in ("get", "get_many", "query") else "write"]
        # Latency under an active fault measures the outage, not the
        # system; those samples stay out of the p99 bound.
        if self.fault_active is None:
            recorder.record(time.perf_counter() - started)

    def _op_get(self) -> None:
        identifier = self.hot_identifier()
        fetched = self.stack.target.get(identifier)
        expected = self.oracle.get(identifier)
        if fetched != expected:
            raise AssertionError(f"stale read of {identifier!r}")

    def _op_get_many(self) -> None:
        requests = [self.hot_identifier()
                    for _ in range(self.config.batch_size)]
        fetched = self.stack.target.get_many(requests)
        expected = self.oracle.get_many(requests)
        if fetched != expected:
            raise AssertionError(
                f"stale batch read (size {len(requests)})")

    def _op_query(self) -> None:
        query, offset, limit = self._random_query()
        observed = self.stack.target.query(
            query, sort="identifier", offset=offset, limit=limit)
        expected = self.oracle.query(
            query, sort="identifier", offset=offset, limit=limit)
        self._compare_query(f"live query {query!r}", observed, expected)

    def _op_add(self) -> None:
        entry = self.fresh_entry()
        self.stack.target.add(entry)
        self.oracle.add(entry)
        self.ids.append(entry.identifier)

    def _op_add_version(self) -> None:
        identifier = self.hot_identifier()
        latest = self.oracle.get(identifier)
        bumped = dataclasses.replace(
            latest,
            version=Version(latest.version.major, latest.version.minor + 1),
            overview=latest.overview + " Revised under soak.")
        self.stack.target.add_version(bumped)
        self.oracle.add_version(bumped)

    def _op_replace_latest(self) -> None:
        identifier = self.hot_identifier()
        latest = self.oracle.get(identifier)
        commented = latest.with_comment(Comment(
            "soak-harness", "2026-01-01",
            f"traffic op {self.ops_total}"))
        self.stack.target.replace_latest(commented)
        self.oracle.replace_latest(commented)

    def _random_query(self):
        kind = self.rng.randrange(4)
        if kind == 0:
            query = Q.text(self.rng.choice(_CORPUS_TOPICS).split()[0])
        elif kind == 1:
            query = Q.type(self.rng.choice(
                list(self._pools[0].items)))
        elif kind == 2:
            query = Q.author(self.rng.choice(
                corpus_author_pool(self.config.corpus.authors)[:8]))
        else:
            query = Q.property(self.rng.choice(
                list(self._pools[1].items))) & Q.reviewed()
        offset = self.rng.choice((0, 0, 10))
        return query, offset, 25

    # -- the invariant checker ------------------------------------------

    def _compare_query(self, label: str, observed: QueryResult,
                       expected: QueryResult) -> None:
        if observed.total != expected.total:
            raise AssertionError(
                f"{label}: total {observed.total} != oracle "
                f"{expected.total}")
        if observed.identifiers != expected.identifiers:
            raise AssertionError(
                f"{label}: page {observed.identifiers} != oracle "
                f"{expected.identifiers}")

    def _check_invariants(self, label: str) -> None:
        """Oracle-exact reads and queries, plus the p99 ceiling."""
        self.invariant_checks += 1
        try:
            sample_size = min(self.config.check_sample, len(self.ids))
            sample = self.rng.sample(self.ids, sample_size)
            fetched = self.stack.target.get_many(sample)
            expected = self.oracle.get_many(sample)
            for identifier, got, want in zip(sample, fetched, expected,
                                             strict=True):
                if got != want:
                    self.violations.append(
                        f"{label}: stale cache read of {identifier!r}")
            versions = self.stack.target.versions_many(sample[:8])
            if versions != self.oracle.versions_many(sample[:8]):
                self.violations.append(
                    f"{label}: version histories diverged")
            for query, offset, limit in (
                    (Q.type(self._pools[0].items[0]), 0, 25),
                    (Q.author(corpus_author_pool(4)[0]), 0, 25),
                    (Q.text(_CORPUS_TOPICS[0].split()[0]), 0, 25)):
                observed = self.stack.target.query(
                    query, sort="identifier", offset=offset, limit=limit)
                oracle = self.oracle.query(
                    query, sort="identifier", offset=offset, limit=limit)
                self._compare_query(f"{label}: query {query!r}",
                                    observed, oracle)
        except AssertionError as failure:
            self.violations.append(str(failure))
        except Exception as failure:  # noqa: BLE001 - checker must not crash the run
            self.violations.append(
                f"{label}: invariant check failed with "
                f"{type(failure).__name__}: {failure}")
        reads = self.latencies["get"]
        if reads.count >= 100:
            p99_ms = reads.p99() * 1e3
            if p99_ms > self.config.p99_bound_ms:
                self.violations.append(
                    f"{label}: read p99 {p99_ms:.1f} ms over the "
                    f"{self.config.p99_bound_ms:.0f} ms bound")


def run_soak(stack: SoakStack, config: SoakConfig,
             faults: Sequence[SoakFault] | None = None) -> SoakReport:
    """Build a runner, drive the soak, return the report."""
    return SoakRunner(stack, config, faults).run()


# ----------------------------------------------------------------------
# CLI — what the CI soak tiers invoke.
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Soak the repository stack with faults injected "
                    "mid-run; non-zero exit on any invariant violation.")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--entries", type=int, default=5000,
                        help="corpus size (preload is half, capped 20k)")
    parser.add_argument("--preload", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--http", action="store_true",
                        help="front the stack with a live RepositoryServer "
                             "and drive traffic through HTTPBackend")
    parser.add_argument("--p99-bound-ms", type=float, default=750.0)
    parser.add_argument("--root", type=Path, default=None,
                        help="durable root (default: a temp directory)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report here")
    parser.add_argument("--log", type=Path, default=None,
                        help="write the event timeline here")
    arguments = parser.parse_args(argv)

    from repro.harness.reporting import soak_report_table

    preload = arguments.preload
    if preload is None:
        preload = min(arguments.entries // 2, 20_000)
    config = SoakConfig(
        seconds=arguments.seconds,
        corpus=CorpusSpec(count=arguments.entries, seed=arguments.seed),
        preload=preload,
        seed=arguments.seed,
        p99_bound_ms=arguments.p99_bound_ms,
    )
    with tempfile.TemporaryDirectory(prefix="soak-") as scratch:
        root = arguments.root or Path(scratch)
        stack = build_soak_stack(root, shards=arguments.shards,
                                 http=arguments.http)
        try:
            runner = SoakRunner(stack, config)
            report = runner.run()
        finally:
            stack.close()

    print(soak_report_table(report))
    if arguments.json is not None:
        arguments.json.write_text(report.to_json() + "\n")
        print(f"report written to {arguments.json}")
    if arguments.log is not None:
        arguments.log.write_text("\n".join(runner.events) + "\n")
        print(f"timeline written to {arguments.log}")
    if not report.ok:
        print(f"SOAK FAILED: {len(report.violations)} violation(s); "
              f"reproduce with --seed {config.seed} "
              f"--entries {config.corpus.count}", file=sys.stderr)
        for violation in report.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print(f"soak OK: {report.ops_total} ops at "
          f"{report.throughput_ops:.0f} ops/s, "
          f"{len(report.faults)} faults recovered, "
          f"{report.invariant_checks} invariant checks, 0 violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
