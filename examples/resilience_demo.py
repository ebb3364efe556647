#!/usr/bin/env python3
"""Resilience demo: riding out a brownout without stalling anyone.

Run with::

    python examples/resilience_demo.py

The PR-9 resilience layer, end to end, in one process:

1. a two-shard repository where each shard is a replicated pair and
   every primary can be *browned out* — made slow-but-alive, the
   failure mode error-triggered failover never catches;
2. a per-shard deadline on the sharded router: reads of the
   browned-out key-range fail in ~150ms with `DeadlineExceeded`
   instead of stalling callers for the full injected delay, while the
   healthy shard keeps serving at full speed;
3. a `RetryPolicy` (decorrelated jitter + retry budget) riding a
   killed-then-revived replica: the circuit breaker opens after three
   failed writes, suspends the replica, fails fast while it is down,
   and `check_health()` anti-entropy-repairs the missed writes
   *before* the replica rejoins the read rotation;
4. the HTTP door under overload: admission control clamps in-flight
   handlers, the excess gets 503 + Retry-After, and the default client
   policy waits the hinted delay and succeeds.
"""

from __future__ import annotations

import threading
import time

from repro.core.errors import (
    BackendUnavailableError,
    DeadlineExceeded,
    StorageError,
)
from repro.repository import (
    Deadline,
    FaultInjector,
    FlakyBackend,
    HTTPBackend,
    MemoryBackend,
    ReplicatedBackend,
    RepositoryServer,
    RepositoryService,
    RetryPolicy,
    ShardedBackend,
    SlowBackend,
    deadline_scope,
    shard_index,
)
from repro.repository.entry import (
    ExampleEntry,
    ModelDescription,
    RestorationSpec,
)
from repro.repository.template import EntryType
from repro.repository.versioning import Version


def demo_entry(title: str) -> ExampleEntry:
    return ExampleEntry(
        title=title, version=Version(0, 1),
        types=(EntryType.SKETCH,),
        overview="A resilience-demo entry.",
        models=(ModelDescription("M", "Left."),
                ModelDescription("N", "Right.")),
        consistency="They agree.",
        restoration=RestorationSpec(combined="Copy."),
        discussion="Injected traffic.", authors=("Demo",))


def build_stack():
    """Two shards, each a replicated pair with a brownout-able primary."""
    injector = FaultInjector()
    slow_primaries, replicas, pairs = [], [], []
    for index in range(2):
        slow = SlowBackend(MemoryBackend(), injector,
                           f"shard{index}.brownout", delay=1.0)
        replica = FlakyBackend(MemoryBackend(), injector,
                               f"shard{index}.replica")
        slow_primaries.append(slow)
        replicas.append(replica)
        pairs.append(ReplicatedBackend(slow, [replica]))
    sharded = ShardedBackend(pairs, shard_timeout=0.15)
    return sharded, slow_primaries, replicas, pairs


def main() -> None:
    sharded, slow_primaries, replicas, pairs = build_stack()
    service = RepositoryService(sharded)

    # Seed one entry per shard so both key-ranges are observable.
    by_shard: dict[int, ExampleEntry] = {}
    index = 0
    while len(by_shard) < 2:
        entry = demo_entry(f"DEMO ENTRY {index}")
        shard = shard_index(entry.identifier, 2)
        if shard not in by_shard:
            service.add(entry)
            by_shard[shard] = entry
        index += 1
    print(f"repository: {service.entry_count()} entries across 2 shards")

    # 1. Brownout: shard 0's primary turns slow (1s per call), alive.
    print("\n-- brownout: shard 0 goes slow-but-alive --")
    slow_primaries[0].brownout()
    started = time.perf_counter()
    try:
        service.get(by_shard[0].identifier)
    except DeadlineExceeded as error:
        elapsed = time.perf_counter() - started
        print(f"shard-0 read failed fast in {elapsed * 1000:.0f}ms "
              f"(injected delay was 1000ms): {error}")
    started = time.perf_counter()
    healthy = service.get(by_shard[1].identifier)
    elapsed = time.perf_counter() - started
    print(f"shard-1 read unaffected: {healthy.title!r} "
          f"in {elapsed * 1000:.1f}ms")
    slow_primaries[0].restore()
    time.sleep(slow_primaries[0].delay)  # drain the abandoned straggler
    restored = service.get(by_shard[0].identifier)
    print(f"after restore: shard-0 serves {restored.title!r} again")

    # 2. Replica outage -> breaker opens -> repair-then-rejoin.
    print("\n-- replica outage on shard 0: breaker + reintegration --")
    replicas[0].kill()
    outage_writes, attempt = 0, 0
    while outage_writes < 3:  # route the writes onto the broken shard
        entry = demo_entry(f"DURING OUTAGE {attempt}")
        attempt += 1
        if shard_index(entry.identifier, 2) == 0:
            service.add(entry)
            outage_writes += 1
    pair = pairs[0]
    print(f"after 3 failed mirror writes: suspended replicas = "
          f"{pair.suspended_replicas()}, "
          f"stats = {pair.resilience_stats()['replicas'][0]}")
    print(f"health check while still down reintegrates: "
          f"{pair.check_health()} (nothing — it is still dead)")
    replicas[0].revive()
    recovered = pair.check_health()
    print(f"health check after revival reintegrates: {recovered} "
          f"(repaired first: replica now holds "
          f"{replicas[0].entry_count()} entries, "
          f"primary {pair.primary.entry_count()})")

    # 3. Overload at the HTTP door: shed with Retry-After, ride back in.
    print("\n-- overload: admission control at the HTTP door --")
    server = RepositoryServer(service, max_inflight=1,
                              shed_retry_after=0.2).start()
    print(f"serving on {server.url} with max_inflight=1")
    hot = by_shard[1].identifier
    holder = HTTPBackend(server.url)
    single_shot = HTTPBackend(server.url,
                              retry_policy=RetryPolicy(max_attempts=1))
    slow_primaries[1].brownout()  # make the held request slow
    entered = threading.Event()

    def hold() -> None:
        entered.set()
        try:
            holder.get(hot)
        except StorageError as error:
            # Even the request hogging the only slot is bounded: the
            # per-shard deadline cuts the browned-out read off
            # server-side rather than letting it squat indefinitely.
            print(f"held request itself was deadline-bounded: {error}")

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    entered.wait()
    time.sleep(0.1)  # let the held request occupy the only slot
    try:
        single_shot.get(hot)
    except BackendUnavailableError as error:
        print(f"second request shed: {error} "
              f"(retry after {error.retry_after}s)")
    slow_primaries[1].restore()
    thread.join()
    # The default client policy honours the Retry-After hint and wins.
    patient = HTTPBackend(server.url)
    with deadline_scope(Deadline.after(5.0)):
        ridden = patient.get(hot)
    print(f"default retry policy rode the shed out: {ridden.title!r}")
    admission = server.metrics.snapshot()["admission"]
    print(f"server admission counters: {admission}")

    patient.close()
    single_shot.close()
    holder.close()
    server.stop()
    service.close()
    print("\nresilience demo OK")


if __name__ == "__main__":
    main()
