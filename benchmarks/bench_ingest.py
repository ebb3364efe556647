"""The write path at scale: group commit + coalescing under load.

Concurrent writes through :class:`~repro.repository.service.RepositoryService`
coalesce: whichever writer holds the write lock commits every write
queued behind it as one group through a single backend transaction
(``backend.write_group()``), so N concurrent writers pay one durable
commit per *group* instead of one per write.  The async adapter and the
HTTP server's handler threads reach that same path.  This file measures
exactly that claim, with the usual honesty rules:

* the ingested repository sits on a **durable** :class:`SQLiteBackend`
  (``durability="full"``: every commit fsyncs).  That is the deployment
  group commit exists for — under WAL's relaxed ``synchronous=NORMAL``
  commits barely cost anything and coalescing only buys back the
  transaction bookkeeping;
* writers are real ``asyncio`` coroutines going through the public
  ``add()`` coroutine, each keeping a bounded window of writes in
  flight — the shape of a bulk loader or a busy API frontend, not a
  hand-built fast path;
* the serialised baseline is the same four writer coroutines calling
  the bare backend's ``add`` on executor threads — one commit per
  write, which the baseline asserts — so the measured ratio isolates
  the group-commit win;
* :class:`TestWritePathTargets` pins the acceptance floors — coalesced
  4-writer ingest **>= 3x** the serialised write ops/s, and read p50
  *during* ingest within the no-regression bound — plus the sustained
  90/10 read/write Zipfian mix whose throughput rides into the trend
  artifact;
* the HTTP row drives four ``HTTPBackend`` client threads against a
  :class:`~repro.repository.server.RepositoryServer`: its floor is on
  the mechanism (fewer commits than writes), not on time.

The rows' ``extra_info`` (ops/second, commits per write, read p50s)
ride into ``BENCH_PR<N>.json`` via ``benchmarks/trend.py``.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench_store_backends import make_entries
from repro.harness.workloads import zipfian_identifiers
from repro.repository.aservice import AsyncRepositoryService
from repro.repository.backends import SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.server import RepositoryServer
from repro.repository.service import RepositoryService

#: The ISSUE's acceptance shape: four concurrent writer coroutines.
INGEST_WRITERS = 4

#: Writes each writer issues during a measured ingest run.
PER_WRITER = 250

#: In-flight window per writer (a loader pipelines, it does not
#: ping-pong one write at a time over the loop).
WRITE_WINDOW = 32

#: The mixed sustained run: 90% reads / 10% writes, Zipfian targets.
MIX_OPS = 1200
MIX_READ_SHARE = 0.9

#: Pre-loaded corpus the read side hits during mixed/under-ingest runs.
READ_POPULATION = 400


class IngestStack:
    """One durable-SQLite async service, ready for a measured ingest."""

    def __init__(self, tmp_path, *, preload: int = 0) -> None:
        tmp_path.mkdir(parents=True, exist_ok=True)
        self.backend = SQLiteBackend(tmp_path / "ingest.db",
                                     durability="full")
        if preload:
            self.preloaded = make_entries(preload)
            self.backend.add_many(self.preloaded)
        else:
            self.preloaded = []
        self.identifiers = [entry.identifier for entry in self.preloaded]
        self.service = AsyncRepositoryService(
            self.backend, max_pending_writes=None)

    async def ingest(self, entries, writers: int) -> float:
        """Split ``entries`` across N writer coroutines; returns ops/s."""
        return await _timed_ingest(self.service.add, entries, writers)

    def run_ingest(self, entries, writers: int = INGEST_WRITERS) -> float:
        return asyncio.run(self.ingest(entries, writers))

    def close(self) -> None:
        asyncio.run(self.service.close())


def _shares(entries, writers: int) -> list:
    per_writer = len(entries) // writers
    return [entries[index * per_writer:(index + 1) * per_writer]
            for index in range(writers)]


async def _timed_ingest(add, entries, writers: int) -> float:
    """N writer coroutines, each pipelining ``WRITE_WINDOW`` awaited
    ``add(entry)`` calls at a time over its share; returns ops/s."""
    async def writer(share) -> None:
        for start in range(0, len(share), WRITE_WINDOW):
            window = share[start:start + WRITE_WINDOW]
            await asyncio.gather(*[add(entry) for entry in window])

    started = time.perf_counter()
    await asyncio.gather(
        *[writer(share) for share in _shares(entries, writers)])
    return len(entries) / (time.perf_counter() - started)


def bare_backend_ingest(tmp_path, entries,
                        writers: int = INGEST_WRITERS) -> tuple[float, int]:
    """The serialised baseline: the same N writer coroutines, each
    write the bare durable backend's ``add`` on an executor thread, one
    commit per write.  Returns (ops/s, commits)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    backend = SQLiteBackend(tmp_path / "bare.db", durability="full")
    try:
        before = backend.change_counter()
        with ThreadPoolExecutor(max_workers=writers) as pool:
            async def run() -> float:
                loop = asyncio.get_running_loop()
                return await _timed_ingest(
                    lambda entry: loop.run_in_executor(
                        pool, backend.add, entry),
                    entries, writers)

            rate = asyncio.run(run())
        return rate, backend.change_counter() - before
    finally:
        backend.close()


def http_ingest(tmp_path, entries,
                writers: int = INGEST_WRITERS) -> tuple[float, int]:
    """N ``HTTPBackend`` client threads writing to a server over a
    durable backend.  Returns (ops/s, commits)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    backend = SQLiteBackend(tmp_path / "served.db", durability="full")
    server = RepositoryServer(RepositoryService(backend),
                              close_service=True).start()
    client = HTTPBackend(server.url)
    try:
        before = backend.change_counter()
        barrier = threading.Barrier(writers)

        def write(share) -> None:
            barrier.wait()
            for entry in share:
                client.add(entry)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=writers) as pool:
            list(pool.map(write, _shares(entries, writers)))
        elapsed = time.perf_counter() - started
        commits = backend.change_counter() - before
        assert backend.entry_count() == len(entries)
        return len(entries) / elapsed, commits
    finally:
        client.close()
        server.stop()


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


async def _timed_reads(service: AsyncRepositoryService,
                       stream: list[str]) -> list[float]:
    """Sequential point reads, each timed — the latency a client sees."""
    samples: list[float] = []
    for identifier in stream:
        started = time.perf_counter()
        await service.get(identifier)
        samples.append(time.perf_counter() - started)
    return samples


# ----------------------------------------------------------------------
# The sweep rows (ingest + mixed throughput into the trend artifact).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("path", ["bare-backend", "coalesced"])
def test_ingest_rate_sweep(benchmark, tmp_path, path):
    """4-writer durable ingest, serialised (bare backend) vs coalesced."""
    entries = make_entries(INGEST_WRITERS * PER_WRITER)
    if path == "bare-backend":
        rate, commits = benchmark.pedantic(
            bare_backend_ingest, args=(tmp_path, entries), rounds=1)
    else:
        stack = IngestStack(tmp_path)
        try:
            before = stack.backend.change_counter()
            rate = benchmark.pedantic(
                stack.run_ingest, args=(entries,), rounds=1)
            commits = stack.backend.change_counter() - before
        finally:
            stack.close()
    benchmark.extra_info["writers"] = INGEST_WRITERS
    benchmark.extra_info["write_ops_per_second"] = round(rate, 1)
    benchmark.extra_info["commits_per_write"] = round(
        commits / len(entries), 4)
    assert rate > 0


def test_http_ingest_coalesces(benchmark, tmp_path):
    """4 HTTP client threads against one server over durable SQLite.

    Each handler thread writes through the server's facade, so writes
    arriving while another commits queue behind it and land in one
    group.  Untimed floor: fewer commits than writes."""
    entries = make_entries(INGEST_WRITERS * PER_WRITER)
    rate, commits = benchmark.pedantic(
        http_ingest, args=(tmp_path, entries), rounds=1)
    writes = len(entries)
    benchmark.extra_info["writers"] = INGEST_WRITERS
    benchmark.extra_info["write_ops_per_second"] = round(rate, 1)
    benchmark.extra_info["commits_per_write"] = round(commits / writes, 4)
    print(f"\nHTTP 4-writer ingest: {rate:6.0f} ops/s, {writes} writes "
          f"in {commits} commits")
    assert commits < writes, (
        f"{writes} HTTP writes took {commits} commits: handler threads "
        f"are not coalescing")


def test_mixed_90_10_zipfian_throughput(benchmark, tmp_path):
    """The sustained mix: 90% Zipfian point reads, 10% writes.

    Four workers each replay a seeded 90/10 op stream against a
    pre-loaded durable repository — the steady-state shape of a live
    collection (readers dominate, ingest trickles).  Every op must
    succeed; the sustained ops/second rides into the trend.
    """
    stack = IngestStack(tmp_path, preload=READ_POPULATION)
    fresh = make_entries(READ_POPULATION + MIX_OPS)[READ_POPULATION:]
    workers = 4
    per_worker = MIX_OPS // workers

    async def worker(seed: int) -> int:
        rng = random.Random(seed)
        reads = zipfian_identifiers(per_worker, stack.identifiers,
                                    seed=seed)
        writes = iter(fresh[seed * per_worker:(seed + 1) * per_worker])
        done = 0
        for index in range(per_worker):
            if rng.random() < MIX_READ_SHARE:
                await stack.service.get(reads[index])
            else:
                await stack.service.add(next(writes))
            done += 1
        return done

    async def run_mix() -> float:
        started = time.perf_counter()
        counts = await asyncio.gather(
            *[worker(seed) for seed in range(workers)])
        elapsed = time.perf_counter() - started
        assert sum(counts) == workers * per_worker
        return sum(counts) / elapsed

    try:
        before = stack.backend.change_counter()
        rate = benchmark.pedantic(
            lambda: asyncio.run(run_mix()), rounds=1)
        commits = stack.backend.change_counter() - before
    finally:
        stack.close()
    benchmark.extra_info["read_share"] = MIX_READ_SHARE
    benchmark.extra_info["ops_per_second"] = round(rate, 1)
    benchmark.extra_info["commits"] = commits
    assert rate > 0


# ----------------------------------------------------------------------
# The acceptance targets, as explicit wall-clock ratios.
# ----------------------------------------------------------------------


class TestWritePathTargets:
    """The write-path floors CI's bench gate holds every PR to."""

    def test_coalesced_ingest_at_least_3x_serialised(self, tmp_path):
        """The acceptance criterion, measured end to end.

        The serialised baseline — four threads calling the bare
        backend's ``add`` — pays one durable commit (one fsync) per
        write.  The coalescing path commits each run of queued writes
        as one group; with four pipelining writers the groups reach the
        watermark and the fsync count collapses by two orders of
        magnitude.  3x is the floor; the measured ratio on the CI
        containers is typically 4-6x.
        """
        entries = make_entries(INGEST_WRITERS * PER_WRITER)
        writes = len(entries)
        serial_rate, serial_commits = bare_backend_ingest(
            tmp_path / "serial", entries)
        coalesced = IngestStack(tmp_path / "coalesced")
        try:
            before = coalesced.backend.change_counter()
            coalesced_rate = coalesced.run_ingest(entries)
            commits = coalesced.backend.change_counter() - before
        finally:
            coalesced.close()
        assert serial_commits == writes, \
            "the bare-backend baseline did not commit once per write"
        assert commits < writes
        ratio = coalesced_rate / serial_rate
        print(f"\ndurable 4-writer ingest: serialised "
              f"{serial_rate:6.0f} ops/s, coalesced "
              f"{coalesced_rate:6.0f} ops/s ({ratio:.1f}x, "
              f"{writes} writes in {commits} commits)")
        assert ratio >= 3.0, (
            f"coalesced ingest only {ratio:.2f}x the serialised "
            f"baseline: group commit is not amortising the fsyncs")

    def test_read_p50_during_ingest_within_bound(self, tmp_path):
        """Reads must not fall off a cliff while ingest bursts.

        A reader replays Zipfian point gets against the pre-loaded
        corpus twice — once idle, once while four coalescing writers
        ingest — and the under-ingest p50 must stay within the
        no-regression bound: at most 10x the idle p50 and never above
        an absolute 50ms.  The writer-preference lock makes *some*
        inflation unavoidable (a group commit holds the write lock for
        the whole group); the bound keeps it a stall, not an outage.
        """
        stack = IngestStack(tmp_path, preload=READ_POPULATION)
        entries = make_entries(
            READ_POPULATION + INGEST_WRITERS * PER_WRITER
        )[READ_POPULATION:]
        reads = 200

        async def measure() -> tuple[float, float]:
            idle = await _timed_reads(
                stack.service, zipfian_identifiers(
                    reads, stack.identifiers, seed=11))
            ingest = asyncio.ensure_future(
                stack.ingest(entries, INGEST_WRITERS))
            # Let the burst actually start before sampling under it.
            await asyncio.sleep(0.01)
            under = await _timed_reads(
                stack.service, zipfian_identifiers(
                    reads, stack.identifiers, seed=13))
            await ingest
            return _percentile(idle, 0.5), _percentile(under, 0.5)

        try:
            idle_p50, ingest_p50 = asyncio.run(measure())
        finally:
            stack.close()
        bound = max(10 * idle_p50, 0.050)
        print(f"\nread p50: idle {idle_p50 * 1000:.2f}ms, under "
              f"ingest {ingest_p50 * 1000:.2f}ms "
              f"(bound {bound * 1000:.1f}ms)")
        assert ingest_p50 <= bound, (
            f"read p50 under ingest {ingest_p50 * 1000:.1f}ms blew the "
            f"no-regression bound {bound * 1000:.1f}ms")

    def test_coalescing_commits_orders_fewer_transactions(self, tmp_path):
        """The mechanism check behind the throughput floor: the durable
        change counter (one bump per commit unit) moves by *groups*,
        not by writes, under coalesced ingest."""
        stack = IngestStack(tmp_path)
        entries = make_entries(INGEST_WRITERS * PER_WRITER)
        try:
            before = stack.backend.change_counter()
            stack.run_ingest(entries)
            commits = stack.backend.change_counter() - before
            stored = stack.backend.entry_count()
        finally:
            stack.close()
        writes = len(entries)
        assert stored == writes
        print(f"\n{writes} writes landed in {commits} commit units")
        assert commits < writes / 3, (
            f"{writes} writes took {commits} commits: coalescing is "
            f"not forming groups")
