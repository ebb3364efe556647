"""The serving layer: concurrent-reader throughput through HTTP.

The PR-5 serving stack (``repro.repository.server`` +
``repro.repository.client``) exists so many readers can hit one
repository at once.  This file measures exactly that, with the same
honesty rules as the sharded sweep in ``bench_store_backends``:

* the served repository sits on a :class:`LatencyShard` — storage with
  a fixed per-request service time whose ``sleep`` releases the GIL,
  modelling the deployment the ROADMAP aims at (data on disk or on
  another box, not resident in the serving process's heap).  The
  facade caches nothing, so every request pays the storage path;
* client threads each hold a keep-alive connection (the backend's
  thread-local) and replay a Zipfian identifier stream from
  :mod:`repro.harness.workloads` — repository reads are rank-skewed,
  not uniform;
* :class:`TestServingTargets` pins the acceptance floor the ISSUE
  sets — 16 concurrent reader threads must push **>= 3x** the
  single-thread request rate through the full HTTP layer — plus a
  latency sanity bound on the warm in-memory single-read path (the
  TCP_NODELAY regression guard: with Nagle stalls back, localhost
  round-trips jump from ~0.3ms to ~40ms and this fails loudly).
"""

from __future__ import annotations

import statistics
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest

from bench_store_backends import LatencyShard, make_entries, make_entry
from repro.core.errors import BackendUnavailableError
from repro.harness.workloads import zipfian_identifiers
from repro.repository import (
    FaultInjector,
    FlakyBackend,
    ReplicatedBackend,
    RetryPolicy,
)
from repro.repository.backends import MemoryBackend, SQLiteBackend
from repro.repository.client import HTTPBackend
from repro.repository.codec import LineMemo
from repro.repository.query import Q
from repro.repository.server import RepositoryServer
from repro.repository.service import RepositoryService

#: The client-thread sweep of the ISSUE's acceptance criterion.
SERVING_THREADS = (1, 4, 16)

#: Modelled storage service time per point read (GIL released).
STORAGE_LATENCY = 0.002

#: Entries served; small enough for CI, big enough for a Zipf tail.
POPULATION = 240

#: The streamed-batch floor's corpus (the ISSUE's 10k-entry read).
BULK_POPULATION = 10_000

#: Overview padding for the conditional-read floor (~1MB on the wire).
LARGE_OVERVIEW_WORDS = 200_000


class ServingStack:
    """One served repository + one shared client, ready to be hammered."""

    def __init__(self, *, latency: float = STORAGE_LATENCY) -> None:
        self.entries = make_entries(POPULATION)
        inner = MemoryBackend()
        backend = LatencyShard(inner, fixed=latency, per_item=0.0)
        # Populate through the fast path, serve through the slow one.
        inner.add_many(self.entries)
        self.service = RepositoryService(backend)
        self.server = RepositoryServer(self.service).start()
        self.client = HTTPBackend(self.server.url)
        self.identifiers = [entry.identifier for entry in self.entries]

    def read_stream(self, count: int, seed: int = 7) -> list[str]:
        return zipfian_identifiers(count, self.identifiers, seed=seed)

    def run_readers(self, threads: int, requests_per_thread: int) -> float:
        """Replay Zipfian reads from N threads; returns requests/second.

        Every thread pre-opens its keep-alive connection before the
        barrier drops, so the measured window contains only request
        traffic — no connection setup, no thread start-up.
        """
        stream = self.read_stream(threads * requests_per_thread)
        barrier = threading.Barrier(threads + 1)
        errors: list[Exception] = []

        def reader(offset: int) -> None:
            try:
                self.client.get(self.identifiers[0])  # open the conn
                barrier.wait()
                for index in range(requests_per_thread):
                    self.client.get(stream[offset + index])
            except Exception as error:  # pragma: no cover - fails below
                errors.append(error)
                raise

        workers = [
            threading.Thread(target=reader,
                             args=(index * requests_per_thread,))
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        barrier.wait()
        started = time.perf_counter()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        assert not errors, errors
        return (threads * requests_per_thread) / elapsed

    def run_readers_timed(
        self, threads: int, requests_per_thread: int
    ) -> tuple[float, list[float]]:
        """Like :meth:`run_readers`, but records per-request latency.

        Returns ``(requests/second, latencies)`` — the raw samples let
        the caller take whichever percentile it is gating on.  Each
        thread gets its own keep-alive :class:`HTTPBackend` (the shared
        client's thread-local connection cache would serialise 64
        threads through one socket dance on first touch).
        """
        stream = self.read_stream(threads * requests_per_thread)
        barrier = threading.Barrier(threads + 1)
        errors: list[Exception] = []
        samples: list[list[float]] = [[] for _ in range(threads)]

        def reader(slot: int) -> None:
            client = HTTPBackend(self.server.url)
            try:
                client.get(self.identifiers[0])  # open the conn
                barrier.wait()
                offset = slot * requests_per_thread
                for index in range(requests_per_thread):
                    began = time.perf_counter()
                    client.get(stream[offset + index])
                    samples[slot].append(time.perf_counter() - began)
            except Exception as error:  # pragma: no cover - fails below
                errors.append(error)
                raise
            finally:
                client.close()

        workers = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(threads)]
        for worker in workers:
            worker.start()
        barrier.wait()
        started = time.perf_counter()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        assert not errors, errors
        flat = [value for per_thread in samples for value in per_thread]
        return (threads * requests_per_thread) / elapsed, flat

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.service.close()


@pytest.fixture(scope="module")
def stack():
    built = ServingStack()
    yield built
    built.close()


@pytest.fixture(scope="module")
def warm_stack():
    """An in-memory, zero-latency stack: the HTTP layer's own floor."""
    built = ServingStack(latency=0.0)
    yield built
    built.close()


# ----------------------------------------------------------------------
# The sweep rows (the threads/throughput curve).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("threads", SERVING_THREADS)
def test_concurrent_read_sweep(benchmark, stack, threads):
    """Zipfian point reads from N client threads over latent storage."""
    requests_per_thread = 30

    rate = benchmark(stack.run_readers, threads, requests_per_thread)
    assert rate > 0


def test_64_client_p99_latency(benchmark, stack):
    """The tail at heavy fan-in: 64 concurrent clients, p99 per read.

    Four times the sweep's widest row — past the server's handler
    comfort zone, where queueing (not storage latency) sets the tail.
    A regression in the accept/dispatch path shows up as tail growth
    long before throughput moves, and the bound keeps the tail an order
    of magnitude under a queueing collapse.
    """
    clients = 64
    requests_per_thread = 10

    def run() -> tuple[float, list[float]]:
        return stack.run_readers_timed(clients, requests_per_thread)

    rate, samples = benchmark.pedantic(run, rounds=1)
    ordered = sorted(samples)
    p50 = ordered[int(len(ordered) * 0.50)]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    print(f"\n64-client reads: {rate:.0f} req/s, "
          f"p50 {p50 * 1000:.1f}ms, p99 {p99 * 1000:.1f}ms")
    assert p99 < 1.0, (
        f"64-client read p99 {p99:.3f}s: the serving path is "
        f"queueing toward collapse")


def test_http_query_round_trip(benchmark, warm_stack):
    """POST /query: the wire codec + server-side execution, warm."""
    result = benchmark(
        warm_stack.client.query, Q.text("composer sync"), limit=10)
    assert result.total > 0


def test_http_wiki_page_warm(benchmark, warm_stack):
    """GET /wiki/{id} after one GET has warmed the entry's read path.

    The server keeps no page cache: every 200 reads the entry and
    renders its page.
    """
    identifier = warm_stack.identifiers[0]

    def fetch():
        connection = warm_stack.client._connection()
        connection.request("GET", f"/wiki/{identifier}")
        response = connection.getresponse()
        return response.read()

    fetch()  # warm it
    page = benchmark(fetch)
    assert page.decode("utf-8").startswith("+ GENERATED")


def test_http_point_read_304_warm(benchmark, warm_stack):
    """GET /entries/{id} revalidated: If-None-Match in, 304 out.

    The client's validation cache already holds the entry, so a warm
    read costs one header exchange — no codec work on either side.
    """
    identifier = warm_stack.identifiers[0]
    warm_stack.client.get(identifier)  # prime the validation cache

    entry = benchmark(warm_stack.client.get, identifier)
    assert entry.identifier == identifier
    stats = warm_stack.client.wire_cache_stats()
    assert stats["validation"]["hits"] >= 1


def test_http_batch_get_streamed(benchmark, warm_stack):
    """POST /batch/get as chunked NDJSON, both wire memos warm."""
    warm_stack.client.get_many(warm_stack.identifiers)  # warm memos

    entries = benchmark(warm_stack.client.get_many,
                        warm_stack.identifiers)
    assert len(entries) == POPULATION


# ----------------------------------------------------------------------
# The acceptance targets, as explicit wall-clock ratios.
# ----------------------------------------------------------------------


class TestServingTargets:
    """The serving-layer floors CI's bench gate holds every PR to."""

    def test_16_thread_throughput_at_least_3x_single_thread(self):
        """The ISSUE's acceptance criterion, measured end to end.

        Single-thread throughput over latent storage is bounded by one
        request's round trip (storage sleep + HTTP overhead, serial);
        16 keep-alive client threads overlap the storage waits through
        16 server handler threads, so the rate must scale.  3x is the
        floor; the typical measured ratio on the CI containers is
        5-8x (the GIL serialises only the JSON/socket CPU slice).
        """
        stack = ServingStack()
        try:
            rates = {
                threads: stack.run_readers(threads,
                                           requests_per_thread=30)
                for threads in SERVING_THREADS
            }
        finally:
            stack.close()
        print("\nHTTP concurrent-reader sweep "
              f"({STORAGE_LATENCY * 1000:.0f}ms storage latency):")
        for threads, rate in rates.items():
            print(f"  {threads:2d} thread(s): {rate:7.0f} req/s")
        ratio = rates[16] / rates[1]
        print(f"  16-thread vs single-thread: {ratio:.1f}x")
        assert ratio >= 3.0

    def test_warm_single_read_latency_sane(self):
        """The TCP_NODELAY guard: a warm in-memory read through the
        whole HTTP layer stays well under the ~40ms Nagle stall."""
        stack = ServingStack(latency=0.0)
        try:
            identifier = stack.identifiers[0]
            stack.client.get(identifier)  # connection warm
            rounds = 50
            started = time.perf_counter()
            for _round in range(rounds):
                stack.client.get(identifier)
            per_request = (time.perf_counter() - started) / rounds
        finally:
            stack.close()
        print(f"\nwarm HTTP point read: {per_request * 1000:.2f}ms")
        assert per_request < 0.02  # 20ms: an order below the stall

    @pytest.mark.parametrize("store", ["memory", "sqlite"])
    def test_304_revalidation_at_least_10x_the_full_fetch(self, store,
                                                          tmp_path):
        """The conditional-read floor on a ~1MB entry.

        A revalidated read moves two header blocks and zero body; a
        full fetch serialises, compresses, ships, and re-parses a
        megabyte.  10x is the floor — the measured gap on the CI
        containers is far wider, and it is exactly the work a 304
        exists to skip.  Over SQLite both answers also pay one row
        read and one hash of the stored megabyte against its stored
        digest.  The two reads are timed in interleaved rounds (one
        full fetch, then a few revalidations) and their medians are
        compared, so load from elsewhere on the host spoils a few
        samples of each instead of one whole side.  A round holds more
        than one revalidation because the first one after a fetch
        meets a host that idled through the fetch's client-side decode
        (a cold wake-up, over a millisecond on a loaded VM), and a
        strict 1:1 alternation would time only those.
        """
        big = replace(make_entry(0),
                      overview="wire " * LARGE_OVERVIEW_WORDS)
        backend = (MemoryBackend() if store == "memory"
                   else SQLiteBackend(tmp_path / "repo.db"))
        service = RepositoryService(backend)
        service.add(big)
        server = RepositoryServer(service).start()
        client = HTTPBackend(server.url)
        identifier = big.identifier
        rounds = 25
        revalidations_per_round = 5
        revalidations: list[float] = []
        fetches: list[float] = []
        try:
            for _round in range(rounds):
                client._validation.clear()  # forget the ETag: full 200
                started = time.perf_counter()
                client.get(identifier)  # 200: primes the validation cache
                fetches.append(time.perf_counter() - started)
                for _read in range(revalidations_per_round):
                    started = time.perf_counter()
                    client.get(identifier)  # 304
                    revalidations.append(time.perf_counter() - started)
            assert client.wire_cache_stats()["validation"]["hits"] \
                == rounds * revalidations_per_round
        finally:
            client.close()
            server.stop()
            service.close()
        revalidated = statistics.median(revalidations)
        full = statistics.median(fetches)
        ratio = full / revalidated
        print(f"\n~1MB point read ({store}): 200 {full * 1000:.2f}ms, "
              f"304 {revalidated * 1000:.3f}ms ({ratio:.0f}x)")
        assert ratio >= 10.0

    def test_streamed_batch_get_2x_faster_and_memory_bounded(self):
        """The streamed-batch floor: 10k entries over one POST.

        Warm, the streamed path does no codec work on either end — the
        server streams the payload each entry object already carries,
        the client's line memo skips the JSON parse — while the
        buffered path re-materialises the full 4MB body on both sides
        every time.  Floors: at least 2x the buffered wall clock, and a
        client-side allocation peak under half the buffered one (pages,
        not the corpus, in memory).
        """
        entries = make_entries(BULK_POPULATION)
        service = RepositoryService(MemoryBackend())
        service.add_many(entries)
        server = RepositoryServer(service).start()
        streamer = HTTPBackend(server.url)
        # Size the line memo to the corpus: the floor measures the
        # steady warm state.
        streamer._line_memo = LineMemo(maxsize=BULK_POPULATION * 2)
        buffered = HTTPBackend(server.url, stream_batches=False)
        identifiers = [entry.identifier for entry in entries]
        try:
            # Warm both paths once (encoded entries, line memo,
            # connections).
            assert sum(1 for _ in streamer.iter_many(identifiers)) \
                == BULK_POPULATION
            assert len(buffered.get_many(identifiers)) == BULK_POPULATION

            tracemalloc.start()
            started = time.perf_counter()
            streamed_count = sum(
                1 for _ in streamer.iter_many(identifiers))
            streamed_time = time.perf_counter() - started
            _, streamed_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

            tracemalloc.start()
            started = time.perf_counter()
            buffered_entries = buffered.get_many(identifiers)
            buffered_time = time.perf_counter() - started
            _, buffered_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        finally:
            streamer.close()
            buffered.close()
            server.stop()
            service.close()
        assert streamed_count == len(buffered_entries) == BULK_POPULATION
        ratio = buffered_time / streamed_time
        print(f"\n10k-entry batch get: buffered {buffered_time:.3f}s, "
              f"streamed {streamed_time:.3f}s ({ratio:.1f}x); "
              f"peaks {buffered_peak / 1e6:.1f}MB vs "
              f"{streamed_peak / 1e6:.1f}MB")
        assert ratio >= 2.0
        assert streamed_peak < buffered_peak / 2

    def test_overload_shed_rate_under_2x_capacity(self, benchmark):
        """The PR-9 load-shedding floor: 2x-capacity overload is shed,
        and the *accepted* requests still finish promptly.

        The server's admission bound is clamped to 4 in-flight handlers
        over 5ms-latent storage and 8 single-attempt clients hammer it.
        Without shedding the excess queues unboundedly and every
        request's latency grows with the backlog; with it, the extras
        get an immediate 503 + Retry-After and the admitted ones pay
        roughly one storage round trip.  Floors: at least one request
        shed, every shed typed with a retry hint, accepted p99 under
        500ms (an order of magnitude below a queueing collapse).
        """
        capacity = 4
        clients = 2 * capacity
        requests_each = 25
        entries = make_entries(POPULATION)
        inner = MemoryBackend()
        inner.add_many(entries)
        backend = LatencyShard(inner, fixed=0.005, per_item=0.0)
        service = RepositoryService(backend)
        server = RepositoryServer(service, max_inflight=capacity,
                                  shed_retry_after=0.05).start()
        identifiers = [entry.identifier for entry in entries]
        accepted: list[float] = []
        sheds: list[BackendUnavailableError] = []

        def storm(seed: int) -> None:
            # One attempt, no client-side retry: every 503 is counted.
            client = HTTPBackend(
                server.url, retry_policy=RetryPolicy(max_attempts=1))
            stream = zipfian_identifiers(requests_each, identifiers,
                                         seed=seed)
            for identifier in stream:
                started = time.perf_counter()
                try:
                    client.get(identifier)
                except BackendUnavailableError as error:
                    sheds.append(error)
                else:
                    accepted.append(time.perf_counter() - started)
            client.close()

        def run_storm() -> int:
            accepted.clear()
            sheds.clear()
            workers = [threading.Thread(target=storm, args=(seed,))
                       for seed in range(clients)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            return len(sheds)

        try:
            shed_count = benchmark.pedantic(run_storm, rounds=1)
        finally:
            server.stop()
            service.close()
        total = clients * requests_each
        assert len(accepted) + shed_count == total
        assert shed_count >= 1, \
            "2x-capacity overload shed nothing: admission bound inert"
        assert all(error.retry_after is not None for error in sheds), \
            "shed responses carried no Retry-After pacing hint"
        ordered = sorted(accepted)
        p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
        shed_rate = shed_count / total
        print(f"\noverload at 2x capacity ({clients} clients vs "
              f"{capacity} slots): {shed_count}/{total} shed "
              f"({shed_rate:.0%}), accepted p99 {p99 * 1000:.1f}ms")
        assert p99 < 0.5, (
            f"accepted-request p99 {p99:.3f}s: shedding failed to "
            f"protect admitted traffic")

    def test_replica_reintegration_time_bounded(self, benchmark):
        """The PR-9 reintegration row: suspended replica back in
        rotation, repaired first, within a bounded wall clock.

        A replica dies, its breaker opens after 3 failed mirror writes,
        ~100 writes land on the primary alone, then the replica
        revives.  ``check_health`` must anti-entropy-repair the missed
        writes *before* rejoining it — the measured time is that whole
        repair-then-rejoin, and the floor keeps it an interactive
        operation rather than a background migration.
        """
        entries = make_entries(500)
        injector = FaultInjector()
        raw_replica = MemoryBackend()
        replica = FlakyBackend(raw_replica, injector, "bench.replica")
        pair = ReplicatedBackend(MemoryBackend(), [replica],
                                 failure_threshold=3)
        pair.add_many(entries[:400])  # both copies in sync
        replica.kill()
        for entry in entries[400:500]:  # primary-only writes
            pair.add(entry)
        assert pair.suspended_replicas() == (0,)
        missed = raw_replica.entry_count()
        replica.revive()

        def reintegrate() -> float:
            started = time.perf_counter()
            recovered = pair.check_health()
            elapsed = time.perf_counter() - started
            assert recovered == [0], recovered
            return elapsed

        elapsed = benchmark.pedantic(reintegrate, rounds=1)
        assert pair.reintegrations == 1
        assert pair.suspended_replicas() == ()
        assert raw_replica.entry_count() == 500, \
            "replica rejoined without the missed writes"
        print(f"\nreplica reintegration: {500 - missed} missed "
              f"entries repaired and rejoined in "
              f"{elapsed * 1000:.1f}ms")
        assert elapsed < 5.0
