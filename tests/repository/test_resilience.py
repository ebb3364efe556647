"""The resilience layer: deadlines, budgets, breakers, probes — and the
end-to-end behaviours they buy the serving stack (fast typed timeouts,
load shedding, repair-before-rejoin reintegration)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import (
    BackendUnavailableError,
    CircuitOpenError,
    DeadlineExceeded,
    EntryNotFound,
)
from repro.repository import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FlakyBackend,
    HealthProbe,
    HTTPBackend,
    MemoryBackend,
    ReplicatedBackend,
    RepositoryServer,
    RepositoryService,
    RetryBudget,
    RetryPolicy,
    ShardedBackend,
    SlowBackend,
    current_deadline,
    deadline_scope,
    shard_index,
)
from tests.repository.test_entry import minimal_entry


class FakeClock:
    """A steppable monotonic clock for breaker/deadline tests."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Deadline.
# ----------------------------------------------------------------------

class TestDeadline:
    def test_after_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_only_after_expiry(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.check("warm-up")  # fine
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded, match="warm-up"):
            deadline.check("warm-up")

    def test_cap_bounds_timeouts_with_an_epsilon_floor(self):
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        assert deadline.cap(30.0) == pytest.approx(0.5)
        assert deadline.cap(0.2) == pytest.approx(0.2)
        assert deadline.cap(None) == pytest.approx(0.5)
        clock.advance(10.0)
        assert deadline.cap(30.0) == 0.001  # floored, never zero/negative

    def test_scope_nests_and_restores(self):
        assert current_deadline() is None
        outer = Deadline.after(5.0)
        inner = Deadline.after(1.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
            with deadline_scope(None):  # deliberate shed
                assert current_deadline() is None
        assert current_deadline() is None


# ----------------------------------------------------------------------
# RetryBudget / RetryPolicy.
# ----------------------------------------------------------------------

class TestRetryBudget:
    def test_spend_drains_and_successes_refill(self):
        budget = RetryBudget(capacity=2.0, refill_rate=0.5)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # drained
        budget.record_success()
        assert budget.tokens == pytest.approx(0.5)
        assert not budget.try_spend()  # still under one whole token
        budget.record_success()
        assert budget.try_spend()

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=1.0, refill_rate=5.0)
        budget.record_success()
        assert budget.tokens == 1.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0)


class PinnedRandom:
    """An rng whose uniform() always returns the interval's high end."""

    def uniform(self, low, high):
        return high


class TestRetryPolicy:
    def policy(self, **overrides):
        slept = []
        defaults = dict(
            max_attempts=4, base_delay=0.1, max_delay=10.0,
            rng=PinnedRandom(), sleep=slept.append)
        defaults.update(overrides)
        return RetryPolicy(**defaults), slept

    def test_decorrelated_jitter_schedule(self):
        policy, slept = self.policy()
        calls = [0]

        def flaky():
            calls[0] += 1
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            policy.call(flaky)
        assert calls[0] == 4
        # Pinned to the high end: 0.1*3, then 0.3*3, then 0.9*3.
        assert slept == pytest.approx([0.3, 0.9, 2.7])
        assert policy.retries == 3

    def test_max_delay_caps_the_schedule(self):
        policy, slept = self.policy(max_delay=0.5)
        with pytest.raises(ConnectionError):
            policy.call(self.always_down)
        assert max(slept) == 0.5

    @staticmethod
    def always_down():
        raise ConnectionError("down")

    def test_success_after_failures_returns_the_result(self):
        policy, slept = self.policy()
        outcomes = iter([ConnectionError("x"), ConnectionError("x"), "ok"])

        def sometimes():
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        assert policy.call(sometimes) == "ok"
        assert len(slept) == 2

    def test_classify_veto_fails_immediately(self):
        policy, slept = self.policy()

        def semantic():
            raise EntryNotFound("nope")

        with pytest.raises(EntryNotFound):
            policy.call(semantic)
        assert slept == []  # semantic errors are never retried

    def test_budget_veto_stops_retries(self):
        budget = RetryBudget(capacity=1.0, refill_rate=0.0)
        policy, slept = self.policy(budget=budget)
        with pytest.raises(ConnectionError):
            policy.call(self.always_down)
        assert len(slept) == 1  # one retry spent the only token

    def test_first_attempt_success_refills_the_budget(self):
        budget = RetryBudget(capacity=10.0, refill_rate=0.25)
        policy, _ = self.policy(budget=budget)
        before = budget.tokens
        assert policy.call(lambda: "fine") == "fine"
        assert budget.tokens == before  # already at capacity: capped
        budget._tokens = 1.0  # drain, then verify the deposit
        policy.call(lambda: "fine")
        assert budget.tokens == pytest.approx(1.25)

    def test_retry_after_hint_overrides_computed_delay(self):
        policy, slept = self.policy()

        def shedding():
            raise BackendUnavailableError("shed", retry_after=1.5)

        with pytest.raises(BackendUnavailableError):
            policy.call(shedding)
        assert slept == pytest.approx([1.5, 1.5, 1.5])

    def test_deadline_vetoes_a_retry_that_cannot_fit(self):
        clock = FakeClock()
        deadline = Deadline.after(0.2, clock=clock)
        policy, slept = self.policy()  # first delay would be 0.3
        with pytest.raises(ConnectionError):
            policy.call(self.always_down, deadline=deadline)
        assert slept == []  # 0.3s delay > 0.2s remaining: fail now

    def test_ambient_deadline_is_picked_up(self):
        clock = FakeClock()
        policy, slept = self.policy()
        with deadline_scope(Deadline.after(0.2, clock=clock)):
            with pytest.raises(ConnectionError):
                policy.call(self.always_down)
        assert slept == []

    def test_deadline_exceeded_is_never_retried(self):
        policy, slept = self.policy()
        calls = [0]

        def out_of_time():
            calls[0] += 1
            raise DeadlineExceeded("too late")

        with pytest.raises(DeadlineExceeded):
            policy.call(out_of_time)
        assert calls[0] == 1 and slept == []

    def test_on_retry_observability_hook(self):
        policy, _ = self.policy()
        seen = []
        with pytest.raises(ConnectionError):
            policy.call(self.always_down,
                        on_retry=lambda error, attempt: seen.append(attempt))
        assert seen == [1, 2, 3]

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ----------------------------------------------------------------------
# CircuitBreaker: the full state machine.
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def breaker(self, **overrides):
        clock = FakeClock()
        defaults = dict(failure_threshold=3, reset_timeout=5.0, clock=clock)
        defaults.update(overrides)
        return CircuitBreaker(**defaults), clock

    def test_closed_until_threshold_consecutive_failures(self):
        breaker, _ = self.breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_refuses_and_guard_raises_with_retry_after(self):
        breaker, _ = self.breaker(name="replica-1")
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError, match="replica-1") as excinfo:
            breaker.guard()
        assert excinfo.value.retry_after == 5.0

    def test_half_open_admits_exactly_one_trial(self):
        breaker, clock = self.breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # the trial
        assert not breaker.allow()   # everyone else waits for its outcome

    def test_trial_success_closes(self):
        closed = []
        breaker, clock = self.breaker(on_close=closed.append)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert closed == [breaker]

    def test_trial_failure_reopens_and_restarts_the_timer(self):
        breaker, clock = self.breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # failed trial: straight back open
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 2
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_on_open_hook_fires_once_per_trip(self):
        opened = []
        breaker, _ = self.breaker(on_open=opened.append)
        for _ in range(3):
            breaker.record_failure()
        breaker.record_failure()  # already open: no second event
        assert opened == [breaker]

    def test_force_open_quarantines(self):
        breaker, _ = self.breaker()
        breaker.force_open()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 1
        breaker.force_open()  # idempotent while open
        assert breaker.opened_total == 1

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# HealthProbe.
# ----------------------------------------------------------------------

class TestHealthProbe:
    def test_check_now_tracks_health_and_fires_on_recover_once(self):
        healthy = [False]
        recoveries = []
        probe = HealthProbe(lambda: healthy[0],
                            on_recover=lambda: recoveries.append(1))
        assert not probe.check_now()
        assert not probe.healthy
        healthy[0] = True
        assert probe.check_now()
        assert probe.healthy
        assert probe.check_now()  # still healthy: no second recovery
        assert recoveries == [1]

    def test_raising_check_counts_as_unhealthy(self):
        def boom():
            raise ConnectionError("down")

        probe = HealthProbe(boom)
        assert not probe.check_now()
        assert not probe.healthy

    def test_background_thread_starts_and_stops(self):
        ticks = []
        probe = HealthProbe(lambda: ticks.append(1) or True, interval=0.01)
        probe.start()
        probe.start()  # idempotent
        deadline = Deadline.after(5.0)
        policy = RetryPolicy(max_attempts=100, base_delay=0.01,
                             max_delay=0.02)

        def saw_a_tick():
            if not ticks:
                raise ConnectionError("no tick yet")
            return True

        assert policy.call(saw_a_tick, deadline=deadline)
        probe.stop()
        assert probe._thread is None


# ----------------------------------------------------------------------
# Typed transport errors + deadline propagation, end to end.
# ----------------------------------------------------------------------

class TestTypedTransportErrors:
    def test_connection_refused_surfaces_as_backend_unavailable(self):
        client = HTTPBackend("http://127.0.0.1:1/",
                             retry_policy=RetryPolicy(max_attempts=1))
        with pytest.raises(BackendUnavailableError):
            client.get("anything")
        client.close()

    def test_bounced_server_raises_typed_error_then_recovers(self):
        """Regression: mid-bounce failures must be typed
        BackendUnavailableError, never raw ConnectionRefusedError or
        socket.timeout escaping the transport."""
        service = RepositoryService(MemoryBackend())
        entry = minimal_entry()
        service.add(entry)
        server = RepositoryServer(service).start()
        port = server.port
        client = HTTPBackend(server.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        assert client.get(entry.identifier) == entry
        server.stop()  # the bounce window
        with pytest.raises(BackendUnavailableError) as excinfo:
            client.get(entry.identifier)
        assert not type(excinfo.value) is ConnectionRefusedError
        server.requested_port = port
        server.start()
        riding = HTTPBackend(server.url)  # default policy rides back in
        assert riding.get(entry.identifier) == entry
        riding.close()
        client.close()
        server.stop()
        service.close()


class TestDeadlinePropagation:
    def test_client_deadline_beats_injected_server_latency(self):
        """A 0.25s client deadline against a 2s-slow backend must fail
        fast with DeadlineExceeded — not ride the 30s socket default."""
        injector = FaultInjector()
        slow = SlowBackend(MemoryBackend(), injector, "backend.slow",
                           delay=2.0)
        service = RepositoryService(slow)
        entry = minimal_entry()
        service.add(entry)
        server = RepositoryServer(service).start()
        client = HTTPBackend(server.url)
        try:
            slow.brownout()
            started = time.perf_counter()
            with deadline_scope(Deadline.after(0.25)):
                with pytest.raises(DeadlineExceeded):
                    client.get(entry.identifier)
            elapsed = time.perf_counter() - started
            assert elapsed < 1.5, (
                f"deadline took {elapsed:.2f}s to fire — the client "
                f"hung past its budget")
        finally:
            slow.restore()
            client.close()
            server.stop()
            service.close()

    def test_expired_deadline_fails_before_any_network_io(self):
        clock = FakeClock()
        stale = Deadline.after(0.5, clock=clock)
        clock.advance(1.0)
        client = HTTPBackend("http://127.0.0.1:1/")
        with deadline_scope(stale):
            with pytest.raises(DeadlineExceeded):
                client.get("anything")
        client.close()

    def test_deadline_header_rides_the_wire(self):
        service = RepositoryService(MemoryBackend())
        entry = minimal_entry()
        service.add(entry)
        server = RepositoryServer(service).start()
        client = HTTPBackend(server.url)
        try:
            with deadline_scope(Deadline.after(5.0)):
                assert client.get(entry.identifier) == entry
        finally:
            client.close()
            server.stop()
            service.close()


# ----------------------------------------------------------------------
# Per-shard deadlines.
# ----------------------------------------------------------------------

class TestShardedDeadlines:
    def build(self, *, shard_timeout=0.15, delay=1.0):
        injector = FaultInjector()
        slows = [SlowBackend(MemoryBackend(), injector, f"shard{i}.slow",
                             delay=delay)
                 for i in range(2)]
        sharded = ShardedBackend(slows, shard_timeout=shard_timeout)
        return sharded, slows

    def seed_both_shards(self, sharded):
        by_shard = {}
        index = 0
        while len(by_shard) < 2:
            entry = minimal_entry(title=f"SEED {index}")
            shard = shard_index(entry.identifier, 2)
            if shard not in by_shard:
                sharded.add(entry)
                by_shard[shard] = entry
            index += 1
        return by_shard

    def test_browned_out_shard_fails_its_keyrange_fast(self):
        sharded, slows = self.build()
        by_shard = self.seed_both_shards(sharded)
        slows[0].brownout()
        try:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                sharded.get(by_shard[0].identifier)
            elapsed = time.perf_counter() - started
            assert elapsed < slows[0].delay, (
                f"deadline fired in {elapsed:.2f}s — slower than the "
                f"brownout itself")
            # The healthy shard is unaffected.
            assert sharded.get(by_shard[1].identifier) == by_shard[1]
        finally:
            slows[0].restore()
            time.sleep(slows[0].delay)  # drain the abandoned straggler
            sharded.close()

    def test_no_shard_timeout_means_no_deadline_machinery(self):
        injector = FaultInjector()
        backends = [MemoryBackend(), MemoryBackend()]
        sharded = ShardedBackend(backends)
        assert sharded.shard_timeout is None
        entry = minimal_entry()
        sharded.add(entry)
        assert sharded.get(entry.identifier) == entry
        sharded.close()
        assert injector.fired_counts() == {}


# ----------------------------------------------------------------------
# Replica suspension and reintegration.
# ----------------------------------------------------------------------

class TestReplicaReintegration:
    def build(self, *, reset_timeout=60.0):
        injector = FaultInjector()
        primary = MemoryBackend()
        raw_replica = MemoryBackend()
        replica = FlakyBackend(raw_replica, injector, "replica")
        pair = ReplicatedBackend(primary, [replica],
                                 failure_threshold=3,
                                 reset_timeout=reset_timeout)
        return pair, replica, raw_replica

    def test_breaker_opens_and_suspends_after_threshold(self):
        pair, replica, _ = self.build()
        replica.kill()
        for index in range(3):
            pair.add(minimal_entry(title=f"WRITE {index}"))
        assert pair.suspended_replicas() == (0,)
        stats = pair.resilience_stats()
        assert stats["replicas"][0]["state"] == CircuitBreaker.OPEN
        assert stats["replicas"][0]["suspended"] is True
        assert stats["replica_write_failures"] == 3

    def test_open_breaker_skips_mirror_attempts(self):
        pair, replica, _ = self.build()
        replica.kill()
        for index in range(3):
            pair.add(minimal_entry(title=f"WRITE {index}"))
        fired_at_open = replica.injector.fired(replica.point)
        pair.add(minimal_entry(title="AFTER OPEN"))
        # The dead replica was not even dialled: skip, count, move on.
        assert replica.injector.fired(replica.point) == fired_at_open
        assert pair.resilience_stats()["replica_write_failures"] == 4

    def test_check_health_refuses_a_still_dead_replica(self):
        pair, replica, _ = self.build()
        replica.kill()
        for index in range(3):
            pair.add(minimal_entry(title=f"WRITE {index}"))
        assert pair.check_health() == []
        assert pair.suspended_replicas() == (0,)

    def test_reintegration_repairs_before_rejoin(self):
        pair, replica, raw_replica = self.build()
        replica.kill()
        entries = [minimal_entry(title=f"WRITE {index}")
                   for index in range(4)]
        for entry in entries:
            pair.add(entry)
        assert pair.suspended_replicas() == (0,)
        # The raw replica missed every write while dead.
        assert raw_replica.entry_count() == 0
        replica.revive()
        assert pair.check_health() == [0]
        assert pair.suspended_replicas() == ()
        assert pair.reintegrations == 1
        # Repair-before-rejoin: by the time it is back in rotation the
        # replica holds everything the primary does.
        for entry in entries:
            assert raw_replica.get(entry.identifier) == entry

    def test_reintegrate_failure_keeps_the_replica_suspended(self):
        pair, replica, _ = self.build()
        replica.kill()
        for index in range(3):
            pair.add(minimal_entry(title=f"WRITE {index}"))
        with pytest.raises(ConnectionError):
            pair.reintegrate(0)  # still dead: repair itself fails
        assert pair.suspended_replicas() == (0,)

    def test_reads_fail_over_while_suspended(self):
        pair, replica, _ = self.build()
        entry = minimal_entry()
        pair.add(entry)
        replica.kill()
        for index in range(3):
            pair.add(minimal_entry(title=f"WRITE {index}"))
        assert pair.get(entry.identifier) == entry  # primary serves

    def test_start_reintegration_probe_drives_recovery(self):
        pair, replica, raw_replica = self.build()
        replica.kill()
        for index in range(3):
            pair.add(minimal_entry(title=f"WRITE {index}"))
        replica.revive()
        probe = pair.start_reintegration_probe(interval=0.01)
        policy = RetryPolicy(max_attempts=200, base_delay=0.01,
                             max_delay=0.02)

        def rejoined():
            if pair.suspended_replicas():
                raise ConnectionError("still suspended")
            return True

        try:
            assert policy.call(rejoined, deadline=Deadline.after(5.0))
        finally:
            pair.close()
        assert raw_replica.entry_count() == pair.primary.entry_count()


# ----------------------------------------------------------------------
# Server admission control.
# ----------------------------------------------------------------------

class TestServerAdmission:
    def test_overload_is_shed_with_retry_after(self):
        injector = FaultInjector()
        slow = SlowBackend(MemoryBackend(), injector, "backend.slow",
                           delay=0.6)
        service = RepositoryService(slow)
        entry = minimal_entry()
        service.add(entry)
        server = RepositoryServer(service, max_inflight=1,
                                  shed_retry_after=2.5).start()
        holder = HTTPBackend(server.url)
        prober = HTTPBackend(server.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        slow.brownout()
        inside = threading.Event()
        results = []

        def hold():
            inside.set()
            results.append(holder.get(entry.identifier))

        thread = threading.Thread(target=hold, daemon=True)
        try:
            thread.start()
            inside.wait(5.0)
            time.sleep(0.1)  # let the held request enter the handler
            with pytest.raises(BackendUnavailableError) as excinfo:
                prober.get(entry.identifier)
            assert excinfo.value.retry_after == pytest.approx(2.5)
            thread.join(10.0)
            assert results == [entry]
            admission = server.metrics.snapshot()["admission"]
            assert admission["shed_overload"] >= 1
        finally:
            slow.restore()
            prober.close()
            holder.close()
            server.stop()
            service.close()

    def test_default_policy_rides_through_a_shed(self):
        """The 503 + Retry-After handshake end to end: the default
        client policy waits the hinted delay and succeeds."""
        service = RepositoryService(MemoryBackend())
        entry = minimal_entry()
        service.add(entry)
        server = RepositoryServer(service, max_inflight=1,
                                  shed_retry_after=0.05).start()
        client = HTTPBackend(server.url)
        try:
            server._tracker.try_enter()  # squat the only slot
            try:
                with pytest.raises(BackendUnavailableError):
                    # Even with retries the slot never frees.
                    client.get(entry.identifier)
            finally:
                server._tracker.exit()
            assert client.get(entry.identifier) == entry
        finally:
            client.close()
            server.stop()
            service.close()

    def test_a_draining_server_sheds_and_a_restart_serves_again(self):
        service = RepositoryService(MemoryBackend())
        entry = minimal_entry()
        service.add(entry)
        server = RepositoryServer(service, shed_retry_after=0.25).start()
        client = HTTPBackend(server.url,
                             retry_policy=RetryPolicy(max_attempts=1))
        try:
            server._tracker.begin_drain()  # what stop() does first
            with pytest.raises(BackendUnavailableError,
                               match="draining") as excinfo:
                client.get(entry.identifier)
            assert excinfo.value.retry_after == pytest.approx(0.25)
            admission = server.metrics.snapshot()["admission"]
            assert admission["shed_draining"] >= 1
            assert admission["shed_overload"] == 0
            server.stop()
            server.start()
            restarted = HTTPBackend(server.url)
            try:
                assert restarted.get(entry.identifier) == entry
            finally:
                restarted.close()
        finally:
            client.close()
            server.stop()
            service.close()

    def test_set_max_inflight_retunes_live(self):
        service = RepositoryService(MemoryBackend())
        server = RepositoryServer(service, max_inflight=64).start()
        try:
            assert server.max_inflight == 64
            server.set_max_inflight(2)
            assert server.max_inflight == 2
        finally:
            server.stop()
            service.close()
