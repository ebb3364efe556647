"""Replicated backend: a primary mirrored into one or more replicas.

§5.4 of the paper asks for a copy of the collection that is independent
of the wiki host.  This backend makes that copy a *live* one: every write
lands on the primary first (and fails the operation if the primary
rejects it), then is mirrored into each replica.  A replica that cannot
keep up — it was offline, it rejected a write, it was created after the
primary already had data — is repaired by :meth:`anti_entropy`, which
walks both histories and reconciles them.

Failure model:

* **primary write failure** — the operation fails; nothing is mirrored.
* **replica write failure** — the operation still succeeds; the failure
  is counted (``replica_write_failures``) and left for repair.  One
  attempt per op, in both modes: there is no retry.
* **primary read failure** — reads fail over to the replicas in order.
  Only *infrastructure* failures fail over (a closed connection, an
  OSError, a typed :class:`~repro.core.errors.BackendUnavailableError`);
  semantic errors such as :class:`~repro.core.errors.EntryNotFound` are
  real answers and propagate.

Every copy sits behind its own :class:`~repro.repository.resilience.\
CircuitBreaker`.  A primary whose breaker is open fails *writes* fast
with :class:`~repro.core.errors.CircuitOpenError` (reads just skip it
and serve from the replicas).  A replica whose breaker opens is
**suspended**: dropped from the read rotation and from mirror writes.
Suspension is deliberately one-way — a recovered replica has missed
mirror writes, so it must be anti-entropy-repaired *before* it serves a
single read again.  :meth:`reintegrate` does exactly that
(repair-then-rejoin); :meth:`check_health` probes every suspended
replica and reintegrates the ones that answer; and
:meth:`start_reintegration_probe` runs that check on a background
:class:`~repro.repository.resilience.HealthProbe` thread.

``anti_entropy()`` treats the primary as authoritative: replicas receive
missing entries, missing version tails, and the primary's latest payload
when the two disagree at the same version.  A replica history that is
*not* an append-away from the primary's (it has versions the primary
lacks) cannot be repaired through the append-only interface; it is
reported as a conflict instead of silently rewritten.

Every mirror op goes through a bounded **per-replica trailing log**,
applied in order by :meth:`_apply_replica_op`, the only replica write.
``mode`` decides who drains it: in ``"sync"`` mode the writer, inline,
before the write returns (``replication_lag()`` is 0 except while a
write is in flight); in ``"async"`` mode a background applier, once the
primary has acknowledged the write (``replication_lag()`` is then the
acknowledged-but-unapplied depth, surfaced in :meth:`resilience_stats`).

* **backpressure, never drop**: a writer that finds the log at
  ``max_lag`` drains it inline, so a stalled applier degrades writes to
  sync mirroring instead of losing ops;
* an applier failure (or :meth:`kill_applier`, the fault seam) leaves
  the log trailing; :meth:`anti_entropy` is the **documented backstop**
  — it supersedes and clears the log and reconciles the replica from
  the primary, so repair-before-rejoin holds in both modes.
  :meth:`wait_for_replication` blocks until the lag drains, which is
  what consistency checks must do before comparing replicas against an
  oracle.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.errors import (
    BackendUnavailableError,
    BxError,
    CircuitOpenError,
    DeadlineExceeded,
    StorageError,
)
from repro.repository.backends.base import (
    GetRequest,
    StorageBackend,
    merge_cache_stats,
)
from repro.repository.concurrency import Mutex
from repro.repository.entry import ExampleEntry
from repro.repository.query import QueryPlan, QueryResult, QueryStats
from repro.repository.resilience import CircuitBreaker, HealthProbe
from repro.repository.versioning import Version

__all__ = ["AntiEntropyReport", "ReplicatedBackend"]

_T = TypeVar("_T")

#: The two mirroring disciplines (see the module docstring).
_MODES = ("sync", "async")


class _ReplicaApplier(threading.Thread):
    """Background drainer of one replica's trailing log (async mode)."""

    def __init__(self, owner: "ReplicatedBackend", index: int) -> None:
        super().__init__(name=f"replica-applier-{index}", daemon=True)
        self._owner = owner
        self._index = index
        self._stop_event = threading.Event()

    def stop(self) -> None:
        self._stop_event.set()
        cond = self._owner._log_conds[self._index]
        with cond:
            cond.notify_all()

    @property
    def stopped(self) -> bool:
        return self._stop_event.is_set()

    def run(self) -> None:
        owner, index = self._owner, self._index
        cond = owner._log_conds[index]
        log = owner._logs[index]
        while not self._stop_event.is_set():
            with cond:
                while not log and not self._stop_event.is_set():
                    cond.wait(0.1)
                if self._stop_event.is_set():
                    return
            owner._drain_log(index, stop=self._stop_event)


def _is_outage(error: Exception) -> bool:
    """Infrastructure failure (fail over, trip breakers) vs real answer.

    A typed :class:`BackendUnavailableError` is an outage even though it
    is a ``BxError``; every other ``BxError`` (not-found, duplicate,
    deadline) is a semantic answer from a copy that *did* respond.
    """
    if isinstance(error, BackendUnavailableError):
        return True
    return not isinstance(error, BxError)


@dataclass
class AntiEntropyReport:
    """What one :meth:`ReplicatedBackend.anti_entropy` pass changed."""

    entries_copied: int = 0
    versions_appended: int = 0
    payloads_replaced: int = 0
    conflicts: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        total = self.entries_copied + self.versions_appended
        return total + self.payloads_replaced > 0

    def merge(self, other: "AntiEntropyReport") -> None:
        self.entries_copied += other.entries_copied
        self.versions_appended += other.versions_appended
        self.payloads_replaced += other.payloads_replaced
        self.conflicts.extend(other.conflicts)


class ReplicatedBackend(StorageBackend):
    """Primary-first writes mirrored to replicas, reads with failover."""

    def __init__(
        self,
        primary: StorageBackend,
        replicas: Sequence[StorageBackend] | StorageBackend,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        mode: str = "sync",
        max_lag: int = 512,
    ) -> None:
        self.primary = primary
        if isinstance(replicas, StorageBackend):
            replicas = [replicas]
        self.replicas = tuple(replicas)
        self.replica_write_failures = 0
        self.reintegrations = 0
        self._mutex = Mutex()
        self._suspended: set[int] = set()
        self._probe: HealthProbe | None = None
        if mode not in _MODES:
            raise StorageError(f"unknown replication mode {mode!r}")
        if max_lag <= 0:
            raise StorageError("max_lag must be positive")
        #: Mirror state.  The trailing logs are used in both modes: a
        #: sync writer drains its own op before returning.
        self._mode = mode
        self.max_lag = max_lag
        self.backpressure_syncs = 0
        self.async_applied = 0
        self._logs = tuple(deque() for _ in self.replicas)
        self._log_conds = tuple(
            threading.Condition(Mutex()) for _ in self.replicas
        )
        #: One per replica: serialises whoever is applying log ops to
        #: it (a sync writer, the applier thread, a backpressured
        #: writer, a repair).
        self._apply_mutexes = tuple(Mutex() for _ in self.replicas)
        self._appliers: list[_ReplicaApplier | None] = [None] * len(self.replicas)
        self._primary_breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            reset_timeout=reset_timeout,
            clock=clock,
            name="primary",
        )
        self._replica_breakers = tuple(
            CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_timeout=reset_timeout,
                clock=clock,
                name=f"replica-{index}",
                # An open breaker pulls the replica from rotation; only
                # reintegrate() (repair-then-rejoin) puts it back.
                on_open=lambda _breaker, index=index: self._suspend(index),
            )
            for index in range(len(self.replicas))
        )
        if self._mode == "async":
            self.start_appliers()

    # ------------------------------------------------------------------
    # Streaming replication: trailing logs, appliers, lag.
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """The current mirroring discipline: ``"sync"`` or ``"async"``."""
        return self._mode

    def set_replication_mode(self, mode: str) -> None:
        """Switch mirroring disciplines at runtime.

        Switching to sync stops the appliers and drains every trailing
        log inline, in order, so the switch never drops an acknowledged
        mirror op and a write racing it queues behind the ops already
        logged; switching to async starts an applier per replica.
        """
        if mode not in _MODES:
            raise StorageError(f"unknown replication mode {mode!r}")
        if mode == self._mode:
            return
        self._mode = mode  # from here, sync writers drain their own ops
        if mode == "async":
            self.start_appliers()
        else:
            self._stop_appliers()

    def start_appliers(self) -> list[int]:
        """(Re)start a drainer for every replica missing a live one.

        The recovery seam after :meth:`kill_applier` or an applier
        death; a no-op for replicas whose applier is already running,
        and in sync mode.  Returns the indices started.
        """
        started: list[int] = []
        if self._mode != "async":
            return started
        for index in range(len(self.replicas)):
            applier = self._appliers[index]
            if applier is not None and applier.is_alive() and not applier.stopped:
                continue
            applier = _ReplicaApplier(self, index)
            self._appliers[index] = applier
            applier.start()
            started.append(index)
        return started

    def kill_applier(self, index: int) -> bool:
        """Fault seam: stop one applier *without* draining its log.

        Simulates an applier crash mid-stream: the trailing log keeps
        accumulating (until backpressure degrades writes to inline
        sync draining) and nothing applies it until
        :meth:`start_appliers` — or :meth:`anti_entropy`, the
        documented backstop, which supersedes and clears the log.
        Returns whether an applier was actually running.
        """
        applier = self._appliers[index]
        if applier is None:
            return False
        applier.stop()
        applier.join(timeout=1.0)
        self._appliers[index] = None
        return True

    def replication_lag(self) -> list[int]:
        """Per-replica trailing-log depth: acknowledged, not yet applied.

        All zeros in sync mode, except while a write is in flight, and
        in a drained async backend.
        """
        return [len(log) for log in self._logs]

    def wait_for_replication(self, timeout: float = 5.0) -> bool:
        """Block until every trailing log drains; False on timeout.

        The consistency gate for async mode: a write acknowledged by
        the primary is only guaranteed visible on a replica once the
        lag has drained, so oracle comparisons (tests, the soak
        harness) call this first.
        """
        deadline = time.monotonic() + timeout
        for index, cond in enumerate(self._log_conds):
            with cond:
                while self._logs[index]:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    cond.wait(min(remaining, 0.05))
        return True

    def _stop_appliers(self) -> None:
        """Stop every applier, then drain what its log still holds."""
        for applier in self._appliers:
            if applier is not None:
                applier.stop()
        for index, applier in enumerate(self._appliers):
            if applier is not None:
                applier.join(timeout=1.0)
                self._appliers[index] = None
            self._drain_log(index)

    def _drain_log(
        self, index: int, stop: threading.Event | None = None
    ) -> None:
        """Apply one replica's queued ops in order until its log empties.

        Shared by sync writers, the applier thread, backpressured
        writers and the mode switch; the per-replica apply mutex
        serialises them.  An op stays at the head of the log while it
        is being applied (so ``replication_lag``/``wait_for_replication``
        never undercount) and is popped after, whatever the outcome — a
        failed op is counted and left for anti-entropy, never retried.
        """
        cond = self._log_conds[index]
        log = self._logs[index]
        with self._apply_mutexes[index]:
            while stop is None or not stop.is_set():
                with cond:
                    if not log:
                        return
                    operation = log[0]
                self._apply_replica_op(index, operation)
                with cond:
                    # A concurrent repair may have cleared the log
                    # (superseding this op) while we were applying it.
                    if log and log[0] is operation:
                        log.popleft()
                    cond.notify_all()

    def _apply_replica_op(
        self, index: int, operation: Callable[[StorageBackend], object]
    ) -> None:
        """The only replica write: one attempt, a failure left for repair.

        The breaker was claimed at enqueue; this refuses only while it
        reads open, which keeps drains fast against a dead replica.
        """
        breaker = self._replica_breakers[index]
        if breaker.state == CircuitBreaker.OPEN:
            self.replica_write_failures += 1
            return
        try:
            operation(self.replicas[index])
        except Exception as error:  # noqa: BLE001 - repaired by anti_entropy
            self.replica_write_failures += 1
            if _is_outage(error):
                breaker.record_failure()
        else:
            breaker.record_success()
            if self._mode == "async":
                self.async_applied += 1

    # ------------------------------------------------------------------
    # Reads: primary, then failover.
    # ------------------------------------------------------------------

    def identifiers(self) -> list[str]:
        return self._read(lambda backend: backend.identifiers())

    def versions(self, identifier: str) -> list[Version]:
        return self._read(lambda backend: backend.versions(identifier))

    def get(
        self,
        identifier: str,
        version: Version | None = None,
    ) -> ExampleEntry:
        return self._read(lambda backend: backend.get(identifier, version))

    def get_many(self, requests: Sequence[GetRequest]) -> list[ExampleEntry]:
        return self._read(lambda backend: backend.get_many(requests))

    def versions_many(
        self,
        identifiers: Sequence[str],
    ) -> dict[str, list[Version]]:
        return self._read(lambda b: b.versions_many(identifiers))

    def has(self, identifier: str) -> bool:
        return self._read(lambda backend: backend.has(identifier))

    def entry_count(self) -> int:
        return self._read(lambda backend: backend.entry_count())

    # ------------------------------------------------------------------
    # Queries: route to a healthy copy (primary first, then replicas).
    # ------------------------------------------------------------------

    @property
    def supports_native_query(self) -> bool:  # type: ignore[override]
        return self.primary.supports_native_query

    def change_counter(self) -> int | None:
        """The *primary's* counter — the authoritative history.

        Replica counters track replica writes and are not comparable,
        so no failover here: if the primary is down the counter is
        simply unavailable.
        """
        try:
            return self.primary.change_counter()
        except BxError:
            raise
        except Exception:  # noqa: BLE001 - treat an outage as "no counter"
            return None

    def query_stats(self, terms: Sequence[str]):
        return self._read(lambda backend: backend.query_stats(terms))

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Counters of every copy, summed — reads may serve from any
        healthy copy, so the replicas' caches work too."""
        return merge_cache_stats(
            copy.cache_stats()
            for copy in (self.primary, *self.replicas))

    def execute_query(self, plan: QueryPlan,
                      stats: QueryStats | None = None) -> QueryResult:
        """Execute on the primary, failing over to a healthy replica.

        The same infrastructure-vs-semantic failover rule as every
        other read: an unreachable copy is skipped, a real answer
        propagates.  A replica that is behind the primary answers from
        its own (older but internally consistent) state — the standard
        replicated-read caveat.
        """
        return self._read(
            lambda backend: backend.execute_query(plan, stats))

    # ------------------------------------------------------------------
    # Writes: primary decides, replicas follow.
    # ------------------------------------------------------------------

    def add(self, entry: ExampleEntry) -> None:
        self._write(lambda primary: primary.add(entry))
        self._mirror(lambda replica: replica.add(entry))

    def add_version(self, entry: ExampleEntry) -> None:
        self._write(lambda primary: primary.add_version(entry))
        self._mirror(lambda replica: replica.add_version(entry))

    def replace_latest(self, entry: ExampleEntry) -> None:
        self._write(lambda primary: primary.replace_latest(entry))
        self._mirror(lambda replica: replica.replace_latest(entry))

    def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        batch = list(entries)
        count = self._write(lambda primary: primary.add_many(batch))
        self._mirror(lambda replica: replica.add_many(batch))
        return count

    # ------------------------------------------------------------------
    # Repair.
    # ------------------------------------------------------------------

    def anti_entropy(self) -> AntiEntropyReport:
        """Reconcile every replica with the primary; report the repairs.

        Primary-authoritative: replicas gain whatever they are missing
        (whole entries, version tails, the latest payload).  Replica
        versions unknown to the primary are reported as conflicts, never
        deleted — the interface is append-only.
        """
        report = AntiEntropyReport()
        for index, replica in enumerate(self.replicas):
            report.merge(self._repair_replica(index, replica))
            # The pass just reconciled this replica against the primary:
            # that is exactly the repair reintegration requires, so a
            # suspended replica may rejoin the read rotation here.
            self._replica_breakers[index].record_success()
            self._rejoin(index)
        return report

    def reintegrate(self, index: int) -> AntiEntropyReport:
        """Repair one recovered replica, *then* return it to rotation.

        The ordering is the point: a replica that was down missed
        mirror writes, so serving reads from it before anti-entropy
        repair would hand out stale data as fresh.  Raises whatever the
        repair raises when the replica (or the primary) is still
        unreachable — the replica then stays suspended.
        """
        replica = self.replicas[index]
        breaker = self._replica_breakers[index]
        try:
            report = self._repair_replica(index, replica)
        except Exception as error:
            if _is_outage(error):
                breaker.record_failure()
            raise
        breaker.record_success()
        self._rejoin(index)
        return report

    def check_health(self) -> list[int]:
        """Probe suspended replicas; repair-and-rejoin those that answer.

        The deterministic driver for recovery: tests and the soak
        harness call it directly, :meth:`start_reintegration_probe`
        runs it on a background thread.  Returns the indices that were
        reintegrated this pass.
        """
        recovered: list[int] = []
        for index in self.suspended_replicas():
            try:
                self.replicas[index].entry_count()  # cheap liveness probe
            except Exception:  # noqa: BLE001 - still down: stay suspended
                continue
            try:
                self.reintegrate(index)
            except Exception:  # noqa: BLE001 - repair failed: stay suspended
                continue
            recovered.append(index)
        return recovered

    def start_reintegration_probe(self, interval: float = 1.0) -> HealthProbe:
        """Run :meth:`check_health` periodically on a daemon thread."""
        if self._probe is None:
            def all_replicas_serving() -> bool:
                self.check_health()
                return not self.suspended_replicas()

            self._probe = HealthProbe(
                all_replicas_serving,
                interval=interval,
                name="replica-reintegration",
            )
        self._probe.interval = interval
        self._probe.start()
        return self._probe

    def suspended_replicas(self) -> tuple[int, ...]:
        """Indices currently out of the read rotation, pending repair."""
        with self._mutex:
            return tuple(sorted(self._suspended))

    def resilience_stats(self) -> dict[str, object]:
        """Breaker states, suspensions and repair counters, one shot."""
        suspended = set(self.suspended_replicas())
        return {
            "primary": {
                "state": self._primary_breaker.state,
                "opened_total": self._primary_breaker.opened_total,
            },
            "replicas": [
                {
                    "state": breaker.state,
                    "opened_total": breaker.opened_total,
                    "suspended": index in suspended,
                }
                for index, breaker in enumerate(self._replica_breakers)
            ],
            "replica_write_failures": self.replica_write_failures,
            "reintegrations": self.reintegrations,
            "replication": {
                "mode": self._mode,
                "lag": self.replication_lag(),
                "max_lag": self.max_lag,
                "backpressure_syncs": self.backpressure_syncs,
                "async_applied": self.async_applied,
                "appliers_alive": [
                    applier is not None and applier.is_alive()
                    for applier in self._appliers
                ],
            },
        }

    def _repair_replica(
        self,
        index: int,
        replica: StorageBackend,
    ) -> AntiEntropyReport:
        """Reconcile one replica with the primary (the repair pass).

        Holds the replica's apply mutex for the duration so the
        applier (async mode) sits the repair out, and clears the
        trailing log *before* snapshotting the primary: every queued
        op is superseded by the snapshot taken after the clear
        (replaying it would only raise duplicates), while an op
        enqueued after the snapshot survives in the log for the
        applier — so the clear can never lose a write.
        """
        with self._apply_mutexes[index]:
            cond = self._log_conds[index]
            with cond:
                if self._logs[index]:
                    self._logs[index].clear()
                    cond.notify_all()
            primary_versions = self.primary.versions_many(
                self.primary.identifiers()
            )
            return self._repair_from(index, replica, primary_versions)

    def _repair_from(
        self,
        index: int,
        replica: StorageBackend,
        primary_versions: dict[str, list[Version]],
    ) -> AntiEntropyReport:
        report = AntiEntropyReport()
        replica_ids = set(replica.identifiers())
        for orphan in sorted(replica_ids - set(primary_versions)):
            report.conflicts.append(
                f"replica {index}: {orphan!r} unknown to the primary"
            )
        for identifier, have in primary_versions.items():
            if identifier not in replica_ids:
                requests = [(identifier, version) for version in have]
                snapshots = self.primary.get_many(requests)
                replica.add(snapshots[0])
                for snapshot in snapshots[1:]:
                    replica.add_version(snapshot)
                report.entries_copied += 1
                report.versions_appended += len(snapshots) - 1
                continue
            mirrored = replica.versions(identifier)
            seen = len(mirrored)
            if mirrored == have[:seen]:
                # The replica is (at worst) behind: append the tail.
                tail = have[seen:]
                if tail:
                    requests = [(identifier, version) for version in tail]
                    for snapshot in self.primary.get_many(requests):
                        replica.add_version(snapshot)
                    report.versions_appended += len(tail)
                authoritative = self.primary.get(identifier)
                if replica.get(identifier) != authoritative:
                    replica.replace_latest(authoritative)
                    report.payloads_replaced += 1
            else:
                report.conflicts.append(
                    f"replica {index}: {identifier!r} history "
                    f"diverged ({mirrored} vs primary {have})"
                )
        return report

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._probe is not None:
            self._probe.stop()
        # Stop appliers and flush what remains of the trailing logs
        # (breaker-bounded: a dead replica fails fast, not per-op)
        # before the copies close underneath them.
        self._stop_appliers()
        self.primary.close()
        for replica in self.replicas:
            replica.close()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _suspend(self, index: int) -> None:
        with self._mutex:
            self._suspended.add(index)

    def _rejoin(self, index: int) -> bool:
        with self._mutex:
            if index not in self._suspended:
                return False
            self._suspended.discard(index)
            self.reintegrations += 1
            return True

    def _is_suspended(self, index: int) -> bool:
        with self._mutex:
            return index in self._suspended

    def _observed(
        self,
        breaker: CircuitBreaker,
        backend: StorageBackend,
        operation: Callable[[StorageBackend], _T],
    ) -> _T:
        """One call against one copy, with its breaker kept informed.

        Outages count as failures; semantic errors mean the copy
        answered and count as successes (except a deadline expiry,
        which says nothing about the copy's health either way).
        """
        try:
            result = operation(backend)
        except Exception as error:
            if _is_outage(error):
                breaker.record_failure()
            elif not isinstance(error, DeadlineExceeded):
                breaker.record_success()
            raise
        breaker.record_success()
        return result

    def _read(self, operation: Callable[[StorageBackend], _T]) -> _T:
        primary_error: Exception | None = None
        if self._primary_breaker.allow():
            try:
                return self._observed(
                    self._primary_breaker, self.primary, operation)
            except Exception as error:  # noqa: BLE001 - split semantic/outage below
                if not _is_outage(error):
                    raise  # A real answer (not found, duplicate, deadline).
                primary_error = error
        last_error: Exception | None = None
        for index, replica in enumerate(self.replicas):
            if self._is_suspended(index):
                continue  # Stale until repaired; never serve reads from it.
            if not self._replica_breakers[index].allow():
                continue
            try:
                return self._observed(
                    self._replica_breakers[index], replica, operation)
            except Exception as error:  # noqa: BLE001 - try the next replica
                last_error = error
        if last_error is not None:
            if primary_error is not None:
                raise last_error from primary_error
            raise last_error
        if primary_error is not None:
            raise primary_error
        raise CircuitOpenError(
            "no healthy copy: the primary breaker is open and every "
            "replica is suspended",
            retry_after=self._primary_breaker.reset_timeout,
        )

    def _write(self, operation: Callable[[StorageBackend], _T]) -> _T:
        """A primary write under the breaker: a dead primary fails fast."""
        self._primary_breaker.guard()
        return self._observed(self._primary_breaker, self.primary, operation)

    def _mirror(self, operation: Callable[[StorageBackend], object]) -> None:
        """Append one mirror op to each replica's log, then drain it
        inline in sync mode or when backpressured (async at ``max_lag``).

        An open breaker skips the replica (counted, left for repair).
        The mode is read after the append, so a write racing a switch
        to sync is drained behind every op queued before it.
        """
        for index in range(len(self.replicas)):
            if not self._replica_breakers[index].allow():
                self.replica_write_failures += 1
                continue
            cond = self._log_conds[index]
            with cond:
                full = len(self._logs[index]) >= self.max_lag
                self._logs[index].append(operation)
                cond.notify_all()
            if self._mode == "sync":
                self._drain_log(index)
            elif full:
                self.backpressure_syncs += 1
                self._drain_log(index)
