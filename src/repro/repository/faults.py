"""Fault injection: the seam the soak/chaos harness breaks things through.

A repository that serves millions of users will lose shards, watch
replicas drift, crash mid-write and get bounced under load — the soak
runner (:mod:`repro.harness.soak`) rehearses all of that, and this
module is the *mechanism*: a way to make a specific component fail on
demand, observably, without changing anything when no fault is armed.

Two pieces:

* :class:`FaultInjector` — a thread-safe registry of named fault
  points.  Arming a point makes :meth:`trip` raise there (once, or
  latched until :meth:`heal`); every firing is counted, so a test can
  assert a scheduled fault was observed **exactly once**.
* :class:`FlakyBackend` — a :class:`StorageBackend` wrapper that runs
  every operation through one injector point before delegating to the
  wrapped backend.  With nothing armed it is bit-identical to the bare
  backend (the conformance suite runs through it unchanged); armed, it
  models a dead shard or an unreachable replica.

The error raised, :class:`InjectedFault`, subclasses
:class:`ConnectionError` deliberately: it is an *infrastructure*
failure, so :class:`~repro.repository.backends.replicated.ReplicatedBackend`
fails reads over to a healthy copy and counts failed mirror writes for
``anti_entropy()`` repair — exactly what a real outage does.

:class:`~repro.repository.backends.file.FileBackend` exposes one more
seam of its own: ``fault_hook``, called (when set) between the
change-counter bump and the content rename inside a write — the one
window where a crash leaves an advanced counter with no new content.
The soak's file-crash fault arms an injector point there.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from repro.repository.backends.base import GetRequest, StorageBackend
from repro.repository.concurrency import Mutex
from repro.repository.entry import ExampleEntry
from repro.repository.query import QueryPlan, QueryResult, QueryStats
from repro.repository.versioning import Version

__all__ = ["FaultInjector", "FlakyBackend", "InjectedFault", "SlowBackend"]


class InjectedFault(ConnectionError):
    """A deliberately injected infrastructure failure.

    ``ConnectionError`` (not :class:`~repro.core.errors.BxError`), so
    every layer treats it as an outage: replicated reads fail over,
    mirror writes are counted for repair, and the service facade
    propagates it to the caller like any other infra error.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class FaultInjector:
    """A registry of named fault points, armed one-shot or latched.

    Components call :meth:`trip(point)` at their fault points; the call
    is a no-op unless that point is armed.  ``mode="once"`` disarms
    after the first firing (a crash happens once); ``mode="latched"``
    keeps firing until :meth:`heal` (an outage lasts until repaired).
    :meth:`fired` counts firings per point, which is what lets a test
    assert a fault was observed exactly once.
    """

    _ONCE = "once"
    _LATCHED = "latched"

    def __init__(self) -> None:
        self._mutex = Mutex()
        self._armed: dict[str, str] = {}
        self._fired: dict[str, int] = {}

    def arm(self, point: str, *, mode: str = "once") -> None:
        if mode not in (self._ONCE, self._LATCHED):
            raise ValueError(f"unknown fault mode {mode!r}")
        with self._mutex:
            self._armed[point] = mode

    def heal(self, point: str) -> None:
        """Disarm a point (no-op if it is not armed)."""
        with self._mutex:
            self._armed.pop(point, None)

    def trip(self, point: str) -> None:
        """Raise :class:`InjectedFault` if ``point`` is armed."""
        with self._mutex:
            mode = self._armed.get(point)
            if mode is None:
                return
            self._fired[point] = self._fired.get(point, 0) + 1
            if mode == self._ONCE:
                del self._armed[point]
        raise InjectedFault(point)

    def observe(self, point: str) -> bool:
        """Count a firing if ``point`` is armed, without raising.

        The non-failing twin of :meth:`trip`, for faults that degrade
        rather than break (a brownout slows calls down instead of
        failing them — :class:`SlowBackend`).  One-shot arming still
        disarms after the first observation.
        """
        with self._mutex:
            mode = self._armed.get(point)
            if mode is None:
                return False
            self._fired[point] = self._fired.get(point, 0) + 1
            if mode == self._ONCE:
                del self._armed[point]
        return True

    def hook(self, point: str) -> Callable[[str], None]:
        """An adapter for single-callable seams (``FileBackend.fault_hook``).

        The seam passes its own sub-point name (e.g. ``"pre-rename"``);
        the armed/counted identity stays the injector point, so the
        scheduling side never needs to know the seam's internals.
        """
        def fire(_sub_point: str) -> None:
            self.trip(point)
        return fire

    def armed(self, point: str) -> bool:
        with self._mutex:
            return point in self._armed

    def fired(self, point: str) -> int:
        """How many times ``point`` has fired since construction."""
        with self._mutex:
            return self._fired.get(point, 0)

    def fired_counts(self) -> dict[str, int]:
        with self._mutex:
            return dict(self._fired)


class FlakyBackend(StorageBackend):
    """A delegating wrapper that can be made to fail like a dead node.

    Every operation trips the injector at this wrapper's point first,
    then delegates verbatim — so with the point unarmed the wrapper is
    observationally identical to the wrapped backend (the conformance
    suite holds it to that), and with the point latched the backend is
    down for reads *and* writes, the way a crashed shard or partitioned
    replica is.
    """

    def __init__(self, inner: StorageBackend, injector: FaultInjector,
                 point: str) -> None:
        self.inner = inner
        self.injector = injector
        self.point = point

    def _trip(self) -> None:
        """The single seam every operation passes through.

        Subclasses override this to change what an armed point *does*
        (fail here; delay in :class:`SlowBackend`) without re-touching
        the twenty delegating methods.
        """
        self.injector.trip(self.point)

    # -- convenience controls (sugar over the injector) ----------------

    def kill(self) -> None:
        """Latch the fault: every operation fails until :meth:`revive`."""
        self.injector.arm(self.point, mode="latched")

    def revive(self) -> None:
        self.injector.heal(self.point)

    # -- reads ----------------------------------------------------------

    def identifiers(self) -> list[str]:
        self._trip()
        return self.inner.identifiers()

    def versions(self, identifier: str) -> list[Version]:
        self._trip()
        return self.inner.versions(identifier)

    def versions_many(
            self, identifiers: Sequence[str]) -> dict[str, list[Version]]:
        self._trip()
        return self.inner.versions_many(identifiers)

    def has(self, identifier: str) -> bool:
        self._trip()
        return self.inner.has(identifier)

    def entry_count(self) -> int:
        self._trip()
        return self.inner.entry_count()

    def latest_version(self, identifier: str) -> Version:
        self._trip()
        return self.inner.latest_version(identifier)

    def get(self, identifier: str,
            version: Version | None = None) -> ExampleEntry:
        self._trip()
        return self.inner.get(identifier, version)

    def get_many(self,
                 requests: Sequence[GetRequest]) -> list[ExampleEntry]:
        self._trip()
        return self.inner.get_many(requests)

    # -- writes ---------------------------------------------------------

    def add(self, entry: ExampleEntry) -> None:
        self._trip()
        self.inner.add(entry)

    def add_version(self, entry: ExampleEntry) -> None:
        self._trip()
        self.inner.add_version(entry)

    def replace_latest(self, entry: ExampleEntry) -> None:
        self._trip()
        self.inner.replace_latest(entry)

    def add_many(self, entries: Iterable[ExampleEntry]) -> int:
        self._trip()
        return self.inner.add_many(entries)

    # -- queries / introspection ---------------------------------------

    @property
    def supports_native_query(self) -> bool:  # type: ignore[override]
        return self.inner.supports_native_query

    def execute_query(self, plan: QueryPlan,
                      stats: QueryStats | None = None) -> QueryResult:
        self._trip()
        return self.inner.execute_query(plan, stats)

    def query_stats(self, terms: Sequence[str]) -> QueryStats:
        self._trip()
        return self.inner.query_stats(terms)

    def change_counter(self) -> int | None:
        self._trip()
        return self.inner.change_counter()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        # Introspection stays up during an outage: counters are local
        # bookkeeping, not a remote call.
        return self.inner.cache_stats()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str):
        # Backend-specific extras (``anti_entropy``, ``shard_for``, ...)
        # pass straight through; only the storage interface is flaky.
        return getattr(self.inner, name)

class SlowBackend(FlakyBackend):
    """A delegating wrapper that models a *brownout*: slow, not dead.

    The nastier cousin of :class:`FlakyBackend` — a browned-out node
    still answers, just late, so failover logic keyed on errors never
    triggers and only deadlines save the caller.  While the point is
    armed every operation sleeps ``delay`` seconds before delegating
    (and the firing is counted via :meth:`FaultInjector.observe`);
    unarmed, the wrapper is observationally identical to the wrapped
    backend.  ``sleep`` is injectable so unit tests can assert the
    delay without paying it.
    """

    def __init__(self, inner: StorageBackend, injector: FaultInjector,
                 point: str, *, delay: float = 0.2,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        super().__init__(inner, injector, point)
        self.delay = delay
        self._sleep = sleep

    def _trip(self) -> None:
        if self.injector.observe(self.point):
            self._sleep(self.delay)

    # -- convenience controls (sugar over the injector) ----------------

    def brownout(self) -> None:
        """Latch the slowdown: every operation delays until :meth:`restore`."""
        self.injector.arm(self.point, mode="latched")

    def restore(self) -> None:
        self.injector.heal(self.point)
