"""Concurrency primitives for the repository service layer.

The facade serves many reader threads (a sharded backend fans reads out
over a thread pool) while writers must be exclusive: a write updates the
backend, bumps the change token and notifies subscribers as one atomic
step, so no reader observes the new entry under the old token or a
search index that has not yet seen the write.  CPython has no readers-writer lock in the standard
library, so a small one lives here.

:class:`ReadWriteLock` is writer-preference (a waiting writer blocks new
readers, so writers cannot starve under a steady read load) and
reentrant in both directions for the owning thread:

* the thread holding the *write* lock may take the read or write lock
  again — event subscribers called under a write may safely read back
  through the service;
* a thread already holding a *read* lock may take it again even while a
  writer waits, which keeps nested reads deadlock-free.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Mutex", "ReadWriteLock"]

#: The sanctioned plain mutex.  Every lock in the stack is constructed
#: through this module — the `lock-discipline` analysis rule forbids
#: `threading.Lock()` anywhere else — so reasoning about lock ordering
#: starts from exactly one file.  An alias (not a wrapper): zero cost,
#: and `with`/`acquire`/`release` semantics are untouched.
Mutex = threading.Lock


class ReadWriteLock:
    """A reentrant readers-writer lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: thread ident -> nested read count (readers currently inside).
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._writer_depth = 0
        self._waiting_writers = 0

    # ------------------------------------------------------------------
    # Read side.
    # ------------------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # The writing thread may read its own writes.
                self._writer_depth += 1
                return
            if me in self._readers:
                # Reentrant read: never wait (a waiting writer must not
                # deadlock a reader against itself).
                self._readers[me] += 1
                return
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            count = self._readers.get(me, 0)
            if count <= 0:
                raise RuntimeError("release_read without acquire_read")
            if count == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = count - 1

    # ------------------------------------------------------------------
    # Write side.
    # ------------------------------------------------------------------

    def acquire_write(self, give_up: Callable[[], bool] | None = None) -> bool:
        """Take the write lock; True once held.

        ``give_up`` is checked each time the wait wakes (every write
        release wakes it): once it returns true the call returns False
        without the lock.  A group-commit follower passes "my write is
        done", so it leaves as soon as a leader has committed its write
        instead of queueing for a lock it no longer needs.
        """
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return True
            if me in self._readers:
                # Upgrading read -> write deadlocks against other
                # readers; fail fast instead of hanging.
                message = "cannot acquire write while holding a read lock"
                raise RuntimeError(message)
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    if give_up is not None and give_up():
                        return False
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1
            return True

    def owns_write(self) -> bool:
        """Whether the calling thread holds the write lock.

        Lock-free: only the owning thread can make this true or false.
        """
        return self._writer == threading.get_ident()

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write by a non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Context managers (the normal way in).
    # ------------------------------------------------------------------

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
