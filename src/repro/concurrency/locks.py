"""Reader-writer locks, named-lock striping, and modelled-time pacing.

The server's locking discipline (see ``docs/performance.md``) layers
three mechanisms:

1. a *world* :class:`RWLock` — hot paths hold the read side, admin
   operations (migrations, checkpoints, recovery, repairs) the write
   side;
2. striped per-relation and per-view :class:`RWLock` instances handed
   out by a :class:`LockManager` and always acquired in one canonical
   sorted order, so queries on distinct views proceed concurrently and
   read-only queries on a fresh view never block each other;
3. a single :class:`EngineMutex` that serializes short sections
   touching the shared buffer pool and cost meter, and prices each
   section's meter delta for the request that ran it.

:class:`Pacer` converts each engine section's modelled cost into a
wall-clock sleep taken while only the striped locks are held, which is
what lets concurrent requests overlap their modelled I/O waits.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Protocol

__all__ = [
    "LockTimeout",
    "LockObserver",
    "RWLock",
    "LockManager",
    "Pacer",
    "CostBox",
    "EngineMutex",
    "Coalescer",
    "set_lock_observer",
    "get_lock_observer",
]


class LockTimeout(RuntimeError):
    """A lock acquisition exceeded its timeout (possible ordering bug)."""


class LockObserver(Protocol):
    """Observer protocol for lock-order recording (see repro.analysis).

    Called after every successful RWLock acquisition and before every
    release, outside the lock's internal condition variable.  The
    installed observer must be fast and must never raise.
    """

    def on_acquire(self, name: str, mode: str) -> None: ...

    def on_release(self, name: str, mode: str) -> None: ...


#: Process-global acquisition observer.  ``None`` (the default) keeps
#: the hot path at a single pointer check per acquisition — the
#: recorder in :mod:`repro.analysis.lockorder` is opt-in tooling, not a
#: production dependency.
_observer: LockObserver | None = None


def set_lock_observer(observer: LockObserver | None) -> None:
    """Install (or with ``None`` remove) the global lock observer."""
    global _observer
    _observer = observer


def get_lock_observer() -> LockObserver | None:
    return _observer


class RWLock:
    """A writer-preference reader-writer lock.

    * Any number of readers may hold the lock together.
    * A writer excludes readers and other writers; waiting writers
      block *new* readers (no writer starvation).
    * Write acquisition is re-entrant for the holding thread.
    * A read acquisition by the thread holding the write side is a
      no-op (the write side already grants every read right), so
      write-locked admin code can call read-locked helpers.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        # Entered directly (not through the condition's Python-level
        # wrapper); waits and notifies go through ``_cond`` over it.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._write_depth = 0
        self._writers_waiting = 0
        #: Threads parked in :meth:`_wait`; a release notifies only these.
        self._waiters = 0

    def _observed_name(self) -> str:
        return self.name or f"rwlock@{id(self):x}"

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def acquire_read(self, timeout: float | None = None) -> bool:
        """Take the read side; returns False when it was a no-op
        (the caller already holds the write side)."""
        me = threading.get_ident()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mutex:
            if self._writer == me:
                return False
            while self._writer is not None or (
                self._writers_waiting and me not in self._readers
            ):
                self._wait(deadline, "read")
            self._readers[me] = self._readers.get(me, 0) + 1
        # Observer calls happen outside the condition variable: the
        # recorder may capture a stack, which must not extend the
        # critical section.  The no-op (write-held) path above never
        # reports — it acquires nothing.
        if _observer is not None:
            _observer.on_acquire(self._observed_name(), "read")
        return True

    def release_read(self) -> None:
        me = threading.get_ident()
        if _observer is not None:
            _observer.on_release(self._observed_name(), "read")
        with self._mutex:
            count = self._readers.get(me, 0)
            if count <= 1:
                self._readers.pop(me, None)
            else:
                self._readers[me] = count - 1
            if self._waiters:
                self._cond.notify_all()

    def read(self, timeout: float | None = None) -> "_Held":
        return _Held(((self, False),), timeout)

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def acquire_write(self, timeout: float | None = None) -> None:
        me = threading.get_ident()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mutex:
            if self._writer == me:
                self._write_depth += 1
            else:
                if me in self._readers:
                    raise RuntimeError(
                        f"lock {self.name!r}: read-to-write upgrade would deadlock"
                    )
                self._writers_waiting += 1
                try:
                    while self._writer is not None or self._readers:
                        self._wait(deadline, "write")
                finally:
                    self._writers_waiting -= 1
                self._writer = me
                self._write_depth = 1
        if _observer is not None:
            _observer.on_acquire(self._observed_name(), "write")

    def release_write(self) -> None:
        if _observer is not None:
            _observer.on_release(self._observed_name(), "write")
        with self._mutex:
            if self._writer != threading.get_ident():
                raise RuntimeError(f"lock {self.name!r}: write released by non-owner")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                if self._waiters:
                    self._cond.notify_all()

    def write(self, timeout: float | None = None) -> "_Held":
        return _Held(((self, True),), timeout)

    def _wait(self, deadline: float | None, mode: str) -> None:
        # Counted under the condition's lock, so a release that sees no
        # waiter can skip its notify without losing a wake-up.
        self._waiters += 1
        try:
            if deadline is None:
                self._cond.wait()
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._cond.wait(remaining):
                raise LockTimeout(f"lock {self.name!r}: {mode} acquisition timed out")
        finally:
            self._waiters -= 1

    def write_held_by_me(self) -> bool:
        with self._mutex:
            return self._writer == threading.get_ident()


class _Held:
    """The guard ``with`` takes: RWLock sides acquired in ``plan`` order
    (``(lock, write)`` pairs) and released in reverse, also when a later
    one raises ``LockTimeout``; a no-op read is not released."""

    __slots__ = ("_plan", "_timeout", "_taken")

    def __init__(
        self, plan: Iterable[tuple[RWLock, bool]], timeout: float | None
    ) -> None:
        self._plan, self._timeout = plan, timeout

    def __enter__(self) -> None:
        self._taken: list[tuple[RWLock, bool]] = []
        try:
            for lock, write in self._plan:
                if write:
                    lock.acquire_write(self._timeout)
                elif not lock.acquire_read(self._timeout):
                    continue
                self._taken.append((lock, write))
        except BaseException:
            self.__exit__()
            raise

    def __exit__(self, *exc_info: object) -> None:
        for lock, write in reversed(self._taken):
            if write:
                lock.release_write()
            else:
                lock.release_read()


class LockManager:
    """Named :class:`RWLock` instances with ordered multi-acquire.

    Locks are created on demand and never dropped (the universe of
    relation and view names is small).  :meth:`acquire` takes any mix
    of read- and write-mode locks in one canonical global order —
    sorted by name, write mode winning when a name appears in both
    sets — which is the fixed lock-ordering discipline that makes the
    striped scheme deadlock-free.  :meth:`resolve` computes that order
    once per set of names: since no lock is ever dropped, the answer
    never goes stale.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._locks: dict[str, RWLock] = {}
        self._resolved: dict[Any, tuple[tuple[RWLock, bool], ...]] = {}

    def lock(self, name: str) -> RWLock:
        # Locks are never dropped: an existing one is read lock-free.
        lock = self._locks.get(name)
        if lock is None:
            with self._mutex:
                lock = self._locks.setdefault(name, RWLock(name))
        return lock

    def acquire(
        self,
        writes: Iterable[str] = (),
        reads: Iterable[str] = (),
        timeout: float | None = None,
    ) -> _Held:
        """Acquire a set of named locks in canonical (sorted) order."""
        return _Held(self.resolve(writes, reads), timeout)

    def resolve(self, writes: Iterable[str], reads: Iterable[str]) -> tuple[Any, ...]:
        """The ``(lock, write)`` pairs :meth:`acquire` takes, in order."""
        key = (tuple(writes), tuple(reads))
        plan = self._resolved.get(key)
        if plan is None:
            modes = {**dict.fromkeys(key[1], False), **dict.fromkeys(key[0], True)}
            plan = self._resolved[key] = tuple((self.lock(n), modes[n]) for n in sorted(modes))
        return plan


class Pacer:
    """Realize modelled milliseconds as wall-clock time.

    ``seconds_per_ms`` is the wall duration of one modelled
    millisecond; zero (the default everywhere) disables pacing
    entirely.  The server sleeps *outside* its engine mutex but inside
    the striped locks, so two requests against distinct views overlap
    their modelled I/O waits — the honest mechanism behind the parallel
    benchmark's multi-thread speedup under the GIL.
    """

    def __init__(self, seconds_per_ms: float = 0.0) -> None:
        if seconds_per_ms < 0:
            raise ValueError(f"pacing must be >= 0, got {seconds_per_ms}")
        self.seconds_per_ms = seconds_per_ms

    @property
    def enabled(self) -> bool:
        return self.seconds_per_ms > 0

    def pace(self, modelled_ms: float) -> None:
        if self.seconds_per_ms > 0 and modelled_ms > 0:
            time.sleep(modelled_ms * self.seconds_per_ms)


class CostBox:
    """Per-request accumulator of engine-section costs (modelled ms)."""

    __slots__ = ("ms",)

    def __init__(self) -> None:
        self.ms = 0.0


class EngineMutex:
    """Engine sections: exclusive pool/meter access, metered and paced.

    ``meter`` returns the engine's current cost meter and ``price``
    converts a meter delta to modelled milliseconds.  The delta is
    taken inside the mutex, so it belongs to exactly the request that
    ran the section (a global before/after diff would misattribute
    cost across concurrent requests) and is summed into that request's
    :class:`CostBox`.  With pacing enabled it is then realized as a
    wall sleep *after* the mutex is released — the caller still holds
    its striped locks, so concurrent requests on other views sleep
    through their modelled I/O simultaneously.
    """

    def __init__(
        self,
        meter: Callable[[], Any],
        price: Callable[[Any], float],
        pacing: float = 0.0,
    ) -> None:
        self._mutex = threading.RLock()
        self._meter = meter
        self._price = price
        self.pacer = Pacer(pacing)

    def section(self, box: CostBox | None = None) -> "_Section":
        return _Section(self, box)

    def run(self, box: CostBox | None, work: Callable[..., Any], *args: Any) -> Any:
        """``work(*args)`` inside one section."""
        with self.section(box):
            return work(*args)


class _Section:
    """``EngineMutex.section``'s guard: the meter delta is priced into
    the box even when the body raises; only a clean exit is paced."""

    __slots__ = ("_engine", "_box", "_meter", "_before")

    def __init__(self, engine: EngineMutex, box: CostBox | None) -> None:
        self._engine, self._box = engine, box

    def __enter__(self) -> None:
        self._engine._mutex.acquire()
        try:
            self._meter = self._engine._meter()
            self._before = self._meter.snapshot()
        except BaseException:
            self._engine._mutex.release()
            raise

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        engine = self._engine
        try:
            ms = engine._price(self._meter.diff(self._before))
            if self._box is not None:
                self._box.ms += ms
        finally:
            engine._mutex.release()
        if exc_type is None:
            engine.pacer.pace(ms)


class Coalescer:
    """Leader/follower coalescing: one in-flight run per key.

    The first caller for a key leads and runs the work; callers arriving
    while it runs wait on it instead of stacking duplicates behind it.
    A woken follower asks its own ``covered`` rule whether the run it
    waited on served it too; if not — the leader failed, its exception
    going to its own caller only — the follower loops and may lead.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._inflight: dict[Any, threading.Event] = {}
        #: Waits on another caller's in-flight run (each wait counts).
        self.waits = 0

    def run(
        self, key: Any, lead: Callable[[], Any], covered: Callable[[], bool]
    ) -> bool:
        """Lead ``lead()`` for ``key`` and return True, or wait on the
        run in flight until ``covered()`` holds after a wait: False."""
        while True:
            with self._mutex:
                running = self._inflight.get(key)
                if running is None:
                    event = self._inflight[key] = threading.Event()
                    break
                self.waits += 1
            running.wait()
            if covered():
                return False
        try:
            lead()
        finally:
            with self._mutex:
                del self._inflight[key]
            event.set()
        return True
