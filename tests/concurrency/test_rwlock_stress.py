"""RWLock and LockManager under contention, with a tiny switch interval.

Readers and writers hammer one :class:`RWLock` and the striped locks of
one :class:`LockManager` while the interpreter switches threads every
microsecond.  A release wakes waiters only when one is parked, so a
lost wake-up would leave a thread waiting until its lock timeout: that
surfaces here as a ``LockTimeout`` (or a thread still alive at join).
"""

import random
import sys
import threading
import time

from repro.concurrency import LockManager, RWLock

THREADS = 4  # of each kind below, so 16 in all
ROUNDS = 120
TIMEOUT = 10.0
NAMES = ("m0", "m1", "m2")


class Ledger:
    """Who is inside which lock right now, and what went wrong."""

    def __init__(self):
        self.mutex = threading.Lock()
        self.readers = {name: 0 for name in ("rw", *NAMES)}
        self.writing = {name: False for name in ("rw", *NAMES)}
        self.counters = {name: 0 for name in ("rw", *NAMES)}
        self.errors = []

    def enter(self, reads, writes):
        with self.mutex:
            for name in writes:
                if self.writing[name] or self.readers[name]:
                    self.errors.append(f"writer overlaps on {name}")
                self.writing[name] = True
            for name in reads:
                if self.writing[name]:
                    self.errors.append(f"reader overlaps a writer on {name}")
                self.readers[name] += 1

    def leave(self, reads, writes):
        with self.mutex:
            for name in writes:
                self.writing[name] = False
            for name in reads:
                self.readers[name] -= 1

    def bump(self, name):
        """A read-modify-write that loses updates unless excluded."""
        value = self.counters[name]
        self.counters[name] = value + 1


def run(ledger, body):
    def go():
        try:
            for round_no in range(ROUNDS):
                body(round_no)
        except Exception as exc:  # reported by the assertion below
            ledger.errors.append(repr(exc))
    return go


def test_no_lost_update_no_overlap_no_lost_wakeup():
    lock, manager, ledger = RWLock("rw"), LockManager(), Ledger()
    written = {name: 0 for name in ("rw", *NAMES)}
    written_mutex = threading.Lock()

    def rw_reader(_):
        with lock.read(TIMEOUT):
            ledger.enter(("rw",), ())
            ledger.leave(("rw",), ())

    def rw_writer(_):
        with lock.write(TIMEOUT):
            ledger.enter((), ("rw",))
            ledger.bump("rw")
            ledger.leave((), ("rw",))
        with written_mutex:
            written["rw"] += 1

    def striped(seed):
        rng = random.Random(seed)

        def body(_):
            writes = [n for n in NAMES if rng.random() < 0.4]
            reads = [n for n in NAMES if n not in writes]
            with manager.acquire(writes=writes, reads=reads, timeout=TIMEOUT):
                ledger.enter(reads, writes)
                for name in writes:
                    ledger.bump(name)
                ledger.leave(reads, writes)
            with written_mutex:
                for name in writes:
                    written[name] += 1
        return body

    bodies = (
        [rw_reader] * THREADS + [rw_writer] * THREADS
        + [striped(seed) for seed in range(2 * THREADS)]
    )
    threads = [threading.Thread(target=run(ledger, body), daemon=True)
               for body in bodies]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert ledger.errors == []
    assert ledger.counters == written
    assert written["rw"] == THREADS * ROUNDS


def _parked(lock, count):
    """Wait until ``count`` threads are parked in the lock's wait."""
    deadline = time.monotonic() + TIMEOUT
    while lock._waiters < count:
        assert time.monotonic() < deadline, "threads never parked"
        time.sleep(0.001)


def test_every_release_a_parked_thread_needs_wakes_it():
    """Readers parked behind a writer, then a writer parked behind
    readers: each group must get in on the one release it waits for
    (the only release there is), long before the lock timeout."""
    lock, errors = RWLock("parked"), []

    def side(acquire):
        def go():
            try:
                with acquire(TIMEOUT):
                    pass
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))
        return threading.Thread(target=go, daemon=True)

    lock.acquire_write()
    readers = [side(lock.read) for _ in range(THREADS)]
    for thread in readers:
        thread.start()
    _parked(lock, THREADS)
    lock.release_write()
    for thread in readers:
        thread.join(TIMEOUT / 2)

    lock.acquire_read()
    writers = [side(lock.write) for _ in range(2)]
    for thread in writers:
        thread.start()
    _parked(lock, 2)
    lock.release_read()
    for thread in writers:
        thread.join(TIMEOUT / 2)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert errors == []
