"""RWLock, LockManager ordering, and the modelled-time pacer."""

import threading
import time

import pytest

from repro.concurrency import LockManager, LockTimeout, Pacer, RWLock


def run_threads(targets, timeout=30.0):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "thread wedged: likely deadlock"


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock("t")
        inside = []
        barrier = threading.Barrier(4, timeout=10)

        def reader():
            with lock.read():
                inside.append(1)
                barrier.wait()  # all four must be inside simultaneously

        run_threads([reader] * 4)
        assert len(inside) == 4

    def test_writer_excludes_readers(self):
        lock = RWLock("t")
        order = []
        ready = threading.Event()

        def writer():
            with lock.write():
                ready.set()
                time.sleep(0.05)
                order.append("w")

        def reader():
            ready.wait(5)
            with lock.read():
                order.append("r")

        run_threads([writer, reader])
        assert order == ["w", "r"]

    def test_write_reentrant(self):
        lock = RWLock("t")
        with lock.write():
            with lock.write():
                assert lock.write_held_by_me()
        assert not lock.write_held_by_me()

    def test_read_under_write_is_noop(self):
        lock = RWLock("t")
        with lock.write():
            assert lock.acquire_read() is False  # no-op, nothing to release

    def test_upgrade_raises(self):
        lock = RWLock("t")
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock("t")
        got_read = threading.Event()
        release_first = threading.Event()
        order = []

        def first_reader():
            with lock.read():
                got_read.set()
                release_first.wait(5)

        def writer():
            got_read.wait(5)
            with lock.write():
                order.append("w")

        def late_reader():
            got_read.wait(5)
            time.sleep(0.05)  # arrive after the writer queued
            release_first.set()
            with lock.read():
                order.append("r")

        run_threads([first_reader, writer, late_reader])
        assert order[0] == "w"  # writer preference: no starvation

    def test_read_timeout(self):
        lock = RWLock("t")
        held = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write():
                held.set()
                release.wait(5)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        held.wait(5)
        with pytest.raises(LockTimeout):
            lock.acquire_read(timeout=0.05)
        release.set()
        thread.join(5)


class TestLockManager:
    def test_sorted_acquisition_order(self):
        manager = LockManager()
        acquired = []
        original = manager.lock

        def tracking(name):
            lock = original(name)
            acquired.append(name)
            return lock

        manager.lock = tracking
        with manager.acquire(writes=["view:b", "rel:r"], reads=["view:a"]):
            pass
        assert acquired == ["rel:r", "view:a", "view:b"]

    def test_write_beats_read_for_duplicates(self):
        manager = LockManager()
        with manager.acquire(writes=["x"], reads=["x"]):
            assert manager.lock("x").write_held_by_me()

    def test_same_name_same_lock(self):
        manager = LockManager()
        assert manager.lock("a") is manager.lock("a")
        assert manager.lock("a") is not manager.lock("b")

    def test_disjoint_sets_do_not_block(self):
        manager = LockManager()
        barrier = threading.Barrier(2, timeout=10)

        def worker(name):
            def go():
                with manager.acquire(writes=[name]):
                    barrier.wait()  # both must hold their lock at once
            return go

        run_threads([worker("a"), worker("b")])


class TestPacer:
    def test_disabled_by_default(self):
        pacer = Pacer()
        assert not pacer.enabled
        start = time.perf_counter()
        pacer.pace(10_000.0)
        assert time.perf_counter() - start < 0.1

    def test_sleeps_proportionally(self):
        pacer = Pacer(seconds_per_ms=0.001)
        start = time.perf_counter()
        pacer.pace(30.0)
        assert time.perf_counter() - start >= 0.025

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Pacer(seconds_per_ms=-1.0)


class TestEngineMutex:
    class Meter:
        """Stand-in cost meter: snapshots are counts, diffs are deltas."""

        def __init__(self):
            self.cost = 0

        def snapshot(self):
            return self.cost

        def diff(self, before):
            return self.cost - before

    def test_section_cost_lands_in_the_box_even_on_failure(self):
        from repro.concurrency import CostBox, EngineMutex

        meter = self.Meter()
        engine = EngineMutex(lambda: meter, lambda delta: delta * 2.0)
        box = CostBox()
        with engine.section(box):
            meter.cost += 3
        with pytest.raises(RuntimeError):
            with engine.section(box):
                meter.cost += 1
                raise RuntimeError("fault mid-section")
        assert box.ms == 8.0
        assert engine.run(box, lambda x: x + 1, 41) == 42
        with engine.section():  # unattributed sections are fine
            meter.cost += 1
        assert box.ms == 8.0

    def test_pacing_sleeps_outside_the_mutex(self):
        from repro.concurrency import CostBox, EngineMutex

        meter = self.Meter()
        engine = EngineMutex(lambda: meter, float, pacing=0.001)
        entered = threading.Event()

        def slow():
            with engine.section(CostBox()):
                meter.cost += 200  # 0.2 s of pacing, after the mutex drops
            entered.set()

        thread = threading.Thread(target=slow)
        start = time.perf_counter()
        thread.start()
        time.sleep(0.02)
        with engine.section():  # not blocked by the sleeper
            waited = time.perf_counter() - start
        thread.join(timeout=5)
        assert not thread.is_alive() and entered.is_set()
        assert waited < 0.15
