"""Simulated disk, buffer pool and cost meter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parameters import PAPER_DEFAULTS
from repro.storage.pager import (
    BufferPool,
    CostMeter,
    Page,
    PageId,
    PageOverflowError,
    SimulatedDisk,
)


@pytest.fixture
def disk():
    return SimulatedDisk(CostMeter())


class TestPage:
    def test_capacity_enforced(self):
        page = Page(PageId("f", 0), capacity=2)
        page.add(1)
        page.add(2)
        with pytest.raises(PageOverflowError):
            page.add(3)

    def test_insert_lets_a_full_page_run_one_over(self):
        """A leaf holds capacity + 1 entries between an insert and its split."""
        page = Page(PageId("f", 0), capacity=2)
        page.add(1)
        page.add(3)
        page.insert(1, 2)
        assert page.records == [1, 2, 3]
        with pytest.raises(PageOverflowError):
            page.insert(0, 0)
        with pytest.raises(PageOverflowError):
            page.add(4)
        right = Page(PageId("f", 1), capacity=2)
        page.move_tail(1, right)
        assert (page.records, right.records) == ([1], [2, 3])

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Page(PageId("f", 0), capacity=0)

    def test_clone_is_independent(self):
        page = Page(PageId("f", 0), capacity=4)
        page.add("x")
        clone = page.clone()
        clone.add("y")
        assert page.records == ["x"]
        assert clone.records == ["x", "y"]


class TestPageId:
    def test_equality_and_hash_by_value(self):
        assert PageId("f", 1) == PageId("f", 1)
        assert hash(PageId("f", 1)) == hash(PageId("f", 1))
        assert PageId("f", 1) != PageId("f", 2)
        assert PageId("f", 1) != PageId("g", 1)
        assert {PageId("f", 1): "x"}[PageId("f", 1)] == "x"
        assert len({PageId("f", 1), PageId("f", 1), PageId("g", 1)}) == 2

    def test_str_repr_and_fields(self):
        pid = PageId("r.leaf", 3)
        assert str(pid) == f"{pid}" == "r.leaf:3"
        assert repr(pid) == "PageId(file='r.leaf', number=3)"
        assert (pid.file, pid.number) == ("r.leaf", 3)
        with pytest.raises(AttributeError):
            pid.number = 4

    def test_orders_by_file_then_number(self):
        ids = [PageId("g", 0), PageId("f", 10), PageId("f", 2)]
        assert sorted(ids) == [PageId("f", 2), PageId("f", 10), PageId("g", 0)]
        assert sorted(ids, key=lambda pid: pid.number)[0] == PageId("g", 0)


class TestDisk:
    def test_allocate_assigns_sequential_numbers(self, disk):
        a = disk.allocate("f", 4)
        b = disk.allocate("f", 4)
        assert (a.page_id.number, b.page_id.number) == (0, 1)

    def test_allocation_charges_no_io(self, disk):
        disk.allocate("f", 4)
        assert disk.meter.page_ios == 0

    def test_read_charges_one_io(self, disk):
        page = disk.allocate("f", 4)
        disk.read(page.page_id)
        assert disk.meter.page_reads == 1

    def test_write_charges_one_io(self, disk):
        page = disk.allocate("f", 4)
        disk.write(page)
        assert disk.meter.page_writes == 1

    def test_read_unknown_page_raises(self, disk):
        with pytest.raises(KeyError):
            disk.read(PageId("nope", 0))

    def test_write_unallocated_page_raises(self, disk):
        with pytest.raises(KeyError):
            disk.write(Page(PageId("nope", 0), 4))

    def test_read_returns_persisted_image(self, disk):
        page = disk.allocate("f", 4)
        page.add("x")
        disk.write(page)
        fetched = disk.read(page.page_id)
        assert fetched.records == ["x"]

    def test_unwritten_mutation_is_lost(self, disk):
        """Reads return clones: mutating without write-back must not persist."""
        page = disk.allocate("f", 4)
        disk.write(page)
        image = disk.read(page.page_id)
        image.add("sneaky")
        assert disk.read(page.page_id).records == []

    def test_file_pages_sorted(self, disk):
        for _ in range(3):
            disk.allocate("f", 4)
        disk.allocate("g", 4)
        assert [p.number for p in disk.file_pages("f")] == [0, 1, 2]
        assert disk.page_count("f") == 3
        assert disk.page_count("g") == 1

    def test_free_removes_page(self, disk):
        page = disk.allocate("f", 4)
        disk.free(page.page_id)
        assert page.page_id not in disk

    def test_page_count_follows_allocate_and_free(self, disk):
        assert disk.page_count("f") == 0
        pages = [disk.allocate("f", 4) for _ in range(3)]
        disk.allocate("g", 4)
        disk.free(pages[1].page_id)
        disk.free(pages[1].page_id)  # freeing twice counts once
        disk.free(PageId("f", 99))  # never allocated
        assert disk.page_count("f") == len(disk.file_pages("f")) == 2
        assert disk.page_count("g") == 1
        disk.allocate("f", 4)
        assert disk.page_count("f") == 3


def scanned_file_pages(disk, file):
    """What ``file_pages`` answered before the per-file index: a filter
    over every page id on the disk, sorted by page number."""
    pids = [pid for pid in list(disk._pages) if pid.file == file]
    return sorted(pids, key=lambda pid: pid.number)


class TestFilePagesIndex:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["allocate", "free", "free_unknown"]),
                  st.sampled_from(["f", "g", "h.leaf"]),
                  st.integers(min_value=0, max_value=40)),
        max_size=80,
    ))
    @settings(max_examples=150, deadline=None)
    def test_index_answers_what_the_scan_did(self, ops):
        disk = SimulatedDisk(CostMeter())
        for op, file, pick in ops:
            if op == "allocate":
                disk.allocate(file, 4)
            elif op == "free":
                live = disk.file_pages(file)
                if live:
                    disk.free(live[pick % len(live)])
            else:
                disk.free(PageId(file, 1000 + pick))
            for name in ("f", "g", "h.leaf", "never"):
                assert disk.file_pages(name) == scanned_file_pages(disk, name)
                assert disk.page_count(name) == len(scanned_file_pages(disk, name))
            assert disk.files() == sorted({pid.file for pid in disk._pages})

    def test_the_answer_is_a_snapshot(self, disk):
        for _ in range(3):
            disk.allocate("f", 4)
        pages = disk.file_pages("f")
        for page_id in pages:  # freeing while iterating what it returned
            disk.free(page_id)
            disk.allocate("f", 4)
        assert [pid.number for pid in disk.file_pages("f")] == [3, 4, 5]


class TestChecksums:
    def write_one(self, disk, records=("x", "y")):
        page = disk.allocate("f", 4)
        for record in records:
            page.add(record)
        disk.write(page)
        return page

    def test_checksum_sensitive_to_records_and_links(self):
        from repro.storage.pager import page_checksum

        page = Page(PageId("f", 0), capacity=4)
        page.add("x")
        base = page_checksum(page)
        page.add("y")
        grown = page_checksum(page)
        assert grown != base
        page.keep_range(0, 1)  # truncation detected
        assert page_checksum(page) == base
        page.next_page = 7  # chain pointer is covered too
        assert page_checksum(page) != base

    def test_checksum_covers_records_order_and_link_only(self):
        """Pinned coverage: the entries, their order and the successor
        link; neither the page's capacity nor its own id."""
        from repro.storage.pager import page_checksum
        from repro.storage.tuples import Record

        first, second = Record(1, {"id": 1}), Record(2, {"id": 2})
        page = Page(PageId("f", 0), capacity=4)
        page.fill([first, ((2, 2), second)])
        base = page_checksum(page)
        other = Page(PageId("g", 7), capacity=9)
        other.fill(page.records)
        assert page_checksum(other) == base
        other.fill(reversed(page.records))
        assert page_checksum(other) != base
        page.replace(1, ((2, 3), second))  # a leaf entry's key is covered
        assert page_checksum(page) != base
        page.replace(1, ((2, 2), Record(2, {"id": 2})))  # equal record, new object
        assert page_checksum(page) == base

    def test_verify_reads_off_by_default_serves_rot_silently(self, disk):
        page = self.write_one(disk)
        assert disk.corrupt(page.page_id) is not None
        assert not disk.verify_reads
        damaged = disk.read(page.page_id)  # silently wrong
        assert damaged.records != page.records

    def test_verified_read_raises_on_rot(self, disk):
        from repro.storage.pager import PageChecksumError

        page = self.write_one(disk)
        disk.corrupt(page.page_id)
        disk.verify_reads = True
        with pytest.raises(PageChecksumError):
            disk.read(page.page_id)

    def test_verify_reports_without_raising(self, disk):
        page = self.write_one(disk)
        assert disk.verify(page.page_id) is None  # intact
        disk.corrupt(page.page_id)
        assert disk.verify(page.page_id) == "checksum mismatch"
        assert disk.verify(PageId("nope", 0)) == "missing"

    def test_rewrite_heals_checksum(self, disk):
        page = self.write_one(disk)
        disk.corrupt(page.page_id)
        disk.write(page)  # a fresh write records a fresh checksum
        assert disk.verify(page.page_id) is None
        assert disk.read(page.page_id).records == page.records

    def test_corrupt_is_noop_on_damaged_or_unallocated(self, disk):
        page = self.write_one(disk)
        assert disk.corrupt(page.page_id) is not None
        assert disk.corrupt(page.page_id) is None  # already damaged
        assert disk.corrupt(PageId("nope", 0)) is None

    def test_corrupt_scrambles_empty_pages_via_link(self, disk):
        page = disk.allocate("f", 4)
        disk.write(page)  # no records: damage must hit next_page instead
        assert disk.corrupt(page.page_id) is not None
        assert disk.verify(page.page_id) == "checksum mismatch"


class TestBufferPool:
    def test_hit_costs_nothing(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 4)
        pool.get(page.page_id)
        before = disk.meter.page_reads
        pool.get(page.page_id)
        assert disk.meter.page_reads == before
        assert pool.hits == 1

    def test_miss_reads_from_disk(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 4)
        pool.get(page.page_id)
        assert pool.misses == 1
        assert disk.meter.page_reads == 1

    def test_eviction_respects_capacity(self, disk):
        pool = BufferPool(disk, capacity=2)
        pages = [disk.allocate("f", 4) for _ in range(3)]
        for page in pages:
            pool.get(page.page_id)
        assert len(pool) == 2

    def test_eviction_flushes_dirty_victim(self, disk):
        pool = BufferPool(disk, capacity=1)
        a = disk.allocate("f", 4)
        b = disk.allocate("f", 4)
        page = pool.get(a.page_id)
        page.add("x")
        pool.mark_dirty(a.page_id)
        pool.get(b.page_id)  # evicts a
        assert disk.read(a.page_id).records == ["x"]

    def test_repeated_writes_collapse_to_one_flush(self, disk):
        """Write-back: a page dirtied many times costs one write."""
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 10)
        for i in range(5):
            buffered = pool.get(page.page_id)
            buffered.add(i)
            pool.put(buffered, dirty=True)
        pool.flush_all()
        assert disk.meter.page_writes == 1

    def test_pinned_pages_survive_eviction(self, disk):
        pool = BufferPool(disk, capacity=2)
        pinned = disk.allocate("f", 4)
        pool.pin(pinned.page_id)
        for _ in range(4):
            pool.get(disk.allocate("f", 4).page_id)
        before = disk.meter.page_reads
        pool.get(pinned.page_id)
        assert disk.meter.page_reads == before  # still buffered

    def test_all_pinned_pool_grows(self, disk):
        pool = BufferPool(disk, capacity=1)
        a, b = disk.allocate("f", 4), disk.allocate("f", 4)
        pool.pin(a.page_id)
        pool.pin(b.page_id)
        assert len(pool) == 2  # grew rather than deadlocked

    def test_invalidate_flushes_then_clears(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 4)
        buffered = pool.get(page.page_id)
        buffered.add("x")
        pool.put(buffered, dirty=True)
        pool.invalidate_all()
        assert len(pool) == 0
        assert disk.read(page.page_id).records == ["x"]

    def test_mark_dirty_requires_residency(self, disk):
        pool = BufferPool(disk, capacity=4)
        with pytest.raises(KeyError):
            pool.mark_dirty(PageId("f", 99))

    def test_rejects_zero_capacity(self, disk):
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=0)


class TestCostMeter:
    def test_milliseconds_uses_parameter_constants(self):
        meter = CostMeter(page_reads=2, page_writes=1, screens=10, ad_ops=4)
        ms = meter.milliseconds(PAPER_DEFAULTS)
        assert ms == pytest.approx(3 * 30 + 10 * 1 + 4 * 1)

    def test_snapshot_and_delta(self):
        meter = CostMeter()
        meter.record_read(3)
        snap = meter.snapshot()
        meter.record_read(2)
        meter.record_screen(5)
        delta = meter.delta_since(snap)
        assert delta.page_reads == 2
        assert delta.screens == 5
        assert snap.page_reads == 3  # snapshot unaffected

    def test_diff_is_delta_since_spelled_forward(self):
        meter = CostMeter()
        meter.record_read(3)
        before = meter.snapshot()
        meter.record_write(2)
        meter.record_ad_op(4)
        delta = meter.diff(before)
        assert (delta.page_reads, delta.page_writes) == (0, 2)
        assert delta.ad_ops == 4
        assert delta.milliseconds(PAPER_DEFAULTS) == pytest.approx(2 * 30 + 4 * 1)

    def test_merge_accumulates_and_chains(self):
        bucket = CostMeter()
        result = bucket.merge(
            CostMeter(page_reads=1, screens=5)
        ).merge(CostMeter(page_writes=2, screens=5, ad_ops=3))
        assert result is bucket
        assert bucket.page_reads == 1
        assert bucket.page_writes == 2
        assert bucket.screens == 10
        assert bucket.ad_ops == 3

    def test_merge_of_diffs_equals_total(self):
        meter = CostMeter()
        bucket = CostMeter()
        for reads in (2, 3):
            before = meter.snapshot()
            meter.record_read(reads)
            meter.record_screen()
            bucket.merge(meter.diff(before))
        assert bucket.page_reads == meter.page_reads == 5
        assert bucket.screens == meter.screens == 2

    def test_reset(self):
        meter = CostMeter(page_reads=5)
        meter.reset()
        assert meter.page_ios == 0
