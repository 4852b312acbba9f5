"""Cached page images: the checksum of every page write, built from
cached record images, equals a from-scratch serialization of the same
page; the fault classes the checksum exists for are still caught; and
the leaf-edit rewrite did not reorder a single page access."""

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.resilience.faults import FaultProfile, FaultRates, FaultyDisk
from repro.storage.bplustree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.pager import (
    BufferPool,
    CostMeter,
    PageChecksumError,
    PageId,
    SimulatedDisk,
)
from repro.storage.tuples import Record, Schema

SCHEMA = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)


def scratch_checksum(page):
    """The page checksum with nothing cached: every entry through ``repr``."""
    parts = []
    for entry in page.records:
        if isinstance(entry, tuple) and entry and isinstance(entry[-1], Record):
            parts.append(repr(entry[:-1]).encode())
            parts.append(repr(entry[-1]).encode())
        else:
            parts.append(repr(entry).encode())
    parts.append(str(page.next_page).encode())
    return zlib.crc32(b"\x1e".join(parts))


class CheckedDisk(SimulatedDisk):
    """Compares every recorded checksum with the from-scratch one."""

    def __init__(self):
        super().__init__(CostMeter())
        self.checked = 0

    def _check(self, page_id):
        assert self._checksums[page_id] == scratch_checksum(self._pages[page_id])
        self.checked += 1

    def allocate(self, file, capacity):
        page = super().allocate(file, capacity)
        self._check(page.page_id)
        return page

    def write(self, page):
        super().write(page)
        self._check(page.page_id)


def record(key, a, v=0):
    return SCHEMA.new_record(id=key, a=a, v=v)


#: One step of a storage workload: (operation, key, clustering value).
steps = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "delete_at",
                         "ad_append", "ad_pair", "ad_delete", "truncate"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=60,
)


class TestCachedImageEqualsScratch:
    @given(steps=steps, pool_pages=st.sampled_from([2, 64]))
    @settings(max_examples=80, deadline=None)
    def test_every_written_page(self, steps, pool_pages):
        disk = CheckedDisk()
        pool = BufferPool(disk, capacity=pool_pages)
        # Leaves of 3 and fanout 3 split at both levels within a few inserts.
        tree = BPlusTree("t", pool, lambda r: r["a"], records_per_leaf=3, fanout=3)
        ad = HashFile("t.ad", pool, lambda r: r["id"], records_per_page=2, buckets=2)
        stored = {}
        for op, key, a in steps:
            if op == "insert" and key not in stored:
                stored[key] = record(key, a)
                tree.insert(stored[key])
            elif op == "delete" and key in stored:
                assert tree.delete(stored.pop(key))
            elif op in ("replace", "delete_at") and key in stored:
                page, index, found = tree.locate(stored[key]["a"], key)
                assert found == stored[key]
                if op == "replace":
                    stored[key] = record(key, found["a"], v=found["v"] + 1)
                    tree.replace_at(page, index, stored[key])
                else:
                    tree.delete_at(page, index)
                    del stored[key]
            elif op == "ad_append":
                ad.insert(record(key, a))
            elif op == "ad_pair":
                ad.insert_pair(record(key, a), record(key, a, v=1))
            elif op == "ad_delete":
                ad.delete(record(key, a))
            elif op == "truncate":
                ad.truncate()
        pool.flush_all()
        assert disk.checked >= 2  # at least the root allocation and its flush
        assert sorted(stored.values(), key=lambda r: (r["a"], r.key)) == list(tree.scan_all())
        for file in disk.files():
            for page_id in disk.file_pages(file):
                assert disk._checksums[page_id] == scratch_checksum(disk._pages[page_id])
                assert disk.verify(page_id) is None

    def test_an_image_built_by_one_page_serves_another(self):
        """A record moved by a split is not serialized again, and the
        page it moved to checksums as if it had been."""
        disk = CheckedDisk()
        pool = BufferPool(disk, capacity=8)
        tree = BPlusTree("t", pool, lambda r: r["a"], records_per_leaf=2, fanout=3)
        first = record(1, 5)
        tree.insert(first)
        pool.flush_all()
        image = first.image()
        for key in range(2, 6):
            tree.insert(record(key, 5))
        pool.flush_all()
        assert first.image() is image


def leaf_disk(disk):
    """Two chained leaf pages of real records on ``disk``; returns their ids."""
    pool = BufferPool(disk, capacity=8)
    tree = BPlusTree("t", pool, lambda r: r["a"], records_per_leaf=4, fanout=4)
    tree.bulk_load([record(i, i) for i in range(8)])
    pool.flush_all()
    return disk.file_pages("t.leaf")


class TestFaultsStillCaught:
    def assert_caught(self, disk, page_id):
        assert disk.verify(page_id) == "checksum mismatch"
        disk.verify_reads = True
        with pytest.raises(PageChecksumError):
            disk.read(page_id)

    def test_bit_rot_on_a_record_page(self):
        disk = SimulatedDisk(CostMeter())
        first, _ = leaf_disk(disk)
        assert disk.corrupt(first) == "dropped 1 record(s)"
        self.assert_caught(disk, first)

    def test_scrambled_successor_link(self):
        disk = SimulatedDisk(CostMeter())
        first, second = leaf_disk(disk)
        assert disk._pages[first].next_page == second
        disk._pages[first].next_page = PageId(second.file, second.number + 1)
        self.assert_caught(disk, first)
        disk._pages[second].next_page = first  # was None
        self.assert_caught(disk, second)

    def test_reordered_records(self):
        disk = SimulatedDisk(CostMeter())
        first, _ = leaf_disk(disk)
        disk._pages[first].records.reverse()
        self.assert_caught(disk, first)

    def test_torn_write_of_a_record_page(self):
        disk = FaultyDisk(CostMeter(), FaultProfile(name="torn", rates=FaultRates(torn_write=1.0)))
        first, _ = leaf_disk(disk)
        page = disk.read(first)
        page.records[0] = (page.records[0][0], record(0, 0, v=9))
        disk.arm()
        disk.write(page)  # persists half the page, records the intended checksum
        disk.disarm()
        assert disk.injected["torn_write"] == 1
        assert len(disk._pages[first].records) == 2
        self.assert_caught(disk, first)
        disk.verify_reads = False
        disk.write(page)  # a whole rewrite heals it
        assert disk.verify(first) is None


def fold_trace(pool_pages, seed=1987):
    """Pool traffic of one fold of 90 seeded modifications into 120 tuples."""
    rng = random.Random(seed)
    meter = CostMeter()
    pool = BufferPool(SimulatedDisk(meter), capacity=pool_pages)
    base = ClusteredRelation(SCHEMA, pool, "a", block_bytes=400, fanout=4)
    base.bulk_load([record(i, rng.randrange(40), v=i) for i in range(120)])
    hr = HypotheticalRelation(base, ad_buckets=4)
    live, next_id = list(range(120)), 120
    for _ in range(90):
        roll = rng.random()
        if roll < 0.6:
            hr.update_by_key(rng.choice(live), a=rng.randrange(40))
        elif roll < 0.8:
            hr.insert(record(next_id, rng.randrange(40), v=next_id))
            live.append(next_id)
            next_id += 1
        else:
            hr.delete_by_key(live.pop(rng.randrange(len(live))))
    net = hr.net_changes()
    gets = []
    real_get = pool.get

    def recording_get(page_id):
        gets.append(str(page_id))
        return real_get(page_id)

    pool.get = recording_get
    hits, misses, before = pool.hits, pool.misses, meter.snapshot()
    hr.reset(net)
    cost = meter.diff(before)
    return {
        "hits": pool.hits - hits,
        "misses": pool.misses - misses,
        "page_reads": cost.page_reads,
        "page_writes": cost.page_writes,
        "gets": len(gets),
        "gets_crc": zlib.crc32(" ".join(gets).encode()),
    }


class TestFoldAccessOrderPinned:
    """Recorded at the commit before leaves were bisected in place and
    ``PageId`` became a named tuple: the fold must ask the pool for the
    same pages in the same order, so every CostMeter count holds."""

    @pytest.mark.parametrize("pool_pages, hits, misses, writes", [
        (4, 129, 275, 130),
        (64, 383, 21, 38),
    ])
    def test_fold_page_gets(self, pool_pages, hits, misses, writes):
        assert fold_trace(pool_pages) == {
            "hits": hits, "misses": misses, "page_reads": misses,
            "page_writes": writes, "gets": 404, "gets_crc": 3801473307,
        }
