"""Page checksums: the disk records each write's entries and successor
link and computes the checksum from that record when something first
checks the page.  That value equals a from-scratch serialization of the
same page — through any sequence of Page edits, through ``clone()`` and
on both halves of a split — and equals the value recorded before pages
were checksummed on demand; the fault classes the checksum exists for
are still caught, because every check compares the stored image with
the write-time record; stored entries refuse mutation; a clean serving
run serializes no entry at all; an unflushed split leaves the persisted
parent page alone; and the leaf-edit rewrite did not reorder a single
page access."""

import random
import zlib

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.resilience.faults import FaultProfile, FaultRates, FaultyDisk
from repro.resilience.scrub import scrub_disk
from repro.service.traffic import PhaseSpec, demo_server, drifting_traffic, run_traffic
from repro.storage import pager
from repro.storage.bplustree import BPlusTree, _InternalNode
from repro.storage.hashindex import HashFile
from repro.storage.pager import (
    BufferPool,
    CostMeter,
    Page,
    PageChecksumError,
    PageId,
    PageOverflowError,
    SimulatedDisk,
    _Checksums,
    page_checksum,
)
from repro.storage.tuples import Record, Schema
from repro.views.aggregates import MinAggregate
from repro.views.matview import AggregateStateStore, _StoredState

SCHEMA = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)


def scratch_checksum(page):
    """The page checksum with nothing kept: every entry through ``repr``."""
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


#: What the four kinds of page hold.
ENTRIES = {
    "leaf": lambda key, a: ((a, key), record(key, a)),
    "record": lambda key, a: record(key, a),
    "internal": lambda key, a: _InternalNode(
        keys=((a, key),), children=(PageId("t.leaf", key), PageId("t.leaf", a))
    ),
    "aggregate": lambda key, a: _StoredState({"count": key, "sum": a / 2}),
}

#: One Page edit: (method, two integers that pick positions and content).
edits = st.lists(
    st.tuples(
        st.sampled_from(["add", "insert", "replace", "remove", "remove_where",
                         "keep_range", "fill", "move_tail", "link", "clone"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=40,
)


def assert_images_current(page, expected):
    """``page`` holds ``expected``, and a write of it records the
    checksum a from-scratch serialization computes."""
    assert page.records == expected
    written = _Checksums()
    written.record(page)
    assert written[page.page_id] == page_checksum(page) == scratch_checksum(page)


class TestAnyEditSequence:
    CAPACITY = 4

    @given(kind=st.sampled_from(sorted(ENTRIES)), edits=edits)
    @settings(max_examples=200, deadline=None)
    def test_maintained_checksum_equals_recomputed(self, kind, edits):
        make = ENTRIES[kind]
        page, model = Page(PageId("f", 0), self.CAPACITY), []
        cloned = []
        for op, key, a in edits:
            size = len(model)
            if op == "add" and size >= self.CAPACITY:
                with pytest.raises(PageOverflowError):
                    page.add(make(key, a))
            elif op == "add":
                model.append(make(key, a))
                page.add(model[-1])
            elif op == "insert" and size > self.CAPACITY:
                with pytest.raises(PageOverflowError):
                    page.insert(0, make(key, a))
            elif op == "insert":  # a full page takes one more, as a splitting leaf does
                entry, at = make(key, a), key % (size + 1)
                model.insert(at, entry)
                page.insert(at, entry)
            elif op == "replace" and size:
                model[key % size] = make(key, a)
                page.replace(key % size, model[key % size])
            elif op == "remove" and size:
                del model[key % size]
                page.remove(key % size)
            elif op == "remove_where":
                doomed = [id(entry) for entry in model[a % 3 :: 3]]
                assert page.remove_where(lambda entry: id(entry) in doomed) == len(doomed)
                model = [entry for entry in model if id(entry) not in doomed]
            elif op == "keep_range":
                start = key % (size + 1)
                stop = start + a % (size - start + 1)
                model = model[start:stop]
                page.keep_range(start, stop)
            elif op == "fill":
                model = [make(key + i, a) for i in range(a % (self.CAPACITY + 1))]
                page.fill(iter(model))
            elif op == "move_tail":
                fresh, at = Page(PageId("f", 1), self.CAPACITY), key % (size + 1)
                page.move_tail(at, fresh)
                assert_images_current(fresh, model[at:])
                model = model[:at]
                if a % 2:  # carry on with the right half
                    assert_images_current(page, model)
                    page, model = fresh, list(fresh.records)
            elif op == "link":
                page.next_page = PageId("f", key) if a else None
            elif op == "clone":
                cloned.append((page, list(model), page.next_page))
                page = page.clone()
            assert_images_current(page, model)
        for original, expected, link in cloned:  # edits of a clone never reach it
            assert original.next_page == link
            assert_images_current(original, expected)

    def test_move_tail_needs_an_empty_page(self):
        page, other = Page(PageId("f", 0), 4), Page(PageId("f", 1), 4)
        page.fill(["x", "y"])
        other.add("z")
        with pytest.raises(ValueError):
            page.move_tail(1, other)
        assert_images_current(page, ["x", "y"])
        assert_images_current(other, ["z"])


def seeded_files(seed=1987):
    """A B+-tree and a hash file after a fixed seeded workload."""
    rng = random.Random(seed)
    disk = SimulatedDisk(CostMeter())
    pool = BufferPool(disk, capacity=8)
    tree = BPlusTree("t", pool, lambda r: r["a"], records_per_leaf=4, fanout=4)
    tree.bulk_load([record(i, rng.randrange(12), v=i) for i in range(40)])
    hashed = HashFile("h", pool, lambda r: r["id"], records_per_page=3, buckets=4)
    hashed.bulk_load([record(i, rng.randrange(12)) for i in range(20)])
    # Twelve draws once loaded a third file: taken still, so the
    # workload below (and every pinned checksum) is what it was.
    for _ in range(12):
        rng.randrange(12)
    live = list(range(40))
    for step in range(60):
        key = 100 + step
        tree.insert(record(key, rng.randrange(12), v=step))
        live.append(key)
        if step % 3 == 0:
            victim = live.pop(rng.randrange(len(live)))
            page, index, _ = next(
                found for a in range(12) if (found := tree.locate(a, victim)) is not None
            )
            tree.delete_at(page, index)
        hashed.insert(record(key, step % 12))
        if step % 4 == 0:
            hashed.delete_key(step // 2)
    pool.flush_all()
    return disk


class TestChecksumValuesPinned:
    """Recorded at the commit before pages kept their entry images, when
    every write serialized the page entry by entry: the same content
    must still record the same CRC32."""

    @pytest.mark.parametrize("file, pages, first_three, crc_of_all", [
        ("h.hash", 24, [1201488485, 2018681506, 4018148715], 1347706357),
        ("t.int", 14, [3301172240, 174666730, 1835582679], 3030632069),
        ("t.leaf", 34, [2788396725, 788303421, 2427155437], 3673744162),
    ])
    def test_recorded_checksums(self, file, pages, first_three, crc_of_all):
        disk = seeded_files()
        sums = [disk._checksums[page_id] for page_id in disk.file_pages(file)]
        assert len(sums) == pages
        assert sums[:3] == first_three
        assert zlib.crc32(repr(sums).encode()) == crc_of_all


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
        assert disk.verify(first) is None and disk.verify(second) is None
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
        page.replace(0, (page.records[0][0], record(0, 0, v=9)))
        disk.arm()
        disk.write(page)  # persists half the page, records the intended checksum
        disk.disarm()
        assert disk.injected["torn_write"] == 1
        assert len(disk._pages[first].records) == 2
        self.assert_caught(disk, first)
        disk.verify_reads = False
        disk.write(page)  # a whole rewrite heals it
        assert disk.verify(first) is None

    def test_an_entry_replaced_around_the_page_api(self):
        """An entry replaced by hand before a write is what the write
        records, so the page verifies clean; the same replacement made
        to the stored image after the write is damage."""
        disk = SimulatedDisk(CostMeter())
        first, _ = leaf_disk(disk)
        page = disk.read(first)
        original, edited = page.records[0], (page.records[0][0], record(0, 0, v=9))
        page.records[0] = edited
        disk.write(page)
        assert disk.verify(first) is None
        assert disk._checksums[first] == scratch_checksum(page)
        assert disk._checksums[first] == scratch_checksum(disk._pages[first])
        page.records[0] = original
        disk.write(page)
        assert disk.verify(first) is None
        disk._pages[first].records[0] = edited
        self.assert_caught(disk, first)

    def test_torn_write_leaving_the_previous_image(self):
        """The half a torn write keeps is, object for object, the image
        written before it: the checksum of the intended page catches it."""
        disk = FaultyDisk(CostMeter(), FaultProfile(name="torn", rates=FaultRates(torn_write=1.0)))
        page = disk.allocate("p", 4)
        page.fill([record(0, 0), record(1, 1)])
        disk.write(page)
        previous = disk._pages[page.page_id]
        page.add(record(2, 2))
        page.add(record(3, 3))
        disk.arm()
        disk.write(page)
        disk.disarm()
        torn = disk._pages[page.page_id]
        assert disk.injected["torn_write"] == 1
        assert len(torn.records) == len(previous.records) == 2
        assert all(a is b for a, b in zip(torn.records, previous.records))
        assert torn.next_page == previous.next_page
        self.assert_caught(disk, page.page_id)


class TestStoredEntriesAreImmutable:
    """A checksum computed when a page is first checked equals the one
    its write would have computed only if no stored entry can change
    after the write: the two entry kinds that were mutable refuse it."""

    def test_an_internal_node(self):
        disk = SimulatedDisk(CostMeter())
        leaf_disk(disk)
        (root,) = disk.file_pages("t.int")
        node = disk._pages[root].records[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.keys = ()
        with pytest.raises(TypeError):
            node.keys[0] = (0, 0)
        with pytest.raises(AttributeError):
            node.children.append(PageId("t.leaf", 9))
        assert disk.verify(root) is None

    def test_an_aggregate_state(self):
        disk = SimulatedDisk(CostMeter())
        pool = BufferPool(disk, capacity=4)
        store = AggregateStateStore("m", pool, MinAggregate())
        store.apply([3, 5], [])
        pool.flush_all()
        state = disk._pages[store._page_id].records[0]
        assert repr(state) == "{'values': Counter({3: 1, 5: 1})}"
        for edit in (
            lambda: state.__setitem__("values", None),
            lambda: state.__delitem__("values"),
            lambda: state.update(values=None),
            lambda: state.pop("values"),
            lambda: state.setdefault("other", 0),
            lambda: state.clear(),
        ):
            with pytest.raises(TypeError):
                edit()
        assert disk.verify(store._page_id) is None

    def test_a_min_refresh_leaves_the_written_state_alone(self):
        """A min/max state's multiset is edited in place by a refresh;
        the working copy must not be the one the disk stored, or the
        page changes before its write (a scrub reported it damaged)."""
        disk = SimulatedDisk(CostMeter())
        pool = BufferPool(disk, capacity=4)
        store = AggregateStateStore("m", pool, MinAggregate())
        written = repr(disk._pages[store._page_id].records)
        store.apply([3, 5], [])  # not flushed: the disk still holds the old state
        assert repr(disk._pages[store._page_id].records) == written
        assert disk.verify(store._page_id) is None
        assert store.value() == 3
        pool.flush_all()
        assert disk.verify(store._page_id) is None
        assert store.value() == 3


class TestChecksumsOnDemand:
    """Only a check serializes a page: a clean serving run renders no
    entry image, and under ``verify_reads`` each written image is
    serialized at most once for its recorded checksum."""

    PHASES = (
        PhaseSpec(operations=40, update_probability=0.2, batch_size=3),
        PhaseSpec(operations=40, update_probability=0.7, batch_size=5),
    )

    @pytest.fixture
    def tally(self, monkeypatch):
        counts = {"images": 0, "verified": 0, "records": 0, "recorded": 0}
        entry_image, checksum, record_image = (
            pager._entry_image, pager.page_checksum, _Checksums.record
        )

        def counted_image(entry):
            counts["images"] += 1
            return entry_image(entry)

        def counted_checksum(page):
            counts["verified"] += len(page.records)
            return checksum(page)

        def counted_record(self, page):
            counts["records"] += 1
            counts["recorded"] += len(page.records)
            record_image(self, page)

        monkeypatch.setattr(pager, "_entry_image", counted_image)
        monkeypatch.setattr(pager, "page_checksum", counted_checksum)
        monkeypatch.setattr(_Checksums, "record", counted_record)
        return counts

    def serve(self, verify_reads):
        demo = demo_server(n_tuples=400)
        demo.database.storage_disk.verify_reads = verify_reads
        summary = run_traffic(demo.server, drifting_traffic(demo, self.PHASES, seed=3))
        assert summary.operations == 80
        return demo

    def test_a_clean_run_serializes_no_entry(self, tally):
        demo = self.serve(verify_reads=False)
        assert demo.database.meter.page_writes > 0
        assert tally["records"] > 0 and tally["recorded"] > 0
        assert tally["images"] == tally["verified"] == 0

    def test_verified_reads_serialize_each_written_image_at_most_once(self, tally):
        self.serve(verify_reads=True)
        assert tally["verified"] > 0
        recorded_images = tally["images"] - tally["verified"]
        assert 0 < recorded_images <= tally["recorded"]

    def test_a_recorded_checksum_is_kept(self, tally):
        disk = SimulatedDisk(CostMeter())
        page = disk.allocate("p", 4)
        page.fill([record(0, 0), record(1, 1), record(2, 2)])
        disk.write(page)
        assert tally["images"] == 0
        sums = {disk._checksums[page.page_id] for _ in range(3)}
        assert tally["images"] == 3
        assert sums == {scratch_checksum(page)}
        page.add(record(3, 3))
        disk.write(page)
        assert disk._checksums[page.page_id] == scratch_checksum(page)
        assert tally["images"] == 7


class TestUnflushedSplit:
    """An internal page's entry is one node object that the persisted
    image, every clone read from it and the pool frame share: a split
    below it must put a new node in the pool's page, not edit that one."""

    @pytest.mark.parametrize("fanout", [8, 3])  # 3: internal pages split too
    def test_persisted_internal_pages_change_only_at_the_flush(self, fanout):
        disk = SimulatedDisk(CostMeter())
        pool = BufferPool(disk, capacity=64)
        tree = BPlusTree("t", pool, lambda r: r["a"], records_per_leaf=4, fanout=fanout)
        tree.bulk_load([record(i, i) for i in range(16)])
        pool.flush_all()
        persisted = {
            page_id: (repr(disk._pages[page_id].records), disk._checksums[page_id])
            for page_id in disk.file_pages("t.int")
        }
        assert tree.root_id in persisted
        leaves = disk.page_count("t.leaf")
        for key in range(100, 104):
            tree.insert(record(key, 5))  # one sort key: its leaf splits
        assert disk.page_count("t.leaf") > leaves
        for page_id, (image, checksum) in persisted.items():
            assert repr(disk._pages[page_id].records) == image
            assert disk._checksums[page_id] == checksum
            assert disk.verify(page_id) is None
        assert scrub_disk(disk).damage == []
        pool.flush_all()
        assert any(
            repr(disk._pages[page_id].records) != image
            for page_id, (image, _) in persisted.items()
        )
        assert scrub_disk(disk).damage == []
        assert [r.key for r in tree.search(5)] == [5, 100, 101, 102, 103]


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
    same pages in the same order, so every CostMeter count holds.
    Re-pinned once, when the fold began to go over the file in its own
    order: at four pool pages misses fell 275 -> 147 and writes
    130 -> 97; at 64 pages (four-record leaves, inserts met in
    ascending order split more leaves) both rose, 21 -> 30 and
    38 -> 50.  The number of gets is unchanged."""

    @pytest.mark.parametrize("pool_pages, hits, misses, writes", [
        (4, 257, 147, 97),
        (64, 374, 30, 50),
    ])
    def test_fold_page_gets(self, pool_pages, hits, misses, writes):
        assert fold_trace(pool_pages) == {
            "hits": hits, "misses": misses, "page_reads": misses,
            "page_writes": writes, "gets": 404, "gets_crc": 1949019390,
        }
