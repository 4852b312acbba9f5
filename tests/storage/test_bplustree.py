"""Clustered B+-tree: correctness and I/O accounting."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bplustree import _NEG_INF, BPlusTree
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Schema

SCHEMA = Schema("r", ("id", "a"), "id", tuple_bytes=100)


def make_tree(leaf_capacity=4, fanout=4, pool_pages=64):
    meter = CostMeter()
    pool = BufferPool(SimulatedDisk(meter), capacity=pool_pages)
    tree = BPlusTree("t", pool, sort_key=lambda r: r["a"],
                     records_per_leaf=leaf_capacity, fanout=fanout)
    return tree, meter, pool


def rec(i, a):
    return SCHEMA.new_record(id=i, a=a)


class TestConstruction:
    def test_rejects_bad_leaf_capacity(self):
        pool = BufferPool(SimulatedDisk(CostMeter()), 4)
        with pytest.raises(ValueError):
            BPlusTree("t", pool, sort_key=lambda r: r["a"], records_per_leaf=0)

    def test_rejects_tiny_fanout(self):
        pool = BufferPool(SimulatedDisk(CostMeter()), 4)
        with pytest.raises(ValueError):
            BPlusTree("t", pool, sort_key=lambda r: r["a"],
                      records_per_leaf=4, fanout=2)

    def test_empty_tree(self):
        tree, _, _ = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert list(tree.scan_all()) == []


class TestInsertSearch:
    def test_insert_then_search(self):
        tree, _, _ = make_tree()
        tree.insert(rec(1, 10))
        assert tree.search(10) == [rec(1, 10)]
        assert tree.search(11) == []

    def test_duplicate_sort_keys_coexist(self):
        tree, _, _ = make_tree()
        for i in range(10):
            tree.insert(rec(i, 5))
        assert sorted(r.key for r in tree.search(5)) == list(range(10))

    def test_splits_grow_height(self):
        tree, _, _ = make_tree(leaf_capacity=2, fanout=3)
        for i in range(50):
            tree.insert(rec(i, i))
        assert tree.height > 2
        assert [r["a"] for r in tree.scan_all()] == list(range(50))

    def test_split_layout_of_a_full_leaf(self):
        """The insert that overflows a full leaf goes in first (the leaf
        holds five for a moment), then the upper half moves right."""
        tree, _, pool = make_tree(leaf_capacity=4, fanout=4)
        for a in (10, 20, 40, 50):
            tree.insert(rec(a, a))
        left_id = tree.root_id
        assert pool.get(left_id).is_full
        tree.insert(rec(30, 30))
        assert tree.height == 2
        node = pool.get(tree.root_id).records[0]
        assert node.keys == ((30, 30),)
        assert node.children[0] == left_id
        left, right = (pool.get(child) for child in node.children)
        assert [r["a"] for _, r in left.records] == [10, 20]
        assert [r["a"] for _, r in right.records] == [30, 40, 50]
        assert left.next_page == right.page_id and right.next_page is None

    def test_scan_all_sorted_after_random_inserts(self):
        tree, _, _ = make_tree()
        rng = random.Random(3)
        values = [rng.randrange(100) for _ in range(300)]
        for i, a in enumerate(values):
            tree.insert(rec(i, a))
        scanned = [r["a"] for r in tree.scan_all()]
        assert scanned == sorted(values)
        assert len(tree) == 300


class TestRangeScan:
    def test_inclusive_bounds(self):
        tree, _, _ = make_tree()
        for i in range(20):
            tree.insert(rec(i, i))
        assert [r["a"] for r in tree.range_scan(5, 8)] == [5, 6, 7, 8]

    def test_empty_range(self):
        tree, _, _ = make_tree()
        for i in range(20):
            tree.insert(rec(i, i * 2))  # evens only
        assert list(tree.range_scan(5, 5)) == []

    def test_range_spanning_leaves(self):
        tree, _, _ = make_tree(leaf_capacity=2)
        for i in range(40):
            tree.insert(rec(i, i))
        assert [r["a"] for r in tree.range_scan(10, 30)] == list(range(10, 31))

    def test_unbounded_style_range(self):
        tree, _, _ = make_tree()
        for i in range(10):
            tree.insert(rec(i, i))
        assert len(list(tree.range_scan(float("-inf"), float("inf")))) == 10


class TestDelete:
    def test_delete_existing(self):
        tree, _, _ = make_tree()
        tree.insert(rec(1, 10))
        assert tree.delete(rec(1, 10))
        assert tree.search(10) == []
        assert len(tree) == 0

    def test_delete_missing_returns_false(self):
        tree, _, _ = make_tree()
        tree.insert(rec(1, 10))
        assert not tree.delete(rec(2, 10))
        assert len(tree) == 1

    def test_delete_requires_exact_record(self):
        tree, _, _ = make_tree()
        tree.insert(rec(1, 10))
        assert not tree.delete(SCHEMA.new_record(id=1, a=11))

    def test_interleaved_insert_delete(self):
        tree, _, _ = make_tree(leaf_capacity=3, fanout=3)
        rng = random.Random(5)
        live = {}
        for i in range(400):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                assert tree.delete(live.pop(key))
            else:
                record = rec(i, rng.randrange(50))
                tree.insert(record)
                live[i] = record
        scanned = sorted((r["a"], r.key) for r in tree.scan_all())
        expected = sorted((r["a"], r.key) for r in live.values())
        assert scanned == expected

    def test_an_emptied_leaf_stays_chained_and_is_read(self):
        """Deletion neither unlinks nor merges: a leaf it empties stays
        in the chain, and a full scan charges one read for it."""
        tree, meter, pool = make_tree(leaf_capacity=4, fanout=4)
        tree.bulk_load([rec(i, i) for i in range(16)])  # four full leaves
        for i in range(4, 12):  # the second and third leaves
            assert tree.delete(rec(i, i))
        pool.invalidate_all()
        disk, chain = pool.disk, []
        current = disk.file_pages("t.leaf")[0]  # the first leaf
        while current is not None:
            chain.append(disk._pages[current])
            current = chain[-1].next_page
        assert [len(page.records) for page in chain] == [4, 0, 0, 4]
        before = meter.snapshot()
        assert [r["a"] for r in tree.scan_all()] == [0, 1, 2, 3, 12, 13, 14, 15]
        assert tree.height == 2
        assert meter.diff(before).page_reads == 1 + len(chain)  # root + every leaf


class TestUpdate:
    def test_update_moves_record(self):
        tree, _, _ = make_tree()
        tree.insert(rec(1, 10))
        assert tree.update(rec(1, 10), rec(1, 99))
        assert tree.search(10) == []
        assert tree.search(99) == [rec(1, 99)]

    def test_update_missing_returns_false(self):
        tree, _, _ = make_tree()
        assert not tree.update(rec(1, 10), rec(1, 99))


class TestBulkLoad:
    def test_matches_incremental_content(self):
        records = [rec(i, i % 17) for i in range(500)]
        bulk, _, _ = make_tree(leaf_capacity=5, fanout=5)
        bulk.bulk_load(records)
        incremental, _, _ = make_tree(leaf_capacity=5, fanout=5)
        for r in records:
            incremental.insert(r)
        assert list(bulk.scan_all()) == list(incremental.scan_all())

    def test_bulk_load_empty(self):
        tree, _, _ = make_tree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_requires_empty_tree(self):
        tree, _, _ = make_tree()
        tree.insert(rec(1, 1))
        with pytest.raises(RuntimeError):
            tree.bulk_load([rec(2, 2)])

    def test_bulk_load_then_mutate(self):
        tree, _, _ = make_tree(leaf_capacity=4, fanout=4)
        tree.bulk_load([rec(i, i) for i in range(100)])
        tree.insert(rec(1000, 50))
        assert tree.delete(rec(3, 3))
        values = [r["a"] for r in tree.scan_all()]
        assert values == sorted(values)
        assert len(tree) == 100

    def test_stats_reflect_structure(self):
        tree, _, _ = make_tree(leaf_capacity=10, fanout=5)
        tree.bulk_load([rec(i, i) for i in range(200)])
        stats = tree.stats()
        assert stats.entries == 200
        assert stats.leaf_pages == 20
        assert stats.height == tree.height


class TestIOAccounting:
    def test_search_costs_height_reads_when_cold(self):
        tree, meter, pool = make_tree(leaf_capacity=4, fanout=4)
        tree.bulk_load([rec(i, i) for i in range(200)])
        pool.invalidate_all()
        meter.reset()
        tree.search(77)
        assert meter.page_reads == tree.height

    def test_warm_search_is_free(self):
        tree, meter, pool = make_tree()
        tree.bulk_load([rec(i, i) for i in range(50)])
        tree.search(5)
        meter.reset()
        tree.search(5)
        assert meter.page_reads == 0

    def test_range_scan_reads_proportional_leaves(self):
        tree, meter, pool = make_tree(leaf_capacity=10, fanout=50)
        tree.bulk_load([rec(i, i) for i in range(1000)])  # 100 leaves
        pool.invalidate_all()
        meter.reset()
        list(tree.range_scan(0, 499))
        # ~50 leaves + descent (+1 boundary leaf)
        assert 50 <= meter.page_reads <= 55


class TestAgainstModel:
    """Property: the tree behaves like a sorted multiset."""

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]),
                      st.integers(min_value=0, max_value=30)),
            max_size=120,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_ops_match_reference(self, ops):
        tree, _, _ = make_tree(leaf_capacity=3, fanout=3, pool_pages=256)
        reference = []
        next_id = 0
        by_a = {}
        for action, a in ops:
            if action == "insert":
                record = rec(next_id, a)
                next_id += 1
                tree.insert(record)
                reference.append(record)
                by_a.setdefault(a, []).append(record)
            else:
                candidates = by_a.get(a) or []
                if candidates:
                    victim = candidates.pop()
                    assert tree.delete(victim)
                    reference.remove(victim)
        scanned = sorted((r["a"], r.key) for r in tree.scan_all())
        assert scanned == sorted((r["a"], r.key) for r in reference)


def filtered_batches(tree, lo, hi):
    """The range read before leaves were bisected: every entry of every
    leaf visited compared with the bounds.  Returns (batches, leaves)."""
    batches, leaves = [], []
    current = tree._descend(lo, _NEG_INF)
    while current is not None:
        page = tree.pool.get(current)
        leaves.append(current)
        batch = [r for (k, _t), r in page.records if lo <= k <= hi]
        if batch:
            batches.append(batch)
        if page.records and page.records[-1][0][0] > hi:
            break
        current = page.next_page
    return batches, leaves


#: Range bounds: sort keys, points between them, and the unbounded ends
#: a view query's ``None`` becomes.
bounds = st.one_of(
    st.integers(min_value=-1, max_value=9),
    st.integers(min_value=-1, max_value=9).map(lambda k: k + 0.5),
    st.sampled_from([-math.inf, math.inf]),
)


class TestRangeBatchesBisection:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=8), max_size=40),
        deleted=st.sets(st.integers(min_value=0, max_value=39), max_size=30),
        lo=bounds, hi=bounds,
        leaf_capacity=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bisected_slices_equal_the_per_entry_filter(
        self, keys, deleted, lo, hi, leaf_capacity
    ):
        # Few sort values, many entries: duplicate keys span leaves, and
        # deleting every entry of a leaf leaves it empty in the chain.
        tree, _, pool = make_tree(leaf_capacity=leaf_capacity, fanout=3)
        records = [rec(i, a) for i, a in enumerate(keys)]
        for record in records:
            tree.insert(record)
        for i in sorted(deleted):
            if i < len(records):
                assert tree.delete(records[i])
        expected, expected_leaves = filtered_batches(tree, lo, hi)
        gets = []
        real_get = pool.get

        def recording_get(page_id):
            gets.append(page_id)
            return real_get(page_id)

        pool.get = recording_get
        assert list(tree.range_batches(lo, hi)) == expected
        assert [pid for pid in gets if pid.file == "t.leaf"] == expected_leaves
        assert list(tree.range_scan(lo, hi)) == [r for b in expected for r in b]
