"""The one-pass fold against the record-at-a-time fold it replaced.

``reference_fold`` below is the fold as it was before it went over the
file in the file's own order: drop every deleted key, then for each
inserted record drop its key and file it, one descent each, and edit the
key directory once.  Over seeded histories (keys moved left and right
along the clustering field, duplicate sort keys, inserts into full
leaves, deletes that empty a leaf; a B+-tree base and a hash base) the
new fold must leave the same logical content, directory order and
edited-key order, the same counts, every key reachable, and a leaf
chain in sort order.
"""

import random

import pytest

from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.hr.hashed import HashedHypotheticalRelation, HashedRelation
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Schema
from repro.views.delta import DeltaSet

SCHEMA = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
DOMAIN = 12  # 60 tuples over 12 sort keys: about five tuples per key


def record(key, a, v):
    return SCHEMA.new_record(id=key, a=a, v=v)


def reference_fold(base, deleted, inserted):
    """Today's order, record by record: every deletion, then each
    insertion with its key's older version dropped just before it."""
    by_key, dropped, filed = base._by_key, {}, []

    def drop(key):
        if key in by_key and key not in dropped:
            base._unfile(by_key[key])
            dropped[key] = None

    for r in deleted:
        drop(r.key)
    for r in inserted:
        drop(r.key)
        base._file.insert(r)
        filed.append(r)
    base._edit(dropped, filed)


def build(kind):
    pool = BufferPool(SimulatedDisk(CostMeter()), capacity=4)
    rows = [record(i, i % DOMAIN, i) for i in range(60)]
    if kind == "btree":
        base = ClusteredRelation(SCHEMA, pool, "a", block_bytes=400, fanout=4)
        base.bulk_load(rows)  # leaves filled to capacity
        return HypotheticalRelation(base, ad_buckets=4)
    base = HashedRelation(SCHEMA, pool, "id", block_bytes=400, buckets=8)
    base.bulk_load(rows)
    return HashedHypotheticalRelation(base, ad_buckets=4)


def play(hr, rng, next_id):
    """One epoch: moves left and right (value-only on a hash base),
    updates in place, inserts, and deletes of a run of neighbours in
    file order (which empties a leaf).  Returns the next free key."""
    by_key, position = hr.base._by_key, hr.base._file.position
    live = sorted(by_key, key=lambda key: position(by_key[key]))
    start = rng.randrange(max(1, len(live) - 6))
    for key in live[start:start + 6]:
        hr.delete_by_key(key)
    survivors = live[:start] + live[start + 6:]
    for step, key in enumerate(rng.sample(survivors, min(18, len(survivors)))):
        a = hr.read_by_key(key)["a"]
        if hr.organisation == "hash":
            hr.update_by_key(key, v=-step)
        elif step % 3 == 0:
            hr.update_by_key(key, a=max(0, a - rng.randrange(1, 6)), v=-step)
        elif step % 3 == 1:
            hr.update_by_key(key, a=min(DOMAIN - 1, a + rng.randrange(1, 6)), v=-step)
        else:
            hr.update_by_key(key, v=-step)
    for _ in range(8):
        hr.insert(record(next_id, rng.randrange(DOMAIN), next_id))
        next_id += 1
    churned = rng.choice(survivors)
    hr.update_by_key(churned, v=1)  # a key updated twice in one epoch
    hr.update_by_key(churned, v=2)
    return next_id


def leaf_chain(tree):
    """Every leaf's entries, following the chain from the leftmost."""
    pages, current = [], tree._leftmost_leaf()
    while current is not None:
        page = tree.pool.get(current)
        pages.append([entry for entry, _ in page.records])
        current = page.next_page
    return pages


def state(hr):
    base = hr.base
    return {
        "directory": [(r.key, r.identity()) for r in base.records_snapshot()],
        "touched": list(base.touched),
        "len": (len(base), len(base._file)),
        "content": sorted((r.key, r.identity()) for r in base.scan_all()),
    }


@pytest.mark.parametrize("kind", ["btree", "hash"])
@pytest.mark.parametrize("seed", range(6))
def test_the_one_pass_fold_matches_the_record_at_a_time_fold(kind, seed):
    new, old = build(kind), build(kind)
    for hr in (new, old):
        hr.base.touched = {}
    rngs, next_ids = [random.Random(seed), random.Random(seed)], [1000, 1000]
    emptied, moves = False, set()
    leaves = new.base.tree.stats().leaf_pages if kind == "btree" else 0
    for _epoch in range(3):
        for side, hr in enumerate((new, old)):
            next_ids[side] = play(hr, rngs[side], next_ids[side])
        expected = sorted((r.key, r.identity()) for r in new.logical_snapshot())
        net = old.net_changes()
        was = {r.key: r["a"] for r in net.deleted}
        moves |= {(r["a"] > was[r.key]) for r in net.inserted if was.get(r.key, r["a"]) != r["a"]}
        new.reset()
        reference_fold(old.base, net.deleted, net.inserted)
        old.reset(DeltaSet("r"))  # clears AD only
        assert state(new) == state(old)
        assert state(new)["content"] == expected
        assert len(new.base) == len(expected)
        if kind == "btree":
            tree = new.base.tree
            for key, _ in expected:
                a = new.base.peek_by_key(key)["a"]
                assert tree.locate(a, key) is not None, f"{key} unreachable"
            chain = leaf_chain(tree)
            entries = [entry for leaf in chain for entry in leaf]
            assert entries == sorted(entries), "the leaf chain is out of order"
            emptied |= any(not leaf for leaf in chain)
        else:
            for key, _ in expected:
                assert new.base.read_by_key(key) is not None, f"{key} unreachable"
    if kind == "btree":
        assert moves == {False, True}, "the history moved no key left or right"
        assert emptied, "the history emptied no leaf"
        assert new.base.tree.stats().leaf_pages > leaves, "no insert met a full leaf"
