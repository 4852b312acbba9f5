"""The AD file's pages, the fold and its retry.

Pinned bit for bit: the page checksums a seeded history of update pairs,
inserts and deletes leaves on ``r.ad.hash`` (chains included), its
``state_doc()``, and the base file's leaves, key directory and edited-key
order after the fold.  And a fold interrupted by a transient storage
fault, then retried until it succeeds, leaves the base file holding
exactly the relation's logical content, every tuple reachable by descent.
"""

import random
import zlib

import pytest

from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.resilience.faults import FaultProfile, FaultRates, FaultyDisk, TransientIOError
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Schema

SCHEMA = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)


def record(key, a, v):
    return SCHEMA.new_record(id=key, a=a, v=v)


def seeded_history(seed=2024):
    """90 seeded modifications of 120 tuples: pairs, inserts, deletes;
    four AD buckets of four entries, so chains grow."""
    rng = random.Random(seed)
    disk = SimulatedDisk(CostMeter())
    pool = BufferPool(disk, capacity=8)
    base = ClusteredRelation(SCHEMA, pool, "a", block_bytes=400, fanout=4)
    base.bulk_load([record(i, rng.randrange(40), i) for i in range(120)])
    hr = HypotheticalRelation(base, ad_buckets=4)
    live, next_id = list(range(120)), 120
    for step in range(90):
        roll = rng.random()
        if roll < 0.6:
            hr.update_by_key(rng.choice(live), a=rng.randrange(40), v=-step)
        elif roll < 0.8:
            hr.insert(record(next_id, rng.randrange(40), next_id))
            live.append(next_id)
            next_id += 1
        else:
            hr.delete_by_key(live.pop(rng.randrange(len(live))))
    pool.flush_all()
    return disk, hr


def crc(value):
    return zlib.crc32(repr(value).encode())


def page_sums(disk, file):
    return [disk._checksums[page_id] for page_id in disk.file_pages(file)]


class TestADAndFoldPinned:
    """Recorded at the commit before an AD entry became a row and the
    fold edited the key directory once: the same history must write the
    same AD pages, checkpoint the same AD state and fold to the same
    base pages, directory order and edited-key order."""

    def test_ad_pages(self):
        disk, hr = seeded_history()
        sums = page_sums(disk, "r.ad.hash")
        assert (len(sums), sums[:3], crc(sums)) == (
            37, [3818851843, 2413318760, 2270770108], 342904001
        )
        assert all(disk.verify(page_id) is None for page_id in disk.file_pages("r.ad.hash"))
        assert hr.ad_entry_count() == 147

    def test_state_doc(self):
        _, hr = seeded_history()
        doc = hr.state_doc()
        assert (len(doc["entries"]), crc(doc)) == (147, 1856263226)

    def test_base_after_fold(self):
        disk, hr = seeded_history()
        hr.base.touched = {}
        hr.reset()
        hr.pool.flush_all()
        leaves = page_sums(disk, "r.leaf")
        assert (len(leaves), leaves[:3], crc(leaves)) == (
            40, [42383741, 1331619176, 4137451346], 2969206741
        )
        assert crc(page_sums(disk, "r.int")) == 297835625
        assert crc([r.key for r in hr.base.records_snapshot()]) == 3483555979
        assert crc(list(hr.base.touched)) == 2234199697


def fold_under_faults(seed, rates, files=()):
    """Fold every third key's update of 400 tuples, ten to a leaf,
    through a pool of four pages while ``rates`` fault the disk, retrying
    the fold until it succeeds; returns the relation and what its
    content must be."""
    disk = FaultyDisk(CostMeter(), FaultProfile("fold", seed=seed, rates=rates, files=files))
    pool = BufferPool(disk, capacity=4)
    base = ClusteredRelation(SCHEMA, pool, "a", block_bytes=1000, fanout=8)
    rng = random.Random(seed)
    base.bulk_load([record(i, rng.randrange(60), i) for i in range(400)])
    hr = HypotheticalRelation(base, ad_buckets=16)
    for key in range(0, 400, 3):
        hr.update_by_key(key, a=rng.randrange(60), v=-key)
    expected = {r.key: dict(r.values) for r in hr.logical_snapshot()}
    disk.arm()
    for _attempt in range(200):
        try:
            hr.reset()
            break
        except TransientIOError:
            continue
    else:
        pytest.fail("the fold never got through")
    disk.disarm()
    assert disk.injected_total, "no fault landed: the case proves nothing"
    return hr, expected


def assert_folded(hr, expected):
    tree = hr.base.tree
    keys = [r.key for r in tree.scan_all()]
    assert len(keys) == len(set(keys)), "a key is filed twice"
    assert {r.key: dict(r.values) for r in tree.scan_all()} == expected
    assert len(tree) == len(expected) == len(hr.base)
    for key, values in expected.items():
        assert tree.locate(values["a"], key) is not None, f"{key} unreachable by descent"


class TestFoldUnderFaults:
    """Both failed at the commit before the directory was edited after
    the file and a pool installed a frame before evicting: the retry
    filed a key twice (read faults), a split lost its moved half
    (write faults on the eviction its new page caused)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_retried_fold_after_read_faults_files_each_key_once(self, seed):
        hr, expected = fold_under_faults(seed, FaultRates(read_error=0.01), files=("r.leaf",))
        assert_folded(hr, expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_split_under_write_faults_keeps_the_moved_half(self, seed):
        hr, expected = fold_under_faults(seed, FaultRates(write_error=0.05))
        assert_folded(hr, expected)
