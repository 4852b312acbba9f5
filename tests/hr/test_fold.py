"""The AD file's pages, the fold and its retry.

Pinned bit for bit: the page checksums a seeded history of update pairs,
inserts and deletes leaves on ``r.ad.hash`` (chains included), its
``state_doc()``, and the base file's leaves, key directory and edited-key
order after the fold.  And a fold interrupted by a transient storage
fault, then retried until it succeeds, leaves the base file holding
exactly the relation's logical content, every tuple reachable by descent:
at seeded fault rates, and with one fault on every read or every write
the fold makes, each in turn.
"""

import random
import zlib

import pytest

from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.resilience.faults import FaultProfile, FaultRates, FaultyDisk
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk, TransientIOError
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
    base pages, directory order and edited-key order.  The leaf and
    internal checksums were re-pinned once, when the fold began to go
    over the file in its own order (a leaf now meets its additions
    before later removals free room, so 40 leaves became 44); the
    directory and edited-key CRCs did not move.  The state_doc and leaf
    CRCs were re-pinned again when an AD entry began to hold the record
    it was given: a checkpointed or folded tuple is imaged as it was
    built, not by field name (re-imaging those records by name gives
    back the earlier CRCs); the AD pages did not move."""

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
        assert (len(doc["entries"]), crc(doc)) == (147, 4054104943)

    def test_base_after_fold(self):
        disk, hr = seeded_history()
        hr.base.touched = {}
        hr.reset()
        hr.pool.flush_all()
        leaves = page_sums(disk, "r.leaf")
        assert (len(leaves), leaves[:3], crc(leaves)) == (
            44, [895911906, 738778456, 1651738700], 1511526667
        )
        assert crc(page_sums(disk, "r.int")) == 569651306
        assert crc([r.key for r in hr.base.records_snapshot()]) == 3483555979
        assert crc(list(hr.base.touched)) == 2234199697


class TestFoldKeepsImages:
    def test_a_folded_tuple_is_imaged_as_the_live_engine_held_it(self):
        """Before a fold a pending key reads back as the record it was
        given; after the fold the base file holds that record, imaged
        the same, not listed by field name."""
        _, hr = seeded_history()
        hr.insert(SCHEMA.new_record(v="x", id=500, a=3))
        pending = {record.key for record, role, _ in hr.state_doc()["entries"] if role == "A"}
        before = {key: repr(hr.logical_by_key(key)) for key in pending}
        hr.reset()
        assert {key: repr(hr.base.peek_by_key(key)) for key in pending} == before
        assert before[500] == "Record(key=500, v='x', id=500, a=3)"


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
    (write faults on the eviction its new page caused).  The read rate
    was 1% until the fold went over the file once in its order; with
    fewer leaf reads seed 3 then landed no fault, so it is 3% (every
    seed lands at least six)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_retried_fold_after_read_faults_files_each_key_once(self, seed):
        hr, expected = fold_under_faults(seed, FaultRates(read_error=0.03), files=("r.leaf",))
        assert_folded(hr, expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_split_under_write_faults_keeps_the_moved_half(self, seed):
        hr, expected = fold_under_faults(seed, FaultRates(write_error=0.05))
        assert_folded(hr, expected)


class KthFaultDisk(SimulatedDisk):
    """Counts reads or writes once armed and fails the ``k``-th one,
    once (``k=None``: count only)."""

    op = None

    def arm(self, op, k):
        self.op, self.k, self.count = op, k, 0

    def _tick(self, op, page_id):
        if self.op == op:
            self.count += 1
            if self.count == self.k:
                self.op = None
                raise TransientIOError(page_id, op)

    def read(self, page_id):
        self._tick("read", page_id)
        return super().read(page_id)

    def write(self, page):
        self._tick("write", page.page_id)
        super().write(page)


def staged_fold(disk):
    """80 tuples on four-record leaves behind a four-page pool; every
    third key moved, every seventh deleted, ten inserted."""
    rng = random.Random(34)
    pool = BufferPool(disk, capacity=4)
    base = ClusteredRelation(SCHEMA, pool, "a", block_bytes=400, fanout=4)
    base.bulk_load([record(i, rng.randrange(30), i) for i in range(80)])
    hr = HypotheticalRelation(base, ad_buckets=4)
    for key in range(0, 80, 3):
        hr.update_by_key(key, a=rng.randrange(30), v=-key)
    for key in range(1, 80, 7):
        hr.delete_by_key(key)
    for key in range(80, 90):
        hr.insert(record(key, rng.randrange(30), key))
    pool.flush_all()
    return hr, {r.key: dict(r.values) for r in hr.logical_snapshot()}


def retried(step):
    for _attempt in range(5):
        try:
            return step()
        except TransientIOError:
            continue
    pytest.fail("a single fault was not got through")


def ops_of_a_fold(op):
    disk = KthFaultDisk(CostMeter())
    hr, _ = staged_fold(disk)
    disk.arm(op, None)
    hr.reset()
    hr.pool.flush_all()
    return disk.count


class TestFoldFaultedAtEveryStep:
    """One transient fault on the k-th read (or write) of the fold and
    its flush, for every k: the retried fold leaves the file and the
    key directory holding the logical content, on disk too.  The read
    case fails if an addition is filed before its key's older version is
    dropped (a key moved leftward is then filed twice)."""

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_every_step(self, op):
        total = ops_of_a_fold(op)
        assert total > 20
        for k in range(1, total + 1):
            disk = KthFaultDisk(CostMeter())
            hr, expected = staged_fold(disk)
            disk.arm(op, k)
            retried(hr.reset)
            retried(hr.pool.flush_all)
            assert disk.op is None, f"{op} {k} of {total} never happened"
            assert_folded(hr, expected)
            hr.pool.invalidate_all()
            assert_folded(hr, expected)
