"""FaultyDisk: deterministic seeded fault injection over the pager."""

import pytest

from repro.resilience.faults import (
    FaultProfile,
    FaultRates,
    FaultyDisk,
    TransientReadError,
    TransientWriteError,
    fault_profile,
    profile_names,
)
from repro.storage.pager import CostMeter, PageChecksumError


def make_disk(profile, pages=4, records=3):
    disk = FaultyDisk(CostMeter(), profile)
    ids = []
    for n in range(pages):
        page = disk.allocate("data.heap", 8)
        for i in range(records):
            page.add(("rec", n, i))
        disk.write(page)  # disks start disarmed: bootstrap writes run clean
        ids.append(page.page_id)
    return disk, ids


class TestProfiles:
    def test_preset_names(self):
        assert set(profile_names()) >= {"none", "transient", "torn", "bitrot", "mixed"}

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            fault_profile("gamma-rays")

    def test_with_seed_preserves_rates(self):
        base = fault_profile("mixed")
        reseeded = fault_profile("mixed", seed=99)
        assert reseeded.seed == 99
        assert reseeded.rates == base.rates
        assert reseeded.files == base.files

    def test_file_scoping(self):
        profile = FaultProfile(
            name="scoped", rates=FaultRates(bit_flip=0.5), files=("view.",)
        )
        assert profile.rate_for("bit_flip", "view.v.leaf") == 0.5
        assert profile.rate_for("bit_flip", "r.heap") == 0.0

    def test_unscoped_profile_applies_everywhere(self):
        profile = FaultProfile(name="any", rates=FaultRates(read_error=0.1))
        assert profile.rate_for("read_error", "anything.at.all") == 0.1


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            profile = FaultProfile(
                name="t", seed=seed,
                rates=FaultRates(read_error=0.2, write_error=0.1),
            )
            disk, ids = make_disk(profile)
            disk.arm()
            outcomes = []
            for _ in range(30):
                for pid in ids:
                    try:
                        disk.read(pid)
                        outcomes.append("ok")
                    except TransientReadError:
                        outcomes.append("fault")
            return outcomes, dict(disk.injected)

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_disarmed_disk_never_faults(self):
        profile = FaultProfile(name="hot", rates=FaultRates(read_error=1.0))
        disk, ids = make_disk(profile)
        assert not disk.armed
        for pid in ids:
            disk.read(pid)  # must not raise
        assert disk.injected_total == 0


class TestFaultClasses:
    def test_transient_read_error_charges_and_keeps_page(self):
        profile = FaultProfile(name="r", rates=FaultRates(read_error=1.0))
        disk, ids = make_disk(profile)
        disk.arm()
        reads_before = disk.meter.page_reads
        with pytest.raises(TransientReadError):
            disk.read(ids[0])
        assert disk.meter.page_reads == reads_before + 1
        assert disk.injected["read_error"] == 1
        disk.disarm()
        assert disk.read(ids[0]).records  # the page itself is fine

    def test_transient_write_error_persists_nothing(self):
        profile = FaultProfile(name="w", rates=FaultRates(write_error=1.0))
        disk, ids = make_disk(profile)
        original = disk.read(ids[0]).records
        disk.arm()
        doomed = disk.read(ids[0])
        doomed.fill([("changed",)])
        with pytest.raises(TransientWriteError):
            disk.write(doomed)
        disk.disarm()
        assert disk.read(ids[0]).records == original

    def test_torn_write_persists_prefix_with_intended_checksum(self):
        profile = FaultProfile(name="torn", rates=FaultRates(torn_write=1.0))
        disk, ids = make_disk(profile, records=4)
        disk.arm()
        page = disk.read(ids[0])
        page.fill([("new", i) for i in range(4)])
        disk.write(page)  # "succeeds" but tears
        assert disk.injected["torn_write"] == 1
        disk.disarm()
        stored = disk.read(ids[0])
        assert stored.records == page.records[:2]  # prefix only
        # The checksum recorded the intended image: verified reads catch it.
        disk.verify_reads = True
        with pytest.raises(PageChecksumError):
            disk.read(ids[0])
        assert disk.verify(ids[0]) == "checksum mismatch"

    def test_bit_flip_is_caught_only_by_verified_reads(self):
        profile = FaultProfile(name="rot", rates=FaultRates(bit_flip=1.0))
        disk, ids = make_disk(profile)
        disk.arm()
        disk.read(ids[0])  # rot injected on the read path, served silently
        assert disk.injected["bit_flip"] == 1
        disk.disarm()
        disk.verify_reads = True
        with pytest.raises(PageChecksumError):
            disk.read(ids[0])

    def test_rot_counter_does_not_double_count(self):
        """Re-rotting an already-damaged page is a no-op (honest counters)."""
        profile = FaultProfile(name="rot", rates=FaultRates(bit_flip=1.0))
        disk, ids = make_disk(profile, pages=1)
        disk.arm()
        disk.read(ids[0])
        disk.read(ids[0])
        assert disk.injected["bit_flip"] == 1

    def test_injected_total_sums_all_kinds(self):
        profile = FaultProfile(
            name="mix", rates=FaultRates(read_error=1.0, write_error=1.0)
        )
        disk, ids = make_disk(profile)
        disk.arm()
        with pytest.raises(TransientReadError):
            disk.read(ids[0])
        disk.injected["write_error"] += 2  # simulate prior write faults
        assert disk.injected_total == 3
