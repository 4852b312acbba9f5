"""Write-ahead log: framing, CRC, torn tails, rotation, fsync batching."""

from contextlib import closing

import pytest

from repro.durability.wal import FRAME_HEADER, WalError, WriteAheadLog


def _records(n):
    return [{"event": "txn", "payload": {"i": i}} for i in range(n)]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(5):
            wal.append(rec)
        wal.close()
        with closing(WriteAheadLog(tmp_path)) as reopened:
            assert list(reopened.replay()) == _records(5)

    def test_append_returns_sequential_indexes(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert [wal.append(r) for r in _records(3)] == [0, 1, 2]
        wal.close()

    def test_log_wraps_encode_event(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log("drop_view", {"view": "v"})
        wal.close()
        with closing(WriteAheadLog(tmp_path)) as reopened:
            (rec,) = reopened.replay()
        assert rec["event"] == "drop_view"
        assert rec["view"] == "v"

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        with pytest.raises(WalError):
            wal.append({"event": "txn"})

    def test_rejects_bad_fsync_every(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync_every=0)


class TestTornTail:
    def test_partial_frame_is_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(3):
            wal.append(rec)
        wal.close()
        path = wal.segment_path(wal.epoch)
        with open(path, "ab") as fh:
            # Header promising 4096 payload bytes, followed by 4: torn.
            fh.write(FRAME_HEADER.pack(4096, 0) + b"torn")
        size_before = path.stat().st_size

        reopened = WriteAheadLog(tmp_path)
        assert reopened.torn_tail_truncations == 1
        assert path.stat().st_size < size_before
        assert list(reopened.replay()) == _records(3)
        reopened.close()

    def test_crc_mismatch_stops_the_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(4):
            wal.append(rec)
        wal.close()
        path = wal.segment_path(wal.epoch)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the third frame: its CRC now fails
        # and the scan must stop *before* it, keeping frames 0-1.
        offset = 0
        for _ in range(2):
            length, _crc = FRAME_HEADER.unpack_from(data, offset)
            offset += FRAME_HEADER.size + length
        data[offset + FRAME_HEADER.size] ^= 0xFF
        path.write_bytes(bytes(data))
        assert list(WriteAheadLog.read_segment(path)) == _records(2)

    def test_appends_continue_after_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"event": "txn", "payload": {"i": 0}})
        wal.close()
        with open(wal.segment_path(wal.epoch), "ab") as fh:
            fh.write(b"\x07")  # lone garbage byte
        reopened = WriteAheadLog(tmp_path)
        reopened.append({"event": "txn", "payload": {"i": 1}})
        reopened.close()
        with closing(WriteAheadLog(tmp_path)) as again:
            assert list(again.replay()) == _records(2)


class TestRotation:
    def test_rotate_advances_epoch_and_seals_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"event": "txn", "payload": {"i": 0}})
        assert wal.rotate() == 2
        wal.append({"event": "txn", "payload": {"i": 1}})
        assert wal.segment_numbers() == [1, 2]
        assert list(wal.replay(from_epoch=2)) == [{"event": "txn", "payload": {"i": 1}}]
        wal.close()

    def test_truncate_through_drops_sealed_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"event": "txn", "payload": {"i": 0}})
        wal.rotate()
        wal.rotate()
        assert wal.truncate_through(3) == 2
        assert wal.segment_numbers() == [3]
        wal.close()

    def test_reopen_resumes_latest_epoch(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.rotate()
        wal.close()
        with closing(WriteAheadLog(tmp_path)) as reopened:
            assert reopened.epoch == 2


class TestFsyncBatching:
    def test_one_fsync_per_batch(self, tmp_path):
        with closing(WriteAheadLog(tmp_path, fsync_every=5)) as wal:
            for rec in _records(10):
                wal.append(rec)
            assert wal.fsyncs == 2

    def test_close_syncs_the_residue(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=5)
        for rec in _records(7):
            wal.append(rec)
        wal.close()
        assert wal.fsyncs == 2  # one full batch + the residue of 2

    def test_synchronous_commit_default(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(3):
            wal.append(rec)
        assert wal.fsyncs == 3
        wal.close()

    def test_wal_bytes_counts_live_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert wal.wal_bytes() == 0
        wal.append({"event": "txn", "payload": {"i": 0}})
        on_disk = wal.wal_bytes()
        assert on_disk == wal.bytes_appended > 0
        wal.close()
