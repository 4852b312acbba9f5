"""ServiceJournal: the checkpoint cadence, its metrics, and recovery."""

import pytest

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.strategies import Strategy
from repro.durability.faults import ENGINE_CONFIG, build_database, make_workload
from repro.durability.journal import ServiceJournal
from repro.durability.manager import DurabilityManager
from repro.service.metrics import MetricsRegistry
from repro.service.server import ViewServer


@pytest.fixture
def open_manager(tmp_path):
    """``open_manager()`` opens a manager over ``tmp_path``; every one it
    opened is closed at teardown, so no WAL segment outlives its test."""
    opened = []

    def open_():
        opened.append(DurabilityManager(tmp_path))
        return opened[-1]

    yield open_
    for manager in opened:
        manager.close()


@pytest.fixture
def armed(open_manager):
    """``armed(every)``: a journal over a fresh manager, cadence set."""

    def arm(every=None):
        manager = open_manager()
        manager.save_config(ENGINE_CONFIG)
        journal = ServiceJournal(MetricsRegistry(), manager)
        journal.set_cadence(every)
        return journal, manager

    return arm


class TestCadence:
    def test_unarmed_journal_is_inert(self):
        journal = ServiceJournal(MetricsRegistry())
        journal.set_cadence(1)
        assert not journal.tick()
        assert journal.recover_twin(None, PAPER_DEFAULTS) is None
        with pytest.raises(RuntimeError, match="no durability manager"):
            journal.checkpoint(None, {})
        assert journal.metrics.to_dict()["metrics"] == []

    def test_tick_comes_due_every_n_requests(self, armed):
        journal, _ = armed(every=3)
        assert [journal.tick() for _ in range(3)] == [False, False, True]

    def test_no_cadence_never_comes_due(self, armed):
        journal, _ = armed()
        assert not any(journal.tick() for _ in range(10))

    def test_a_deferred_tick_stays_due_until_the_checkpoint(self, armed):
        """The server skips the snapshot while unhealthy; the counter is
        kept, so the very next tick is still due."""
        journal, manager = armed(every=2)
        db = build_database(Strategy.DEFERRED, manager)
        assert [journal.tick() for _ in range(4)] == [False, True, True, True]
        journal.checkpoint(db, {})
        assert manager.checkpoints_taken == 1
        assert [journal.tick() for _ in range(2)] == [False, True]

    @pytest.mark.parametrize("every", [0, -3])
    def test_rejects_a_non_positive_period(self, armed, every):
        journal, _ = armed()
        with pytest.raises(ValueError, match="checkpoint period"):
            journal.set_cadence(every)

    def test_set_cadence_restarts_the_count(self, armed):
        journal, _ = armed(every=2)
        journal.tick()
        journal.set_cadence(2)
        assert [journal.tick() for _ in range(2)] == [False, True]


class TestCheckpointAndRecovery:
    def test_checkpoint_exports_its_metrics_and_carries_the_cadence(
        self, armed, open_manager
    ):
        journal, manager = armed(every=7)
        db = build_database(Strategy.DEFERRED, manager)
        info = journal.checkpoint(db, {"v": {"adaptive": False}})
        metrics = journal.metrics
        assert metrics.counter("checkpoints_total", kind="full").value == 1
        assert metrics.gauge("checkpoint_bytes").value == info.bytes_written
        manager.close()

        reopened = ServiceJournal(MetricsRegistry(), open_manager())
        _db, saved = reopened.recover_engine(None, None, None, PAPER_DEFAULTS)
        assert saved["views"] == {"v": {"adaptive": False}}
        assert reopened.checkpoint_every == 7  # the saved cadence resumes

    def test_an_explicit_cadence_wins_over_the_saved_one(self, armed, open_manager):
        journal, manager = armed(every=7)
        journal.checkpoint(build_database(Strategy.DEFERRED, manager), {})
        manager.close()
        reopened = ServiceJournal(MetricsRegistry(), open_manager())
        reopened.set_cadence(2)
        reopened.recover_engine(None, None, None, PAPER_DEFAULTS)
        assert reopened.checkpoint_every == 2

    def test_open_and_fault_recovery_export_the_same_recovery_metrics(
        self, tmp_path, armed
    ):
        journal, manager = armed()
        db = build_database(Strategy.DEFERRED, manager)
        journal.checkpoint(db, {})
        for txn in make_workload(5, 6):
            db.apply_transaction(txn)
        names = ("recovery_replay_records", "recovery_ms", "recovery_wall_ms",
                 "recovery_full_recomputes")

        twin = journal.recover_twin(db, PAPER_DEFAULTS)
        assert twin is not db and twin.journal is manager.wal and db.journal is None
        assert journal.metrics.counter("recoveries_total").value == 1
        assert journal.metrics.gauge("recovery_replay_records").value == 6
        live = {n: journal.metrics.gauge(n).value for n in names}
        manager.close()

        server = ViewServer.open(tmp_path)
        assert server.metrics.counter("recoveries_total").value == 1
        opened = {n: server.metrics.gauge(n).value for n in names}
        assert opened["recovery_replay_records"] == live["recovery_replay_records"]
        assert opened["recovery_ms"] == live["recovery_ms"]
        server.shutdown()
