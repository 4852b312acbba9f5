"""Fault harness: crash, recover, match the uncrashed twin."""

import pytest

from repro.core.strategies import Strategy
from repro.durability.faults import (
    KILL_POINTS,
    FaultScenario,
    KillPoint,
    default_scenarios,
    run_scenario,
)
from repro.durability.manager import DurabilityManager


def _scenario(strategy, kill, **overrides):
    return FaultScenario(
        name=f"{strategy.value}-{kill.describe()}",
        strategy=strategy,
        kill=kill,
        **overrides,
    )


class TestScenarios:
    def test_wal_kill_recovers_qm_view(self, tmp_path):
        outcome = run_scenario(
            _scenario(Strategy.QM_CLUSTERED, KillPoint("wal", "before_append", 12)),
            tmp_path,
        )
        assert outcome.crashed
        assert outcome.ok, outcome.mismatches

    def test_torn_write_is_truncated_and_recovered(self, tmp_path):
        outcome = run_scenario(
            _scenario(Strategy.IMMEDIATE, KillPoint("wal", "torn", 25)), tmp_path
        )
        assert outcome.ok, outcome.mismatches
        assert outcome.torn_tail_truncations == 1

    def test_checkpoint_kill_falls_back_to_previous_image(self, tmp_path):
        outcome = run_scenario(
            _scenario(Strategy.DEFERRED, KillPoint("checkpoint", "pre_publish", 0)),
            tmp_path,
        )
        assert outcome.ok, outcome.mismatches
        # The armed (mid-workload) checkpoint died pre-publish, so
        # recovery used the bootstrap checkpoint and replayed the rest.
        assert outcome.recovered_checkpoint == "ckpt-00000001"
        assert outcome.replay_records > 0

    def test_deferred_recovery_is_net_change_not_recompute(self, tmp_path):
        outcome = run_scenario(
            _scenario(Strategy.DEFERRED, KillPoint("wal", "after_append", 30)),
            tmp_path,
        )
        assert outcome.ok, outcome.mismatches
        assert outcome.full_recomputes_during_replay == 0

    def test_after_append_kill_keeps_the_durable_record(self, tmp_path):
        kill_at = 20
        outcome = run_scenario(
            _scenario(Strategy.QM_CLUSTERED, KillPoint("wal", "after_append", kill_at)),
            tmp_path,
        )
        assert outcome.ok, outcome.mismatches
        # Write-ahead ordering: the record hit disk before the crash,
        # so recovery replays it and the twin must apply it too.
        assert outcome.recovered_transactions > 0


class TestMatrix:
    def test_ci_matrix_shape(self):
        scenarios = default_scenarios()
        assert len(scenarios) == 21  # 3 strategies x 7 seeded kill points
        assert len(KILL_POINTS) == 7
        assert {s.strategy for s in scenarios} == {
            Strategy.QM_CLUSTERED, Strategy.IMMEDIATE, Strategy.DEFERRED
        }

    @pytest.mark.parametrize(
        "strategy", [Strategy.QM_CLUSTERED, Strategy.IMMEDIATE, Strategy.DEFERRED]
    )
    def test_one_play_crosses_both_kinds_of_checkpoint(self, tmp_path, monkeypatch, strategy):
        """Bootstrap image, two differentials over it, then the image
        that replaces all three: the kill cells' indices mean that."""
        taken = []
        real = DurabilityManager.checkpoint

        def recording(manager, *args, **kwargs):
            info = real(manager, *args, **kwargs)
            taken.append((info.kind, info.image))
            return info

        monkeypatch.setattr(DurabilityManager, "checkpoint", recording)
        never = KillPoint("checkpoint", "pre_publish", index=99)
        outcome = run_scenario(_scenario(strategy, never), tmp_path)
        assert not outcome.crashed and not outcome.mismatches
        assert taken == [
            ("full", "ckpt-00000001"),
            ("differential", "ckpt-00000001"),
            ("differential", "ckpt-00000001"),
            ("full", "ckpt-00000004"),
        ]

    @pytest.mark.parametrize(
        "kill, recovered_from",
        [
            (KillPoint("wal", "torn", 25), "ckpt-00000003"),
            (KillPoint("checkpoint", "pre_publish", 1), "ckpt-00000002"),
            (KillPoint("checkpoint", "pre_publish", 2), "ckpt-00000003"),
            (KillPoint("checkpoint", "post_publish", 1), "ckpt-00000003"),
            (KillPoint("checkpoint", "post_publish", 2), "ckpt-00000004"),
        ],
        ids=lambda value: value.describe() if isinstance(value, KillPoint) else value,
    )
    def test_kill_cells_recover_from_the_checkpoint_they_name(
        self, tmp_path, kill, recovered_from
    ):
        assert kill in KILL_POINTS
        outcome = run_scenario(_scenario(Strategy.DEFERRED, kill), tmp_path)
        assert outcome.crashed and outcome.ok, outcome.mismatches
        assert outcome.recovered_checkpoint == recovered_from

    def test_unknown_kill_target_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_scenario(
                _scenario(Strategy.IMMEDIATE, KillPoint("pager", "before_append", 0)),
                tmp_path,
            )
