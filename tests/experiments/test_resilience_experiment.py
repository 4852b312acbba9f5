"""The ext-resilience experiment: the chaos matrix and its acceptance bar."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.strategies import Strategy
from repro.experiments.resilience import (
    ResilienceRun,
    check_acceptance,
    resilience_table,
    run_resilience_cell,
)
from repro.experiments.runner import EXPERIMENTS


def make_run(**overrides):
    base = dict(
        profile="transient", strategy="deferred", arm="resilient",
        queries=100, answered=100, degraded=0, wrong=0,
        degraded_divergent=0, updates=40, lost_updates=0,
        faults_injected=10, modelled_ms=500.0,
    )
    base.update(overrides)
    return ResilienceRun(**base)


class TestChaosCell:
    def test_registered_as_experiment(self):
        assert "ext-resilience" in EXPERIMENTS

    def test_transient_deferred_cell_meets_the_bar(self):
        oracle, baseline, resilient = run_resilience_cell(
            "transient", Strategy.DEFERRED
        )
        # All three arms replay the same seeded stream.
        assert oracle.queries == baseline.queries == resilient.queries
        assert (oracle.arm, baseline.arm, resilient.arm) == (
            "oracle", "baseline", "resilient"
        )
        assert oracle.wrong == 0 and oracle.availability == 1.0
        # The profile really fired, and the naive server suffered for it.
        assert baseline.faults_injected > 0
        assert baseline.answered < baseline.queries
        # The full stack absorbed the same faults without losing a query.
        assert resilient.faults_injected > 0
        assert resilient.wrong == 0
        assert resilient.availability >= 0.99
        assert check_acceptance((oracle, baseline, resilient)) == []


class TestAcceptance:
    def test_clean_matrix_passes(self):
        runs = (
            make_run(arm="oracle", faults_injected=0),
            make_run(arm="baseline", answered=70, wrong=5),
            make_run(),
        )
        assert check_acceptance(runs) == []

    def test_resilient_wrong_answers_flagged(self):
        violations = check_acceptance((make_run(wrong=3),))
        assert any("3 wrong answers" in v for v in violations)

    def test_resilient_availability_floor(self):
        violations = check_acceptance((make_run(answered=90),))
        assert any("< 99%" in v for v in violations)

    def test_unharmed_baseline_flagged(self):
        """A profile whose baseline takes zero damage tests nothing."""
        violations = check_acceptance(
            (make_run(arm="baseline", answered=100, wrong=0, lost_updates=0),)
        )
        assert any("no damage" in v for v in violations)

    def test_labeled_degraded_answers_are_not_wrong(self):
        runs = (
            make_run(degraded=8, degraded_divergent=2),
            make_run(arm="baseline", answered=60),
        )
        assert check_acceptance(runs) == []


class TestTable:
    def test_table_shape_and_overhead_column(self):
        runs = (
            make_run(arm="oracle", modelled_ms=400.0, faults_injected=0),
            make_run(arm="baseline", answered=70, modelled_ms=300.0),
            make_run(modelled_ms=500.0),
        )
        table = resilience_table(runs=runs)
        assert table.table_id == "ext-resilience"
        assert len(table.rows) == 3
        by_arm = {row[2]: row for row in table.rows}
        assert by_arm["oracle"][-1] == "1.00x"
        assert by_arm["resilient"][-1] == "1.25x"  # 500 / 400 vs clean
        assert by_arm["baseline"][4] == "70.0%"  # availability column
        assert "silent" in table.notes


def test_table_does_not_depend_on_the_hash_seed():
    """The pool writes dirty pages back in page order: which write a torn
    or failed-write fault lands on, and so every row of the table, is the
    same under any ``PYTHONHASHSEED``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "ext-resilience"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    tables = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        # Drop the "ran 1 experiment(s) in N s" timing footer.
        tables.append([line for line in out.splitlines()
                       if not line.startswith("ran ")])
    assert tables[0] == tables[1]
