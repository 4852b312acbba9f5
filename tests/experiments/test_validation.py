"""Simulation-vs-model validation (the repo's own acceptance gate)."""

import pytest

from repro.core.strategies import Strategy, ViewModel
from repro.experiments.validation import (
    RATIO_BANDS,
    STRATEGIES_BY_MODEL,
    orderings_agree,
    validate_all,
    validation_table,
)


@pytest.fixture(scope="module")
def rows():
    return validate_all()


class TestCoverage:
    def test_all_eleven_combinations_run(self, rows):
        assert len(rows) == sum(len(v) for v in STRATEGIES_BY_MODEL.values())

    def test_bands_exist_for_every_strategy(self):
        for strategies in STRATEGIES_BY_MODEL.values():
            for strategy in strategies:
                assert strategy in RATIO_BANDS


class TestAgreement:
    def test_every_ratio_within_band(self, rows):
        for row in rows:
            lo, hi = RATIO_BANDS[row.strategy]
            assert lo <= row.ratio <= hi, (
                f"Model {int(row.model)} {row.strategy.label}: "
                f"measured {row.measured_ms:.1f} vs analytic "
                f"{row.analytic_ms:.1f} (ratio {row.ratio:.2f}, band {lo}-{hi})"
            )

    @pytest.mark.parametrize("model", list(ViewModel), ids=lambda m: f"model{int(m)}")
    def test_measured_winner_matches_analytic(self, rows, model):
        assert orderings_agree(rows, model)

    def test_query_plans_track_model_tightly(self, rows):
        """Pure read plans (no maintenance) should be within ~30%
        except the descent-dominated clustered plan at small scale."""
        tight = {Strategy.QM_UNCLUSTERED, Strategy.QM_SEQUENTIAL, Strategy.QM_LOOPJOIN}
        for row in rows:
            if row.strategy in tight:
                assert 0.7 <= row.ratio <= 1.3, row.strategy


class TestTable:
    def test_table_reports_every_row_plus_ordering_lines(self, rows):
        table = validation_table()
        assert len(table.rows) == len(rows) + len(STRATEGIES_BY_MODEL)

    def test_no_out_of_band_markers(self):
        table = validation_table()
        assert all(row[-1] != "OUT OF BAND" for row in table.rows)
        assert all(row[-1] != "NO" for row in table.rows)


class TestComponentValidation:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments.components import component_validation_table

        return component_validation_table()

    def test_all_components_reported(self, table):
        names = [row[0] for row in table.rows]
        assert "C_ADread" in names
        assert "C_def_refresh" in names
        assert "C_query1" in names
        assert any("C_screen" in n for n in names)

    def test_refresh_matches_formula_tightly(self, table):
        row = next(r for r in table.rows if r[0] == "C_def_refresh")
        assert 0.5 <= row[3] <= 2.0

    def test_fold_matches_the_base_update_term(self, table):
        """The deferred fold of one batch, against ``C_base``, inside the
        deferred strategy's ratio band."""
        from repro.core.strategies import Strategy
        from repro.experiments.validation import RATIO_BANDS

        row = next(r for r in table.rows if r[0] == "C_base (fold)")
        low, high = RATIO_BANDS[Strategy.DEFERRED]
        assert low <= row[3] <= high

    def test_query_matches_formula(self, table):
        row = next(r for r in table.rows if r[0] == "C_query1")
        assert 0.5 <= row[3] <= 2.0

    def test_quantized_components_within_page_granularity(self, table):
        """C_ADread's analytic value is below one page at laptop scale;
        the measurement can exceed it only by whole-page quantization."""
        row = next(r for r in table.rows if r[0] == "C_ADread")
        measured, analytic = row[1], row[2]
        from repro.workload.spec import SCALED_DEFAULTS

        assert measured <= max(analytic, 2 * SCALED_DEFAULTS.c2) + 1e-9
