"""Model 1 cost formulas, pinned against hand computation (Section 3.2)."""

import pytest

from repro.core import model1
from repro.core.parameters import PAPER_DEFAULTS, Parameters
from repro.core.strategies import Strategy, ViewModel
from repro.core.yao import yao_cardenas

P = PAPER_DEFAULTS  # N=1e5, b=2500, T=40, u=25, H_vi=2


class TestQueryCost:
    def test_components_at_defaults(self):
        # scan: 30 * .1 * .1 * 2500 / 2 = 375; index: 30*2 = 60; cpu: 1000
        assert model1.cost_query_view(P) == pytest.approx(375 + 60 + 1000)

    def test_halved_view_pages(self):
        """The view's doubled blocking factor must show up as fb/2 pages."""
        io_only = P.with_updates(c1=1e-12)
        scan_io = model1.cost_query_view(io_only) - io_only.c2 * io_only.H_vi
        assert scan_io == pytest.approx(io_only.c2 * io_only.f * io_only.f_v * io_only.b / 2)

    def test_scales_linearly_with_fv(self):
        base = model1.cost_query_view(P) - P.c2 * P.H_vi
        double = model1.cost_query_view(P.with_updates(f_v=0.2)) - P.c2 * P.H_vi
        assert double == pytest.approx(2 * base)


class TestHypotheticalRelationCosts:
    def test_hr_maintenance_at_defaults(self):
        # y(50, 1.25, 25) with k/q = 1
        expected = 30 * yao_cardenas(50, 1.25, 25)
        assert model1.cost_hr_maintenance(P) == pytest.approx(expected)

    def test_hr_maintenance_zero_when_no_updates(self):
        assert model1.cost_hr_maintenance(P.with_updates(k=0)) == 0.0

    def test_ad_read_at_defaults(self):
        # 2u/T = 50/40 pages
        assert model1.cost_read_ad(P) == pytest.approx(30 * 50 / 40)

    def test_ad_read_grows_with_update_ratio(self):
        heavy = P.with_update_probability(0.9)
        assert model1.cost_read_ad(heavy) > model1.cost_read_ad(P)


class TestScreening:
    def test_screen_cost_at_defaults(self):
        assert model1.cost_screen(P) == pytest.approx(2.5)  # 1 * .1 * 25

    def test_screen_scales_with_selectivity(self):
        assert model1.cost_screen(P.with_updates(f=0.5)) == pytest.approx(12.5)


class TestRefreshCosts:
    def test_deferred_refresh_at_defaults(self):
        x1 = yao_cardenas(10_000, 125, 5.0)  # 2fu = 5
        assert model1.cost_deferred_refresh(P) == pytest.approx(30 * 5 * x1)

    def test_immediate_refresh_at_defaults(self):
        x2 = yao_cardenas(10_000, 125, 5.0)  # 2fl = 5, k/q = 1
        assert model1.cost_immediate_refresh(P) == pytest.approx(30 * 5 * x2)

    def test_equal_at_equal_k_q(self):
        """With k = q, deferred and immediate apply identical batches."""
        assert model1.cost_deferred_refresh(P) == pytest.approx(
            model1.cost_immediate_refresh(P)
        )

    def test_deferred_cheaper_when_updates_dominate(self):
        heavy = P.with_update_probability(0.9)  # k/q = 9
        assert model1.cost_deferred_refresh(heavy) < model1.cost_immediate_refresh(heavy)

    def test_immediate_cheaper_when_queries_dominate(self):
        light = P.with_update_probability(0.1)  # k/q = 1/9
        assert model1.cost_immediate_refresh(light) < model1.cost_deferred_refresh(light)

    def test_zero_when_no_changes(self):
        assert model1.cost_deferred_refresh(P.with_updates(k=0)) == 0.0
        assert model1.cost_immediate_refresh(P.with_updates(l=0)) == 0.0


class TestOverhead:
    def test_overhead_printed_formula(self):
        # c3 * 2 * f * l * k/q = 1 * 2 * .1 * 25 * 1
        assert model1.cost_ad_set_overhead(P) == pytest.approx(5.0)

    def test_overhead_scales_with_c3(self):
        assert model1.cost_ad_set_overhead(P.with_updates(c3=2.0)) == pytest.approx(10.0)


class TestQueryModification:
    def test_clustered_at_defaults(self):
        assert model1.total_qm_clustered(P).total == pytest.approx(750 + 1000)

    def test_unclustered_at_defaults(self):
        fetched = 1000.0
        expected = 30 * yao_cardenas(100_000, 2_500, fetched) + fetched
        assert model1.total_qm_unclustered(P).total == pytest.approx(expected)

    def test_sequential_at_defaults(self):
        assert model1.total_qm_sequential(P).total == pytest.approx(75_000 + 100_000)

    def test_clustered_beats_unclustered_beats_sequential(self):
        c = model1.total_qm_clustered(P).total
        u = model1.total_qm_unclustered(P).total
        s = model1.total_qm_sequential(P).total
        assert c < u < s

    def test_unclustered_approaches_sequential_io_for_huge_queries(self):
        wide = P.with_updates(f=1.0, f_v=1.0)
        unclustered_io = model1.total_qm_unclustered(wide).component("C_io")
        sequential_io = model1.total_qm_sequential(wide).component("C_io")
        assert unclustered_io <= sequential_io + 1e-6
        assert unclustered_io >= 0.95 * sequential_io


class TestTotals:
    def test_totals_sum_components(self):
        for builder in (model1.total_deferred, model1.total_immediate):
            bd = builder(P)
            assert bd.total == pytest.approx(sum(bd.components.values()))

    def test_deferred_components_named_as_paper(self):
        assert set(model1.total_deferred(P).components) == {
            "C_AD", "C_ADread", "C_query1", "C_def_refresh", "C_screen",
        }

    def test_immediate_components_named_as_paper(self):
        assert set(model1.total_immediate(P).components) == {
            "C_query1", "C_imm_refresh", "C_screen", "C_overhead",
        }

    def test_all_totals_covers_five_strategies(self):
        totals = model1.all_totals(P)
        assert set(totals) == {
            Strategy.DEFERRED,
            Strategy.IMMEDIATE,
            Strategy.QM_CLUSTERED,
            Strategy.QM_UNCLUSTERED,
            Strategy.QM_SEQUENTIAL,
        }
        for strategy, bd in totals.items():
            assert bd.strategy is strategy
            assert bd.model is ViewModel.SELECT_PROJECT


class TestPaperHeadlines:
    """Qualitative results stated in Section 3.3."""

    def test_clustered_wins_at_default_settings(self):
        totals = model1.all_totals(P)
        best = min(totals.values())
        assert best.strategy is Strategy.QM_CLUSTERED

    def test_deferred_and_immediate_nearly_equal_at_low_p(self):
        low = P.with_update_probability(0.05)
        d = model1.total_deferred(low).total
        i = model1.total_immediate(low).total
        assert abs(d - i) / i < 0.05

    def test_materialized_views_beat_unclustered_query_modification(self):
        """Materialized copies are 'significantly superior' when only an
        unclustered base path exists."""
        for p_value in (0.1, 0.3, 0.5):
            params = P.with_update_probability(p_value)
            totals = model1.all_totals(params)
            assert totals[Strategy.IMMEDIATE].total < totals[Strategy.QM_UNCLUSTERED].total
            assert totals[Strategy.DEFERRED].total < totals[Strategy.QM_UNCLUSTERED].total

    def test_high_p_favors_query_modification(self):
        heavy = P.with_update_probability(0.95)
        totals = model1.all_totals(heavy)
        assert min(totals.values()).strategy is Strategy.QM_CLUSTERED

    def test_query_cost_dominates_both_schemes_at_low_p(self):
        low = P.with_update_probability(0.02)
        for builder in (model1.total_deferred, model1.total_immediate):
            bd = builder(low)
            assert bd.fraction("C_query1") > 0.9


class TestBaseUpdateTerm:
    """``C_base``: the base update outside the paper's totals, in Yao's
    form (one fold per query deferred, ``k/q`` transactions otherwise)."""

    def test_exact_form(self):
        per_page = P.c2 * (3.0 + P.H_base)
        heavy = P.with_update_probability(0.8)
        assert model1.cost_base_update(heavy, Strategy.DEFERRED) == pytest.approx(
            per_page * yao_cardenas(P.N, P.b, heavy.u)
        )
        assert model1.cost_base_update(heavy, Strategy.IMMEDIATE) == pytest.approx(
            per_page * (heavy.k / heavy.q) * yao_cardenas(P.N, P.b, heavy.l)
        )

    def test_a_fold_batches_the_base_writes(self):
        """Subadditivity: with more than one transaction per query the
        fold touches fewer base pages than the transactions would."""
        for p_value in (0.6, 0.8, 0.95):
            params = P.with_update_probability(p_value)
            deferred = model1.cost_base_update(params, Strategy.DEFERRED)
            for other in (Strategy.IMMEDIATE, Strategy.QM_CLUSTERED):
                assert deferred < model1.cost_base_update(params, other)

    @pytest.mark.parametrize("model", list(ViewModel))
    def test_whole_system_total_is_the_paper_total_plus_c_base(self, model):
        from repro.core.advisor import evaluate

        params = P.with_update_probability(0.5)
        for strategy, bd in evaluate(params, model).items():
            assert "C_base" not in bd.components
            assert model1.whole_system_total(params, bd) == pytest.approx(
                bd.total + model1.cost_base_update(params, strategy)
            )
