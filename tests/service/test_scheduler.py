"""Refresh policies: on-demand, periodic, async."""

import pytest

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.policies import AsyncRefreshPoint, SnapshotAnalysis
from repro.service.scheduler import RefreshPolicy, RefreshScheduler


class TestRefreshPolicy:
    def test_kinds(self):
        assert RefreshPolicy.on_demand().kind == "on_demand"
        assert RefreshPolicy.periodic(5).every == 5
        assert RefreshPolicy.async_refresh().kind == "async"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RefreshPolicy("sometimes")

    def test_doc_round_trip(self):
        for policy in (RefreshPolicy.on_demand(), RefreshPolicy.periodic(4),
                       RefreshPolicy.async_refresh()):
            assert RefreshPolicy.from_doc(policy.to_doc()) == policy
        assert RefreshPolicy.from_doc(None) == RefreshPolicy.on_demand()
        assert RefreshPolicy.from_doc({"kind": "periodic", "every": 3}).every == 3

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            RefreshPolicy.periodic(0)


class TestScheduler:
    def test_on_demand_always_refreshes(self):
        scheduler = RefreshScheduler()
        assert all(scheduler.should_refresh_on_query("v") for _ in range(5))

    def test_periodic_refreshes_every_jth_query(self):
        scheduler = RefreshScheduler()
        scheduler.set_policy("v", RefreshPolicy.periodic(3))
        decisions = [scheduler.should_refresh_on_query("v") for _ in range(7)]
        assert decisions == [True, False, False, True, False, False, True]

    def test_staleness_counter_tracks_stale_answers(self):
        scheduler = RefreshScheduler()
        scheduler.set_policy("v", RefreshPolicy.periodic(3))
        scheduler.should_refresh_on_query("v")
        scheduler.note_refreshed("v")
        scheduler.should_refresh_on_query("v")
        scheduler.note_stale_answer("v")
        scheduler.should_refresh_on_query("v")
        scheduler.note_stale_answer("v")
        assert scheduler.queries_since_refresh("v") == 2
        scheduler.note_refreshed("v")
        assert scheduler.queries_since_refresh("v") == 0

    def test_only_async_wants_background_work(self):
        scheduler = RefreshScheduler()
        scheduler.set_policy("a", RefreshPolicy.async_refresh())
        scheduler.set_policy("b", RefreshPolicy.periodic(2))
        assert scheduler.wants_background_refresh("a")
        assert not scheduler.wants_background_refresh("b")
        assert not scheduler.wants_background_refresh("unregistered")

    def test_unregistered_view_defaults_to_on_demand(self):
        assert RefreshScheduler().policy_of("v").kind == "on_demand"

    def test_the_default_policy_is_one_object(self):
        """No policy is built per call: every unregistered view gets the
        same on-demand instance, on every call."""
        scheduler = RefreshScheduler()
        first = scheduler.policy_of("v")
        assert first == RefreshPolicy.on_demand()
        assert scheduler.policy_of("v") is first
        assert scheduler.policy_of("w") is first
        assert RefreshScheduler().policy_of("v") is first


class TestPolicyPricing:
    def test_on_demand_is_the_baseline(self):
        assert RefreshScheduler.price_policy(
            PAPER_DEFAULTS, RefreshPolicy.on_demand()
        ) is None

    def test_periodic_prices_as_snapshot(self):
        analysis = RefreshScheduler.price_policy(
            PAPER_DEFAULTS, RefreshPolicy.periodic(4)
        )
        assert isinstance(analysis, SnapshotAnalysis)

    def test_async_prices_as_async_refresh(self):
        point = RefreshScheduler.price_policy(
            PAPER_DEFAULTS, RefreshPolicy.async_refresh()
        )
        assert isinstance(point, AsyncRefreshPoint)
