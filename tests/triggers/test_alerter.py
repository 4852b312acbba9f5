"""The alerter over maintained views."""

import random

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Insert, Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

from quel.alerter import Alerter, ThresholdCondition

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
COUNT_VIEW = AggregateView("cnt", "r", IntervalPredicate("a", 0, 9), "count", "id")
SUM_VIEW = AggregateView("total", "r", IntervalPredicate("a", 0, 9), "sum", "v")
ROWS_VIEW = SelectProjectView("rows", "r", IntervalPredicate("a", 0, 9),
                              ("id", "a"), "a")


@pytest.fixture
def db():
    database = Database(buffer_pages=256)
    records = [R.new_record(id=i, a=i % 50, v=10) for i in range(100)]
    database.create_relation(R, "a", kind="hypothetical", records=records,
                             ad_buckets=2)
    database.define_view(COUNT_VIEW, Strategy.DEFERRED)
    database.define_view(SUM_VIEW, Strategy.DEFERRED)
    database.define_view(ROWS_VIEW, Strategy.DEFERRED)
    database.reset_meter()
    return database


def bump_count(db, key, into_view=True):
    db.apply_transaction(Transaction.of("r", [
        Update(key, {"a": 5 if into_view else 45}),
    ]))


class TestConditions:
    def test_threshold_describe_and_eval(self):
        cond = ThresholdCondition("c", "cnt", ">=", 10)
        assert cond.evaluate(10) and not cond.evaluate(9)
        assert ">= 10" in cond.describe()

    def test_threshold_rejects_bad_operator(self):
        with pytest.raises(ValueError):
            ThresholdCondition("c", "cnt", "~", 1)

    def test_threshold_none_answer_is_false(self):
        assert not ThresholdCondition("c", "cnt", ">", 0).evaluate(None)


class TestAlerterRegistration:
    def test_unknown_view_rejected(self, db):
        alerter = Alerter(db)
        with pytest.raises(KeyError):
            alerter.register(ThresholdCondition("c", "ghost", ">", 0))

    def test_duplicate_name_rejected(self, db):
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("c", "cnt", ">", 0))
        with pytest.raises(ValueError):
            alerter.register(ThresholdCondition("c", "cnt", ">", 1))


class TestEdgeSemantics:
    def test_fires_on_rising_edge_only(self, db):
        # 20 tuples have a in [0,9] initially (a = i % 50).
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("busy", "cnt", ">=", 21))
        assert alerter.check() == []          # 20 < 21: armed, silent
        bump_count(db, 10)                     # now 21
        fired = alerter.check()
        assert [a.condition for a in fired] == ["busy"]
        assert alerter.check() == []           # still true: disarmed

    def test_rearms_after_falling(self, db):
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("busy", "cnt", ">=", 21))
        bump_count(db, 10)
        assert alerter.check()                 # fires
        bump_count(db, 10, into_view=False)    # back to 20
        assert alerter.check() == []           # false: re-arms silently
        bump_count(db, 10)
        assert alerter.check()                 # fires again

    def test_history_accumulates(self, db):
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("busy", "cnt", ">=", 21))
        bump_count(db, 10)
        alerter.check()                        # check 1: fires
        alerter.check()                        # check 2: still true, silent
        bump_count(db, 10, into_view=False)
        alerter.check()                        # check 3: false, re-arms
        bump_count(db, 10)
        alerter.check()                        # check 4: fires again
        assert [a.check_number for a in alerter.history] == [1, 4]
        assert [a.answer for a in alerter.history] == [21, 21]


class TestEfficiency:
    def test_shared_view_query_across_conditions(self, db):
        """Two conditions on the same view+range cost one view query."""
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("low", "cnt", ">=", 1))
        alerter.register(ThresholdCondition("high", "cnt", ">=", 1000))
        queries_before = db.queries_answered
        alerter.check()
        assert db.queries_answered == queries_before + 1

    def test_aggregate_check_is_cheap_when_idle(self, db):
        """With no pending updates, a threshold check reads ~one page."""
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("busy", "cnt", ">=", 1))
        alerter.check()  # drains any pending AD
        before = db.meter.snapshot()
        alerter.check()
        delta = db.meter.delta_since(before)
        assert delta.page_reads <= 2
