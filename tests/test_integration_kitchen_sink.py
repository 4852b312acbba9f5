"""Kitchen-sink integration: every subsystem in one database.

One hypothetical relation backs a tuple view, an aggregate view and an
alerter; a second relation pair backs a two-sided deferred join; views
are defined through the QUEL language; parameters are estimated from
the data and fed to the advisor.  Everything must stay mutually
consistent through interleaved activity.
"""

import random
from collections import Counter

import pytest

from repro.core.estimation import estimate_parameters
from repro.core.strategies import Strategy, ViewModel
from repro.core.advisor import recommend
from repro.engine.database import Database
from repro.engine.transaction import Insert, Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView

from quel.alerter import Alerter, ThresholdCondition
from quel.builder import define_view_from_text

EMP = Schema("emp", ("eno", "sal", "dno"), "eno", tuple_bytes=100)
DEPT = Schema("dept", ("dno", "budget"), "dno", tuple_bytes=100)


@pytest.fixture
def world():
    rng = random.Random(3)
    db = Database(buffer_pages=512)
    employees = [
        EMP.new_record(eno=i, sal=rng.randrange(100), dno=rng.randrange(10))
        for i in range(400)
    ]
    departments = [DEPT.new_record(dno=d, budget=d * 100) for d in range(10)]
    db.create_relation(EMP, "sal", kind="hypothetical", records=employees,
                       ad_buckets=4)
    db.create_relation(DEPT, "dno", kind="hashed_hypothetical",
                       records=departments, ad_buckets=4)

    define_view_from_text(
        db,
        "define view top_paid (emp.eno, emp.sal) "
        "where emp.sal between 80 and 99 clustered on emp.sal",
        Strategy.DEFERRED,
    )
    define_view_from_text(
        db,
        "define view top_count (count(emp.eno)) where emp.sal between 80 and 99",
        Strategy.DEFERRED,
    )
    define_view_from_text(
        db,
        "define view top_depts (emp.eno, emp.sal, dept.dno, dept.budget) "
        "where emp.dno = dept.dno and emp.sal between 80 and 99 "
        "clustered on emp.sal",
        Strategy.DEFERRED,
    )
    db.reset_meter()
    return db, rng


def truth(db):
    emp_rows = db.relations["emp"].logical_snapshot()
    dept_rows = db.relations["dept"].logical_snapshot()
    views = {name: impl.definition for name, impl in db.views.items()}
    return {
        "top_paid": Counter(views["top_paid"].evaluate(emp_rows)),
        "top_count": views["top_count"].evaluate(emp_rows),
        "top_depts": Counter(views["top_depts"].evaluate(emp_rows, dept_rows)),
    }


class TestKitchenSink:
    def test_everything_stays_consistent(self, world):
        db, rng = world
        alerter = Alerter(db)
        alerter.register(ThresholdCondition("hot", "top_count", ">=", 1))
        next_eno = 400
        for round_ in range(8):
            ops = [
                Update(rng.randrange(400), {"sal": rng.randrange(100)})
                for _ in range(3)
            ]
            if round_ % 3 == 0:
                ops.append(Insert(EMP.new_record(
                    eno=next_eno, sal=rng.randrange(100), dno=rng.randrange(10))))
                next_eno += 1
            db.apply_transaction(Transaction.of("emp", ops))
            if round_ % 2 == 0:
                db.apply_transaction(Transaction.of("dept", [
                    Update(rng.randrange(10), {"budget": rng.randrange(10_000)}),
                ]))

            expected = truth(db)
            assert Counter(db.query_view("top_paid", 80, 99)) == expected["top_paid"]
            assert db.query_view("top_count") == expected["top_count"]
            assert Counter(db.query_view("top_depts", 80, 99)) == expected["top_depts"]
            alerter.check()

        assert alerter.checks_performed == 8

    def test_shared_coordinator_spans_language_defined_views(self, world):
        db, _ = world
        top_paid = db.views["top_paid"]
        top_count = db.views["top_count"]
        top_depts = db.views["top_depts"]
        # All three deferred views over `emp` share one coordinator.
        assert top_paid.coordinator is top_count.coordinator is top_depts.coordinator
        db.apply_transaction(Transaction.of("emp", [Update(0, {"sal": 85})]))
        db.query_view("top_paid", 80, 99)
        assert top_count.refresh_count == 1
        assert top_depts.refresh_count == 1

    def test_estimated_parameters_feed_advisor(self, world):
        db, _ = world
        for name, model in (
            ("top_paid", ViewModel.SELECT_PROJECT),
            ("top_depts", ViewModel.JOIN),
            ("top_count", ViewModel.AGGREGATE),
        ):
            definition = db.views[name].definition
            params = estimate_parameters(db, definition, queries=50, updates=10)
            assert params.N >= 400
            assert 0 < params.f <= 1
            rec = recommend(params, model)
            assert rec.best.total > 0

    def test_meter_accounts_for_everything(self, world):
        db, rng = world
        db.apply_transaction(Transaction.of("emp", [Update(0, {"sal": 85})]))
        db.query_view("top_paid", 80, 99)
        assert db.meter.page_ios > 0
        assert db.meter.screens > 0
