#!/usr/bin/env python3
"""Workbench: define views in QUEL, let the system measure and decide.

Ties the adopter-facing surfaces together:

1. Define three views over a staffing database using the paper's own
   ``define view`` syntax (the ``quel`` package beside this script).
2. Measure the cost-model parameters from the data and the observed
   workload (``repro.core.estimation`` — histograms, catalog stats).
3. Ask the advisor which maintenance strategy each view should use.
4. Run the winning strategies on the engine and watch an alerter.

Run:  python examples/quel_workbench.py
"""

import random

from repro import Strategy, ViewModel, recommend
from repro.core.estimation import estimate_parameters
from repro.engine import Database, Transaction, Update
from repro.storage import Schema
from repro.views.definition import AggregateView, JoinView

from quel.alerter import Alerter, ThresholdCondition
from quel.builder import build_definition
from quel.parser import parse

EMP = Schema("emp", ("eno", "salary", "dno", "age"), "eno", tuple_bytes=100)
DEPT = Schema("dept", ("dno", "budget", "floor"), "dno", tuple_bytes=100)

DEFINITIONS = [
    # Model 1: well-paid staff, clustered like the base relation.
    "define view well_paid (emp.eno, emp.salary) "
    "where emp.salary between 80000 and 99999 clustered on emp.salary",
    # Model 2: staff joined to departments, restricted to seniors.
    "define view senior_depts (emp.eno, emp.salary, dept.dno, dept.budget) "
    "where emp.dno = dept.dno and emp.salary between 80000 and 99999 "
    "clustered on emp.salary",
    # Model 3: payroll for the watched band.
    "define view watched_payroll (sum(emp.salary)) "
    "where emp.salary between 80000 and 99999",
]


def main() -> None:
    rng = random.Random(11)
    db = Database(buffer_pages=512, cold_operations=True)
    employees = [
        EMP.new_record(eno=i, salary=rng.randrange(30_000, 100_000),
                       dno=rng.randrange(30), age=rng.randrange(21, 65))
        for i in range(3_000)
    ]
    departments = [DEPT.new_record(dno=d, budget=d * 10_000, floor=d % 4)
                   for d in range(30)]
    db.create_relation(EMP, "salary", kind="plain", records=employees)
    db.create_relation(DEPT, "dno", kind="hashed", records=departments)

    print("=== 1. Parse the QUEL definitions ===\n")
    definitions = []
    for text in DEFINITIONS:
        definition = build_definition(parse(text))
        definitions.append(definition)
        print(f"  {definition.name:<16} -> {type(definition).__name__}")

    print("\n=== 2. Measure parameters, 3. ask the advisor ===\n")
    chosen = {}
    for definition in definitions:
        params = estimate_parameters(
            db, definition, queries=100, updates=25, f_v=0.2,
            tuples_per_transaction=3,
        )
        if isinstance(definition, JoinView):
            model = ViewModel.JOIN
        elif isinstance(definition, AggregateView):
            model = ViewModel.AGGREGATE
        else:
            model = ViewModel.SELECT_PROJECT
        rec = recommend(params, model)
        chosen[definition.name] = rec.strategy
        print(f"  {definition.name:<16} f≈{params.f:.3f}  N={params.N}  "
              f"-> {rec.strategy.label} ({rec.best.total:,.0f} ms/query, "
              f"{rec.relative_margin:.0%} better than {rec.runner_up.strategy.label})")

    print("\n=== 4. Register under the recommended strategies and run ===\n")
    for definition in definitions:
        strategy = chosen[definition.name]
        if strategy.is_query_modification():
            # Normalize to the concrete plan the engine implements.
            strategy = (Strategy.QM_LOOPJOIN
                        if isinstance(definition, JoinView)
                        else Strategy.QM_CLUSTERED)
        db.define_view(definition, strategy)
    db.reset_meter()

    alerter = Alerter(db)
    alerter.register(ThresholdCondition(
        "payroll-cap", "watched_payroll", ">", 54_000_000))

    for week in range(6):
        ops = [
            Update(rng.randrange(3_000),
                   {"salary": rng.randrange(30_000, 100_000)})
            for _ in range(3)
        ]
        db.apply_transaction(Transaction.of("emp", ops))
        raised = db.query_view("well_paid", 80_000, 99_999)
        seniors = db.query_view("senior_depts", 80_000, 99_999)
        payroll = db.query_view("watched_payroll")
        alerts = alerter.check()
        marker = f"   << {alerts[0].condition}" if alerts else ""
        print(f"  week {week}: {len(raised)} well-paid, {len(seniors)} "
              f"senior-dept rows, watched payroll ${payroll:,}{marker}")

    from repro import PAPER_DEFAULTS
    print(f"\nTotal simulated cost: "
          f"{db.meter.milliseconds(PAPER_DEFAULTS):,.0f} ms "
          f"({db.meter.page_ios} page I/Os).")


if __name__ == "__main__":
    main()
