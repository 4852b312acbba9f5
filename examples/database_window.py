#!/usr/bin/env python3
"""A "window on a database": the paper's proposed killer app.

Section 4 speculates the best use of incremental view maintenance is
not query processing but applications that always need the *complete*
current answer — trigger/alerter conditions (Buneman & Clemons) and a
"window on a database" that displays a query's result and keeps it
fresh as updates stream in.

This example implements that window over the simulated engine: a
deferred-maintained view of high-value open tickets is re-rendered on
demand; between renders, updates accumulate cheaply in the AD
differential file.  An alerter watches a maintained COUNT aggregate
and fires when the backlog crosses a threshold — reading one page per
check instead of rescanning the table.

Run:  python examples/database_window.py
"""

import random

from repro import PAPER_DEFAULTS, Strategy
from repro.engine import Database, Insert, Transaction, Update
from repro.storage import Schema
from repro.views import AggregateView, IntervalPredicate, SelectProjectView

from quel.alerter import Alerter, ThresholdCondition

TICKETS = 1_500
SEVERITY_DOMAIN = 100
CRITICAL = (90, 99)  # top decile of severities

SCHEMA = Schema("tickets", ("tid", "severity", "age_h", "team"), "tid",
                tuple_bytes=100)

WINDOW = SelectProjectView(
    name="critical_window",
    relation="tickets",
    predicate=IntervalPredicate("severity", *CRITICAL),
    projection=("tid", "severity"),
    view_key="severity",
)

BACKLOG_ALERT = AggregateView(
    name="critical_count",
    relation="tickets",
    predicate=IntervalPredicate("severity", *CRITICAL),
    aggregate="count",
    field="tid",
)

ALERT_THRESHOLD = 170


def main() -> None:
    rng = random.Random(3)
    db = Database(buffer_pages=512, cold_operations=True)
    tickets = [
        SCHEMA.new_record(tid=i, severity=rng.randrange(SEVERITY_DOMAIN),
                          age_h=rng.randrange(72), team=rng.randrange(6))
        for i in range(TICKETS)
    ]
    db.create_relation(SCHEMA, "severity", kind="hypothetical",
                       records=tickets, ad_buckets=1)
    db.define_view(WINDOW, Strategy.DEFERRED)
    db.define_view(BACKLOG_ALERT, Strategy.DEFERRED)
    db.reset_meter()

    # The alerter watches the maintained COUNT (edge-triggered: fires
    # once per excursion, re-arms when the backlog falls back under the
    # threshold).
    alerter = Alerter(db)
    alerter.register(
        ThresholdCondition("backlog-high", "critical_count", ">=", ALERT_THRESHOLD)
    )

    next_tid = TICKETS
    fired = []
    print(f"Watching critical tickets (severity {CRITICAL[0]}-{CRITICAL[1]}), "
          f"alert threshold {ALERT_THRESHOLD}.\n")
    for tick in range(12):
        # A burst of activity lands between window refreshes.
        ops = []
        for _ in range(25):
            roll = rng.random()
            if roll < 0.4:
                ops.append(Insert(SCHEMA.new_record(
                    tid=next_tid, severity=rng.randrange(SEVERITY_DOMAIN),
                    age_h=0, team=rng.randrange(6))))
                next_tid += 1
            else:
                ops.append(Update(rng.randrange(TICKETS),
                                  {"severity": rng.randrange(SEVERITY_DOMAIN)}))
        db.apply_transaction(Transaction.of("tickets", ops))

        # One alerter check = one-page read after a batched refresh.
        alerts = alerter.check()
        backlog = db.query_view("critical_count")
        marker = ""
        if alerts:
            fired.append(tick)
            marker = "  << " + "; ".join(str(a) for a in alerts)
        # The on-screen window re-renders only every third tick.
        if tick % 3 == 2:
            rows = db.query_view("critical_window", CRITICAL[0], CRITICAL[1])
            top = max(rows, key=lambda vt: vt["severity"])
            print(f"tick {tick:2d}: backlog={backlog:3d}{marker}   "
                  f"window re-rendered: {len(rows)} rows "
                  f"(worst severity {top['severity']})")
        else:
            print(f"tick {tick:2d}: backlog={backlog:3d}{marker}")

    total_ms = db.meter.milliseconds(PAPER_DEFAULTS)
    print(f"\nAlert fired at ticks {fired or 'never'} "
          f"({alerter.checks_performed} checks, {len(alerter.history)} alerts).")
    print(f"Total simulated cost: {total_ms:,.0f} ms "
          f"({db.meter.page_ios} page I/Os, {db.meter.screens} screens).")
    print("\nEvery alert check cost ~one page read; a scan-based alerter "
          "would have re-read the whole table each tick.")


if __name__ == "__main__":
    main()
