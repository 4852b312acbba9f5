"""Extension experiments: the paper's future-work section, evaluated.

These artifacts go beyond the paper's nine figures:

* ``ext-async`` — Section 4's asynchronous-refresh speculation: query
  latency vs total work as idle-time refresh slices are added.
* ``ext-snapshot`` — the introduction's snapshot mechanism: the
  cost/staleness frontier, with the always-fresh strategies as
  reference points, plus an engine-measured check of the analytic
  snapshot cost.
* ``ext-hybrid`` — Section 3.3's dual-access-path routing, measured on
  the engine: per-field query costs down each path.
"""

from __future__ import annotations

import random

from repro.core import model1
from repro.core.parameters import PAPER_DEFAULTS, Parameters
from repro.core.policies import analyze_snapshot, async_refresh_curve, snapshot_curve
from repro.core.strategies import Strategy
from repro.workload.spec import SCALED_DEFAULTS
from .series import FigureData, TableData

__all__ = [
    "async_refresh_figure",
    "snapshot_frontier_figure",
    "snapshot_validation_table",
    "hybrid_routing_table",
    "five_mechanisms_table",
    "update_skew_table",
]


def async_refresh_figure(
    params: Parameters = PAPER_DEFAULTS, max_extra: int = 8
) -> FigureData:
    """Latency/total-work trade-off of idle-time refresh slices."""
    curve = async_refresh_curve(params, max_extra=max_extra)
    rows = [
        {
            "query latency": point.query_latency_ms,
            "total work": point.total_cost_ms,
        }
        for point in curve
    ]
    return FigureData(
        figure_id="ext-async",
        title="Extension — async refresh: latency vs total work (Model 1)",
        x_label="idle-time refresh slices between queries",
        y_label="ms per query",
        x_values=tuple(float(point.extra_refreshes) for point in curve),
        rows=tuple(rows),
        notes="latency falls toward the pure-read floor; total work rises "
        "(Yao subadditivity) — Section 4's speculation, quantified",
    )


def snapshot_frontier_figure(
    params: Parameters = PAPER_DEFAULTS,
    periods: tuple[int, ...] = (1, 2, 5, 10, 25, 100),
) -> FigureData:
    """Snapshot cost vs refresh period, with fresh strategies as lines."""
    curve = snapshot_curve(params, periods=periods)
    deferred = model1.total_deferred(params).total
    immediate = model1.total_immediate(params).total
    rows = [
        {
            "snapshot": snap.cost_per_query_ms,
            "deferred (fresh)": deferred,
            "immediate (fresh)": immediate,
        }
        for snap in curve
    ]
    return FigureData(
        figure_id="ext-snapshot",
        title="Extension — snapshot cost vs refresh period (Model 1)",
        x_label="queries per rebuild",
        y_label="ms per query",
        x_values=tuple(float(p) for p in periods),
        rows=tuple(rows),
        notes="staleness grows as u*(r-1)/2 unapplied updates; fresh "
        "strategies shown as horizontal references",
    )


def snapshot_validation_table(
    params: Parameters = SCALED_DEFAULTS, periods: tuple[int, ...] = (1, 4)
) -> TableData:
    """Engine-measured snapshot cost vs the analytic amortization."""
    from repro.engine.database import Database
    from repro.storage.tuples import Schema
    from repro.views.definition import SelectProjectView
    from repro.views.predicate import IntervalPredicate

    schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=params.S)
    domain = 1_000
    bound = max(1, round(params.f * domain))
    view = SelectProjectView(
        "v", "r", IntervalPredicate("a", 0, bound - 1, selectivity=params.f),
        ("id", "a"), "a",
    )
    rows = []
    queries = 12
    for period in periods:
        rng = random.Random(3)
        db = Database.from_parameters(params, buffer_pages=512, cold_operations=True)
        records = [
            schema.new_record(id=i, a=rng.randrange(domain), v=i)
            for i in range(params.N)
        ]
        db.create_relation(schema, "a", kind="plain", records=records)
        db.define_view(view, Strategy.SNAPSHOT, refresh_every=period)
        db.reset_meter()
        width = max(1, round(params.f_v * bound))
        for _ in range(queries):
            lo = rng.randint(0, max(0, bound - width))
            db.query_view("v", lo, lo + width - 1)
        measured = db.meter.milliseconds(params) / queries
        analytic = analyze_snapshot(params, period).cost_per_query_ms
        rows.append((period, round(measured, 1), round(analytic, 1),
                     round(measured / analytic, 2)))
    return TableData(
        table_id="ext-snapshot-validate",
        title="Extension — snapshot: engine-measured vs analytic cost per query",
        columns=("queries per rebuild", "measured ms", "analytic ms", "ratio"),
        rows=tuple(rows),
    )


def hybrid_routing_table(params: Parameters = SCALED_DEFAULTS) -> TableData:
    """Dual-path routing measured: same view, two query shapes."""
    from repro.engine.database import Database
    from repro.storage.tuples import Schema
    from repro.views.definition import SelectProjectView
    from repro.views.predicate import IntervalPredicate

    schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=params.S)
    domain = 1_000
    bound = max(1, round(params.f * domain))
    view = SelectProjectView(
        "v", "r", IntervalPredicate("a", 0, bound - 1, selectivity=params.f),
        ("id", "a"), "a",
    )
    rng = random.Random(5)
    db = Database.from_parameters(params, buffer_pages=512, cold_operations=True)
    records = [
        schema.new_record(id=i, a=rng.randrange(domain), v=i)
        for i in range(params.N)
    ]
    db.create_relation(schema, "id", kind="plain", records=records)
    strategy = db.define_view(view, Strategy.HYBRID)
    db.reset_meter()

    rows = []
    cases = (
        ("a", 0, max(0, bound // 10 - 1), params.f * 0.1),
        ("id", 0, params.N // 100, 0.01),
    )
    for field, lo, hi, selectivity in cases:
        before = db.meter.snapshot()
        db.pool.invalidate_all()
        result = strategy.query_on(field, lo, hi, selectivity=selectivity)
        delta = db.meter.delta_since(before)
        decision = strategy.decisions[-1]
        rows.append((
            f"{field} in [{lo}, {hi}]",
            decision.path,
            len(result),
            round(delta.milliseconds(params), 1),
        ))
    return TableData(
        table_id="ext-hybrid",
        title="Extension — Section 3.3 dual-path routing, measured",
        columns=("query", "chosen path", "rows", "measured ms"),
        rows=tuple(rows),
        notes="one maintained view, two clusterings: the router picks the "
        "clustered path matching each query's field",
    )


def five_mechanisms_table(
    params: Parameters = SCALED_DEFAULTS, seed: int = 7
) -> TableData:
    """Every materialization mechanism the introduction names, measured.

    One Model-1 workload executed under all five schemes the paper's
    introduction surveys: query modification (Stonebraker 1975),
    immediate incremental maintenance (Blakeley 1986), snapshots
    (Adiba & Lindsay 1980, refreshed every 5 queries — the only stale
    entry), Buneman & Clemons' analyze-and-recompute (1979), and the
    paper's deferred maintenance.
    """
    from collections import Counter

    from repro.engine.database import Database
    from repro.engine.transaction import Transaction, Update
    from repro.maintenance.catalog import relation_kind_for
    from repro.storage.tuples import Schema
    from repro.views.definition import SelectProjectView
    from repro.views.predicate import IntervalPredicate

    schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=params.S)
    domain = 1_000
    bound = max(1, round(params.f * domain))
    view = SelectProjectView(
        "v", "r", IntervalPredicate("a", 0, bound - 1, selectivity=params.f),
        ("id", "a"), "a",
    )
    schemes = (
        (Strategy.QM_CLUSTERED, "query modification [Ston75]", True),
        (Strategy.IMMEDIATE, "immediate incremental [Blak86]", True),
        (Strategy.SNAPSHOT, "snapshot, r=5 [Adib80]", False),
        (Strategy.BC_RECOMPUTE, "analyze & recompute [Bune79]", True),
        (Strategy.DEFERRED, "deferred (this paper)", True),
    )
    queries = 10
    width = max(1, round(params.f_v * bound))

    def run(strategy, with_view: bool) -> tuple[float, bool]:
        rng = random.Random(seed)
        db = Database.from_parameters(params, buffer_pages=512,
                                      cold_operations=True)
        kind = relation_kind_for(strategy) if with_view else "plain"
        records = [
            schema.new_record(id=i, a=rng.randrange(domain), v=i)
            for i in range(params.N)
        ]
        db.create_relation(schema, "a", kind=kind, records=records, ad_buckets=1)
        if with_view:
            db.define_view(view, strategy, refresh_every=5)
        db.reset_meter()
        fresh = True
        for _ in range(queries):
            db.apply_transaction(Transaction.of("r", [
                Update(rng.randrange(params.N), {"a": rng.randrange(domain)})
                for _ in range(int(params.l))
            ]))
            lo = rng.randint(0, max(0, bound - width))
            if not with_view:
                continue
            answer = db.query_view("v", lo, lo + width - 1)
            expected = [
                vt for vt in view.evaluate(db.logical_records("r"))
                if lo <= vt["a"] <= lo + width - 1
            ]
            if Counter(answer) != Counter(expected):
                fresh = False
        return db.meter.milliseconds(params), fresh

    # The paper's accounting: the cost of keeping the base relation
    # current is "normal" work every scheme pays; subtract it so the
    # table shows view-related overhead per query.
    base_ms, _ = run(Strategy.QM_CLUSTERED, with_view=False)
    rows = []
    for strategy, label, always_fresh in schemes:
        total_ms, fresh = run(strategy, with_view=True)
        assert fresh == always_fresh, (label, fresh)
        rows.append((
            label,
            round(max(0.0, total_ms - base_ms) / queries, 1),
            "always fresh" if fresh else "stale between rebuilds",
        ))
    return TableData(
        table_id="ext-five",
        title="Introduction's five mechanisms on one Model 1 workload (measured)",
        columns=("mechanism", "view overhead ms per query", "freshness"),
        rows=tuple(rows),
        notes="identical update/query stream for every scheme; base-relation "
        "update cost subtracted (the paper's accounting); snapshot trades "
        "staleness for amortized rebuilds",
    )


def update_skew_table(
    params: Parameters | None = None, seed: int = 7
) -> TableData:
    """Temporal locality vs the paper's uniform-update assumption.

    The cost model draws updated tuples uniformly.  Re-running the
    Model 1 workload with hot keys (80% of updates on 20% of tuples)
    probes what locality does to each scheme: deferred pays *more* —
    every read or update of a recently-modified tuple false-drops into
    the AD differential file, and those probes outweigh the refresh
    savings from net-change cancellation — while immediate, which keeps
    no differential file, is mildly helped by view-page reuse.  The
    paper's uniform assumption is therefore *optimistic toward
    deferred* under update locality.
    """
    from repro.core.strategies import ViewModel
    from repro.workload.runner import run_config
    from repro.workload.spec import ScenarioConfig

    if params is None:
        params = SCALED_DEFAULTS.with_updates(k=40.0, q=10.0, l=10.0)
    rows = []
    for skew in ("uniform", "hot"):
        for strategy in (Strategy.DEFERRED, Strategy.IMMEDIATE):
            config = ScenarioConfig(
                params=params, model=ViewModel.SELECT_PROJECT,
                strategy=strategy, seed=seed, update_skew=skew,
            )
            result = run_config(config)
            rows.append((skew, strategy.label,
                         round(result.avg_cost_per_query, 1)))
    return TableData(
        table_id="ext-skew",
        title="Extension — update locality vs the uniform-update assumption",
        columns=("update distribution", "strategy", "measured ms/query"),
        rows=tuple(rows),
        notes="hot = 80% of updates on the hottest 20% of keys; deferred "
        "pays extra AD probes under locality, immediate does not",
    )
