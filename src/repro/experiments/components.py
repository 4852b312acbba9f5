"""Component-level validation: each named cost term, measured alone.

The totals validation (`sim-validate`) compares end-to-end costs; this
experiment goes a level deeper and measures the paper's *individual*
cost components on the engine — the view-query scan (``C_query1``),
the deferred refresh (``C_def_refresh``), the AD read (``C_ADread``)
and the screening term (``C_screen``) — each in isolation, against its
closed-form formula at the same parameters.
"""

from __future__ import annotations

from repro.core import model1
from repro.core.parameters import Parameters
from repro.core.strategies import Strategy, ViewModel
from repro.workload.generator import QueryOp, UpdateOp, build_scenario
from repro.workload.spec import SCALED_DEFAULTS, ScenarioConfig
from .series import TableData

__all__ = ["component_validation_table"]


def component_validation_table(
    params: Parameters = SCALED_DEFAULTS, seed: int = 7
) -> TableData:
    """Measure Model 1 deferred components individually vs the formulas.

    Builds the standard deferred scenario, runs its update stream, and
    then drives one refresh+query cycle by hand with meter snapshots
    around each phase: the AD read (``net_changes``), the view update
    (``apply_net``), the base fold (``reset``, against the deferred
    ``C_base``, the update cost outside the paper's totals) and the
    final view scan.
    """
    config = ScenarioConfig(
        params=params, model=ViewModel.SELECT_PROJECT,
        strategy=Strategy.DEFERRED, seed=seed,
    )
    scenario = build_scenario(config)
    db = scenario.database
    strategy = db.views[scenario.view_name]
    relation = db.relations["r"]
    meter = db.meter

    # Apply exactly one inter-query batch of transactions (k/q of them).
    per_query = max(1, round(params.k / params.q))
    applied = 0
    query_range = None
    for op in scenario.operations:
        if isinstance(op, UpdateOp) and applied < per_query:
            db.apply_transaction(op.txn)
            applied += 1
        elif isinstance(op, QueryOp) and query_range is None:
            query_range = (op.lo, op.hi)
        if applied >= per_query and query_range is not None:
            break
    assert query_range is not None

    db.pool.invalidate_all()
    rows = []

    # --- C_ADread: read the whole AD file ---
    before = meter.snapshot()
    net = relation.net_changes()
    measured_adread = meter.delta_since(before).milliseconds(params)
    rows.append(("C_ADread", round(measured_adread, 1),
                 round(model1.cost_read_ad(params), 1)))

    # --- C_def_refresh: apply the batched changes to the view ---
    before = meter.snapshot()
    strategy.apply_net(net)
    db.pool.flush_all()
    measured_refresh = meter.delta_since(before).milliseconds(params)
    rows.append(("C_def_refresh", round(measured_refresh, 1),
                 round(model1.cost_deferred_refresh(params), 1)))

    # --- C_base: fold the batch into the base file, one pass ---
    before = meter.snapshot()
    relation.reset(net)
    db.pool.flush_all()
    measured_fold = meter.delta_since(before).milliseconds(params)
    rows.append(("C_base (fold)", round(measured_fold, 1),
                 round(model1.cost_base_update(params, Strategy.DEFERRED), 1)))

    # --- C_query1: scan a fraction f_v of the view ---
    db.pool.invalidate_all()
    before = meter.snapshot()
    strategy.query(*query_range)
    measured_query = meter.delta_since(before).milliseconds(params)
    rows.append(("C_query1", round(measured_query, 1),
                 round(model1.cost_query_view(params), 1)))

    # --- C_screen: stage-2 satisfiability tests for the batch.  The
    # engine screens both the old and new version of each update; the
    # formula counts inserted tuples only, so expect measured ≈ 2×.
    stats = strategy.screen.stats
    measured_screen = stats.stage2_tested * params.c1
    rows.append(("C_screen (per query)", round(measured_screen, 1),
                 round(model1.cost_screen(params), 1)))

    table_rows = [
        (name, measured, analytic,
         round(measured / analytic, 2) if analytic else float("inf"))
        for name, measured, analytic in rows
    ]
    return TableData(
        table_id="sim-components",
        title="Model 1 deferred components, measured individually vs formulas",
        columns=("component", "measured ms", "analytic ms", "ratio"),
        rows=tuple(table_rows),
        notes="one inter-query batch at scaled parameters; C_base is outside "
        "the paper's totals (it treats it as normal update cost). Small "
        "ratios reflect page quantization at laptop scale (the AD file is "
        "one physical page however few tuples it holds) and the engine "
        "screening both versions of each updated tuple",
    )
