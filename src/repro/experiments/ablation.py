"""Ablation studies for the design choices DESIGN.md calls out.

1. **Combined AD file vs separate A/D files** (Section 2.2.2): the
   paper chooses one combined differential file so a key-preserving
   update costs 3 I/Os instead of 5.  We measure both designs under an
   identical update stream.
2. **Refresh on demand vs periodic refresh** (Section 4): the Yao
   triangle inequality implies refreshing only when a query arrives
   touches the fewest view pages.  We evaluate the analytic refresh
   cost when the accumulated batch is instead applied in ``j`` eager
   slices, and run the simulated deferred strategy with forced
   intermediate refreshes.
"""

from __future__ import annotations

import random

from repro.core.parameters import PAPER_DEFAULTS, Parameters
from repro.core.strategies import Strategy, ViewModel
from repro.core.yao import yao
from repro.storage.pager import CostMeter
from repro.workload.generator import UpdateOp, build_scenario
from repro.workload.spec import SCALED_DEFAULTS, ScenarioConfig
from .series import TableData

__all__ = [
    "ad_file_ablation",
    "bloom_filter_ablation",
    "refresh_period_ablation",
    "refresh_period_simulation",
]


def bloom_filter_ablation(
    params: Parameters = SCALED_DEFAULTS,
    reads: int = 300,
    pending_updates: int = 40,
    seed: int = 13,
) -> TableData:
    """Section 2.2.2's motivation: Bloom screening of the AD file.

    A hypothetical relation with pending updates serves keyed reads of
    (mostly) unmodified tuples.  With a well-sized filter, such reads
    skip the differential file entirely (~1 I/O); with a degenerate
    one-bit filter every read false-drops into AD first.  The paper:
    "one can design a Bloom filter with any desired ability to screen
    out accesses to records not present in the differential file".
    """
    from repro.hr.differential import ClusteredRelation, HypotheticalRelation
    from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
    from repro.storage.tuples import Schema

    schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=params.S)
    rows = []
    for bloom_bits, label in ((1 << 16, "Bloom filter (64 Kbit)"),
                              (1, "no effective filter (1 bit)")):
        rng = random.Random(seed)
        meter = CostMeter()
        pool = BufferPool(SimulatedDisk(meter), capacity=256)
        base = ClusteredRelation(schema, pool, "a", block_bytes=params.B)
        base.bulk_load([
            schema.new_record(id=i, a=rng.randrange(1000), v=i)
            for i in range(params.N)
        ])
        hr = HypotheticalRelation(base, bloom_bits=bloom_bits, ad_buckets=8)
        modified = rng.sample(range(params.N), pending_updates)
        for key in modified:
            hr.update_by_key(key, v=rng.randrange(1000))
        meter.reset()
        unmodified = [k for k in range(params.N) if k not in set(modified)]
        for key in rng.sample(unmodified, reads):
            pool.invalidate_all()
            hr.read_by_key(key)
        rows.append((label, reads, meter.page_reads,
                     round(meter.page_reads / reads, 2)))
    return TableData(
        table_id="ablation-bloom-filter",
        title="Section 2.2.2 ablation — Bloom screening of AD reads",
        columns=("configuration", "reads of unmodified tuples",
                 "total page reads", "reads per lookup"),
        rows=tuple(rows),
        notes="the filter keeps unmodified-tuple reads at the paper's one I/O",
    )


def ad_file_ablation(
    params: Parameters = SCALED_DEFAULTS, updates: int = 200, seed: int = 11
) -> TableData:
    """Measure I/O per update for combined-AD vs separate-A/D designs."""
    from repro.engine.database import Database
    from repro.engine.transaction import Transaction, Update
    from repro.storage.tuples import Schema

    results = []
    for kind, label in (("hypothetical", "combined AD (3-I/O)"), ("separate", "separate A and D (5-I/O)")):
        rng = random.Random(seed)
        db = Database.from_parameters(params, buffer_pages=256, cold_operations=True)
        schema = Schema("r", ("id", "a", "val"), "id", tuple_bytes=params.S)
        records = [
            schema.new_record(id=i, a=rng.randrange(1000), val=rng.randrange(1000))
            for i in range(params.N)
        ]
        db.create_relation(schema, "a", kind=kind, records=records, ad_buckets=8)
        db.reset_meter()
        for _ in range(updates):
            key = rng.randrange(params.N)
            db.apply_transaction(
                Transaction.of("r", [Update(key, {"val": rng.randrange(1000)})])
            )
        total_ios = db.meter.page_ios
        results.append((label, updates, total_ios, round(total_ios / updates, 2)))
    return TableData(
        table_id="ablation-bloom",
        title="Section 2.2.2 ablation — differential file design, I/O per update",
        columns=("design", "updates", "total page I/Os", "I/Os per update"),
        rows=tuple(results),
        notes="key-preserving single-tuple updates; paper predicts 3 vs 5",
    )


def refresh_period_ablation(
    params: Parameters = PAPER_DEFAULTS,
    splits: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> TableData:
    """Analytic: view pages touched when one batch is split into eager slices.

    One deferred refresh applies ``2fu`` changes at once; refreshing
    ``j`` times applies ``2fu/j`` each.  Subadditivity of the Yao
    function makes ``j = 1`` (refresh on demand) the minimum.
    """
    n = params.view_tuples_model1
    m = params.view_pages_model1
    batch = 2.0 * params.f * params.u * 8  # an 8-query accumulation window
    rows = []
    for j in splits:
        pages = j * yao(n, m, batch / j)
        rows.append((j, round(batch / j, 2), round(pages, 2)))
    return TableData(
        table_id="ablation-refresh",
        title="Section 4 ablation — eager refresh slices vs one deferred refresh",
        columns=("refreshes", "changes per refresh", "total view pages touched"),
        rows=tuple(rows),
        notes="monotone non-decreasing in the number of refreshes (Yao subadditivity)",
    )


def refresh_period_simulation(
    params: Parameters | None = None,
    periods: tuple[int, ...] = (1, 2, 4),
    seed: int = 7,
) -> TableData:
    """Simulated: deferred maintenance with extra mid-batch refreshes.

    Policy 1 refreshes only when a query arrives (the proposed
    scheme); policy ``j > 1`` additionally forces a refresh after each
    transaction whose index is a multiple of ``j - 1``, emulating
    eager/periodic refresh.  Each forced refresh is costed as a
    standalone cold operation (pool emptied before, flushed after) so
    it cannot free-ride on a previous operation's buffer contents.

    Uses an update-heavy parameter set (``k/q = 4``) so refreshes are
    large enough for the Yao page-sharing effect to be measurable.
    """
    if params is None:
        params = SCALED_DEFAULTS.with_updates(k=40.0, q=10.0, l=20.0)
    rows = []
    for policy in periods:
        config = ScenarioConfig(
            params=params, model=ViewModel.SELECT_PROJECT,
            strategy=Strategy.DEFERRED, seed=seed,
        )
        scenario = build_scenario(config)
        db = scenario.database
        strategy_impl = db.views[scenario.view_name]
        txns_seen = 0
        for op in scenario.operations:
            if isinstance(op, UpdateOp):
                db.apply_transaction(op.txn)
                txns_seen += 1
                if policy > 1 and txns_seen % (policy - 1) == 0:
                    db.pool.invalidate_all()
                    strategy_impl.refresh()
                    db.pool.flush_all()
            else:
                db.query_view(scenario.view_name, op.lo, op.hi)
        rows.append(
            (
                "on demand" if policy == 1 else f"also after every {policy - 1} txns",
                strategy_impl.refresh_count,
                round(db.meter.milliseconds(params), 1),
            )
        )
    return TableData(
        table_id="ablation-refresh-sim",
        title="Section 4 ablation (simulated) — refresh-on-demand vs eager refresh",
        columns=("policy", "refreshes performed", "total workload ms"),
        rows=tuple(rows),
        notes="refresh-on-demand performs the fewest refreshes at the lowest cost",
    )
