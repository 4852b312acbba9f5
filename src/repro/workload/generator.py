"""Scenario construction: databases, views and operation streams.

Builds the three paper models as runnable scenarios.  All randomness is
seeded, so a scenario is fully reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.strategies import Strategy, ViewModel
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.maintenance.catalog import relation_kind_for
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate
from .spec import ScenarioConfig

__all__ = ["Scenario", "QueryOp", "UpdateOp", "build_scenario"]


@dataclass(frozen=True)
class QueryOp:
    """A view query over ``[lo, hi]`` on the view key."""

    lo: Any
    hi: Any


@dataclass(frozen=True)
class UpdateOp:
    """One update transaction."""

    txn: Transaction


@dataclass
class Scenario:
    """A built scenario: the database, the view, and the op stream."""

    config: ScenarioConfig
    database: Database
    view_name: str
    operations: list[QueryOp | UpdateOp]

    def query_count(self) -> int:
        """Number of view queries in the operation stream."""
        return sum(1 for op in self.operations if isinstance(op, QueryOp))

    def update_count(self) -> int:
        """Number of update transactions in the operation stream."""
        return sum(1 for op in self.operations if isinstance(op, UpdateOp))


# ----------------------------------------------------------------------
# schemas
# ----------------------------------------------------------------------
def _model1_schema(tuple_bytes: int) -> Schema:
    return Schema("r", ("id", "a", "pay1", "pay2"), "id", tuple_bytes=tuple_bytes)


def _outer_schema(tuple_bytes: int) -> Schema:
    return Schema("r1", ("id", "a", "j", "pay"), "id", tuple_bytes=tuple_bytes)


def _inner_schema(tuple_bytes: int) -> Schema:
    return Schema("r2", ("j", "c", "pay2"), "j", tuple_bytes=tuple_bytes)


def _base_records(config: ScenarioConfig, schema: Schema, rng: random.Random) -> list[Record]:
    return [
        schema.new_record(
            id=i,
            a=rng.randrange(config.domain),
            pay1=rng.randrange(10_000),
            pay2=rng.randrange(10_000),
        )
        for i in range(config.params.N)
    ]


# ----------------------------------------------------------------------
# operation stream
# ----------------------------------------------------------------------
def _update_transaction(
    config: ScenarioConfig,
    rng: random.Random,
    relation: str,
    keys: list[int],
    fields: tuple[str, ...],
) -> Transaction:
    """One transaction updating ``l`` distinct tuples.

    Every update rewrites the predicate attribute ``a`` to a fresh
    uniform value (so old and new versions each lie in the view with
    probability ``f``, the paper's screening model) plus one payload
    field.
    """
    l = int(config.params.l)
    if config.update_skew == "hot":
        # 80% of updates land on the hottest 20% of keys.
        hot_pool = keys[: max(1, len(keys) // 5)]
        chosen_set: set[int] = set()
        while len(chosen_set) < min(l, len(keys)):
            pool = hot_pool if rng.random() < 0.8 else keys
            chosen_set.add(rng.choice(pool))
        chosen = sorted(chosen_set)
    else:
        chosen = rng.sample(keys, min(l, len(keys)))
    ops = [
        Update(
            key,
            {
                "a": rng.randrange(config.domain),
                fields[0]: rng.randrange(10_000),
            },
        )
        for key in chosen
    ]
    return Transaction.of(relation, ops)


def _query_range(config: ScenarioConfig, rng: random.Random) -> tuple[int, int]:
    """A random ``f_v``-sized range inside the view's key interval."""
    width = config.query_width
    hi_start = max(0, config.view_bound - width)
    lo = rng.randint(0, hi_start) if hi_start > 0 else 0
    return lo, lo + width - 1


def _interleave(
    config: ScenarioConfig,
    rng: random.Random,
    make_txn,
) -> list[QueryOp | UpdateOp]:
    """``k`` updates spread evenly among ``q`` queries.

    Uses fractional accumulation so any k:q ratio interleaves smoothly
    (e.g. k=5, q=20 runs a transaction every fourth query).
    """
    k, q = int(config.params.k), int(config.params.q)
    ops: list[QueryOp | UpdateOp] = []
    credit = 0.0
    per_query = k / q if q else 0.0
    issued = 0
    for _ in range(q):
        credit += per_query
        while credit >= 1.0 and issued < k:
            ops.append(UpdateOp(make_txn()))
            issued += 1
            credit -= 1.0
        lo, hi = _query_range(config, rng)
        ops.append(QueryOp(lo, hi))
    while issued < k:  # leftover updates (rounding)
        ops.append(UpdateOp(make_txn()))
        issued += 1
    return ops


# ----------------------------------------------------------------------
# scenario builders
# ----------------------------------------------------------------------
def build_scenario(config: ScenarioConfig) -> Scenario:
    """Build the database, view and operation stream for a config."""
    builders = {
        ViewModel.SELECT_PROJECT: _build_model1,
        ViewModel.JOIN: _build_model2,
        ViewModel.AGGREGATE: _build_model3,
    }
    return builders[config.model](config)


def _build_model1(config: ScenarioConfig) -> Scenario:
    rng = random.Random(config.seed)
    db = Database.from_parameters(
        config.params,
        buffer_pages=config.buffer_pages,
        cold_operations=config.cold_operations,
    )
    schema = _model1_schema(config.params.S)
    records = _base_records(config, schema, rng)

    # The unclustered plan stores R clustered on the key and reaches
    # the predicate attribute through a secondary index; every other
    # strategy clusters on the predicate attribute (Section 3.1).
    clustered_on = "id" if config.strategy is Strategy.QM_UNCLUSTERED else "a"
    kind = relation_kind_for(config.strategy) if config.include_view else "plain"
    db.create_relation(schema, clustered_on, kind=kind, records=records, ad_buckets=1)
    definition = SelectProjectView(
        name="v",
        relation="r",
        predicate=IntervalPredicate("a", 0, config.view_bound - 1, selectivity=config.params.f),
        projection=("id", "a"),
        view_key="a",
    )
    if config.include_view:
        db.define_view(definition, config.strategy, index_field="a")
    db.reset_meter()

    keys = list(range(config.params.N))
    make_txn = lambda: _update_transaction(config, rng, "r", keys, ("pay1",))
    ops = _interleave(config, rng, make_txn)
    return Scenario(config, db, "v", ops)


def _build_model2(config: ScenarioConfig) -> Scenario:
    rng = random.Random(config.seed)
    db = Database.from_parameters(
        config.params,
        buffer_pages=config.buffer_pages,
        cold_operations=config.cold_operations,
    )
    p = config.params
    inner_count = max(1, round(p.f_r2 * p.N))
    outer_schema = _outer_schema(p.S)
    inner_schema = _inner_schema(p.S)
    outer_records = [
        outer_schema.new_record(
            id=i,
            a=rng.randrange(config.domain),
            j=rng.randrange(inner_count),
            pay=rng.randrange(10_000),
        )
        for i in range(p.N)
    ]
    inner_records = [
        inner_schema.new_record(j=j, c=rng.randrange(10_000), pay2=rng.randrange(10_000))
        for j in range(inner_count)
    ]
    outer_kind = relation_kind_for(config.strategy) if config.include_view else "plain"
    db.create_relation(outer_schema, "a", kind=outer_kind, records=outer_records, ad_buckets=1)
    buckets = max(8, inner_count // max(1, inner_schema.records_per_page(p.B)))
    db.create_relation(
        inner_schema, "j", kind="hashed", records=inner_records, hash_buckets=buckets
    )
    definition = JoinView(
        name="v",
        outer="r1",
        inner="r2",
        join_field="j",
        predicate=IntervalPredicate("a", 0, config.view_bound - 1, selectivity=p.f),
        outer_projection=("id", "a"),
        inner_projection=("j", "c"),
        view_key="a",
    )
    if config.include_view:
        db.define_view(definition, config.strategy)
    db.reset_meter()

    keys = list(range(p.N))
    make_txn = lambda: _update_transaction(config, rng, "r1", keys, ("pay",))
    ops = _interleave(config, rng, make_txn)
    return Scenario(config, db, "v", ops)


def _build_model3(config: ScenarioConfig) -> Scenario:
    rng = random.Random(config.seed)
    db = Database.from_parameters(
        config.params,
        buffer_pages=config.buffer_pages,
        cold_operations=config.cold_operations,
    )
    schema = _model1_schema(config.params.S)
    records = _base_records(config, schema, rng)
    kind = relation_kind_for(config.strategy) if config.include_view else "plain"
    db.create_relation(schema, "a", kind=kind, records=records, ad_buckets=1)
    definition = AggregateView(
        name="v",
        relation="r",
        predicate=IntervalPredicate("a", 0, config.view_bound - 1, selectivity=config.params.f),
        aggregate=config.aggregate,
        field="pay1",
    )
    if config.include_view:
        db.define_view(definition, config.strategy)
    db.reset_meter()

    keys = list(range(config.params.N))
    make_txn = lambda: _update_transaction(config, rng, "r", keys, ("pay1",))
    ops = _interleave(config, rng, make_txn)
    return Scenario(config, db, "v", ops)
