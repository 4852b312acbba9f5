"""Property-based strategy equivalence.

Hypothesis drives random transaction streams against small databases
and checks the load-bearing invariant from every angle at once: the
answers produced under deferred, immediate and query-modification
maintenance are identical to each other and to recomputation.  All
three view models are driven: select-project, aggregate, and the join
(outer-side and inner-side updates, one- and two-sided deferral).
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import Strategy
from repro.engine.database import CatalogError, Database, ViewSpec
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
SP_VIEW = SelectProjectView("v", "r", IntervalPredicate("a", 0, 4), ("a",), "a")
AGG_VIEW = AggregateView("v", "r", IntervalPredicate("a", 0, 4), "sum", "v")

N = 12
DOMAIN = 10

op_strategy = st.tuples(
    st.sampled_from(["insert", "delete", "update"]),
    st.integers(min_value=0, max_value=N + 6),
    st.integers(min_value=0, max_value=DOMAIN - 1),
)


def _build(view_def, strategy):
    db = Database(buffer_pages=128)
    kind = "hypothetical" if strategy is Strategy.DEFERRED else "plain"
    records = [R.new_record(id=i, a=i % DOMAIN, v=i) for i in range(N)]
    db.create_relation(R, "a", kind=kind, records=records, ad_buckets=2)
    db.define_view(view_def, strategy)
    return db


def _apply_ops(db, ops, live=None):
    """Translate raw op tuples into valid transactions; returns live keys."""
    live = set(range(N)) if live is None else live
    batch = []
    for action, key, a in ops:
        if action == "insert" and key not in live:
            batch.append(Insert(R.new_record(id=key, a=a, v=key)))
            live.add(key)
        elif action == "delete" and key in live:
            batch.append(Delete(key))
            live.discard(key)
        elif action == "update" and key in live:
            batch.append(Update(key, {"a": a}))
    if batch:
        db.apply_transaction(Transaction.of("r", batch))
    return live


def _snapshot(db):
    relation = db.relations["r"]
    if hasattr(relation, "logical_snapshot"):
        return relation.logical_snapshot()
    return relation.records_snapshot()


def _assert_stored_identities(db, name="v"):
    """A stored copy hands each tuple its record key as identity: it
    must be the identity the tuple would compute for itself."""
    matview = db.views[name].model.matview
    if matview is None:
        return  # query modification stores nothing
    reads = (matview.read_range(0, DOMAIN), matview.scan_range(0, DOMAIN),
             matview.scan_all())
    for tuples in reads:
        for vt in tuples:
            identity = tuple(sorted(vt.values.items()))
            assert vt.identity() == identity
            assert all(isinstance(pair, tuple) for pair in vt.identity())
            assert hash(vt) == hash(identity)


class TestSelectProjectEquivalence:
    @given(ops=st.lists(op_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_all_strategies_agree_with_recompute(self, ops):
        answers = {}
        for strategy in (Strategy.DEFERRED, Strategy.IMMEDIATE,
                         Strategy.QM_CLUSTERED):
            db = _build(SP_VIEW, strategy)
            _apply_ops(db, ops)
            answer = Counter(db.query_view("v", 0, 4))
            expected = Counter(SP_VIEW.evaluate(_snapshot(db)))
            assert answer == expected, strategy
            _assert_stored_identities(db)
            answers[strategy] = answer
        assert len(set(map(frozenset, (a.items() for a in answers.values())))) == 1


class TestAggregateEquivalence:
    @given(ops=st.lists(op_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_aggregate_strategies_agree(self, ops):
        for strategy in (Strategy.DEFERRED, Strategy.IMMEDIATE,
                         Strategy.QM_CLUSTERED):
            db = _build(AGG_VIEW, strategy)
            _apply_ops(db, ops)
            answer = db.query_view("v")
            expected = AGG_VIEW.evaluate(_snapshot(db))
            assert answer == expected, strategy


R1 = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
JOIN_VIEW = JoinView("v", "r1", "r2", "j", IntervalPredicate("a", 0, 4),
                     ("id", "a"), ("j", "c"), "a")
INNER_N = 5

#: label -> (strategy, outer kind, inner kind, takes inner-side updates)
JOIN_CONFIGS = {
    "loopjoin": (Strategy.QM_LOOPJOIN, "plain", "hashed", True),
    "immediate": (Strategy.IMMEDIATE, "plain", "hashed", True),
    "deferred-outer-only": (Strategy.DEFERRED, "hypothetical", "hashed", False),
    "deferred-two-sided": (
        Strategy.DEFERRED, "hypothetical", "hashed_hypothetical", True,
    ),
}

join_op_strategy = st.tuples(
    st.sampled_from(["insert", "delete", "update", "rejoin", "inner"]),
    st.integers(min_value=0, max_value=N + 6),
    st.integers(min_value=0, max_value=DOMAIN - 1),
)


def _build_join(label, n=N, buffer_pages=128):
    strategy, outer_kind, inner_kind, _ = JOIN_CONFIGS[label]
    db = Database(buffer_pages=buffer_pages)
    outers = [R1.new_record(id=i, a=i % DOMAIN, j=i % INNER_N) for i in range(n)]
    inners = [R2.new_record(j=j, c=j * 10) for j in range(INNER_N)]
    db.create_relation(R1, "a", kind=outer_kind, records=outers, ad_buckets=2)
    db.create_relation(R2, "j", kind=inner_kind, records=inners, ad_buckets=2)
    db.define_view(JOIN_VIEW, strategy)
    return db


def _apply_join_ops(db, ops, inner_updates, live):
    """One outer transaction, then one inner transaction when the
    configuration takes them (ops on the inner side are dropped
    otherwise); ``live`` is the set of outer keys, kept current."""
    outer, inner = [], {}
    for action, key, a in ops:
        if action == "insert" and key not in live:
            outer.append(Insert(R1.new_record(id=key, a=a, j=key % INNER_N)))
            live.add(key)
        elif action == "delete" and key in live:
            outer.append(Delete(key))
            live.discard(key)
        elif action == "update" and key in live:
            outer.append(Update(key, {"a": a}))
        elif action == "rejoin" and key in live:
            outer.append(Update(key, {"j": a % INNER_N}))
        elif action == "inner":
            inner[key % INNER_N] = Update(key % INNER_N, {"c": 100 * a + key})
    if outer:
        db.apply_transaction(Transaction.of("r1", outer))
    if inner and inner_updates:
        db.apply_transaction(Transaction.of("r2", list(inner.values())))


def _join_recomputed(db):
    return Counter(JOIN_VIEW.evaluate(
        db.logical_records("r1"), db.logical_records("r2")
    ))


class TestJoinEquivalence:
    @given(ops=st.lists(join_op_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_all_strategies_agree_with_recompute(self, ops):
        answers = {}
        for label, (_, _, _, inner_updates) in JOIN_CONFIGS.items():
            db = _build_join(label)
            live = set(range(N))
            _apply_join_ops(db, ops[:12], inner_updates, live)
            assert Counter(db.query_view("v", 0, 4)) == _join_recomputed(db), label
            _apply_join_ops(db, ops[12:], inner_updates, live)
            answer = Counter(db.query_view("v", 0, 4))
            assert answer == _join_recomputed(db), label
            _assert_stored_identities(db)
            answers[label] = answer
        # Configurations fed the same stream (inner side included) agree.
        two_sided = [a for label, a in answers.items() if JOIN_CONFIGS[label][3]]
        assert all(a == two_sided[0] for a in two_sided)

    #: (page_reads, page_writes, screens, ad_ops) of the seeded run
    #: below, measured at the commit before the strategy x model split:
    #: the modelled clock is an invariant of refactors.  The two
    #: deferred rows were re-pinned once (from 432/159 and 11468/1254),
    #: when the fold began to go over the base file in its own order.
    PINNED_COSTS = {
        "loopjoin": (397, 109, 7814, 0),
        "immediate": (11347, 1182, 7113, 52),
        "deferred-outer-only": (430, 157, 4011, 0),
        "deferred-two-sided": (11466, 1252, 7113, 0),
    }

    @pytest.mark.parametrize("label", sorted(JOIN_CONFIGS))
    def test_seeded_run_matches_recompute_and_pinned_cost(self, label):
        n = 400  # ten outer leaf pages against a four-page pool: the
        # totals depend on the order pages are touched in, not only on
        # how many are.
        rng = random.Random(20)
        ops = [
            (rng.choice(["insert", "delete", "update", "rejoin", "inner"]),
             rng.randrange(n + 40), rng.randrange(DOMAIN))
            for _ in range(120)
        ]
        db = _build_join(label, n=n, buffer_pages=4)
        db.reset_meter()
        live = set(range(n))
        for i in range(0, len(ops), 6):
            _apply_join_ops(db, ops[i:i + 6], JOIN_CONFIGS[label][3], live)
            assert Counter(db.query_view("v", 0, 4)) == _join_recomputed(db)
        meter = db.meter
        assert (
            meter.page_reads, meter.page_writes, meter.screens, meter.ad_ops
        ) == self.PINNED_COSTS[label]


class TestMigrationMidStream:
    """Migrating to *any* strategy mid-stream keeps the invariant: the
    catalog either hosts the target or refuses it and nothing changes."""

    @staticmethod
    def _migrate(db, target):
        """Try the migration; returns whether the catalog hosted it."""
        before = db.views["v"]
        # refresh_every=1: a snapshot that is always fresh.
        hosted = db.can_host(ViewSpec(before.definition, target, refresh_every=1))
        try:
            db.migrate_view("v", target, refresh_every=1)
        except CatalogError:
            assert not hosted and db.views["v"] is before
        else:
            assert hosted and db.view_spec("v").strategy is target
        return hosted

    @staticmethod
    def _query(db, sources, lo=0, hi=4):
        # What the serving layer does around the engine: write-through
        # folds when nothing defers, and a settle before a base read.
        if db.views["v"].strategy.is_query_modification():
            for source in sources:
                db.settle_relation(source)
        return db.query_view("v", lo, hi)

    @given(ops=st.lists(op_strategy, max_size=25),
           target=st.sampled_from(sorted(Strategy, key=str)),
           view_def=st.sampled_from([SP_VIEW, AGG_VIEW]))
    @settings(max_examples=60, deadline=None)
    def test_single_relation_views(self, ops, target, view_def):
        db = _build(view_def, Strategy.DEFERRED)
        live = _apply_ops(db, ops[:12])
        self._migrate(db, target)
        _apply_ops(db, ops[12:], live)
        db.settle_unless_batched("r")
        answer = self._query(db, ("r",))
        expected = view_def.evaluate(_snapshot(db))
        if view_def is SP_VIEW:
            answer, expected = Counter(answer), Counter(expected)
        assert answer == expected, db.views["v"].strategy

    @given(ops=st.lists(join_op_strategy, max_size=25),
           target=st.sampled_from(sorted(Strategy, key=str)),
           label=st.sampled_from(["deferred-outer-only", "deferred-two-sided"]))
    @settings(max_examples=60, deadline=None)
    def test_join_views(self, ops, target, label):
        inner_updates = JOIN_CONFIGS[label][3]
        db = _build_join(label)
        live = set(range(N))
        _apply_join_ops(db, ops[:12], inner_updates, live)
        hosted = self._migrate(db, target)
        assert hosted is (
            target is Strategy.DEFERRED
            or (not inner_updates
                and (target is Strategy.IMMEDIATE or target.is_query_modification()))
        )
        _apply_join_ops(db, ops[12:], inner_updates, live)
        db.settle_unless_batched("r1")
        assert Counter(self._query(db, ("r1", "r2"))) == _join_recomputed(db)


class TestEquivalenceUnderTransientFaults:
    """The invariant must also hold on flaky storage.

    Seeded transient read/write faults fire throughout the run; the
    retry layer absorbs them (transient faults leave pages intact, and
    at rate 0.05 with six attempts a give-up is a ~1e-8 event), so
    every strategy must still agree exactly with recomputation — the
    faults may change costs, never answers.
    """

    def _build_faulty(self, view_def, strategy, seed):
        from repro.resilience.faults import fault_profile
        from repro.resilience.policy import ResilienceConfig, RetryPolicy

        # A tiny pool forces real disk traffic: a roomy one would serve
        # everything from cache and the fault layer would never roll.
        db = Database(
            buffer_pages=4,
            fault_profile=fault_profile("transient", seed=seed),
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=6)),
        )
        kind = "hypothetical" if strategy is Strategy.DEFERRED else "plain"
        records = [R.new_record(id=i, a=i % DOMAIN, v=i) for i in range(N)]
        db.create_relation(R, "a", kind=kind, records=records, ad_buckets=2)
        db.define_view(view_def, strategy)
        db.faults.arm()  # bootstrap ran clean; traffic runs on faulty storage
        return db

    # Seeds chosen so every strategy's run provably injects and retries.
    @pytest.mark.parametrize("seed", [1, 3, 9])
    def test_strategies_agree_despite_faults(self, seed):
        rng = random.Random(seed)
        ops = [
            (rng.choice(["insert", "delete", "update"]),
             rng.randrange(N + 6), rng.randrange(DOMAIN))
            for _ in range(40)
        ]
        answers = {}
        for strategy in (Strategy.DEFERRED, Strategy.IMMEDIATE,
                         Strategy.QM_CLUSTERED):
            db = self._build_faulty(SP_VIEW, strategy, seed)
            live = set(range(N))
            for i in range(0, len(ops), 5):
                live = _apply_ops(db, ops[i:i + 5], live)
                db.pool.invalidate_all()  # cold cache: reads hit the faulty disk
                answer = Counter(db.query_view("v", 0, 4))
                assert answer == Counter(SP_VIEW.evaluate(_snapshot(db))), strategy
            assert db.faults.injected_total > 0  # the run really was faulty
            assert db.resilient_disk.retries > 0  # and retries absorbed it
            answers[strategy] = answer
        assert len({frozenset(a.items()) for a in answers.values()}) == 1

    @pytest.mark.parametrize("seed", [3, 55])
    def test_aggregates_agree_despite_faults(self, seed):
        rng = random.Random(seed)
        ops = [
            (rng.choice(["insert", "delete", "update"]),
             rng.randrange(N + 6), rng.randrange(DOMAIN))
            for _ in range(30)
        ]
        for strategy in (Strategy.DEFERRED, Strategy.IMMEDIATE,
                         Strategy.QM_CLUSTERED):
            db = self._build_faulty(AGG_VIEW, strategy, seed)
            _apply_ops(db, ops)
            db.pool.invalidate_all()
            assert db.query_view("v") == AGG_VIEW.evaluate(_snapshot(db)), strategy


class TestRepeatedQueriesStable:
    @given(ops=st.lists(op_strategy, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_reads_after_refresh(self, ops):
        """Two queries with no intervening updates return identically
        (the deferred refresh must not double-apply anything)."""
        db = _build(SP_VIEW, Strategy.DEFERRED)
        _apply_ops(db, ops)
        first = Counter(db.query_view("v", 0, 4))
        second = Counter(db.query_view("v", 0, 4))
        assert first == second


@pytest.mark.parametrize("strategy", [Strategy.DEFERRED, Strategy.IMMEDIATE])
def test_stored_identities_survive_a_checkpoint_restore(tmp_path, strategy):
    # decode_record must bring a view record's key back a tuple of
    # tuples, or a restored copy hands out identities that equal no
    # freshly projected tuple's.
    from repro.service.server import ViewServer

    server = ViewServer.open(tmp_path, default_config={"buffer_pages": 128})
    kind = "hypothetical" if strategy is Strategy.DEFERRED else "plain"
    records = [R.new_record(id=i, a=i % DOMAIN, v=(i, str(i))) for i in range(N)]
    server.database.create_relation(R, "a", kind=kind, records=records, ad_buckets=2)
    wide = SelectProjectView("v", "r", IntervalPredicate("a", 0, 9), ("a", "v"), "a")
    server.register_view(wide, strategy, adaptive=False)
    server.apply_update(Transaction.of("r", [
        Update(3, {"a": 7}), Delete(4),
        Insert(R.new_record(id=15, a=2, v=(15, "15"))),
    ]))
    before = Counter(server.query("v", 0, DOMAIN))
    server.checkpoint()
    server.shutdown()

    reopened = ViewServer.open(tmp_path)
    try:
        _assert_stored_identities(reopened.database)
        after = reopened.query("v", 0, DOMAIN)
        assert Counter(after) == before
        assert {hash(vt) for vt in after} == {hash(vt) for vt in before}
    finally:
        reopened.shutdown()
