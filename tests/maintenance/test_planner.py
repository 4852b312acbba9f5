"""SharedDeltaPlanner: one net-change read per epoch, coalesced refreshes."""

import threading
import time

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.maintenance.planner import SharedDeltaPlanner
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
S = Schema("s", ("id", "a", "v"), "id", tuple_bytes=100)


def make_db(relations=("r",), views_per_relation=2):
    database = Database(buffer_pages=256)
    for schema in (R, S):
        if schema.name not in relations:
            continue
        records = [schema.new_record(id=i, a=i % 20, v=i)
                   for i in range(200)]
        database.create_relation(schema, "a", kind="hypothetical",
                                 records=records, ad_buckets=2)
        definitions = [
            SelectProjectView(f"{schema.name}_tuples", schema.name,
                              IntervalPredicate("a", 0, 9), ("id", "a"), "a"),
            AggregateView(f"{schema.name}_total", schema.name,
                          IntervalPredicate("a", 0, 9), "sum", "v"),
        ][:views_per_relation]
        for definition in definitions:
            database.define_view(definition, Strategy.DEFERRED)
    return database


def touch(database, relation, key, value):
    database.apply_transaction(
        Transaction.of(relation, [Update(key, {"v": value})])
    )


class TestNetOncePerEpoch:
    def test_one_net_read_feeds_every_sibling(self):
        database = make_db()
        planner = SharedDeltaPlanner(database)
        relation = database.relations["r"]
        coordinator = database.deferred_coordinator("r")
        for key in (1, 2, 3):
            touch(database, "r", key, 1000 + key)
        assert relation.ad_entry_count() > 0
        assert planner.refresh("r") is True
        # Two dependent views, ONE read of the AD file's net change set.
        assert relation.net_reads == 1
        assert coordinator.net_computes == 1
        assert planner.epochs == 1
        assert relation.ad_entry_count() == 0

    def test_epochs_accumulate_but_never_duplicate_reads(self):
        database = make_db()
        planner = SharedDeltaPlanner(database)
        relation = database.relations["r"]
        for round_no in range(3):
            touch(database, "r", round_no, round_no)
            planner.refresh("r")
        assert planner.epochs == 3
        assert relation.net_reads == 3
        assert database.deferred_coordinator("r").net_computes == 3

    def test_refresh_all_stale_skips_clean_relations(self):
        # The refresh-all loop is the server's, over its planner.
        database = make_db(relations=("r", "s"))
        server = ViewServer(database)
        touch(database, "s", 5, 99)
        refreshed = server.refresh_all_stale()
        assert refreshed == ("s",)
        assert server.planner.epochs == 1
        assert database.relations["r"].net_reads == 0
        assert database.relations["s"].net_reads == 1


class TestGrouping:
    def test_groups_map_relation_to_deferred_views(self):
        database = make_db(relations=("r", "s"))
        groups = SharedDeltaPlanner(database).groups()
        assert set(groups) == {"r", "s"}
        assert set(groups["r"]) == {"r_tuples", "r_total"}

    def test_pending_counts_backlog(self):
        database = make_db()
        planner = SharedDeltaPlanner(database)
        assert planner.pending("r") == 0
        touch(database, "r", 7, 7)
        assert planner.pending("r") > 0
        assert planner.pending("not_a_relation") == 0


class TestCoalescing:
    def test_followers_wait_on_one_inflight_refresh(self):
        database = make_db()
        planner = SharedDeltaPlanner(database)
        relation = database.relations["r"]
        touch(database, "r", 1, 1)

        leader_in_refresh = threading.Event()
        release_leader = threading.Event()

        def slow_runner(work):
            leader_in_refresh.set()
            assert release_leader.wait(10)
            work()

        leader = threading.Thread(
            target=planner.refresh, args=("r",), kwargs={"run": slow_runner},
            daemon=True,
        )
        leader.start()
        assert leader_in_refresh.wait(10)

        results = []
        followers = [
            threading.Thread(target=lambda: results.append(planner.refresh("r")),
                             daemon=True)
            for _ in range(3)
        ]
        for f in followers:
            f.start()
        # Give the followers time to park on the in-flight event, then
        # let the leader run its (single) epoch.
        deadline = time.time() + 10
        while planner.coalesced_waits < 3 and time.time() < deadline:
            time.sleep(0.01)
        assert planner.coalesced_waits == 3
        release_leader.set()
        leader.join(10)
        for f in followers:
            f.join(10)
            assert not f.is_alive()

        assert results == [False, False, False]  # nobody else led
        assert planner.epochs == 1
        assert relation.net_reads == 1
        assert planner.coalesced_waits == 3

    def test_follower_takes_over_after_leader_failure(self):
        database = make_db()
        planner = SharedDeltaPlanner(database)
        relation = database.relations["r"]
        touch(database, "r", 1, 1)

        leader_in_refresh = threading.Event()
        release_leader = threading.Event()

        def failing_runner(work):
            leader_in_refresh.set()
            assert release_leader.wait(10)
            raise RuntimeError("refresh died before doing any work")

        failures = []

        def leader():
            try:
                planner.refresh("r", run=failing_runner)
            except RuntimeError as exc:
                failures.append(exc)

        leader_thread = threading.Thread(target=leader, daemon=True)
        leader_thread.start()
        assert leader_in_refresh.wait(10)

        result = []
        follower = threading.Thread(target=lambda: result.append(planner.refresh("r")),
                                    daemon=True)
        follower.start()
        deadline = time.time() + 10
        while planner.coalesced_waits < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert planner.coalesced_waits >= 1
        release_leader.set()
        leader_thread.join(10)
        follower.join(10)
        assert not follower.is_alive()

        assert len(failures) == 1  # the leader's caller saw the error
        assert result == [True]  # the follower became the new leader
        assert planner.epochs == 1  # ...and actually refreshed
        assert relation.ad_entry_count() == 0
