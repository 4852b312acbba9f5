"""Scatter–gather routing, cross-shard moves, epochs, shutdown."""

import threading

import pytest

from repro.cluster.harness import (
    DOMAIN,
    chunk_bounds,
    demo_shard_map,
    demo_spec,
    launch_demo,
    partitioned_cluster_streams,
)
from repro.cluster.router import (
    _SCALAR_MERGES,
    ClusterClosedError,
    ClusterError,
    ClusterRouter,
)
from repro.cluster.rpc import ShardUnavailable
from repro.engine.transaction import Insert, Transaction, Update
from repro.resilience.degradation import DegradedResult
from repro.service.traffic import run_traffic
from repro.storage.tuples import Schema

N_RECORDS = 240


def counter_value(router, name, **labels):
    return router.metrics.counter(name, **labels).value


@pytest.fixture()
def router():
    router = launch_demo(2, n_records=N_RECORDS)
    yield router
    router.close()


def expected_records(n_records=N_RECORDS, seed=17):
    return {
        values["id"]: values
        for values in demo_spec(n_records=n_records, seed=seed)["relations"][0][
            "records"
        ]
    }


class TestQueryRouting:
    def test_chunk_query_routes_to_one_shard(self, router):
        lo, hi = chunk_bounds(0)  # [0, 99] lies inside shard 0 of 2
        answer = router.query("by_a", lo, hi)
        expected = sorted(
            (v["id"], v["a"]) for v in expected_records().values()
            if lo <= v["a"] <= hi
        )
        assert sorted((vt.values["id"], vt.values["a"]) for vt in answer) == expected
        assert counter_value(router, "single_shard_queries_total", view="by_a") == 1
        assert counter_value(router, "scatter_queries_total", view="by_a") == 0

    def test_full_range_scatters_and_merges_in_view_key_order(self, router):
        answer = router.query("by_a", 0, DOMAIN - 1)
        assert len(answer) == N_RECORDS
        keys = [(vt.values["a"], vt.values["id"]) for vt in answer]
        assert keys == sorted(keys)
        assert counter_value(router, "scatter_queries_total", view="by_a") == 1

    def test_aggregate_sums_across_shards(self, router):
        total = router.query("total")
        assert total == sum(v["v"] for v in expected_records().values())

    def test_min_and_max_skip_the_shards_that_selected_nothing(self):
        """A shard answers None for an empty set (the live scatter is in
        tests/test_placement_equivalence.py's ``lowest`` view)."""
        assert _SCALAR_MERGES["min"](iter([None, 4, 2])) == 2
        assert _SCALAR_MERGES["max"](iter([3, None])) == 3
        assert _SCALAR_MERGES["min"](iter([None, None])) is None
        total = _SCALAR_MERGES["sum"](iter([0.0, 0]))
        assert total == 0.0 and isinstance(total, float)

    def test_unknown_view_is_a_cluster_error(self, router):
        with pytest.raises(ClusterError, match="not served"):
            router.query("nope", 0, 1)

    def test_hash_placement_never_prunes(self):
        router = launch_demo(2, scheme="hash", n_records=120)
        try:
            router.query("by_a", 0, 10)
            assert counter_value(router, "scatter_queries_total", view="by_a") == 1
        finally:
            router.close()

    def test_unsupported_aggregate_rejected_at_launch(self):
        spec = demo_spec(n_records=8)
        spec["views"][1]["aggregate"] = "avg"
        with pytest.raises(ClusterError, match="avg"):
            ClusterRouter.launch(spec, demo_shard_map(2))


class TestScatterWithoutThreads:
    def test_no_thread_is_created_by_any_scattered_request(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda thread: (started.append(thread.name), start(thread))[1],
        )
        records = expected_records()
        by_shard: dict[int, list[int]] = {0: [], 1: [], 2: []}
        with launch_demo(3, n_records=N_RECORDS) as router:
            for key, values in sorted(records.items()):
                by_shard[router.shard_map.shard_of(values["a"])].append(key)
            assert all(len(keys) > 10 for keys in by_shard.values())
            router.stats()  # every worker up before the threads are counted
            count = threading.active_count()
            idents = {thread.ident for thread in threading.enumerate()}
            for step in range(50):
                assert len(router.query("by_a", 0, DOMAIN - 1)) == N_RECORDS
                assert isinstance(router.query("total"), int)
                # One op per shard: a three-leg update flush.
                router.apply_update(Transaction.of("r", [
                    Update(keys[step % 10], {"v": step})
                    for keys in by_shard.values()
                ]))
                assert router.refresh_epoch() is True
                if step % 10 == 0:
                    router.cluster_metrics()  # an admin scatter
            assert counter_value(router, "scatter_queries_total", view="by_a") == 50
            assert threading.active_count() == count
            assert {thread.ident for thread in threading.enumerate()} == idents
        assert started == []


class TestUpdates:
    def test_update_routes_to_owner_and_views_follow(self, router):
        records = expected_records()
        key = 0
        router.apply_update(Transaction.of("r", [Update(key, {"v": 999})]))
        total = router.query("total")
        assert total == sum(v["v"] for v in records.values()) - records[key]["v"] + 999

    def test_unknown_key_fails_loudly(self, router):
        with pytest.raises(KeyError, match="no tuple with key 1000000 in 'r'"):
            router.apply_update(Transaction.of("r", [Update(10**6, {"v": 1})]))

    def test_cross_shard_move_relocates_the_tuple(self, router):
        records = expected_records()
        key = next(k for k, v in sorted(records.items()) if v["a"] < DOMAIN // 2)
        new_a = DOMAIN - 1  # forces shard 0 -> shard 1
        router.apply_update(Transaction.of("r", [Update(key, {"a": new_a})]))
        assert counter_value(router, "cross_shard_moves_total", relation="r") == 1

        upper = router.query("by_a", DOMAIN // 2, DOMAIN - 1)
        moved = [vt for vt in upper if vt.values["id"] == key]
        assert len(moved) == 1 and moved[0].values["a"] == new_a
        lower = router.query("by_a", 0, DOMAIN // 2 - 1)
        assert not [vt for vt in lower if vt.values["id"] == key]

        # The directory now routes the key to its new owner.
        router.apply_update(Transaction.of("r", [Update(key, {"v": 123})]))
        upper = router.query("by_a", DOMAIN // 2, DOMAIN - 1)
        assert [vt.values["v"] for vt in upper if vt.values["id"] == key] == [123]

    def test_in_shard_partition_field_change_stays_put(self, router):
        records = expected_records()
        key = next(k for k, v in sorted(records.items()) if v["a"] < DOMAIN // 2)
        router.apply_update(Transaction.of("r", [Update(key, {"a": 0})]))
        assert counter_value(router, "cross_shard_moves_total", relation="r") == 0
        lower = router.query("by_a", 0, 0)
        assert key in {vt.values["id"] for vt in lower}


class TestUpdateFailureAtomicity:
    """A failed write may duplicate transiently but never lose state."""

    def test_failed_move_never_loses_the_tuple(self, router):
        records = expected_records()
        key = next(k for k, v in sorted(records.items()) if v["a"] < DOMAIN // 2)
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        with pytest.raises(ShardUnavailable):
            router.apply_update(
                Transaction.of("r", [Update(key, {"a": DOMAIN - 1})])
            )
        # Insert-first ordering: the target insert failed, so the tuple
        # is intact on its source shard and the directory still routes
        # to it.
        lower = router.query("by_a", 0, DOMAIN // 2 - 1)
        assert key in {vt.values["id"] for vt in lower}
        router.apply_update(Transaction.of("r", [Update(key, {"v": 4321})]))
        lower = router.query("by_a", 0, DOMAIN // 2 - 1)
        assert [
            vt.values["v"] for vt in lower if vt.values["id"] == key
        ] == [4321]

    def test_failed_insert_leaves_no_phantom_directory_entry(self, router):
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
        new_key = 10**5
        with pytest.raises(ShardUnavailable):
            router.apply_update(Transaction.of("r", [
                Insert(schema.new_record(id=new_key, a=DOMAIN - 1, v=1)),
            ]))
        # The shard never acknowledged the insert, so the directory
        # must not claim the key exists — a later update fails loudly
        # instead of being misrouted.
        with pytest.raises(KeyError, match="no tuple with key 100000 in 'r'"):
            router.apply_update(
                Transaction.of("r", [Update(new_key, {"v": 1})])
            )

    def test_failed_delete_keeps_the_directory_entry(self, router):
        from repro.engine.transaction import Delete

        records = expected_records()
        key = next(
            k for k, v in sorted(records.items()) if v["a"] >= DOMAIN // 2
        )
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        with pytest.raises(ShardUnavailable):
            router.apply_update(Transaction.of("r", [Delete(key)]))
        # The delete was never applied; the key must still be owned.
        assert router._directory[("r", key)] == 1

    def test_interleaved_insert_then_update_in_one_txn(self, router):
        # The overlay must answer ownership for a key inserted earlier
        # in the same (unflushed) transaction.
        schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
        new_key = 90_000
        router.apply_update(Transaction.of("r", [
            Insert(schema.new_record(id=new_key, a=3, v=1)),
            Update(new_key, {"v": 2}),
        ]))
        lower = router.query("by_a", 0, DOMAIN // 2 - 1)
        assert [
            vt.values["v"] for vt in lower if vt.values["id"] == new_key
        ] == [2]


class TestRefreshEpochs:
    def test_per_shard_net_once_per_epoch_survives_sharding(self, router):
        run_traffic(
            router, partitioned_cluster_streams(2, 12, N_RECORDS), threads=2
        )
        router.refresh_epoch()
        stats = router.stats()
        for shard_stats in stats["shards"].values():
            info = shard_stats["relations"]["r"]
            # The SharedDeltaPlanner invariant, now per shard: every
            # deferred refresh folded that shard's net change exactly
            # once, and the cluster epoch left nothing pending.
            assert info["net_reads"] == shard_stats["epochs"]
            assert info["pending"] == 0

    def test_concurrent_epochs_coalesce_or_lead(self, router):
        outcomes = []

        def caller():
            outcomes.append(router.refresh_epoch())

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 4 and any(outcomes)
        # Every caller either led an epoch or waited on one in flight.
        assert router.epochs + router.coalesced_waits == 4


class TestRefreshUnderFaults:
    def test_refresh_epoch_survives_a_worker_crash_mid_cluster(self, router):
        router.apply_update(Transaction.of("r", [Update(0, {"v": 2})]))
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        # The surviving leg's answer is the epoch's result; the dead
        # leg is counted, not fatal.
        assert router.refresh_epoch() is True
        assert router.epochs == 1
        assert counter_value(router, "refresh_leg_failures_total", shard="1") >= 1

    def test_concurrent_refresh_with_a_dead_leg_still_converges(self, router):
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        outcomes = []

        def caller():
            outcomes.append(router.refresh_epoch())

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 4 and any(outcomes)
        # The coalescing invariant holds under partial failure too:
        # every caller either led an epoch or waited on one in flight.
        assert router.epochs + router.coalesced_waits == 4

    def test_refresh_with_every_leg_dead_raises_for_every_caller(self, router):
        for process in router.processes:
            process.terminate()
        for process in router.processes:
            process.join(timeout=5.0)
        errors = []

        def caller():
            try:
                router.refresh_epoch()
            except ShardUnavailable as exc:
                errors.append(exc)

        # Concurrent callers exercise the follower-takeover loop: each
        # follower wakes to find the epoch did not advance, takes over
        # leadership, and hits the same dead cluster — everyone gets
        # the error, nobody hangs on a leader that already failed.
        threads = [threading.Thread(target=caller) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(errors) == 3
        assert router.epochs == 0


class TestPartialFailure:
    def test_lost_leg_degrades_instead_of_lying(self, router):
        router.apply_update(Transaction.of("r", [Update(0, {"v": 1})]))
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)

        answer = router.query("by_a", 0, DOMAIN - 1)
        assert isinstance(answer, DegradedResult)
        assert answer.mode == "partial_scatter"
        assert "shard 1" in answer.reason
        survivors = answer.unwrap()
        assert 0 < len(survivors) < N_RECORDS
        assert all(vt.values["a"] < DOMAIN // 2 for vt in survivors)

    def test_lost_leg_bound_counts_every_update_routed_there(self, router):
        records = expected_records()
        shard1_keys = [k for k, v in records.items() if v["a"] >= DOMAIN // 2]
        for key in shard1_keys[:3]:
            router.apply_update(Transaction.of("r", [Update(key, {"v": 5})]))
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        answer = router.query("total")
        assert isinstance(answer, DegradedResult)
        assert answer.staleness_bound >= 3

    def test_no_surviving_leg_raises(self, router):
        router.processes[0].terminate()
        router.processes[0].join(timeout=5.0)
        with pytest.raises(ShardUnavailable):
            router.query("by_a", 0, 10)  # routes only to the dead shard

    def test_strict_queries_refuse_partial_answers(self, router):
        router.processes[1].terminate()
        router.processes[1].join(timeout=5.0)
        with pytest.raises(ShardUnavailable):
            router.query("by_a", 0, DOMAIN - 1, allow_partial=False)


class TestShutdown:
    def test_close_reaps_workers_and_is_idempotent(self):
        router = launch_demo(2, n_records=60)
        router.query("total")
        router.close()
        router.close()
        assert all(not process.is_alive() for process in router.processes)
        with pytest.raises(ClusterClosedError):
            router.query("total")
        with pytest.raises(ClusterClosedError):
            router.apply_update(Transaction.of("r", [Update(0, {"v": 1})]))

    def test_close_drains_in_flight_requests_first(self):
        router = launch_demo(1, n_records=240, pacing=2e-3)
        outcome = {}

        def slow_query():
            try:
                outcome["answer"] = router.query("by_a", 0, DOMAIN - 1)
            except Exception as exc:  # pragma: no cover - the failure mode
                outcome["error"] = exc

        thread = threading.Thread(target=slow_query)
        thread.start()
        deadline = 50
        while not router._inflight and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        router.close()
        thread.join(timeout=30)
        assert "error" not in outcome
        assert len(outcome["answer"]) == 240
        assert all(not process.is_alive() for process in router.processes)

    def test_context_manager_closes(self):
        with launch_demo(1, n_records=30) as router:
            router.query("total")
        assert all(not process.is_alive() for process in router.processes)


class TestDurability:
    def test_per_shard_state_dirs_journal_independently(self, tmp_path):
        router = launch_demo(2, n_records=60, state_dir=str(tmp_path / "st"))
        try:
            router.apply_update(Transaction.of("r", [Update(0, {"v": 7})]))
        finally:
            router.close()
        for shard in range(2):
            shard_dir = tmp_path / "st" / f"shard-{shard:03d}"
            assert shard_dir.is_dir()
            assert any(shard_dir.iterdir())


class TestTrafficHarness:
    def test_partitioned_streams_commute_across_shard_counts(self):
        """The same concurrent traffic converges to the same answers on
        a 1-shard and a 2-shard cluster (sharding is transparent)."""
        finals = {}
        for n_shards in (1, 2):
            router = launch_demo(n_shards, n_records=N_RECORDS)
            try:
                run_traffic(
                    router, partitioned_cluster_streams(2, 9, N_RECORDS),
                    threads=2,
                )
                finals[n_shards] = (
                    sorted(
                        (vt.values["id"], vt.values["v"])
                        for vt in router.query("by_a", 0, DOMAIN - 1)
                    ),
                    router.query("total"),
                )
            finally:
                router.close()
        assert finals[1] == finals[2]
