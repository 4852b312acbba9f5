"""Merged-result caching at the router: hits, bumps, never-stale.

The router may cache a merged scatter answer only under the epoch
token it sampled before the scatter, and every shard commit bumps the
relation's epoch *after* it lands — so a cached merge can be wasted by
a concurrent update but never poisoned by one.  These tests pin both
the deterministic contract and the concurrent read-your-writes
property under per-relation epoch bumps arriving from different
shards.
"""

import threading

import pytest

from repro.cluster.harness import DOMAIN, launch_demo
from repro.cluster.rpc import RemoteOpError
from repro.engine.transaction import Transaction, Update

N_RECORDS = 240


@pytest.fixture()
def router():
    router = launch_demo(2, n_records=N_RECORDS, router_cache=True)
    yield router
    router.close()


def counters(router):
    return {
        name: sum(
            series.value for series in router.metrics.series(name)
        )
        for name in (
            "router_queries_total",
            "router_cache_hits_total",
            "single_shard_queries_total",
            "scatter_queries_total",
        )
    }


class TestDeterministicContract:
    def test_repeat_scatter_is_served_from_cache(self, router):
        first = router.query("total")
        second = router.query("total")
        assert first == second
        assert counters(router)["router_cache_hits_total"] == 1
        # The hit answered without touching any shard.
        assert counters(router)["scatter_queries_total"] == 1

    def test_update_invalidates_before_the_next_read(self, router):
        before = router.query("total")
        old_v = next(
            vt.values["v"] for vt in router.query("by_a", 0, DOMAIN - 1)
            if vt.values["id"] == 0
        )
        router.apply_update(Transaction.of("r", [Update(0, {"v": old_v + 10})]))
        after = router.query("total")
        assert after == before + 10
        # Recomputed from the shards, not replayed from the cache:
        assert counters(router)["router_cache_hits_total"] == 0
        assert counters(router)["scatter_queries_total"] == 3

    def test_updates_on_either_shard_bump_the_shared_relation_epoch(self, router):
        """A bump from shard 1 must invalidate a merge that also covers
        shard 0 — the epoch is per relation, not per shard."""
        full = router.query("by_a", 0, DOMAIN - 1)
        lower_key = next(
            vt.values["id"] for vt in full if vt.values["a"] < DOMAIN // 2
        )
        upper_key = next(
            vt.values["id"] for vt in full if vt.values["a"] >= DOMAIN // 2
        )
        for key, value in ((lower_key, 111), (upper_key, 222)):
            router.apply_update(Transaction.of("r", [Update(key, {"v": value})]))
            merged = {
                vt.values["id"]: vt.values["v"]
                for vt in router.query("by_a", 0, DOMAIN - 1)
            }
            assert merged[key] == value
        assert counters(router)["router_cache_hits_total"] == 0

    def test_a_transaction_failing_on_one_shard_still_bumps_the_epoch(
        self, router
    ):
        """Shard 0's leg commits, shard 1's raises: what shard 0
        committed must not be hidden behind a cached merge.  Shard 1
        fails because its tuple was deleted behind the router's back
        (the directory still routes to it); a transaction the router can
        see would fail is refused before any leg is sent."""
        full = router.query("by_a", 0, DOMAIN - 1)
        lower = next(vt for vt in full if vt.values["a"] < DOMAIN // 2)
        upper = next(vt for vt in full if vt.values["a"] >= DOMAIN // 2)
        router.shards[1].apply_update(
            "r", [{"kind": "delete", "key": upper.values["id"]}]
        )
        before = router.query("total")
        with pytest.raises(RemoteOpError):
            router.apply_update(Transaction.of("r", [
                Update(lower.values["id"], {"v": lower.values["v"] + 10}),
                Update(upper.values["id"], {"v": 1}),
            ]))
        assert router.query("total") == before + 10
        assert router.query("total") == sum(
            vt.values["v"] for vt in router.query("by_a", 0, DOMAIN - 1)
        )


class TestConcurrentFreshness:
    def test_read_your_writes_under_cross_shard_epoch_bumps(self, router):
        """Concurrent writers on different shards never observe a stale
        cross-shard merge: every thread's query after its own commit
        must carry that commit."""
        full = router.query("by_a", 0, DOMAIN - 1)
        lower = [vt.values["id"] for vt in full if vt.values["a"] < DOMAIN // 2]
        upper = [vt.values["id"] for vt in full if vt.values["a"] >= DOMAIN // 2]
        # Two writers per shard, each owning one key.
        owned = [lower[0], upper[0], lower[1], upper[1]]
        errors = []

        def worker(index, key):
            try:
                for step in range(8):
                    value = index * 1000 + step
                    router.apply_update(
                        Transaction.of("r", [Update(key, {"v": value})]),
                        client=f"w{index}",
                    )
                    merged = router.query("by_a", 0, DOMAIN - 1,
                                          client=f"w{index}")
                    got = next(
                        vt.values["v"] for vt in merged
                        if vt.values["id"] == key
                    )
                    assert got == value, (
                        f"stale merge: key {key} shows {got}, "
                        f"committed {value}"
                    )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index, key), daemon=True)
            for index, key in enumerate(owned)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive(), "cache freshness worker wedged"
        assert not errors, errors[0]

        # Counter accounting: every query either hit the cache or went
        # to the shards — nothing double-counted, nothing lost.
        totals = counters(router)
        assert totals["router_queries_total"] == (
            totals["router_cache_hits_total"]
            + totals["single_shard_queries_total"]
            + totals["scatter_queries_total"]
        )

    def test_quiesced_cache_converges_to_the_true_answer(self, router):
        full = router.query("by_a", 0, DOMAIN - 1)
        keys = [vt.values["id"] for vt in full][:4]

        def writer(key):
            for value in range(5):
                router.apply_update(
                    Transaction.of("r", [Update(key, {"v": value})])
                )
                router.query("total")

        threads = [
            threading.Thread(target=writer, args=(key,), daemon=True)
            for key in keys
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
        # After quiescing, cached and fresh answers agree exactly.
        cached = router.query("total")
        recomputed = sum(
            vt.values["v"] for vt in router.query("by_a", 0, DOMAIN - 1)
        )
        assert cached == recomputed
