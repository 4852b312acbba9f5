"""A cache hit is the hitting client's own answer.

An answer's view tuples are shared and immutable; the list holding them
is the client's.  The result cache therefore keeps an immutable copy of
a tuple answer and hands every hit a new list: one client editing its
list (or trying to edit a tuple) reaches no other client's answer,
neither through a :class:`ViewServer`'s cache nor through the
:class:`ClusterRouter`'s merged-answer cache.
"""

import pytest

from repro.cluster.harness import DOMAIN, launch_demo
from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.service.cache import QueryResultCache
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import SelectProjectView, ViewTuple
from repro.views.predicate import TruePredicate

W = Schema("wr", ("id", "k", "v"), "id")


def edit_then_requery(query):
    """Client x edits its answer; returns client y's answer and x's."""
    first = query("x")
    assert first, "the range must not be empty"
    with pytest.raises(TypeError):
        first[0].values["v"] = "EDITED"
    first.append("junk")
    return query("y"), first


def assert_untouched(second, first):
    assert second is not first
    assert "junk" not in second
    assert all(isinstance(t, ViewTuple) and t["v"] != "EDITED" for t in second)
    assert second == first[:-1]


class TestQueryResultCache:
    def test_every_hit_gets_a_new_list_over_the_same_tuples(self):
        cache = QueryResultCache()
        token = cache.epoch_token(("r",))
        answer = [ViewTuple({"a": 1}), ViewTuple({"a": 2})]
        cache.put("v", 0, 9, token, answer)
        answer.append("junk")  # the putting client keeps its own list
        (_, one), (_, two) = cache.get("v", 0, 9, token), cache.get("v", 0, 9, token)
        assert one == two == answer[:2]
        assert one is not two and one is not answer
        assert one[0] is answer[0] and two[1] is answer[1]
        one.clear()
        assert cache.get("v", 0, 9, token)[1] == answer[:2]

    @pytest.mark.parametrize("scalar", [7, None, (1, 2)])
    def test_a_scalar_answer_is_returned_as_it_was_put(self, scalar):
        cache = QueryResultCache()
        token = cache.epoch_token(("r",))
        cache.put("total", None, None, token, scalar)
        assert cache.get("total", None, None, token) == (True, scalar)


def test_a_view_server_hit_is_not_the_first_clients_list():
    database = Database(buffer_pages=64)
    database.create_relation(
        W, "k", records=[W.new_record(id=i, k=i % 10, v=i) for i in range(50)]
    )
    cache = QueryResultCache()
    server = ViewServer(database, cache=cache)
    view = SelectProjectView("w", "wr", TruePredicate(), ("id", "k", "v"), "k")
    server.register_view(view, Strategy.IMMEDIATE, adaptive=False)
    second, first = edit_then_requery(
        lambda client: server.query("w", 0, 2, client=client)
    )
    assert cache.hits == 1
    assert_untouched(second, first)


def test_a_router_hit_is_not_the_first_clients_list():
    router = launch_demo(2, n_records=60, router_cache=True)
    try:
        second, first = edit_then_requery(
            lambda client: router.query("by_a", 0, DOMAIN - 1, client=client)
        )
        hits = sum(s.value for s in router.metrics.series("router_cache_hits_total"))
        assert hits == 1
        assert_untouched(second, first)
    finally:
        router.close()


def test_a_deferred_join_is_cached_once_both_backlogs_are_empty():
    """A deferred join's answer is fresh once neither its outer nor its
    inner relation has anything pending; an inner update invalidates it."""
    from collections import Counter

    from repro.engine.transaction import Transaction, Update
    from repro.views.definition import JoinView
    from repro.views.predicate import IntervalPredicate

    outer = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
    inner = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
    database = Database(buffer_pages=64)
    database.create_relation(outer, "a", kind="hypothetical", records=[
        outer.new_record(id=i, a=i % 20, j=i % 6) for i in range(60)])
    database.create_relation(inner, "j", kind="hashed_hypothetical", records=[
        inner.new_record(j=j, c=j * 10) for j in range(6)])
    view = JoinView("v", "r1", "r2", "j", IntervalPredicate("a", 0, 9),
                    ("id", "a"), ("j", "c"), "a")
    cache = QueryResultCache()
    server = ViewServer(database, cache=cache)
    server.register_view(view, Strategy.DEFERRED, adaptive=False)

    def truth():
        return Counter(view.evaluate(database.logical_records("r1"),
                                     database.logical_records("r2")))

    server.apply_update(Transaction.of("r1", [Update(3, {"a": 15})]))
    assert Counter(server.query("v", 0, 9)) == truth()
    assert Counter(server.query("v", 0, 9)) == truth()
    assert cache.hits == 1
    server.apply_update(Transaction.of("r2", [Update(2, {"c": 999})]))
    assert database.relations["r2"].pending
    answer = server.query("v", 0, 9)
    assert cache.hits == 1
    assert Counter(answer) == truth()
    assert any(t["c"] == 999 for t in answer)
    assert Counter(server.query("v", 0, 9)) == truth()
    assert cache.hits == 2
