"""How the router routes and merges each kind of view document.

The router reads a spec's view documents through ``definition_of``, as
the shard workers do.  A ranged query on a select-project keyed on the
range partition field reaches only the shards owning the range; every
other view scatters to all shards.  An aggregate merges as a scalar
even when its document carries keys its type ignores (the end-to-end
benchmark sends ``view_key`` and ``projection`` for every view), and
an aggregate with no cross-shard merge is refused at launch.
"""

import pytest

from repro.cluster.router import ClusterError, ClusterRouter
from repro.cluster.shardmap import ShardMap
from repro.cluster.worker import encode_answer
from repro.service.spec import definition_of

RANGED = ShardMap.ranged("a", 0, 100, 2)

SELECT_ON_A = {"type": "select_project", "name": "v", "relation": "r",
               "projection": ["id", "a"], "view_key": "a"}
SELECT_ON_ID = {**SELECT_ON_A, "view_key": "id"}
JOIN = {"type": "join", "name": "v", "outer": "r", "inner": "s",
        "join_field": "id", "outer_projection": ["id", "a"],
        "inner_projection": ["w"], "view_key": "a"}
SUM = {"type": "aggregate", "name": "v", "relation": "r",
       "aggregate": "sum", "field": "w",
       "view_key": "a", "projection": ["id", "a", "w"]}


class FakeReplicaSet:
    """Answers every query leg with ``answer`` and records it."""

    def __init__(self, answer):
        self.answer = answer
        self.queries = []

    def query_leg(self, timeout=None, **params):
        self.queries.append(params)
        return dict(self.answer), {"retried": False}
        yield  # a leg that never has to wait


def router_over(doc, shard_map=RANGED, answers=None):
    empty = encode_answer(0 if doc is SUM else [], "a")
    answers = answers or [empty] * shard_map.n_shards
    shards = [FakeReplicaSet(answer) for answer in answers]
    return ClusterRouter(shard_map, shards, [definition_of(doc)], {}), shards


@pytest.mark.parametrize("doc, shard_map, reached", [
    pytest.param(SELECT_ON_A, RANGED, [0], id="select-on-partition-field-prunes"),
    pytest.param(SELECT_ON_ID, RANGED, [0, 1], id="select-keyed-elsewhere-scatters"),
    pytest.param(SELECT_ON_A, ShardMap.hashed("a", 2), [0, 1], id="hash-scatters"),
    pytest.param(JOIN, RANGED, [0, 1], id="join-scatters"),
    pytest.param(SUM, RANGED, [0, 1], id="aggregate-scatters"),
])
def test_a_ranged_query_reaches(doc, shard_map, reached):
    router, shards = router_over(doc, shard_map)
    router.query("v", 0, 10)
    assert [i for i, shard in enumerate(shards) if shard.queries] == reached


def test_an_aggregate_with_ignored_keys_merges_as_a_scalar():
    router, _ = router_over(SUM, answers=[
        {"kind": "scalar", "value": 3, "degraded": None},
        {"kind": "scalar", "value": 4, "degraded": None},
    ])
    assert router.query("v") == 7


def test_avg_is_refused_at_launch():
    spec = {"relations": [], "views": [{**SUM, "aggregate": "avg"}]}
    with pytest.raises(ClusterError, match="'avg' does not merge across shards"):
        ClusterRouter.launch(spec, RANGED)
