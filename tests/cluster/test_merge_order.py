"""The router's merge is a plain sort of rows — and still the old order.

``ClusterRouter._merge`` concatenates the legs' positional rows and
calls ``rows.sort()``.  With the view key first and the other fields by
name (how a worker encodes an answer) that is the order the parent
commit produced with a Python key function, ``(vt[view_key],
vt.identity())``: checked here on random legs with duplicate keys and
duplicate tuples, for prunable and non-prunable views, through the
JSON round trip a frame makes.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import ClusterRouter
from repro.cluster.shardmap import ShardMap
from repro.cluster.worker import encode_answer
from repro.resilience.degradation import DegradedResult
from repro.service.spec import definition_of
from repro.views.definition import ViewTuple

#: ``k`` is the view key and sorts *after* ``a`` by name, so an encoder
#: that forgot to move it first would be caught.
tuples = st.builds(
    lambda k, a, z: ViewTuple({"k": k, "a": a, "z": z}),
    st.integers(0, 4), st.sampled_from(["x", "y"]),
    st.sampled_from([(0,), (1, 2), (1, 3)]),  # cells that travel tagged
)
legs = st.lists(st.lists(tuples, max_size=8), min_size=1, max_size=4)


def canonical(payload):
    return sorted(payload, key=lambda vt: (vt["k"], vt.identity()))


def merged(scheme, leg_payloads, presorted=True, degraded=()):
    shard_map = (
        ShardMap.ranged("k", 0, 8, len(leg_payloads)) if scheme == "range"
        else ShardMap.hashed("k", len(leg_payloads))
    )
    view = definition_of(
        {"type": "select_project", "name": "v", "relation": "r",
         "projection": ["k", "a", "z"], "view_key": "k"}
    )
    router = ClusterRouter(shard_map, [], [view], {})
    assert ("v" in router._prunable) == (scheme == "range")
    results = {}
    for shard, payload in enumerate(leg_payloads):
        answer = canonical(payload) if presorted else payload
        if shard in degraded:
            answer = DegradedResult(answer, "v", "qm_fallback", "test", 0, "qm")
        # What arrives is what a frame carried: JSON text and back.
        results[shard] = json.loads(json.dumps(encode_answer(answer, "k")))
    return router._merge(view, list(results), results, {}, True)


@given(leg_payloads=legs, scheme=st.sampled_from(["range", "hash"]))
@settings(max_examples=150, deadline=None)
def test_merge_is_the_parent_commits_order(leg_payloads, scheme):
    everything = [vt for payload in leg_payloads for vt in payload]
    answer = merged(scheme, leg_payloads)
    assert answer == canonical(everything)
    assert [vt.values for vt in answer] == [vt.values for vt in canonical(everything)]
    assert all(type(vt.values["z"]) is tuple for vt in answer)


@given(payload=st.lists(tuples, max_size=12))
@settings(max_examples=100, deadline=None)
def test_a_single_leg_in_base_scan_order_comes_out_canonical(payload):
    # A degraded leg answers by query modification, in the base file's
    # order: the merge sorts one leg as it sorts four.
    answer = merged("range", [payload], presorted=False, degraded={0})
    assert isinstance(answer, DegradedResult) and answer.mode == "qm_fallback"
    assert answer.unwrap() == canonical(payload)


def test_an_empty_partition_adds_nothing_and_names_no_fields():
    rows = [ViewTuple({"k": 1, "a": "x", "z": (0,)})]
    assert merged("range", [[], rows, []]) == rows
    assert merged("hash", [[], []]) == []
