"""The hosting table, pinned: one row per rule of ``catalog.HOSTING``.

Every rule has a case the catalog hosts, a neighbouring case it
refuses, and the refusal's message — recorded from the sixteen checks
the rules replaced (strategy and model constructors, ``_plain_base``,
``create_secondary_index``, the router's candidate filter), whose
wording they keep.  Each row is checked twice: against
:func:`repro.maintenance.catalog.check_hosting`, and against what
``Database.define_view`` does — a refused definition builds nothing.
"""

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import KINDS, CatalogError, Database, ViewSpec
from repro.maintenance.catalog import (
    HOSTING,
    check_hosting,
    check_indexable,
    relation_kind_for,
)
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

IN_VIEW = IntervalPredicate("a", 0, 9)

#: relation -> (kind, the field it is organised on)
RELATIONS = {
    "plain": ("plain", "a"),
    "by_id": ("plain", "id"),
    "hyp": ("hypothetical", "a"),
    "hyp2": ("hypothetical", "a"),
    "hash_outer": ("hashed", "a"),
    "inner": ("hashed", "j"),
    "inner_by_c": ("hashed", "c"),
    "inner_ad": ("hashed_hypothetical", "j"),
    "tree_inner": ("plain", "j"),
}


def sp(relation):
    return SelectProjectView("v", relation, IN_VIEW, ("id", "a"), "a")


def join(outer, inner, name="v"):
    return JoinView(name, outer, inner, "j", IN_VIEW, ("id", "a"), ("j", "c"), "a")


def agg(relation):
    return AggregateView("v", relation, IN_VIEW, "sum", "v")


RIVAL = ViewSpec(join("hyp2", "inner_ad", name="rival"), Strategy.DEFERRED)

#: rule -> (hosted spec, refused spec, message)
TABLE = {
    "supported-pair": (
        ViewSpec(sp("plain"), Strategy.SNAPSHOT),
        ViewSpec(agg("plain"), Strategy.SNAPSHOT),
        "unsupported strategy Strategy.SNAPSHOT for aggregate views",
    ),
    "tree-clustered": (
        ViewSpec(agg("hyp"), Strategy.IMMEDIATE),
        ViewSpec(agg("hash_outer"), Strategy.IMMEDIATE),
        "relation 'hash_outer' is not tree-clustered",
    ),
    "inner-hashed": (
        ViewSpec(join("plain", "inner"), Strategy.IMMEDIATE),
        ViewSpec(join("plain", "tree_inner"), Strategy.IMMEDIATE),
        "join inner relation 'tree_inner' must be hashed "
        "(create it with kind='hashed' or 'hashed_hypothetical')",
    ),
    "differential-inner-deferred-only": (
        ViewSpec(join("hyp2", "inner_ad"), Strategy.DEFERRED),
        ViewSpec(join("hyp2", "inner_ad"), Strategy.IMMEDIATE),
        "a hashed_hypothetical inner relation is only usable by deferred "
        "join views; use kind='hashed' for 'inner_ad' under any other strategy",
    ),
    "deferred-needs-hypothetical": (
        ViewSpec(sp("hyp"), Strategy.DEFERRED),
        ViewSpec(sp("plain"), Strategy.DEFERRED),
        "deferred views need a hypothetical relation; create 'plain' "
        "with kind='hypothetical'",
    ),
    "differential-inner-one-outer": (
        ViewSpec(join("hyp2", "inner_ad"), Strategy.DEFERRED),
        ViewSpec(join("hyp", "inner_ad"), Strategy.DEFERRED),
        "differential inner relation 'inner_ad' is folded with 'hyp2' "
        "(deferred view 'rival'); deferred joins sharing it must share "
        "their outer relation",
    ),
    "snapshot-period": (
        ViewSpec(sp("plain"), Strategy.SNAPSHOT, refresh_every=1),
        ViewSpec(sp("plain"), Strategy.SNAPSHOT, refresh_every=0),
        "refresh_every must be >= 1, got 0",
    ),
    "snapshot-clustered": (
        ViewSpec(sp("plain"), Strategy.BC_RECOMPUTE, refresh_every=0),
        ViewSpec(sp("by_id"), Strategy.BC_RECOMPUTE),
        "snapshot rebuilds use a clustered scan; relation must be "
        "clustered on the view key 'a'",
    ),
    "hybrid-two-clusterings": (
        ViewSpec(sp("by_id"), Strategy.HYBRID),
        ViewSpec(sp("plain"), Strategy.HYBRID),
        "hybrid routing is pointless when base and view share a "
        "clustering attribute ('a')",
    ),
    "known-plan": (
        ViewSpec(sp("plain"), Strategy.IMMEDIATE, plan="bogus"),  # no plan to pick
        ViewSpec(sp("plain"), Strategy.QM_CLUSTERED, plan="bogus"),
        "unknown plan 'bogus'; expected one of "
        "['clustered', 'sequential', 'unclustered']",
    ),
    "clustered-plan": (
        ViewSpec(sp("by_id"), Strategy.QM_CLUSTERED, plan="sequential"),
        ViewSpec(sp("by_id"), Strategy.QM_CLUSTERED),
        "clustered plan requires the relation clustered on the view key "
        "('a'), got 'id'",
    ),
    "indexable": (
        ViewSpec(sp("by_id"), Strategy.QM_UNCLUSTERED),
        ViewSpec(sp("hyp"), Strategy.QM_UNCLUSTERED),
        "secondary indexes require a tree-clustered relation",
    ),
    "index-field": (
        ViewSpec(sp("by_id"), Strategy.QM_UNCLUSTERED, index_field="v"),
        ViewSpec(sp("by_id"), Strategy.QM_UNCLUSTERED, index_field="nope"),
        "cannot index 'by_id' on unknown field 'nope'",
    ),
    "loopjoin-outer": (
        ViewSpec(join("hyp", "inner"), Strategy.QM_LOOPJOIN),
        ViewSpec(join("by_id", "inner"), Strategy.QM_LOOPJOIN),
        "loopjoin expects the outer relation clustered on the view key "
        "('a'), got 'id'",
    ),
    "loopjoin-inner": (
        ViewSpec(join("plain", "inner_by_c"), Strategy.IMMEDIATE),
        ViewSpec(join("plain", "inner_by_c"), Strategy.QM_LOOPJOIN),
        "loopjoin expects the inner relation hashed on the join field "
        "('j'), got 'c'",
    ),
}


@pytest.fixture
def db():
    database = Database(buffer_pages=64)
    for name, (kind, field) in RELATIONS.items():
        schema = (
            Schema(name, ("j", "c"), "j", tuple_bytes=100) if "inner" in name
            else Schema(name, ("id", "a", "j", "v"), "id", tuple_bytes=100)
        )
        database.create_relation(schema, field, kind=kind)
    return database


def test_every_rule_has_a_row():
    assert sorted(TABLE) == sorted(name for name, _refused, _message in HOSTING)


@pytest.mark.parametrize("rule", sorted(TABLE))
def test_hosted_case(db, rule):
    spec = TABLE[rule][0]
    check_hosting(spec, db.relations, [RIVAL])
    impl = db.define_view(spec)
    assert db.views == {"v": impl} and db.view_spec("v") is spec


@pytest.mark.parametrize("rule", sorted(TABLE))
def test_refused_case(db, rule):
    _, spec, message = TABLE[rule]
    with pytest.raises(CatalogError) as refusal:
        check_hosting(spec, db.relations, [RIVAL])
    # The rule the row is named for is the first one to refuse.
    assert str(refusal.value) == message
    db.define_view(RIVAL)
    files = db.disk.files()
    with pytest.raises(ValueError) as refusal:
        db.define_view(spec.definition, spec.strategy, plan=spec.plan,
                       index_field=spec.index_field,
                       refresh_every=spec.refresh_every)
    assert str(refusal.value) == message
    assert list(db.views) == ["rival"] and db.disk.files() == files
    assert not db.can_host(spec)


def test_unknown_relation_and_definition(db):
    with pytest.raises(CatalogError, match="unknown relation 'nowhere'"):
        db.define_view(sp("nowhere"), Strategy.IMMEDIATE)
    with pytest.raises(CatalogError, match="unsupported view definition str"):
        check_hosting(ViewSpec("not a view", Strategy.IMMEDIATE), db.relations)


def test_secondary_indexes_need_a_plain_tree(db):
    check_indexable(db.relations["plain"])
    for name in ("hyp", "inner", "inner_ad"):
        with pytest.raises(CatalogError, match="require a tree-clustered relation"):
            check_indexable(db.relations[name])
        with pytest.raises(CatalogError):
            db.create_secondary_index(name, "j")


def test_relation_kind_is_read_off_the_table():
    """A strategy's relation kind is the plainest one its rules accept,
    so the rule and its inverse cannot drift."""
    for strategy in Strategy:
        expected = "hypothetical" if strategy is Strategy.DEFERRED else "plain"
        assert relation_kind_for(strategy) == expected
    assert list(KINDS) == [
        "plain", "hypothetical", "separate", "hashed", "hashed_hypothetical",
    ]


def test_relations_state_the_facts_the_rules_read(db):
    for name, (kind, field) in RELATIONS.items():
        relation = db.relations[name]
        plain, differential = KINDS[kind]
        assert relation.organisation == plain.organisation
        assert relation.organised_on == field
        assert relation.differential is (differential is not None)
        assert relation.pending == 0
        assert (relation.base is relation) is (differential is None)
