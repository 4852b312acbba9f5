"""Strategy x model x storage: what ``Database.define_view`` can host.

:data:`SUPPORTED` pairs strategies with view models; the two decisions
are independent.  The view definition's type picks the model (what is
stored, how a delta changes it), the requested
:class:`~repro.core.strategies.Strategy` picks the class that decides
when maintenance runs.  Query modification, immediate and deferred
maintenance work over all three models; snapshots, Buneman-Clemons
recomputation and hybrid routing are defined for Model 1 only.

:data:`HOSTING` says which relations a view can live on (Section 3.1's
access-method table, Section 2.2's precondition, Section 4's sharing
rule), from the facts relations state, never their classes.  The engine
asks :func:`check_hosting` *before* it journals, drops or builds
anything, and nothing else refuses a hosting.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Iterable, Mapping

from repro.core.strategies import QUERY_MODIFICATION_VARIANTS, Strategy, ViewModel
from repro.engine.database import KINDS, CatalogError, ViewSpec
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from .base import MaintenanceStrategy
from .deferred import Deferred
from .hybrid import Hybrid
from .immediate import Immediate
from .models import PLANS, AggregateModel, JoinModel, Model, SelectProjectModel
from .query_modification import QueryModification
from .snapshot import Snapshot

__all__ = [
    "HOSTING",
    "MODELS",
    "SUPPORTED",
    "check_hosting",
    "check_indexable",
    "model_class",
    "relation_kind_for",
]

#: View definition type -> the model that stores and maintains it.
MODELS: dict[type, type[Model]] = {
    SelectProjectView: SelectProjectModel,
    JoinView: JoinModel,
    AggregateView: AggregateModel,
}

_ALL = frozenset(ViewModel)
_MODEL_1 = frozenset({ViewModel.SELECT_PROJECT})

#: Strategy -> (the class that runs it, the models it is defined for).
SUPPORTED: dict[Strategy, tuple[type[MaintenanceStrategy], frozenset[ViewModel]]] = {
    **{variant: (QueryModification, _ALL) for variant in QUERY_MODIFICATION_VARIANTS},
    Strategy.IMMEDIATE: (Immediate, _ALL),
    Strategy.DEFERRED: (Deferred, _ALL),
    Strategy.SNAPSHOT: (Snapshot, _MODEL_1),
    Strategy.BC_RECOMPUTE: (Snapshot, _MODEL_1),
    Strategy.HYBRID: (Hybrid, _MODEL_1),
}


def model_class(definition: Any) -> type[Model]:
    """The model class for one view definition."""
    model = MODELS.get(type(definition))
    if model is None:
        raise CatalogError(f"unsupported view definition {type(definition).__name__}")
    return model


def _recomputed(h: Any, model: type[Model], plan: str | None = None) -> bool:
    # Query modification of a ``model`` view (by ``plan``, for Model 1).
    qm = h.model is model and h.strategy.is_query_modification()
    return qm and plan in (None, h.plan)


def _off_view_key(h: Any) -> bool:
    return h.outer.organised_on != h.definition.view_key


def _differential_inner(h: Any) -> bool:
    return h.inner is not None and h.inner.differential


def _indexable(relation: Any) -> bool:
    # The engine keeps an index current per transaction: a plain B+-tree.
    return relation.organisation == "btree" and not relation.differential


_DEFERRED = Strategy.DEFERRED
_NOT_INDEXABLE = "secondary indexes require a tree-clustered relation"

#: What a view's (outer) relation must be, whatever the view's shape.
_OUTER = (
    ("tree-clustered",
     lambda h: h.strategy is not _DEFERRED and h.outer.organisation != "btree",
     "relation {h.source!r} is not tree-clustered"),
    ("deferred-needs-hypothetical",
     lambda h: h.strategy is _DEFERRED
     and not (h.outer.organisation == "btree" and h.outer.differential),
     "deferred views need a hypothetical relation; create {h.source!r} "
     "with kind='hypothetical'"),
)

#: The hosting rules, in checking order: ``(name, refused, message)``
#: over a candidate hosting ``h`` — the spec's fields, its ``model``,
#: the ``outer`` relation (named ``source``) and a join's ``inner`` one,
#: Model 1's recompute ``plan``, and ``rival``: a hosted deferred join
#: reading the same inner relation from another outer, if any.
HOSTING: tuple[tuple[str, Callable[[Any], bool], str], ...] = (
    ("supported-pair",
     lambda h: h.model.number not in SUPPORTED[h.strategy][1],
     "unsupported strategy {h.strategy} for {h.model.label} views"),
    *_OUTER,
    ("inner-hashed",
     lambda h: h.inner is not None and h.inner.organisation != "hash",
     "join inner relation {h.definition.inner!r} must be hashed "
     "(create it with kind='hashed' or 'hashed_hypothetical')"),
    ("differential-inner-deferred-only",
     lambda h: _differential_inner(h) and h.strategy is not _DEFERRED,
     "a hashed_hypothetical inner relation is only usable by deferred join "
     "views; use kind='hashed' for {h.definition.inner!r} under any other "
     "strategy"),
    # One differential file is folded by one refresh epoch, after every
    # view reading it has applied the net change (Section 4).
    ("differential-inner-one-outer",
     lambda h: _differential_inner(h) and h.rival is not None,
     "differential inner relation {h.definition.inner!r} is folded with "
     "{h.rival.definition.outer!r} (deferred view {h.rival.name!r}); deferred "
     "joins sharing it must share their outer relation"),
    ("snapshot-period",
     lambda h: h.strategy is Strategy.SNAPSHOT and h.refresh_every < 1,
     "refresh_every must be >= 1, got {h.refresh_every}"),
    ("snapshot-clustered",
     lambda h: SUPPORTED[h.strategy][0] is Snapshot and _off_view_key(h),
     "snapshot rebuilds use a clustered scan; relation must be clustered on "
     "the view key {h.definition.view_key!r}"),
    ("hybrid-two-clusterings",
     lambda h: h.strategy is Strategy.HYBRID and not _off_view_key(h),
     "hybrid routing is pointless when base and view share a clustering "
     "attribute ({h.definition.view_key!r})"),
    ("known-plan",
     lambda h: _recomputed(h, SelectProjectModel) and h.plan not in PLANS,
     "unknown plan {h.plan!r}; expected one of " + str(sorted(PLANS))),
    ("clustered-plan",
     lambda h: _recomputed(h, SelectProjectModel, "clustered") and _off_view_key(h),
     "clustered plan requires the relation clustered on the view key "
     "({h.definition.view_key!r}), got {h.outer.organised_on!r}"),
    ("indexable",
     lambda h: _recomputed(h, SelectProjectModel, "unclustered")
     and not _indexable(h.outer),
     _NOT_INDEXABLE),
    ("index-field",
     lambda h: _recomputed(h, SelectProjectModel, "unclustered")
     and h.index_field not in h.outer.schema.fields,
     "cannot index {h.source!r} on unknown field {h.index_field!r}"),
    ("loopjoin-outer",
     lambda h: _recomputed(h, JoinModel) and _off_view_key(h),
     "loopjoin expects the outer relation clustered on the view key "
     "({h.definition.view_key!r}), got {h.outer.organised_on!r}"),
    ("loopjoin-inner",
     lambda h: _recomputed(h, JoinModel)
     and h.inner.organised_on != h.definition.join_field,
     "loopjoin expects the inner relation hashed on the join field "
     "({h.definition.join_field!r}), got {h.inner.organised_on!r}"),
)


def check_hosting(
    spec: ViewSpec, relations: Mapping[str, Any], hosted: Iterable[ViewSpec] = ()
) -> None:
    """Raise :class:`CatalogError` unless ``relations`` can host ``spec``
    beside the ``hosted`` specs (one of ``spec``'s own name is the one
    being replaced, and ignored)."""
    definition = spec.definition
    model = model_class(definition)
    for name in definition.sources:
        if name not in relations:
            raise CatalogError(f"unknown relation {name!r}")
    source, *inners = definition.sources
    h = SimpleNamespace(**vars(spec))
    h.model, h.source = model, source
    h.plan = SelectProjectModel.plan_for(spec.strategy, spec.plan)
    if model is SelectProjectModel:
        h.index_field = spec.index_field or definition.view_key
    h.outer = relations[source]
    h.inner = relations[inners[0]] if inners else None
    rivals = (
        other for other in hosted
        if other.name != spec.name
        and other.definition.sources[1:] == tuple(inners)
        and other.definition.sources[0] != source
    )
    h.rival = next(rivals, None)
    for _name, refused, message in HOSTING:
        if refused(h):
            raise CatalogError(message.format(h=h))


def check_indexable(relation: Any) -> None:
    """Raise unless a secondary index can be kept on ``relation``."""
    if not _indexable(relation):
        raise CatalogError(_NOT_INDEXABLE)


def relation_kind_for(strategy: Strategy) -> str:
    """The plainest relation kind (the first of the engine's ``KINDS``)
    that :data:`HOSTING` accepts under a view maintained by ``strategy``."""
    for kind, (plain, differential) in KINDS.items():
        outer = SimpleNamespace(
            organisation=plain.organisation, differential=differential is not None
        )
        h = SimpleNamespace(strategy=strategy, outer=outer)
        if not any(refused(h) for _name, refused, _message in _OUTER):
            return kind
    raise CatalogError(f"no relation kind hosts {strategy}")
