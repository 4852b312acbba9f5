"""A serving stack described as data: the spec, its builder, the demo.

A *spec* is a plain JSON-able dict (engine sizing, relations with their
records, view documents with strategy and policy, durability) and every
placement is stood up from it: :func:`build_server` in this process,
:meth:`repro.cluster.router.ClusterRouter.launch` over N shard workers
that each call :func:`build_server` on their slice, the gateway in front
of either.  ``docs/service.md`` ("Standing a stack up") lists the keys.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Mapping

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.durability.codec import decode_definition
from repro.durability.manager import DurabilityManager
from repro.engine.database import Database
from repro.resilience.faults import FaultProfile
from repro.resilience.policy import ResilienceConfig
from repro.storage.tuples import Schema
from .cache import QueryResultCache
from .catalog import ViewDefinition
from .router import AdaptiveRouter
from .scheduler import RefreshPolicy
from .server import ViewServer

__all__ = ["DOMAIN", "build_server", "definition_of", "demo_spec", "schema_of"]

#: Partition-field domain of the cluster-shaped demo relation.
DOMAIN = 1600


def definition_of(view: Mapping[str, Any]) -> ViewDefinition:
    """Decode one spec view document through the durability codec.

    The spec spells the tag ``type`` and may give the predicate as a
    bare ``{field, lo, hi, selectivity}`` interval or ``None`` (always
    true); anything the WAL can journal passes in the codec's own
    spelling.  Keys a view type does not need are ignored.
    """
    doc = dict(view, t=view.get("type"))
    predicate = view.get("predicate")
    if predicate is None:
        doc["predicate"] = {"t": "true"}
    elif "t" not in predicate:
        doc["predicate"] = {"t": "interval", **predicate}
    return decode_definition(doc)


def schema_of(rel: Mapping[str, Any]) -> Schema:
    """The schema of one spec relation document."""
    return Schema(
        rel["name"], tuple(rel["fields"]), rel["key_field"],
        tuple_bytes=int(rel.get("tuple_bytes", 100)),
    )


def build_server(
    spec: Mapping[str, Any],
    params: Parameters | None = None,
    router: AdaptiveRouter | None = None,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
) -> ViewServer:
    """Materialize the serving stack a spec describes, in this process.

    The engine keys are spelled as :meth:`Database.engine_config` emits
    them.  Runtime policy is passed beside the spec, as for
    :meth:`ViewServer.open`: views adapt exactly when a ``router`` is
    given, and faults come back *disarmed* (arm them after the
    bootstrap).  With a ``state_dir`` the server is journaled from here
    on, behind a baseline checkpoint that holds the bootstrap.
    """
    database = Database(
        buffer_pages=int(spec.get("buffer_pages", 256)),
        cold_operations=bool(spec.get("cold_operations", False)),
        fault_profile=fault_profile,
        resilience=resilience,
    )
    for rel in spec.get("relations", ()):
        schema = schema_of(rel)
        records = [schema.new_record(**values) for values in rel.get("records", ())]
        database.create_relation(
            schema, rel["clustered_on"], kind=rel.get("kind", "hypothetical"),
            records=records, ad_buckets=int(rel.get("ad_buckets", 2)),
        )
    server = ViewServer(
        database,
        params=params,
        router=router,
        cache=QueryResultCache() if spec.get("cache") else None,
        pacing=float(spec.get("pacing", 0.0)),
        lock_timeout=spec.get("lock_timeout", 30.0),
    )
    for view in spec.get("views", ()):
        server.register_view(
            definition_of(view), Strategy(view["strategy"]),
            adaptive=router is not None,
            policy=RefreshPolicy.from_doc(view.get("policy")),
        )
    if spec.get("state_dir") is not None:
        server.attach_durability(
            DurabilityManager(Path(spec["state_dir"])),
            checkpoint_every=spec.get("checkpoint_every"),
        )
        server.checkpoint()
    return server


def demo_spec(
    n_records: int | None = None,
    strategy: str = "deferred",
    pacing: float = 0.0,
    seed: int | None = None,
    state_dir: str | None = None,
    checkpoint_every: int | None = None,
    domain: int | None = None,
    view_bound: int | None = None,
    serving: bool = False,
) -> dict[str, Any]:
    """The demo stack: ``r(id, a, v)``, a tuple view keyed on ``a``, a ``sum(v)``.

    Both views cover ``a < view_bound`` of ``[0, domain)``.  Committed
    numbers are pinned to two shapes, drawn identically from the
    arguments: the *cluster* shape (``by_a``/``total`` over the whole
    domain, warm pool; 480 records over :data:`DOMAIN`, seed 17) and,
    with ``serving``, the single-server one (``v_tuples``/``v_total``
    over ``a < 100`` of ``[0, 1000)``, ``(id, a)`` projected, the cost
    model's cold cache per operation; 2000 records, seed 7).  ``None``
    takes the shape's own size, seed, domain and bound.
    """
    names, projection, values, ad_buckets, sizes = (
        (("v_tuples", "v_total"), ["id", "a"], 10_000, 4, (2000, 7, 1000, 100))
        if serving else
        (("by_a", "total"), ["id", "a", "v"], 100, 2, (480, 17, DOMAIN, None))
    )
    n_records, seed, domain, view_bound = (
        default if given is None else given
        for given, default in zip((n_records, seed, domain, view_bound), sizes)
    )
    view_bound = view_bound or domain
    rng = random.Random(seed)
    records = [
        {"id": i, "a": rng.randrange(domain), "v": rng.randrange(values)}
        for i in range(n_records)
    ]
    view = {
        "relation": "r",
        "predicate": {"field": "a", "lo": 0, "hi": view_bound - 1,
                      "selectivity": view_bound / domain},
        "strategy": strategy,
        "policy": None,
    }
    return {
        "buffer_pages": 256,
        "cold_operations": serving,
        "cache": False,
        "pacing": pacing,
        "lock_timeout": 30.0,
        "state_dir": state_dir,
        "checkpoint_every": checkpoint_every,
        "relations": [{
            "name": "r", "fields": ["id", "a", "v"], "key_field": "id",
            "tuple_bytes": 100, "clustered_on": "a", "kind": "hypothetical",
            "ad_buckets": ad_buckets, "records": records,
        }],
        "views": [
            {"type": "select_project", "name": names[0], **view,
             "projection": projection, "view_key": "a"},
            {"type": "aggregate", "name": names[1], **view,
             "aggregate": "sum", "field": "v"},
        ],
    }
