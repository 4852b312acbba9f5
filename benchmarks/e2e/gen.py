"""Seeded inputs of the end-to-end benchmark: data, op streams, answers.

``--seed`` is the only source of randomness.  :func:`make_inputs` draws
the base data and one closed-loop op stream per client, and replays the
stream against :class:`Model` — a dict-based recomputation of every view
from the base tuples — to get the answer each query must return.  The
system under test receives only the generated records and ops; nothing
here imports ``repro``.

Op kinds are dealt from small shuffled decks with exact proportions
rather than drawn per op, in an order that belongs to the workload and
not to the seed: every seed runs the same sequence of queries, updates
and moves, and a deferred view is queried with the same number of
updates pending.  Seeds differ in data, keys, values and ranges, so
their end-to-end numbers measure the same work.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["SHAPES", "WARMUP_SHARE", "Inputs", "Model", "Query", "Shape",
           "Stream", "View", "make_inputs"]

#: Leading share of each stream that runs untimed (pool fill, lazy
#: imports, first refresh); its answers are still checked.
WARMUP_SHARE = 0.05


@dataclass(frozen=True)
class View:
    """One hosted view: ``kind`` is ``tuples``, ``join`` or ``sum``.

    The predicate is ``lo <= a <= hi`` on the relation's clustering
    field; ``fields`` are the projected outer fields (for ``sum``, the
    one aggregated field) and ``inner_fields`` the join's inner side.
    """

    name: str
    kind: str
    relation: str
    strategy: str
    fields: tuple[str, ...]
    lo: int
    hi: int
    inner_fields: tuple[str, ...] = ()


@dataclass(frozen=True)
class Query:
    """One query class of a mix: a range of ``width`` on ``a``."""

    view: str
    width: int
    #: Snap ``lo`` to a multiple of ``width``.
    aligned: bool = False


@dataclass(frozen=True)
class Shape:
    """The data and traffic of one workload (sizes frozen, see README)."""

    #: One closed-loop client per relation; streams of distinct
    #: relations commute, so concurrent clients stay checkable.
    relations: tuple[str, ...]
    fields: tuple[str, ...]
    n: int
    #: Tuples of the hashed join inner ``s`` (0 = no inner relation).
    n_inner: int
    domain: int
    views: tuple[View, ...]
    #: One deck of op kinds as ``(card, count)``: a card is a
    #: :class:`Query`, ``"update"`` (a transaction of ``batch``
    #: operations) or ``"move"`` (a one-op transaction moving a tuple
    #: half the domain away: a cross-shard move on two range shards).
    deck: tuple[tuple[Any, int], ...]
    #: Decks per client stream.
    decks: int
    #: Operations per update transaction (the paper's ``l``).
    batch: int
    #: Deck of operation kinds inside update transactions.
    kinds: tuple[str, ...]
    #: Zipf exponent of update keys (0 = uniform).
    zipf: float
    #: Share of in-transaction updates that rewrite ``a`` instead of ``v``.
    a_change_share: float

    @property
    def ops(self) -> int:
        """Ops per client stream."""
        return self.decks * sum(count for _, count in self.deck)


def _tenant_views(rel: str, bound: int) -> tuple[View, ...]:
    return (
        View(f"{rel}_tuples", "tuples", rel, "deferred", ("id", "a", "v"), 0, bound),
        View(f"{rel}_total", "sum", rel, "immediate", ("v",), 0, bound),
    )


_SERVE_VIEWS = (
    View("v_tuples", "tuples", "r", "deferred", ("id", "a", "v"), 0, 1999),
    View("v_qm", "tuples", "r", "qm_clustered", ("id", "a", "j"), 0, 1999),
    View("v_join", "join", "r", "immediate", ("id", "a"), 0, 1999, ("j", "w")),
    View("v_total", "sum", "r", "immediate", ("v",), 0, 1999),
)

SHAPES: dict[str, Shape] = {
    # P=0.1, l=5.  Uneven query weights keep p50 and p95 inside one
    # view's latency mode instead of on the step between two.
    "serve_read_mostly": Shape(
        relations=("r",), fields=("id", "a", "j", "v"), n=20_000, n_inner=2_000,
        domain=10_000, views=_SERVE_VIEWS,
        deck=(("update", 5), (Query("v_tuples", 20), 18), (Query("v_qm", 20), 9),
              (Query("v_join", 20), 9), (Query("v_total", 20), 9)),
        decks=48, batch=5, kinds=("update",), zipf=0.0, a_change_share=0.1,
    ),
    # P=0.8, l=10, 70/15/15 update/insert/delete on Zipf(1.1) keys.
    "serve_update_durable": Shape(
        relations=("r",), fields=("id", "a", "j", "v"), n=8_000, n_inner=800,
        domain=10_000, views=_SERVE_VIEWS,
        # Two in three queries read the immediate aggregate, so p50 sits
        # on that flat class and p95 in the refreshes v_tuples pays.
        deck=(("update", 24), (Query("v_tuples", 20), 2), (Query("v_total", 20), 4)),
        decks=16, batch=10,
        kinds=("update",) * 14 + ("insert",) * 3 + ("delete",) * 3,
        zipf=1.1, a_change_share=0.1,
    ),
    # P=0.2, l=1, answers of a few tuples.
    "gateway_point": Shape(
        relations=("ra", "rb"), fields=("id", "a", "v"), n=2_000, n_inner=0,
        domain=2_000,
        views=_tenant_views("ra", 1999) + _tenant_views("rb", 1999),
        deck=(("update", 4), (Query("{rel}_tuples", 5), 12),
              (Query("{rel}_total", 5), 4)),
        decks=30, batch=1, kinds=("update",), zipf=0.0, a_change_share=0.0,
    ),
    # 40% chunk queries (aligned, so they never straddle the two range
    # shards), 20% scatter-gather totals, 35% updates l=5, 5% moves.
    "cluster_scatter": Shape(
        relations=("r",), fields=("id", "a", "v"), n=8_000, n_inner=0,
        domain=1_600,
        views=(View("by_a", "tuples", "r", "deferred", ("id", "a", "v"), 0, 1599),
               View("total", "sum", "r", "deferred", ("v",), 0, 1599)),
        deck=(("update", 7), ("move", 1), (Query("by_a", 100, aligned=True), 8),
              (Query("total", 100), 4)),
        decks=24, batch=5, kinds=("update",), zipf=0.0, a_change_share=0.0,
    ),
}


class Model:
    """The oracle: every view recomputed from a dict of base tuples."""

    def __init__(
        self,
        views: tuple[View, ...],
        records: dict[str, list[dict[str, Any]]],
        inner: list[dict[str, Any]],
    ) -> None:
        self.views = {view.name: view for view in views}
        self.rows = {rel: {row["id"]: dict(row) for row in rows}
                     for rel, rows in records.items()}
        self.inner = {row["j"]: row for row in inner}
        #: relation -> a -> ids, so a range query touches only its range.
        self.by_a: dict[str, dict[int, set[int]]] = {}
        for rel, rows in self.rows.items():
            index: dict[int, set[int]] = {}
            for key, row in rows.items():
                index.setdefault(row["a"], set()).add(key)
            self.by_a[rel] = index
        self.sums = {
            view.name: sum(row[view.fields[0]]
                           for row in self.rows[view.relation].values()
                           if view.lo <= row["a"] <= view.hi)
            for view in views if view.kind == "sum"
        }

    def _place(self, rel: str, row: dict[str, Any], sign: int) -> None:
        ids = self.by_a[rel].setdefault(row["a"], set())
        if sign > 0:
            ids.add(row["id"])
        else:
            ids.discard(row["id"])
        for view in self.views.values():
            if (view.kind == "sum" and view.relation == rel
                    and view.lo <= row["a"] <= view.hi):
                self.sums[view.name] += sign * row[view.fields[0]]

    def apply(self, rel: str, docs: list[dict[str, Any]]) -> None:
        rows = self.rows[rel]
        for doc in docs:
            if doc["kind"] == "insert":
                row = dict(doc["values"])
                rows[row["id"]] = row
                self._place(rel, row, +1)
            elif doc["kind"] == "delete":
                self._place(rel, rows.pop(doc["key"]), -1)
            else:
                row = rows[doc["key"]]
                self._place(rel, row, -1)
                row.update(doc["changes"])
                self._place(rel, row, +1)

    def answer(self, name: str, lo: int | None, hi: int | None) -> Any:
        """Sorted projected tuples of ``[lo, hi]``, or the aggregate."""
        view = self.views[name]
        if view.kind == "sum":
            return self.sums[name]
        lo = view.lo if lo is None else max(lo, view.lo)
        hi = view.hi if hi is None else min(hi, view.hi)
        rows, index = self.rows[view.relation], self.by_a[view.relation]
        out = []
        for a in range(lo, hi + 1):
            for key in index.get(a, ()):
                row = rows[key]
                values = tuple(row[f] for f in view.fields)
                if view.kind == "join":
                    match = self.inner.get(row["j"])
                    if match is None:
                        continue
                    values += tuple(match[f] for f in view.inner_fields)
                out.append(values)
        out.sort()
        return out


@dataclass
class Stream:
    """One client's ops with the answer each query must return.

    An op is ``("q", view, lo, hi)`` or ``("u", relation, op_docs)``
    with ``op_docs`` in the cluster wire encoding; ``expected[i]`` is
    ``None`` for updates.
    """

    client: str
    ops: list[tuple] = field(default_factory=list)
    expected: list[Any] = field(default_factory=list)
    #: Whole-view answers after the last op: ``(view, answer)``.
    final: list[tuple[str, Any]] = field(default_factory=list)


@dataclass
class Inputs:
    shape: Shape
    records: dict[str, list[dict[str, Any]]]
    inner: list[dict[str, Any]]
    streams: list[Stream]


def _deck(rng: random.Random, cards: list[Any]):
    """Deal ``cards`` in shuffled order, reshuffling when exhausted."""
    while True:
        rng.shuffle(cards)
        yield from cards


def _op_kinds(stream: str, shape: Shape) -> list[Any]:
    """The stream's op sequence: ``shape.decks`` decks, each shuffled.

    The shuffle is seeded by the stream's name, not by ``--seed``:
    which op is a query of which view, and how many updates it finds
    pending, is part of the workload's definition, so the same ops
    make up p50 and p95 under every seed.
    """
    cards = [card for card, count in shape.deck for _ in range(count)]
    return list(itertools.islice(_deck(random.Random(stream), cards), shape.ops))


class _Keys:
    """Live keys of one relation: O(1) uniform draw, Zipf draw, churn."""

    def __init__(self, n: int, zipf: float, rng: random.Random) -> None:
        self.rng = rng
        self.live = list(range(n))
        self.slot = {key: key for key in self.live}
        self.dead: list[int] = []
        self.next_id = n
        #: Zipf rank -> key through a seeded permutation of initial ids.
        self.ranked = self.live[:]
        rng.shuffle(self.ranked)
        self.cum = (list(itertools.accumulate(
            (rank + 1) ** -zipf for rank in range(n))) if zipf else None)

    def draw(self) -> int:
        if self.cum is None:
            return self.rng.choice(self.live)
        while True:
            pick = self.rng.random() * self.cum[-1]
            key = self.ranked[bisect.bisect_left(self.cum, pick)]
            if key in self.slot:
                return key

    def remove(self) -> int:
        key = self.draw()
        at, last = self.slot.pop(key), self.live.pop()
        if last != key:
            self.live[at] = last
            self.slot[last] = at
        self.dead.append(key)
        return key

    def add(self) -> int:
        # Half the inserts bring back a deleted key: churn on one key
        # is where net-change toggling breaks first.
        if self.dead and self.rng.random() < 0.5:
            key = self.dead.pop(self.rng.randrange(len(self.dead)))
        else:
            key, self.next_id = self.next_id, self.next_id + 1
        self.slot[key] = len(self.live)
        self.live.append(key)
        return key


def _new_row(shape: Shape, rng: random.Random, key: int) -> dict[str, Any]:
    row = {"id": key, "a": rng.randrange(shape.domain), "v": rng.randrange(1000)}
    if "j" in shape.fields:
        row["j"] = rng.randrange(shape.n_inner)
    return row


def _stream(
    workload: str, shape: Shape, rel: str, rng: random.Random, model: Model
) -> Stream:
    stream = Stream(client=f"c-{rel}")
    keys = _Keys(shape.n, shape.zipf, rng)
    in_txn = _deck(rng, list(shape.kinds))
    rewrites_a = _deck(rng, [i < round(20 * shape.a_change_share) for i in range(20)])
    views = {v.name: v for v in shape.views}
    for kind in _op_kinds(f"{workload}/{rel}", shape):
        if isinstance(kind, Query):
            name = kind.view.format(rel=rel)
            view = views[name]
            if kind.aligned:
                lo = view.lo + kind.width * rng.randrange(
                    (view.hi - view.lo + 1) // kind.width)
            else:
                lo = rng.randrange(view.lo, view.hi - kind.width + 2)
            hi = lo + kind.width - 1
            stream.ops.append(("q", name, lo, hi))
            stream.expected.append(model.answer(name, lo, hi))
            continue
        docs: list[dict[str, Any]] = []
        if kind == "move":
            key = keys.draw()
            target = (model.rows[rel][key]["a"] + shape.domain // 2) % shape.domain
            docs.append({"kind": "update", "key": key, "changes": {"a": target}})
        for _ in range(shape.batch if kind == "update" else 0):
            what = next(in_txn)
            if what == "insert":
                docs.append({"kind": "insert",
                             "values": _new_row(shape, rng, keys.add())})
            elif what == "delete":
                docs.append({"kind": "delete", "key": keys.remove()})
            elif next(rewrites_a):
                docs.append({"kind": "update", "key": keys.draw(),
                             "changes": {"a": rng.randrange(shape.domain)}})
            else:
                docs.append({"kind": "update", "key": keys.draw(),
                             "changes": {"v": rng.randrange(1000)}})
        stream.ops.append(("u", rel, docs))
        stream.expected.append(None)
        model.apply(rel, docs)
    stream.final = [(v.name, model.answer(v.name, None, None))
                    for v in shape.views if v.relation == rel]
    return stream


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """Everything one run feeds the system; same seed, same inputs.

    ``scale`` shrinks data and stream length together (smoke tests and
    ``--self-test`` only; the benchmark itself always runs at 1.0).
    """
    shape = SHAPES[workload]
    if scale != 1.0:
        shape = replace(
            shape, n=max(200, int(shape.n * scale)),
            n_inner=max(20, int(shape.n_inner * scale)) if shape.n_inner else 0,
            decks=max(2, int(shape.decks * scale)))
    rng = random.Random(f"{workload}:{seed}")
    records = {rel: [_new_row(shape, rng, key) for key in range(shape.n)]
               for rel in shape.relations}
    inner = [{"j": j, "w": rng.randrange(1000)} for j in range(shape.n_inner)]
    model = Model(shape.views, records, inner)
    streams = [_stream(workload, shape, rel, rng, model)
               for rel in shape.relations]
    return Inputs(shape, records, inner, streams)
