"""The gateway wire protocol.

Same bytes and same code as the cluster's shard RPC: one JSON object
per message, preceded by a 4-byte big-endian length, with the same
frame-size cap, encoded by :func:`repro.cluster.rpc.pack_frame` and
decoded by :class:`repro.cluster.rpc.FrameParser` on both ends (they
are re-exported here).  The difference is *ordering*: shard RPC
serializes one call per connection, while the gateway pipelines —
responses carry the request's ``id`` and may arrive out of order, so
clients must demultiplex by id.

Request documents::

    {"id": N, "op": "query", "view": str, "lo": A, "hi": B,
     "client": str, "deadline_ms": F}
    {"id": N, "op": "update", "relation": str, "ops": [op-doc, ...],
     "client": str, "deadline_ms": F}
    {"id": N, "op": "ping" | "stats" | "metrics"}

``op-doc`` is the wire spelling of the one operation codec
(:func:`repro.durability.codec.encode_operation`): keys and values are
themselves when they are JSON atoms, and a tuple or list travels
tagged, ``{"t": "tuple", "items": [...]}``.  Responses::

    {"id": N, "ok": true,  "result": ...}
    {"id": N, "ok": false, "rejected": label, ...}      # shed load
    {"id": N, "ok": false, "kind": cls, "error": msg}   # engine error

A ``rejected`` response names one of the admission labels
(:data:`~repro.gateway.admission.REJECTION_LABELS`); an admitted query
result uses :func:`repro.cluster.worker.encode_answer`::

    {"kind": "rows", "fields": [name, ...], "rows": [[cell, ...], ...],
     "degraded": null | {...}}                 # "tagged": [column, ...]
    {"kind": "scalar", "value": V, "degraded": null | {...}}   # V tagged

A tuple answer is positional: ``fields`` names the columns once, each
row holds one tuple's cells in that order, and ``tagged`` (present only
when needed) lists the columns whose cells are tagged like op-doc
values, as is a scalar ``V`` (a ``min``/``max`` over a tuple-valued
field); an atom is itself.  The ``degraded`` field carries the
resilience layer's DegradedResult labels — the wire composes both
vocabularies.  The row form is what ``v2`` of the tag below names:
``v1`` sent one JSON object per tuple, which a ``v2`` reader does not
parse.
"""

from __future__ import annotations

from repro.cluster.rpc import FrameError, FrameParser, pack_frame

__all__ = ["GATEWAY_PROTOCOL", "pack_frame", "FrameParser", "FrameError"]

#: Protocol tag echoed by ``ping`` so clients can sanity-check peers.
GATEWAY_PROTOCOL = "repro.gateway/v2"
