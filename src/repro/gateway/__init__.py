"""The network front door: admission control before the engine.

``repro.gateway`` puts an asyncio TCP front end on a serving stack —
a single :class:`~repro.service.server.ViewServer` or a whole
:class:`~repro.cluster.router.ClusterRouter` — and makes every request
pass admission control *before* any engine work is scheduled:

* token-bucket rate limiting, global and per-client;
* per-client concurrency guards (queued + executing);
* a bounded ingress queue with explicit backpressure — the queue
  rejects instead of growing, so overload can never build an unbounded
  latency mountain behind the socket;
* deadline propagation — a request that waited past its budget is
  expired without touching the engine;
* a dead-letter log recording every rejected or expired request with a
  machine-readable label.

The wire protocol reuses the cluster's length-prefixed JSON framing
(:mod:`repro.cluster.rpc` conventions); see ``docs/gateway.md``.
"""

from .admission import (
    EXPIRED,
    REJECTED_CONCURRENCY,
    REJECTED_QUEUE_FULL,
    REJECTED_RATE,
    REJECTION_LABELS,
    AdmissionConfig,
    AdmissionController,
    BoundedQueue,
    ConcurrencyGuard,
    DeadLetterLog,
    TokenBucket,
)
from .client import AsyncGatewayClient, GatewayCallError, call_once
from .protocol import GATEWAY_PROTOCOL, FrameParser, pack_frame
from .server import (
    Backend,
    ClusterBackend,
    GatewayConfig,
    GatewayError,
    GatewayHandle,
    GatewayServer,
    ViewServerBackend,
)

__all__ = [
    "EXPIRED",
    "REJECTED_CONCURRENCY",
    "REJECTED_QUEUE_FULL",
    "REJECTED_RATE",
    "REJECTION_LABELS",
    "AdmissionConfig",
    "AdmissionController",
    "AsyncGatewayClient",
    "Backend",
    "BoundedQueue",
    "ClusterBackend",
    "ConcurrencyGuard",
    "DeadLetterLog",
    "FrameParser",
    "GATEWAY_PROTOCOL",
    "GatewayCallError",
    "GatewayConfig",
    "GatewayError",
    "GatewayHandle",
    "GatewayServer",
    "TokenBucket",
    "ViewServerBackend",
    "call_once",
    "pack_frame",
]
