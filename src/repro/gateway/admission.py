"""Admission-control primitives: decide *before* the engine works.

Hanson's models price each query and update that runs; a production
front door must also decide which requests run at all.  The primitives
here are deliberately small and thread-safe (the gateway's event loop
admits, worker threads execute and release):

* :class:`TokenBucket` — classic rate limiter.  The hard invariant
  (property-tested) is that **any** window of ``w`` seconds admits at
  most ``rate * w + burst`` requests, regardless of arrival pattern.
* :class:`ConcurrencyGuard` — per-client in-flight cap, covering a
  request from admission to response (queued *and* executing).
* :class:`BoundedQueue` — the ingress queue.  ``try_push`` never
  blocks and never grows the queue past its cap: full means *reject
  now*, the explicit-backpressure alternative to unbounded queueing.
* :class:`DeadLetterLog` — a bounded record of every rejected or
  expired request with a machine-readable label, so shed load is
  observable instead of silently dropped.

Rejection labels are module constants; they appear on the wire, in
dead-letter records, in metrics label sets and in the experiment
reports, and they compose with the resilience layer's
:class:`~repro.resilience.degradation.DegradedResult` labels: degraded
answers are *admitted* work the engine served off the normal path,
rejections never reached the engine at all.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "REJECTED_RATE",
    "REJECTED_CONCURRENCY",
    "REJECTED_QUEUE_FULL",
    "EXPIRED",
    "REJECTION_LABELS",
    "AdmissionConfig",
    "AdmissionController",
    "BoundedQueue",
    "ConcurrencyGuard",
    "DeadLetterLog",
    "TokenBucket",
]

#: The request exceeded a token-bucket rate limit (global or per-client).
REJECTED_RATE = "rejected_rate"
#: The client already has its maximum number of requests in flight.
REJECTED_CONCURRENCY = "rejected_concurrency"
#: The bounded ingress queue is at its cap.
REJECTED_QUEUE_FULL = "rejected_queue_full"
#: The request's deadline passed before (or while) the engine served it.
EXPIRED = "expired"

#: Every label a request can be dead-lettered under.
REJECTION_LABELS = (
    REJECTED_RATE,
    REJECTED_CONCURRENCY,
    REJECTED_QUEUE_FULL,
    EXPIRED,
)


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s, ``burst`` deep.

    The bucket starts full.  ``try_acquire`` consumes one token when
    available and never blocks.  ``clock`` is injectable so the window
    invariant can be property-tested on a fake clock.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/s, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1 token, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._mutex = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; ``False`` means rate-reject."""
        with self._mutex:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (refilled to now)."""
        with self._mutex:
            self._refill(self._clock())
            return self._tokens


class ConcurrencyGuard:
    """Per-client in-flight caps: admission acquires, completion releases."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"concurrency limit must be >= 1, got {limit}")
        self.limit = limit
        self._inflight: dict[str, int] = {}
        self._mutex = threading.Lock()

    def try_acquire(self, client: str) -> bool:
        with self._mutex:
            held = self._inflight.get(client, 0)
            if held >= self.limit:
                return False
            self._inflight[client] = held + 1
            return True

    def release(self, client: str) -> None:
        with self._mutex:
            held = self._inflight.get(client, 0)
            if held <= 1:
                self._inflight.pop(client, None)
            else:
                self._inflight[client] = held - 1

    def inflight(self, client: str) -> int:
        with self._mutex:
            return self._inflight.get(client, 0)

    def total_inflight(self) -> int:
        with self._mutex:
            return sum(self._inflight.values())


class BoundedQueue:
    """A strictly bounded MPMC queue with non-blocking producers.

    ``try_push`` either enqueues and returns ``True`` or returns
    ``False`` immediately — producers are never parked, which is what
    turns overload into *rejections* instead of latency.  ``depth``
    never exceeds ``cap`` (the flood property test pounds on this), and
    ``peak`` records the high-water mark for the overload reports.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError(f"queue cap must be >= 1, got {cap}")
        self.cap = cap
        self._items: deque[Any] = deque()
        self._mutex = threading.Lock()
        self._ready = threading.Condition(self._mutex)
        self._peak = 0
        self._pushed = 0
        self._rejected = 0

    def try_push(self, item: Any) -> bool:
        with self._ready:
            if len(self._items) >= self.cap:
                self._rejected += 1
                return False
            self._items.append(item)
            self._pushed += 1
            self._peak = max(self._peak, len(self._items))
            self._ready.notify()
            return True

    def pop(self, timeout: float | None = None) -> Any | None:
        """Blocking pop; ``None`` when ``timeout`` elapses empty."""
        with self._ready:
            if not self._items and not self._ready.wait_for(
                lambda: bool(self._items), timeout=timeout
            ):
                return None
            return self._items.popleft()

    @property
    def depth(self) -> int:
        with self._mutex:
            return len(self._items)

    @property
    def peak(self) -> int:
        with self._mutex:
            return self._peak

    def stats(self) -> dict[str, int]:
        with self._mutex:
            return {
                "cap": self.cap,
                "depth": len(self._items),
                "peak": self._peak,
                "pushed": self._pushed,
                "rejected": self._rejected,
            }


@dataclass(frozen=True)
class DeadLetter:
    """One rejected or expired request, as recorded."""

    seq: int
    label: str
    client: str
    op: str
    detail: str = ""
    waited_ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "label": self.label,
            "client": self.client,
            "op": self.op,
            "detail": self.detail,
            "waited_ms": round(self.waited_ms, 3),
        }


class DeadLetterLog:
    """Bounded ring of dead letters plus exact per-label totals.

    The ring keeps the most recent ``cap`` records for inspection; the
    counters are never truncated, so rejection totals in reports stay
    exact even when the ring has wrapped.
    """

    def __init__(self, cap: int = 2048) -> None:
        if cap < 1:
            raise ValueError(f"dead-letter cap must be >= 1, got {cap}")
        self._ring: deque[DeadLetter] = deque(maxlen=cap)
        self._counts: dict[str, int] = {}
        self._seq = 0
        self._mutex = threading.Lock()

    def record(
        self, label: str, client: str, op: str,
        detail: str = "", waited_ms: float = 0.0,
    ) -> DeadLetter:
        if label not in REJECTION_LABELS:
            raise ValueError(f"unknown rejection label {label!r}")
        with self._mutex:
            self._seq += 1
            letter = DeadLetter(self._seq, label, client, op, detail, waited_ms)
            self._ring.append(letter)
            self._counts[label] = self._counts.get(label, 0) + 1
            return letter

    def counts(self) -> dict[str, int]:
        with self._mutex:
            return dict(self._counts)

    def total(self) -> int:
        with self._mutex:
            return sum(self._counts.values())

    def records(self) -> tuple[DeadLetter, ...]:
        with self._mutex:
            return tuple(self._ring)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self.records())


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission pipeline (see ``docs/gateway.md``).

    ``None`` disables a stage.  Stage order per request: per-client
    rate, global rate, per-client concurrency, ingress queue — the
    cheap stateless checks run first, so a rate-rejected flood never
    touches the concurrency table or the queue.
    """

    #: Global token-bucket rate (requests/s) and burst depth.
    global_rate: float | None = None
    global_burst: int = 64
    #: Per-client token-bucket rate (requests/s) and burst depth.
    client_rate: float | None = None
    client_burst: int = 16
    #: Per-client in-flight cap (queued + executing).
    client_concurrency: int | None = 32
    #: Ingress queue cap: requests admitted but not yet executing.
    max_queue: int = 64
    #: Default deadline budget (wall ms) when a request names none.
    default_deadline_ms: float | None = None


@dataclass
class _Decision:
    """What the controller decided for one request."""

    admitted: bool
    label: str | None = None
    detail: str = ""


@dataclass
class AdmissionController:
    """The full admission pipeline in front of the ingress queue.

    ``admit`` runs the rate and concurrency stages and returns a
    decision; the caller then pushes to :attr:`queue` itself (so it
    can attach its own payload) and must call :meth:`release` exactly
    once per admitted request when the response is finished — that is
    what returns the client's concurrency slot.
    """

    config: AdmissionConfig = field(default_factory=AdmissionConfig)
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        cfg = self.config
        self.global_bucket = (
            TokenBucket(cfg.global_rate, cfg.global_burst, clock=self.clock)
            if cfg.global_rate is not None else None
        )
        self._client_buckets: dict[str, TokenBucket] = {}
        self._buckets_mutex = threading.Lock()
        self.guard = (
            ConcurrencyGuard(cfg.client_concurrency)
            if cfg.client_concurrency is not None else None
        )
        self.queue = BoundedQueue(cfg.max_queue)
        self.dead_letters = DeadLetterLog()

    def _client_bucket(self, client: str) -> TokenBucket | None:
        cfg = self.config
        if cfg.client_rate is None:
            return None
        with self._buckets_mutex:
            bucket = self._client_buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(
                    cfg.client_rate, cfg.client_burst, clock=self.clock
                )
                self._client_buckets[client] = bucket
            return bucket

    def admit(self, client: str) -> _Decision:
        bucket = self._client_bucket(client)
        if bucket is not None and not bucket.try_acquire():
            return _Decision(False, REJECTED_RATE, f"client {client} rate limit")
        if self.global_bucket is not None and not self.global_bucket.try_acquire():
            return _Decision(False, REJECTED_RATE, "global rate limit")
        if self.guard is not None and not self.guard.try_acquire(client):
            return _Decision(
                False, REJECTED_CONCURRENCY,
                f"client {client} at {self.guard.limit} in flight",
            )
        return _Decision(True)

    def release(self, client: str) -> None:
        if self.guard is not None:
            self.guard.release(client)

    def stats(self) -> dict[str, Any]:
        return {
            "queue": self.queue.stats(),
            "dead_letters": self.dead_letters.counts(),
            "inflight": self.guard.total_inflight() if self.guard else None,
            "config": {
                "global_rate": self.config.global_rate,
                "global_burst": self.config.global_burst,
                "client_rate": self.config.client_rate,
                "client_burst": self.config.client_burst,
                "client_concurrency": self.config.client_concurrency,
                "max_queue": self.config.max_queue,
                "default_deadline_ms": self.config.default_deadline_ms,
            },
        }
