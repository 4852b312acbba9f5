"""The partitioning layer: which shard owns which tuples.

A :class:`ShardMap` assigns base-relation tuples to ``n_shards`` shard
workers by the value of one *partition field*.  Two schemes:

* ``"range"`` — explicit sorted cut points over the partition field's
  domain; shard ``i`` owns ``[bounds[i-1], bounds[i])``.  Range
  queries on the partition field prune to the shards whose interval
  they intersect, which is what makes single-shard routing possible.
* ``"hash"`` — a consistent-hash ring with ``replicas`` virtual nodes
  per shard (stable MD5 hashing, so placement is identical across
  processes and Python hash seeds).  Point lookups route to one shard;
  range queries always scatter.

The map is **versioned and serializable**: ``to_dict()`` documents
carry a placement, and a rebalance produces a *new* map with
``version + 1`` (placement never mutates in place).  No request carries
the version, so nothing detects a router routing under a stale map.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["ShardMap", "ShardMapError"]


class ShardMapError(ValueError):
    """An invalid shard map (bad scheme, bounds, or document)."""


def _stable_hash(value: Any) -> int:
    """A process-stable 64-bit hash of a partition value."""
    digest = hashlib.md5(repr(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ShardMap:
    """Versioned assignment of partition-field values to shards."""

    scheme: str  # "range" | "hash"
    n_shards: int
    #: The base-relation field whose value places a tuple.
    partition_field: str
    #: Range scheme only: sorted cut points, ``len == n_shards - 1``.
    bounds: tuple[Any, ...] = ()
    #: Hash scheme only: virtual nodes per shard on the ring.
    replicas: int = 64
    version: int = 1
    #: Hash scheme only: the sorted ring, derived deterministically.
    _ring: tuple[tuple[int, int], ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scheme not in ("range", "hash"):
            raise ShardMapError(f"unknown scheme {self.scheme!r}")
        if self.n_shards < 1:
            raise ShardMapError(f"need >= 1 shard, got {self.n_shards}")
        if self.version < 1:
            raise ShardMapError(f"version must be >= 1, got {self.version}")
        if self.scheme == "range":
            if len(self.bounds) != self.n_shards - 1:
                raise ShardMapError(
                    f"range map over {self.n_shards} shards needs "
                    f"{self.n_shards - 1} cut points, got {len(self.bounds)}"
                )
            if list(self.bounds) != sorted(self.bounds):
                raise ShardMapError(f"cut points must be sorted: {self.bounds!r}")
        else:
            if self.replicas < 1:
                raise ShardMapError(f"replicas must be >= 1, got {self.replicas}")
            ring = sorted(
                (_stable_hash(f"{shard}:{replica}"), shard)
                for shard in range(self.n_shards)
                for replica in range(self.replicas)
            )
            object.__setattr__(self, "_ring", tuple(ring))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def ranged(
        cls, partition_field: str, lo: float, hi: float, n_shards: int
    ) -> "ShardMap":
        """Even cut points over ``[lo, hi)`` (numeric domains)."""
        if hi <= lo:
            raise ShardMapError(f"empty domain [{lo}, {hi})")
        width = (hi - lo) / n_shards
        bounds = tuple(
            int(lo + width * i) if float(lo + width * i).is_integer()
            else lo + width * i
            for i in range(1, n_shards)
        )
        return cls("range", n_shards, partition_field, bounds=bounds)

    @classmethod
    def hashed(
        cls, partition_field: str, n_shards: int, replicas: int = 64
    ) -> "ShardMap":
        return cls("hash", n_shards, partition_field, replicas=replicas)

    def rebalanced(self, bounds: tuple[Any, ...]) -> "ShardMap":
        """A new range placement at ``version + 1`` (same shard count)."""
        if self.scheme != "range":
            raise ShardMapError("only range maps can move cut points")
        return replace(self, bounds=tuple(bounds), version=self.version + 1)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def shard_of(self, value: Any) -> int:
        """The shard owning one partition-field value."""
        if self.scheme == "range":
            return bisect_right(self.bounds, value)
        target = _stable_hash(value)
        index = bisect_left(self._ring, (target, -1))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def shards_for_range(self, lo: Any = None, hi: Any = None) -> tuple[int, ...]:
        """Shards that may hold values in ``[lo, hi]`` (both inclusive;
        ``None`` bounds are unbounded).  Hash placement cannot prune, so
        it returns every shard."""
        if self.scheme != "range":
            return self.all_shards()
        first = 0 if lo is None else bisect_right(self.bounds, lo)
        last = self.n_shards - 1 if hi is None else bisect_right(self.bounds, hi)
        if hi is not None and lo is not None and hi < lo:
            return ()
        return tuple(range(first, last + 1))

    def all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.n_shards))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "scheme": self.scheme,
            "n_shards": self.n_shards,
            "partition_field": self.partition_field,
            "version": self.version,
        }
        if self.scheme == "range":
            doc["bounds"] = list(self.bounds)
        else:
            doc["replicas"] = self.replicas
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ShardMap":
        try:
            scheme = doc["scheme"]
            return cls(
                scheme=scheme,
                n_shards=int(doc["n_shards"]),
                partition_field=doc["partition_field"],
                bounds=tuple(doc.get("bounds", ())),
                replicas=int(doc.get("replicas", 64)),
                version=int(doc.get("version", 1)),
            )
        except (KeyError, TypeError) as exc:
            raise ShardMapError(f"bad shard map document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ShardMap":
        return cls.from_dict(json.loads(text))
