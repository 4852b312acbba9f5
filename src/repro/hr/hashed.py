"""Hypothetical relation over hash-clustered storage (deferred ``R2``).

The paper's Model 2 never updates the join inner relation, so its
hypothetical-relation machinery is defined only for the B+-tree-
clustered outer.  This extension applies the same Section 2.2 design to
a hash-clustered relation: base hash file + combined ``AD`` differential
file + Bloom filter, with the identical 3-I/O update protocol, net-
change computation and fold-down reset.  It is what lets
:class:`~repro.maintenance.models.JoinModel` accept deferred updates
on *both* sides of the join.

The relation must be hashed on its key field (the paper's natural join
joins to a key of ``R2``), so probes by join value and reads by key are
the same operation.
"""

from __future__ import annotations

from typing import Any

from repro.storage.tuples import Record
from .differential import DifferentialRelation, HashedRelation

__all__ = ["HashedHypotheticalRelation"]


class HashedHypotheticalRelation(DifferentialRelation):
    """``R2`` as base hash file + AD differential file + Bloom filter."""

    def __init__(
        self,
        base: HashedRelation,
        bloom_bits: int = 4096,
        ad_buckets: int = 8,
    ) -> None:
        if base.hashed_on != base.schema.key_field:
            raise ValueError(
                "a hashed hypothetical relation must be hashed on its key "
                f"field ({base.schema.key_field!r}), got {base.hashed_on!r}"
            )
        super().__init__(base, bloom_bits=bloom_bits, ad_buckets=ad_buckets)

    def __len__(self) -> int:
        return len(self.logical_snapshot())

    def probe(self, value: Any) -> list[Record]:
        """Current-state probe by the hash/join field (= the key)."""
        current = self.read_by_key(value)
        return [current] if current is not None else []

    def probe_base(self, value: Any) -> list[Record]:
        """Probe the *pre-batch* state: the base file only.

        This is the ``R2_old`` term of the telescoped two-sided
        differential update.
        """
        return self.base.probe(value)
