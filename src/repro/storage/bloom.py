"""Bloom filter for differential-file screening (Section 2.2.2).

Severance & Lohman (1976) front a differential file with a Bloom
filter (Bloom 1970) so that reads of records *not* in the differential
file skip it entirely.  The paper relies on this to make the
hypothetical-relation read path cost effectively one I/O: the filter's
false-positive probability "can be made arbitrarily small by increasing
``m``".

The filter here is deterministic (seeded double hashing over Python's
stable ``hash`` of a repr) so simulation runs are reproducible.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

__all__ = ["BloomFilter", "optimal_bits", "optimal_hashes"]


def optimal_bits(expected_items: int, target_fp_rate: float) -> int:
    """Bits needed for a target false-positive rate at a given load.

    Classical sizing: ``m = -n * ln(p) / (ln 2)^2``.
    """
    if expected_items < 0:
        raise ValueError(f"expected_items must be >= 0, got {expected_items}")
    if not 0.0 < target_fp_rate < 1.0:
        raise ValueError(f"target_fp_rate must be in (0, 1), got {target_fp_rate}")
    if expected_items == 0:
        return 8
    bits = -expected_items * math.log(target_fp_rate) / (math.log(2.0) ** 2)
    return max(8, math.ceil(bits))


def optimal_hashes(bits: int, expected_items: int) -> int:
    """Hash-function count minimizing false positives: ``k = m/n * ln 2``."""
    if expected_items <= 0:
        return 1
    return max(1, round(bits / expected_items * math.log(2.0)))


class BloomFilter:
    """A fixed-size bit-array Bloom filter with double hashing.

    ``maybe_contains`` returning ``False`` is definitive; ``True`` may
    be a false positive (the paper's "false drop"), in which case the
    caller searches the differential file and discovers the miss.
    """

    def __init__(self, bits: int, hashes: int | None = None, expected_items: int = 0) -> None:
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits
        self.hashes = hashes if hashes is not None else optimal_hashes(bits, expected_items)
        if self.hashes < 1:
            raise ValueError(f"hashes must be >= 1, got {self.hashes}")
        self._array = bytearray((bits + 7) // 8)
        #: Exact number of set bits, kept by :meth:`add` and :meth:`clear`
        #: so the fill gauge never recounts the array.
        self._set_bits = 0
        self.items_added = 0
        #: Lifetime probe statistics (not reset by :meth:`clear`): a
        #: negative answer is the filter doing its job — the AD lookup
        #: it saved is the Severance & Lohman payoff the serving
        #: layer's hit-rate metric reports.
        self.probes = 0
        self.negatives = 0
        self._last: tuple[str | None, list[int]] = (None, [])

    @classmethod
    def for_load(cls, expected_items: int, target_fp_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized for a load and false-positive target."""
        bits = optimal_bits(expected_items, target_fp_rate)
        return cls(bits, expected_items=expected_items)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the filter (sizing + bit array).

        Lifetime probe statistics are deliberately excluded: they
        describe the run, not the filter's state, so a restored filter
        starts counting afresh.  Used by durability checkpoints to
        persist AD-file screens.
        """
        return {
            "bits": self.bits,
            "hashes": self.hashes,
            "items_added": self.items_added,
            "array": bytes(self._array).hex(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "BloomFilter":
        """Inverse of :meth:`to_dict`: rebuild an identical filter."""
        bloom = cls(doc["bits"], hashes=doc["hashes"])
        array = bytes.fromhex(doc["array"])
        if len(array) != len(bloom._array):
            raise ValueError(
                f"bloom array length {len(array)} does not match "
                f"{doc['bits']} bits"
            )
        bloom._array[:] = array
        bloom._set_bits = int.from_bytes(array, "little").bit_count()
        bloom.items_added = doc["items_added"]
        return bloom

    def _positions(self, item: Any) -> list[int]:
        """The item's bit positions, from the ``repr`` of the item.  The
        last item's are kept: an update probes its key and then adds it
        twice (the old and the new value), and hashes it once."""
        text = repr(item)
        last_text, positions = self._last
        if text != last_text:
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full cycle
            positions = [(h1 + i * h2) % self.bits for i in range(self.hashes)]
            self._last = (text, positions)
        return positions

    def add(self, item: Any) -> None:
        """Insert an item's key signature."""
        array = self._array
        for pos in self._positions(item):
            mask = 1 << (pos & 7)
            if not array[pos >> 3] & mask:
                array[pos >> 3] |= mask
                self._set_bits += 1
        self.items_added += 1

    def maybe_contains(self, item: Any) -> bool:
        """False => definitely absent; True => possibly present."""
        self.probes += 1
        for pos in self._positions(item):
            if not self._array[pos >> 3] & (1 << (pos & 7)):
                self.negatives += 1
                return False
        return True

    @property
    def negative_rate(self) -> float:
        """Fraction of probes answered "definitely absent" so far."""
        return self.negatives / self.probes if self.probes else 0.0

    def clear(self) -> None:
        """Reset to empty (used when the differential file is folded in)."""
        self._array[:] = bytes(len(self._array))
        self._set_bits = 0
        self.items_added = 0

    @property
    def fill_fraction(self) -> float:
        """Fraction of bits set (load indicator)."""
        return self._set_bits / self.bits

    def estimated_fp_rate(self) -> float:
        """Expected false-positive rate at the current load.

        ``(1 - e^{-k n / m})^k`` with ``n`` items added so far.
        """
        if self.items_added == 0:
            return 0.0
        exponent = -self.hashes * self.items_added / self.bits
        return (1.0 - math.exp(exponent)) ** self.hashes
