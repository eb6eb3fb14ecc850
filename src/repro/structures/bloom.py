"""Bloom filters with cardinality estimation.

The paper's duplication score (§7.2) needs the number of distinct values
in an attribute (combination), but computing it exactly for every
violating-FD candidate is expensive.  The authors "create a Bloom filter
for each attribute and use their false positive probabilities to
efficiently estimate the number of unique values".  This module
implements exactly that: a fixed-size bit array, ``k`` double-hashing
probes per item, and the standard fill-ratio estimator

    n̂ = -(m / k) · ln(1 - X / m)

where ``m`` is the bit count and ``X`` the number of set bits
(Swamidass & Baldi 2007).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from typing import Any

__all__ = ["BloomFilter"]


def _probe_positions(text: str, num_bits: int, num_hashes: int) -> list[int]:
    """Bit positions ``(h1 + i·h2) mod num_bits`` for ``i < num_hashes``.

    ``h1`` and ``h2 | 1`` are the little-endian halves of the 16-byte
    blake2b digest of ``text``, an item's ``repr``.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return [(h1 + probe * h2) % num_bits for probe in range(num_hashes)]


class BloomFilter:
    """A classic Bloom filter over hashable/stringable items."""

    __slots__ = ("num_bits", "num_hashes", "_bits", "_num_added")

    def __init__(self, num_bits: int = 8192, num_hashes: int = 3) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self._num_added = 0

    @classmethod
    def with_capacity(
        cls, expected_items: int, target_fpp: float = 0.01
    ) -> "BloomFilter":
        """Size a filter for ``expected_items`` at the given false-positive rate."""
        expected_items = max(1, expected_items)
        if not 0.0 < target_fpp < 1.0:
            raise ValueError("target_fpp must be in (0, 1)")
        num_bits = max(
            64, int(-expected_items * math.log(target_fpp) / (math.log(2) ** 2))
        )
        num_hashes = max(1, round(num_bits / expected_items * math.log(2)))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    # ------------------------------------------------------------------
    # Hashing: double hashing from one blake2b digest
    # ------------------------------------------------------------------
    def _positions(self, item: Any) -> list[int]:
        return _probe_positions(repr(item), self.num_bits, self.num_hashes)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def add(self, item: Any) -> None:
        self.add_reprs((repr(item),))

    def add_reprs(self, texts: Sequence[str]) -> None:
        """Add every item given by its ``repr`` string.

        Sets exactly the bits ``add(item)`` sets for each item.  A
        filter's bits depend only on the *set* of distinct reprs added,
        so callers may deduplicate first and hash each distinct item
        once.
        """
        bits, num_bits, num_hashes = self._bits, self.num_bits, self.num_hashes
        for text in texts:
            for position in _probe_positions(text, num_bits, num_hashes):
                bits[position >> 3] |= 1 << (position & 7)
        self._num_added += len(texts)

    def __contains__(self, item: Any) -> bool:
        return all(
            self._bits[position >> 3] >> (position & 7) & 1
            for position in self._positions(item)
        )

    @property
    def num_added(self) -> int:
        """Number of items added, duplicates included."""
        return self._num_added

    def bits_set(self) -> int:
        """Number of set bits in the filter."""
        return int.from_bytes(self._bits, "little").bit_count()

    def fill_ratio(self) -> float:
        return self.bits_set() / self.num_bits

    def false_positive_probability(self) -> float:
        """Current false-positive probability given the fill ratio."""
        return self.fill_ratio() ** self.num_hashes

    def estimated_cardinality(self) -> float:
        """Estimate the number of *distinct* items added so far.

        Uses the fill-ratio estimator; a completely full filter returns
        the best representable bound instead of infinity.
        """
        ratio = self.fill_ratio()
        if ratio >= 1.0:
            # Saturated: every distinct-count >= m/k * ln(m) is plausible;
            # return a large finite pseudo-count so scores stay ordered.
            return self.num_bits / self.num_hashes * math.log(self.num_bits)
        return -(self.num_bits / self.num_hashes) * math.log(1.0 - ratio)
