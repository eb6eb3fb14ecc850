"""The historical per-row scoring computations, kept as a test oracle.

Before duplication scores were computed from distinct rows, the
estimator built one fresh Bloom filter per queried attribute set and
hashed the ``repr`` of *every* projected row into it, and the value
score re-scanned every row per query.  This module keeps exactly that
loop — self-contained, sharing no hashing or bit-counting code with
:mod:`repro.structures.bloom` — so the production estimator can be
held to bit-identical results.
"""

from __future__ import annotations

import hashlib
import math

from repro.core.scoring import DistinctEstimator
from repro.model.attributes import bits_of
from repro.model.instance import RelationInstance
from repro.structures.bloom import BloomFilter

__all__ = [
    "OracleEstimator",
    "oracle_distinct",
    "oracle_duplication_ratio",
    "oracle_max_value_length",
]


def oracle_distinct(
    instance: RelationInstance, mask: int, num_rows: int | None = None
) -> float:
    """Bloom estimate of ``mask``'s distinct values, one row at a time.

    The filter is sized for ``num_rows`` (default: the instance's row
    count), which lets a test ask what a descendant relation of another
    size would estimate over the same values.
    """
    if num_rows is None:
        num_rows = instance.num_rows
    sizing = BloomFilter.with_capacity(max(16, num_rows))
    num_bits, num_hashes = sizing.num_bits, sizing.num_hashes
    bits = bytearray((num_bits + 7) // 8)
    columns = [instance.columns_data[i] for i in bits_of(mask)]
    for row in zip(*columns):
        digest = hashlib.blake2b(repr(row).encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for probe in range(num_hashes):
            position = (h1 + probe * h2) % num_bits
            bits[position >> 3] |= 1 << (position & 7)
    ratio = sum(bin(byte).count("1") for byte in bits) / num_bits
    if ratio >= 1.0:
        return num_bits / num_hashes * math.log(num_bits)
    return -(num_bits / num_hashes) * math.log(1.0 - ratio)


def oracle_duplication_ratio(instance: RelationInstance, mask: int) -> float:
    rows = instance.num_rows
    if rows == 0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - oracle_distinct(instance, mask) / rows))


def oracle_max_value_length(instance: RelationInstance, mask: int) -> int:
    """Longest concatenated value of ``mask``, one row at a time.

    An empty relation or mask yields 0; NULL counts as the empty string.
    """
    indices = bits_of(mask)
    if not indices or instance.num_rows == 0:
        return 0
    longest = 0
    columns = [instance.columns_data[i] for i in indices]
    for row in zip(*columns):
        length = sum(len(str(value)) for value in row if value is not None)
        if length > longest:
            longest = length
    return longest


class OracleEstimator(DistinctEstimator):
    """Drop-in :class:`DistinctEstimator` running the per-row loops.

    Ignores the lineage memo: every relation computes its own values,
    distinct counts cached per mask and max lengths re-scanned per
    query, as the estimator used to.
    """

    def distinct(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is None:
            cached = self._cache[mask] = oracle_distinct(self.instance, mask)
        return cached

    def max_value_length(self, mask: int) -> int:
        return oracle_max_value_length(self.instance, mask)
