"""Core data structures: FD trees, level indexes, stripped partitions, Bloom filters.

These are the performance-critical substrates the paper relies on:

* :mod:`repro.structures.fdtree` — HyFD's positive cover as a
  level-indexed bitset lattice,
* :mod:`repro.structures.lattice_index` — the set store that answers
  the paper's "prefix tree, aka trie" subset queries over attribute
  sets on the same level-indexed layout: the per-RHS LHS stores of the
  improved/optimized closure algorithms, the key store of the
  violation detector, the UCC antichains, DFD/DUCC boundary sets and
  TANE's survivor check,
* :mod:`repro.structures.encoding` — columnar dictionary encoding of
  relation values, the shared substrate of the PLI hot path,
* :mod:`repro.structures.partitions` — stripped partitions (position
  list indexes, CSR layout) with intersection, the backbone of
  TANE/DFD/HyFD,
* :mod:`repro.structures.bloom` — Bloom filters with cardinality
  estimation for the duplication score (paper §7.2).
"""

from repro.structures.bloom import BloomFilter
from repro.structures.encoding import EncodedRelation
from repro.structures.fdtree import FDTree
from repro.structures.lattice_index import LevelIndex
from repro.structures.partitions import CacheStats, PLICache, StrippedPartition

__all__ = [
    "BloomFilter",
    "CacheStats",
    "EncodedRelation",
    "FDTree",
    "LevelIndex",
    "PLICache",
    "StrippedPartition",
]
