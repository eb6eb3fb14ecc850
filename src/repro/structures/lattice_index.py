"""Level-indexed antichain/set store for subset and superset queries.

:class:`LevelIndex` answers the paper's set-trie queries over attribute
sets ("does the store hold a subset of this mask?") on the FD-tree
lattice engine's layout: stored attribute-set bitmasks are grouped by
popcount level, each level being an insertion-ordered dict.  Subset
and superset queries become flat mask sweeps over the levels at or
below / above the query's popcount — no pointer chasing, and the level
bound prunes exactly like a trie's path pruning.  Iteration
(:meth:`LevelIndex.iter_all`, :meth:`LevelIndex.iter_subsets_of`) is in
the trie's sorted-path order.

The closure algorithms keep one store of FD LHSs per RHS attribute
(Algorithm 2 line 9, Algorithm 3 line 7), and the violation detector
keeps the derived keys in one (Algorithm 4 line 8); the UCC
discoverers, incremental cover maintenance and the 4NF checker keep
their antichains here too.  It also backs the boundary sets of the generic lattice search
(:mod:`repro.discovery.lattice` — DFD's and DUCC's ``min_sat`` /
``max_unsat``) and TANE's prefix-join survivor check, both of which
also consume the batch entry points (:meth:`contains_batch`,
:meth:`contains_all`): screening a whole candidate round against the
pre-round state in one call is sound there because each round's
candidates are pairwise distinct, so earlier insertions in the round
can never be membership hits for later candidates.

Unlike the FD-tree this store carries no RHS payload and its sets
number in the hundreds, so it stays pure Python.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.model.attributes import bits_of

__all__ = ["LevelIndex"]


class LevelIndex:
    """Stores attribute-set bitmasks; answers subset/superset queries."""

    __slots__ = ("_levels", "_size")

    def __init__(self, masks: Iterable[int] = ()) -> None:
        # level k: dict mask -> None (insertion-ordered set) of all
        # stored masks with popcount k
        self._levels: list[dict[int, None]] = []
        self._size = 0
        for mask in masks:
            self.insert(mask)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, mask: int) -> bool:
        """Insert a set; return True if it was not present before.

        The empty set (mask 0) is a valid member and is a subset of
        everything.
        """
        depth = mask.bit_count()
        levels = self._levels
        while len(levels) <= depth:
            levels.append({})
        level = levels[depth]
        if mask in level:
            return False
        level[mask] = None
        self._size += 1
        return True

    def remove(self, mask: int) -> bool:
        """Remove a set; return True if it was present."""
        depth = mask.bit_count()
        if depth >= len(self._levels):
            return False
        level = self._levels[depth]
        if mask not in level:
            return False
        del level[mask]
        self._size -= 1
        return True

    def __contains__(self, mask: int) -> bool:
        depth = mask.bit_count()
        if depth >= len(self._levels):
            return False
        return mask in self._levels[depth]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains_batch(self, masks: Iterable[int]) -> list[bool]:
        """Exact membership for every mask, against the current state."""
        return [mask in self for mask in masks]

    def contains_all(self, masks: Iterable[int]) -> bool:
        """True iff every mask is stored (short-circuits on a miss)."""
        return all(mask in self for mask in masks)

    def contains_subset_of(self, mask: int) -> bool:
        """True iff some stored set is a subset of ``mask``."""
        levels = self._levels
        top = min(mask.bit_count(), len(levels) - 1)
        outside = ~mask
        for depth in range(top + 1):
            for stored in levels[depth]:
                if stored & outside == 0:
                    return True
        return False

    def contains_proper_subset_of(self, mask: int) -> bool:
        """True iff some stored set is a *proper* subset of ``mask``."""
        levels = self._levels
        top = min(mask.bit_count() - 1, len(levels) - 1)
        outside = ~mask
        for depth in range(top + 1):
            for stored in levels[depth]:
                if stored & outside == 0:
                    return True
        return False

    def iter_subsets_of(self, mask: int) -> Iterator[int]:
        """Yield every stored subset of ``mask``, in sorted-path order."""
        levels = self._levels
        top = min(mask.bit_count(), len(levels) - 1)
        outside = ~mask
        matches = [
            stored
            for depth in range(top + 1)
            for stored in levels[depth]
            if stored & outside == 0
        ]
        matches.sort(key=bits_of)
        yield from matches

    def contains_superset_of(self, mask: int) -> bool:
        """True iff some stored set is a superset of ``mask``."""
        levels = self._levels
        for depth in range(mask.bit_count(), len(levels)):
            for stored in levels[depth]:
                if mask & ~stored == 0:
                    return True
        return False

    def iter_all(self) -> Iterator[int]:
        """Yield all stored sets in sorted-path order."""
        entries = [stored for level in self._levels for stored in level]
        entries.sort(key=bits_of)
        yield from entries
