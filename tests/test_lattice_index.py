"""LevelIndex: differential tests against a naive set-of-masks oracle.

:class:`~repro.structures.lattice_index.LevelIndex` is the one set
store behind the closure algorithms, the violation detector, the UCC
antichains, DFD/DUCC boundary sets and TANE's candidate-generation
guard.  :class:`NaiveSetStore` is the same surface written as a plain
Python ``set`` with brute-force subset and superset scans; this suite
pins the index to it property-by-property, including the sorted-path
iteration order, and covers the batch entry points.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.model.attributes import bits_of
from repro.structures.lattice_index import LevelIndex

masks = st.integers(min_value=0, max_value=2**10 - 1)
mask_lists = st.lists(masks, max_size=25)


class TestBasics:
    def test_insert_contains_remove(self):
        index = LevelIndex()
        assert index.insert(0b0101)
        assert not index.insert(0b0101)  # duplicate
        assert 0b0101 in index
        assert 0b0100 not in index
        assert len(index) == 1 and bool(index)
        assert index.remove(0b0101)
        assert not index.remove(0b0101)
        assert not index

    def test_constructor_seeds_and_dedups(self):
        index = LevelIndex([0b11, 0b1, 0b11])
        assert len(index) == 2
        assert sorted(index.iter_all()) == [0b1, 0b11]

    def test_empty_set_membership(self):
        index = LevelIndex()
        index.insert(0)
        assert 0 in index
        assert index.contains_subset_of(0b111)
        assert index.contains_subset_of(0)
        assert not index.contains_proper_subset_of(0)

    def test_contains_batch_and_all(self):
        index = LevelIndex([0b01, 0b10])
        assert index.contains_batch([0b01, 0b11, 0b10]) == [
            True, False, True,
        ]
        assert index.contains_all([0b01, 0b10])
        assert not index.contains_all([0b01, 0b11])
        assert index.contains_all([])


class NaiveSetStore:
    """The oracle: a set of masks, every query a brute-force scan."""

    def __init__(self, masks=()):
        self.masks = set(masks)

    def __len__(self):
        return len(self.masks)

    def __contains__(self, mask):
        return mask in self.masks

    def remove(self, mask):
        present = mask in self.masks
        self.masks.discard(mask)
        return present

    def contains_subset_of(self, query):
        return any(mask & ~query == 0 for mask in self.masks)

    def contains_proper_subset_of(self, query):
        return any(
            mask & ~query == 0 and mask != query for mask in self.masks
        )

    def iter_subsets_of(self, query):
        return sorted(
            (mask for mask in self.masks if mask & ~query == 0), key=bits_of
        )

    def contains_superset_of(self, query):
        return any(query & ~mask == 0 for mask in self.masks)

    def iter_all(self):
        return sorted(self.masks, key=bits_of)


class TestAgainstNaiveOracle:
    @given(mask_lists, masks)
    def test_subset_queries_match(self, stored, query):
        naive, index = NaiveSetStore(stored), LevelIndex(stored)
        assert index.contains_subset_of(query) == (
            naive.contains_subset_of(query)
        )
        assert index.contains_proper_subset_of(query) == (
            naive.contains_proper_subset_of(query)
        )
        assert list(index.iter_subsets_of(query)) == (
            naive.iter_subsets_of(query)
        )

    @given(mask_lists, masks)
    def test_superset_and_membership_match(self, stored, query):
        naive, index = NaiveSetStore(stored), LevelIndex(stored)
        assert index.contains_superset_of(query) == (
            naive.contains_superset_of(query)
        )
        assert (query in index) == (query in naive)

    @given(mask_lists)
    def test_iter_all_order_matches(self, stored):
        naive, index = NaiveSetStore(stored), LevelIndex(stored)
        assert list(index.iter_all()) == naive.iter_all()

    @given(mask_lists, mask_lists)
    def test_remove_leaves_consistent_state(self, stored, removed):
        naive, index = NaiveSetStore(stored), LevelIndex(stored)
        for mask in removed:
            assert index.remove(mask) == naive.remove(mask)
        assert list(index.iter_all()) == naive.iter_all()
        assert len(index) == len(naive)
