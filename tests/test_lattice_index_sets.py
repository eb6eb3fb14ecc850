"""Unit and property tests for the level-indexed set store."""

from hypothesis import given
from hypothesis import strategies as st

from repro.structures.lattice_index import LevelIndex

masks = st.integers(min_value=0, max_value=2**10 - 1)
mask_lists = st.lists(masks, max_size=25)


class TestBasics:
    def test_insert_and_contains(self):
        index = LevelIndex()
        assert index.insert(0b101)
        assert 0b101 in index
        assert 0b100 not in index

    def test_insert_duplicate_returns_false(self):
        index = LevelIndex()
        assert index.insert(0b1)
        assert not index.insert(0b1)
        assert len(index) == 1

    def test_empty_set_membership(self):
        index = LevelIndex()
        index.insert(0)
        assert 0 in index
        assert index.contains_subset_of(0)
        assert index.contains_subset_of(0b111)

    def test_len_and_bool(self):
        index = LevelIndex()
        assert not index
        index.insert(0b1)
        index.insert(0b10)
        assert len(index) == 2
        assert index

    def test_remove(self):
        index = LevelIndex()
        index.insert(0b11)
        assert index.remove(0b11)
        assert 0b11 not in index
        assert not index.remove(0b11)

    def test_remove_keeps_prefix_members(self):
        index = LevelIndex()
        index.insert(0b1)
        index.insert(0b11)
        index.remove(0b11)
        assert 0b1 in index
        assert len(index) == 1

    def test_remove_keeps_extension_members(self):
        index = LevelIndex()
        index.insert(0b1)
        index.insert(0b11)
        index.remove(0b1)
        assert 0b11 in index


class TestSubsetQueries:
    def test_contains_subset_of(self):
        index = LevelIndex()
        index.insert(0b011)
        assert index.contains_subset_of(0b111)
        assert index.contains_subset_of(0b011)
        assert not index.contains_subset_of(0b101)

    def test_contains_proper_subset_of(self):
        index = LevelIndex()
        index.insert(0b011)
        assert not index.contains_proper_subset_of(0b011)
        assert index.contains_proper_subset_of(0b111)

    def test_iter_subsets_of(self):
        index = LevelIndex()
        for mask in (0b001, 0b010, 0b011, 0b100):
            index.insert(mask)
        assert set(index.iter_subsets_of(0b011)) == {0b001, 0b010, 0b011}

    def test_contains_superset_of(self):
        index = LevelIndex()
        index.insert(0b110)
        assert index.contains_superset_of(0b100)
        assert index.contains_superset_of(0b010)
        assert index.contains_superset_of(0b110)
        assert not index.contains_superset_of(0b001)

    def test_iter_all(self):
        index = LevelIndex()
        for mask in (0b1, 0b10, 0b11):
            index.insert(mask)
        assert set(index.iter_all()) == {0b1, 0b10, 0b11}


class TestProperties:
    @given(mask_lists, masks)
    def test_contains_subset_matches_bruteforce(self, stored, query):
        index = LevelIndex()
        for mask in stored:
            index.insert(mask)
        expected = any(mask & ~query == 0 for mask in stored)
        assert index.contains_subset_of(query) == expected

    @given(mask_lists, masks)
    def test_contains_superset_matches_bruteforce(self, stored, query):
        index = LevelIndex()
        for mask in stored:
            index.insert(mask)
        expected = any(query & ~mask == 0 for mask in stored)
        assert index.contains_superset_of(query) == expected

    @given(mask_lists, masks)
    def test_iter_subsets_matches_bruteforce(self, stored, query):
        index = LevelIndex()
        for mask in stored:
            index.insert(mask)
        expected = {mask for mask in stored if mask & ~query == 0}
        assert set(index.iter_subsets_of(query)) == expected

    @given(mask_lists)
    def test_insert_then_iter_all(self, stored):
        index = LevelIndex()
        for mask in stored:
            index.insert(mask)
        assert set(index.iter_all()) == set(stored)
        assert len(index) == len(set(stored))

    @given(mask_lists, mask_lists)
    def test_remove_leaves_consistent_state(self, stored, removed):
        index = LevelIndex()
        for mask in stored:
            index.insert(mask)
        for mask in removed:
            index.remove(mask)
        expected = set(stored) - set(removed)
        assert set(index.iter_all()) == expected
        for mask in expected:
            assert mask in index
