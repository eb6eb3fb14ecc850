"""Tests for key derivation from extended FDs (paper §5, Lemma 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import optimized_closure
from repro.core.key_derivation import derive_keys
from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD
from repro.discovery.ucc import NaiveUCC
from repro.model.fd import FD, FDSet
from repro.structures.lattice_index import LevelIndex
from tests.helpers import fd_holds


class TestBasics:
    def test_key_is_lhs_covering_relation(self):
        fds = FDSet(3, [FD(0b001, 0b110), FD(0b010, 0b100)])
        assert derive_keys(fds, 0b111) == [0b001]

    def test_no_keys(self):
        fds = FDSet(3, [FD(0b001, 0b010)])
        assert derive_keys(fds, 0b111) == []

    def test_multiple_keys_sorted(self):
        fds = FDSet(2, [FD(0b01, 0b10), FD(0b10, 0b01)])
        assert derive_keys(fds, 0b11) == [0b01, 0b10]

    def test_address_example(self, address):
        fds = optimized_closure(BruteForceFD().discover(address))
        keys = derive_keys(fds, address.full_mask())
        first_last = address.relation.mask_of(["First", "Last"])
        assert first_last in keys


class TestLemma2:
    """Every key contained in some FD LHS is itself derivable."""

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=18),
    )
    @settings(max_examples=25)
    def test_keys_below_fd_lhss_are_derived(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=3)
        extended = optimized_closure(BruteForceFD().discover(instance))
        derived = set(derive_keys(extended, instance.full_mask()))
        minimal_keys = [k for k in NaiveUCC().discover(instance) if k]
        for lhs, _ in extended.items():
            for key in minimal_keys:
                if key & ~lhs == 0:  # key inside this LHS
                    assert key in derived or any(
                        d & ~key == 0 for d in derived
                    )

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=18),
    )
    @settings(max_examples=25)
    def test_derived_keys_are_actual_keys(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=3)
        extended = optimized_closure(BruteForceFD().discover(instance))
        full = instance.full_mask()
        for key in derive_keys(extended, full):
            assert fd_holds(instance, key, full & ~key)


class TestMissingKeysAreFine:
    def test_university_key_not_derivable(self, university):
        """The §5 example: {name, label} is a key yet no FD LHS."""
        extended = optimized_closure(BruteForceFD().discover(university))
        keys = derive_keys(extended, university.full_mask())
        name_label = university.relation.mask_of(["name", "label"])
        assert name_label not in keys  # derivation misses it (expected!)
        # ... but BCNF checking never needs it (Lemma 2): no violating
        # FD has a LHS containing {name, label}.
        index = LevelIndex([name_label])
        for lhs, _ in extended.items():
            if index.contains_subset_of(lhs):
                assert lhs | extended.rhs_of(lhs) == university.full_mask()
