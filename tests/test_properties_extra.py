"""Extra cross-cutting property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import optimized_closure
from repro.core.key_derivation import derive_keys
from repro.core.normalize import normalize
from repro.core.violations import find_violating_fds
from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD
from repro.structures.lattice_index import LevelIndex


class TestViolationSemantics:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=20)
    def test_violating_iff_no_key_subset(self, seed, cols, rows):
        """Cross-check Algorithm 4's core rule against a direct scan."""
        instance = random_instance(seed, cols, rows, domain_size=2)
        extended = optimized_closure(BruteForceFD().discover(instance))
        keys = derive_keys(extended, instance.full_mask())
        violating = {
            (fd.lhs, fd.rhs) for fd in find_violating_fds(extended, keys)
        }
        for lhs, rhs in extended.items():
            if lhs == 0:
                continue
            has_key_subset = any(key & ~lhs == 0 for key in keys)
            assert ((lhs, rhs) in violating) == (not has_key_subset)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=15)
    def test_3nf_violations_are_subset_of_bcnf(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        extended = optimized_closure(BruteForceFD().discover(instance))
        keys = derive_keys(extended, instance.full_mask())
        bcnf = {
            (fd.lhs, fd.rhs)
            for fd in find_violating_fds(extended, keys, target="bcnf")
        }
        tnf = {
            (fd.lhs, fd.rhs)
            for fd in find_violating_fds(extended, keys, target="3nf")
        }
        assert tnf <= bcnf


class TestNormalizeIdempotence:
    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=14),
    )
    @settings(max_examples=10)
    def test_second_run_changes_nothing(self, seed, cols, rows):
        """Normalizing an already-normalized relation is a no-op."""
        instance = random_instance(seed, cols, rows, domain_size=2)
        first = normalize(instance, algorithm="bruteforce")
        for out in first.instances.values():
            again = normalize(out.rename(out.name), algorithm="bruteforce")
            assert again.steps == []
            assert len(again.instances) == 1

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=14),
    )
    @settings(max_examples=10)
    def test_decomposition_log_is_consistent(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        result = normalize(instance, algorithm="bruteforce")
        # replaying the log forward from the original reaches exactly
        # the final relation names
        alive = {instance.name}
        for step in result.steps:
            assert step.parent in alive
            alive.discard(step.parent)
            alive.add(step.r1)
            alive.add(step.r2)
        assert alive == set(result.instances)

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=14),
    )
    @settings(max_examples=10)
    def test_attributes_partition_into_r1_r2(self, seed, cols, rows):
        """Each split covers the parent: R1 ∪ R2 = R, R1 ∩ R2 = LHS."""
        instance = random_instance(seed, cols, rows, domain_size=2)
        result = normalize(instance, algorithm="bruteforce")
        columns_of = {instance.name: set(instance.columns)}
        by_name = {i.name: i for i in result.instances.values()}
        for step in result.steps:
            parent_cols = columns_of[step.parent]
            r2_cols = set(step.lhs) | set(step.rhs)
            r1_cols = parent_cols - set(step.rhs)
            columns_of[step.r1] = r1_cols
            columns_of[step.r2] = r2_cols
            assert r1_cols | r2_cols == parent_cols
            assert r1_cols & r2_cols == set(step.lhs)
        for name, inst in by_name.items():
            assert set(inst.columns) == columns_of[name]


class TestLevelIndexInterleaved:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove"]),
                st.integers(min_value=0, max_value=2**6 - 1),
            ),
            max_size=40,
        ),
        st.integers(min_value=0, max_value=2**6 - 1),
    )
    def test_subset_queries_after_mixed_operations(self, operations, query):
        index = LevelIndex()
        reference: set[int] = set()
        for op, mask in operations:
            if op == "insert":
                index.insert(mask)
                reference.add(mask)
            else:
                index.remove(mask)
                reference.discard(mask)
        expected = any(mask & ~query == 0 for mask in reference)
        assert index.contains_subset_of(query) == expected
        expected_sup = any(query & ~mask == 0 for mask in reference)
        assert index.contains_superset_of(query) == expected_sup


class TestCsvUnicode:
    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs",), blacklist_characters="\r\n"
                    ),
                    max_size=12,
                ).filter(lambda s: s != ""),
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs",), blacklist_characters="\r\n"
                    ),
                    max_size=12,
                ).filter(lambda s: s != ""),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=20)
    def test_roundtrip_arbitrary_text(self, rows):
        import tempfile
        from pathlib import Path

        from repro.io.csv_io import read_csv, write_csv
        from repro.model.instance import RelationInstance
        from repro.model.schema import Relation

        instance = RelationInstance.from_rows(Relation("t", ("a", "b")), rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(instance, path)
            back = read_csv(path)
        assert list(back.iter_rows()) == rows
