"""Unit tests for RelationInstance."""

import pytest

from repro.core.scoring import DistinctEstimator
from repro.model.instance import RelationInstance
from repro.model.schema import Relation


def make(rows, columns=("a", "b", "c")):
    return RelationInstance.from_rows(Relation("t", columns), rows)


class TestConstruction:
    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            RelationInstance(Relation("t", ("a", "b")), [[1], [1, 2]])

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            RelationInstance(Relation("t", ("a", "b")), [[1]])

    def test_from_rows_row_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            make([(1, 2)])

    def test_empty_instance(self):
        instance = make([])
        assert instance.num_rows == 0
        assert instance.num_values == 0

    def test_counters(self):
        instance = make([(1, 2, 3), (4, 5, 6)])
        assert instance.num_rows == 2
        assert instance.arity == 3
        assert instance.num_values == 6


class TestAccess:
    def test_column_by_name_and_index(self):
        instance = make([(1, 2, 3)])
        assert instance.column("b") == [2]
        assert instance.column(2) == [3]

    def test_row_and_iter_rows(self):
        instance = make([(1, 2, 3), (4, 5, 6)])
        assert instance.row(1) == (4, 5, 6)
        assert list(instance.iter_rows()) == [(1, 2, 3), (4, 5, 6)]


class TestProjection:
    def test_project_keeps_column_order(self):
        instance = make([(1, 2, 3), (4, 5, 6)])
        projected = instance.project(0b101, name="p")
        assert projected.columns == ("a", "c")
        assert list(projected.iter_rows()) == [(1, 3), (4, 6)]

    def test_project_dedup(self):
        instance = make([(1, 2, 3), (1, 2, 9), (1, 2, 3)])
        projected = instance.project(0b011, dedup=True)
        assert list(projected.iter_rows()) == [(1, 2)]

    def test_project_dedup_preserves_first_occurrence_order(self):
        instance = make([(2, 0, 0), (1, 0, 0), (2, 0, 0)])
        projected = instance.project(0b001, dedup=True)
        assert list(projected.iter_rows()) == [(2,), (1,)]


class TestStatistics:
    def test_has_null_in(self):
        instance = make([(1, None, 3)])
        assert instance.has_null_in(0b010)
        assert not instance.has_null_in(0b101)

    # The value score's longest concatenated value is computed by the
    # scoring estimator over the instance.
    def test_max_value_length_single(self):
        instance = make([("abc", "x", 1), ("ab", "y", 2)])
        assert DistinctEstimator(instance).max_value_length(0b001) == 3

    def test_max_value_length_concatenates(self):
        instance = make([("abc", "xy", 1)])
        assert DistinctEstimator(instance).max_value_length(0b011) == 5

    def test_max_value_length_null_counts_as_empty(self):
        instance = make([(None, "xy", 1)])
        assert DistinctEstimator(instance).max_value_length(0b011) == 2

    def test_max_value_length_empty_cases(self):
        assert DistinctEstimator(make([])).max_value_length(0b1) == 0
        assert DistinctEstimator(make([(1, 2, 3)])).max_value_length(0) == 0

    def test_distinct_count(self):
        instance = make([(1, 2, 3), (1, 2, 9), (1, 5, 3)])
        assert instance.distinct_count(0b011) == 2
        assert instance.distinct_count(0b111) == 3

    def test_distinct_count_empty_mask(self):
        assert make([(1, 2, 3)]).distinct_count(0) == 1
        assert make([]).distinct_count(0) == 0

    def test_full_mask(self):
        assert make([]).full_mask() == 0b111

    def test_rename_copies_relation_object(self):
        instance = make([(1, 2, 3)])
        renamed = instance.rename("other")
        assert renamed.name == "other"
        assert list(renamed.iter_rows()) == list(instance.iter_rows())
        renamed.relation.primary_key = ("a",)
        assert instance.relation.primary_key is None

    def test_rename_does_not_alias_list_columns(self):
        instance = make([(1, 2, 3)])
        encoding = instance.encoded()
        renamed = instance.rename("other")
        assert renamed.encoded() is encoding  # the memo travels along
        for column in instance.columns_data:
            column.append(9)
        assert list(renamed.iter_rows()) == [(1, 2, 3)]
        assert renamed.encoded() is encoding
        renamed.columns_data[0].append(7)
        assert instance.column("a") == [1, 9]
