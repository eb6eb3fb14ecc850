"""Duplication scores from distinct rows equal the historical per-row loop.

:class:`~repro.core.scoring.DistinctEstimator` hashes each *distinct*
projected row once and measures value lengths per column; the oracle in
``tests/scoring_oracle.py`` hashes every row, as the estimator used to.
The Bloom estimate is part of the program's observable output (it picks
the decomposition), so every value is asserted bit-identical — ``==``
plus ``float.hex``, which also tells ``0.0`` from ``-0.0`` — never
approximately equal.
"""

from __future__ import annotations

import importlib
import math

import pytest

from repro.core.normalize import Normalizer
from repro.core.scoring import DistinctEstimator
from repro.datagen.random_tables import random_instance
from repro.io.csv_io import read_csv
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.structures import storage
from repro.structures.encoding import ChunkedEncoder, DecodedColumn
from repro.verification.planted import plant_instance
from tests.scoring_oracle import (
    oracle_distinct,
    oracle_duplication_ratio,
    oracle_max_value_length,
)

@pytest.fixture()
def clean_storage(monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    monkeypatch.delenv("REPRO_CHUNK_ROWS", raising=False)
    storage.set_policy(None)
    yield
    storage.set_policy(None)


def _same(actual: float, expected: float) -> None:
    assert actual == expected
    assert actual.hex() == expected.hex()


def assert_matches_oracle(instance: RelationInstance) -> None:
    """Every mask's estimate, ratio and max length equal the oracle's."""
    estimator = DistinctEstimator(instance)
    for mask in range(1 << instance.arity):
        _same(estimator.distinct(mask), oracle_distinct(instance, mask))
        _same(
            estimator.duplication_ratio(mask),
            oracle_duplication_ratio(instance, mask),
        )
        assert estimator.max_value_length(mask) == oracle_max_value_length(
            instance, mask
        )


def _relation(*columns: list, names: str = "abcdef") -> RelationInstance:
    return RelationInstance(Relation("r", tuple(names[: len(columns)])), columns)


def _csv(instance: RelationInstance) -> bytes:
    lines = [",".join(instance.columns)]
    for row in instance.iter_rows():
        lines.append(",".join("" if value is None else str(value) for value in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestAgainstPerRowOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_instances(self, seed):
        planted = plant_instance(seed, num_columns=5, num_rows=80, null_rate=0.2)
        assert_matches_oracle(planted.instance)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, seed):
        instance = random_instance(
            seed, 4, 150, domain_size=[2, 5, 40, 150], null_rate=0.1, skew=1.2
        )
        assert_matches_oracle(instance)

    def test_mixed_column_keeps_reprs_apart(self):
        # 1 == 1.0 == True, yet each repr sets its own bits.
        mixed = [1, 1.0, True, "1", None] * 3
        other = ["x", "x", "x", "x", "x", "y", "y", "y", "y", "y", 0, 0.0, -0.0, False, None]
        instance = _relation(mixed, other)
        assert_matches_oracle(instance)
        estimator = DistinctEstimator(instance)
        merged_by_equality = len(set(instance.column(0)))
        assert merged_by_equality == 3  # {1, "1", None}
        assert estimator.distinct(0b01) > merged_by_equality

    def test_empty_single_row_and_constant(self):
        assert_matches_oracle(_relation([], [], []))
        assert_matches_oracle(_relation(["a"], [None], [7]))
        assert_matches_oracle(_relation(["k"] * 40, [None] * 40, [3] * 40))

    def test_empty_relation_estimate_keeps_its_sign(self):
        estimate = DistinctEstimator(_relation([], [])).distinct(0b01)
        assert math.copysign(1.0, estimate) == math.copysign(
            1.0, oracle_distinct(_relation([], []), 0b01)
        )

    def test_many_distinct_rows(self):
        instance = _relation(
            list(range(3000)), [str(i % 7) for i in range(3000)]
        )
        assert_matches_oracle(instance)

    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_chunk_encoded_instance_both_null_semantics(
        self, clean_storage, null_equals_null
    ):
        source = plant_instance(3, num_columns=4, num_rows=60, null_rate=0.3)
        rows = list(source.instance.iter_rows())
        encoder = ChunkedEncoder(source.instance.arity, null_equals_null)
        for start in range(0, len(rows), 7):
            encoder.add_rows(rows[start : start + 7])
        instance = RelationInstance.from_encoded(
            Relation("r", source.instance.columns),
            encoder.finish(),
            encoder.decode_tables(),
        )
        assert all(isinstance(c, DecodedColumn) for c in instance.columns_data)
        assert_matches_oracle(instance)

    def test_chunk_ingested_csv(self, clean_storage, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "7")
        source = plant_instance(5, num_columns=5, num_rows=90, null_rate=0.2)
        with storage.policy_override("auto"):
            instance = read_csv(_csv(source.instance), name="r")
        assert all(isinstance(c, DecodedColumn) for c in instance.columns_data)
        assert_matches_oracle(instance)

    def test_spill_storage(self, clean_storage, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "spill")
        source = plant_instance(6, num_columns=5, num_rows=90, null_rate=0.2)
        instance = read_csv(_csv(source.instance), name="r")
        assert instance.encoded(True).tier == "spill"
        assert_matches_oracle(instance)


class TestNullMask:
    def test_decoded_columns_answer_without_a_scan(self, clean_storage, monkeypatch):
        source = plant_instance(2, num_columns=5, num_rows=50, null_rate=0.3)
        with storage.policy_override("auto"):
            instance = read_csv(_csv(source.instance), name="r")
        expected = 0
        for index, column in enumerate(source.instance.columns_data):
            if any(value is None for value in column):
                expected |= 1 << index
        assert expected

        def no_scan(self):
            raise AssertionError("NULL mask decoded every cell")

        monkeypatch.setattr(DecodedColumn, "__iter__", no_scan)
        assert Normalizer._null_mask(instance) == expected

    def test_computed_once_per_input_relation(self, address, monkeypatch):
        pipeline = importlib.import_module("repro.core.normalize")
        calls = []
        original = pipeline.Normalizer._null_mask

        def counted(instance):
            calls.append(instance.name)
            return original(instance)

        monkeypatch.setattr(pipeline.Normalizer, "_null_mask", staticmethod(counted))
        result = Normalizer(algorithm="bruteforce").run(address)
        assert result.steps, "the fixture must decompose"
        assert calls == [address.name]

    @pytest.mark.parametrize("seed", range(6))
    def test_halves_inherit_the_parent_mask(self, seed):
        pipeline = importlib.import_module("repro.core.normalize")
        instance = random_instance(seed, 5, 40, domain_size=3, null_rate=0.2)
        parent = Normalizer._null_mask(instance)
        full = instance.full_mask()
        for y in range(1, full):
            for x in (1, 2, 4):
                if x & y or not (full & ~y):
                    continue
                for half in (
                    instance.project(full & ~y),
                    instance.project(x | y, name="r2", dedup=True),
                ):
                    assert pipeline._inherited_null_mask(
                        instance.relation, parent, half.relation
                    ) == Normalizer._null_mask(half)
