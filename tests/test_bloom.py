"""Unit tests for the Bloom filter and its cardinality estimator."""

import pytest

from repro.structures.bloom import BloomFilter


class TestConstruction:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=0)
        with pytest.raises(ValueError):
            BloomFilter(num_hashes=0)

    def test_with_capacity_validates_fpp(self):
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(100, target_fpp=1.5)

    def test_with_capacity_sizes_up(self):
        small = BloomFilter.with_capacity(10)
        large = BloomFilter.with_capacity(10_000)
        assert large.num_bits > small.num_bits


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter.with_capacity(200)
        items = [f"item-{i}" for i in range(200)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter()
        assert "whatever" not in bloom

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.with_capacity(500, target_fpp=0.01)
        for i in range(500):
            bloom.add(("present", i))
        false_positives = sum(
            ("absent", i) in bloom for i in range(2000)
        )
        assert false_positives / 2000 < 0.05

    def test_num_added_counts_calls(self):
        bloom = BloomFilter()
        bloom.add("x")
        bloom.add("x")
        assert bloom.num_added == 2


class TestCardinalityEstimation:
    def test_empty_estimates_zero(self):
        assert BloomFilter().estimated_cardinality() == pytest.approx(0.0)

    def test_estimate_tracks_distinct_not_total(self):
        bloom = BloomFilter.with_capacity(1000)
        for _ in range(5):
            for i in range(100):
                bloom.add(i)
        estimate = bloom.estimated_cardinality()
        assert 70 <= estimate <= 130

    @pytest.mark.parametrize("distinct", [10, 100, 400])
    def test_estimate_within_20_percent(self, distinct):
        bloom = BloomFilter.with_capacity(500)
        for i in range(distinct):
            bloom.add(f"v{i}")
        estimate = bloom.estimated_cardinality()
        assert abs(estimate - distinct) / distinct < 0.2

    def test_saturated_filter_returns_finite(self):
        bloom = BloomFilter(num_bits=64, num_hashes=1)
        for i in range(10_000):
            bloom.add(i)
        estimate = bloom.estimated_cardinality()
        assert estimate > 0
        assert estimate != float("inf")

    def test_fill_ratio_monotone(self):
        bloom = BloomFilter.with_capacity(100)
        previous = bloom.fill_ratio()
        for i in range(50):
            bloom.add(i)
            current = bloom.fill_ratio()
            assert current >= previous
            previous = current

    def test_false_positive_probability_grows(self):
        bloom = BloomFilter(num_bits=256, num_hashes=2)
        assert bloom.false_positive_probability() == 0.0
        for i in range(100):
            bloom.add(i)
        assert bloom.false_positive_probability() > 0.0


class TestAddReprs:
    """Bulk insertion by repr sets exactly the bits per-item ``add`` sets."""

    def test_same_bits_as_add(self):
        items = [("a", 1), ("b", None), 1.0, True, "x" * 40, -0.0] * 3
        for capacity in (1, 16, 500):
            one_by_one = BloomFilter.with_capacity(capacity)
            for item in items:
                one_by_one.add(item)
            bulk = BloomFilter.with_capacity(capacity)
            bulk.add_reprs(sorted({repr(item) for item in items}))
            assert bulk._bits == one_by_one._bits
            assert bulk.estimated_cardinality() == (
                one_by_one.estimated_cardinality()
            )
            assert all(item in bulk for item in items)
