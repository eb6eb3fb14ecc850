"""Run with ``python3 -m pytest perfbench/tests -q`` from the repository root."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


def test_percentile_is_a_measured_value():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 20) == 1.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    # 99 samples: p90 is the 90th value, 9 samples lie beyond it.
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile([float(i) for i in range(99)], 90)
    # 100 samples: p90 is the 90th value, 10 lie beyond it.
    assert stats.tail_percentile([float(i) for i in range(100)], 90) == 89.0


def test_single_sample_has_no_tail():
    # A one-job run must not report its only sample as a p90.
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile([7.0], 90)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 10
    assert stats.tail_percentile(samples, 90) == 1.0
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile([1.0] * 95 + [2.0] * 9, 90)


def test_quartile_spread_matches_the_acceptance_rule():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    spread = stats.quartile_spread([float(v) for v in range(1, 11)])
    assert spread == pytest.approx((8.25 - 2.75) / 5.5)
