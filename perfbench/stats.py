"""Order statistics for the benchmark's latency samples.

Percentiles are nearest-rank on the sorted samples: a reported value is
always one that was measured, never an interpolation between two.  A
tail percentile is only as good as the samples beyond it, so
:func:`tail_percentile` refuses one that fewer than
:data:`MIN_BEYOND` samples lie beyond instead of reporting what is in
effect the run's maximum.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly beyond a tail percentile
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise TooFewSamples("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def tail_percentile(samples: list[float], q: float = 90) -> float:
    """``percentile(samples, q)``, refused unless 10 samples exceed it."""
    value = percentile(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(samples)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return value


def median(samples: list[float]) -> float:
    if not samples:
        raise TooFewSamples("no samples")
    return statistics.median(samples)


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method),
    the same rule the acceptance check applies across runs.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
