"""Small statistics the benchmark reports with: percentiles and spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond
#: it; below that it is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` % of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def interquartile_mean(samples: Sequence[float]) -> float:
    """Mean of the middle half of the samples: a location as robust as
    the median that does not jump when the median sits on a cliff of a
    bimodal distribution (reads that did and did not wait for a writer)."""
    if not samples:
        raise ValueError("interquartile mean of no samples")
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter : len(ordered) - quarter])


def calm_share(rates: Sequence[float], share: float) -> list[int]:
    """Indices of the fastest ``share`` of a window's slices (at least
    one), fastest first.  This shared host slows everything by a fifth
    for ten seconds at a time; a slow-down only ever lowers a slice's
    rate, so the fastest slices are the ones it left alone."""
    if not rates:
        raise ValueError("no slices")
    order = sorted(range(len(rates)), key=lambda index: (-rates[index], index))
    return order[: max(1, round(len(rates) * share))]


def supports_percentile(count: int, pct: float) -> bool:
    """Whether ``count`` samples leave MIN_SAMPLES_BEYOND past ``pct``."""
    return count - math.ceil(pct / 100.0 * count) >= MIN_SAMPLES_BEYOND


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 below 4 values)."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0
