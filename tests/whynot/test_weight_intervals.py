"""Tests for :meth:`PreferenceAdjuster.viable_weight_intervals`.

The intervals are verified against the float-rank oracle: interior
points of reported intervals must place the object inside the top-k;
interior points of the gaps between them must not.
"""

import pytest

from repro.core.query import Weights
from repro.whynot.preference import PreferenceAdjuster


def scenario(scorer, seed=210, k=5):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=1, k=k, missing_count=1, seed=seed, rank_window=25
    )[0]


def rank_at(scorer, query, obj, w):
    return scorer.rank_of(obj, query.with_weights(Weights.from_spatial(w)))


def interior_points(lo, hi, count=3):
    if hi <= lo:
        return []
    step = (hi - lo) / (count + 1)
    return [lo + step * (index + 1) for index in range(count)]


@pytest.fixture(scope="module")
def adjuster(small_scorer):
    return PreferenceAdjuster(small_scorer)


class TestViableIntervals:
    @pytest.mark.parametrize("seed", [210, 211, 212, 213])
    def test_interiors_are_viable(self, small_scorer, adjuster, seed):
        s = scenario(small_scorer, seed=seed)
        missing = s.missing[0]
        intervals = adjuster.viable_weight_intervals(s.query, missing)
        for lo, hi in intervals:
            for w in interior_points(lo, hi):
                assert rank_at(small_scorer, s.query, missing, w) <= s.query.k, (
                    f"w={w} inside {lo, hi} should be viable"
                )

    @pytest.mark.parametrize("seed", [210, 211, 212])
    def test_gap_interiors_are_not_viable(self, small_scorer, adjuster, seed):
        s = scenario(small_scorer, seed=seed)
        missing = s.missing[0]
        intervals = adjuster.viable_weight_intervals(s.query, missing)
        # Build the complement gaps strictly inside (0, 1).
        gaps = []
        previous = 0.0
        for lo, hi in intervals:
            if lo > previous:
                gaps.append((previous, lo))
            previous = hi
        if previous < 1.0:
            gaps.append((previous, 1.0))
        for lo, hi in gaps:
            for w in interior_points(lo, hi):
                assert rank_at(small_scorer, s.query, missing, w) > s.query.k, (
                    f"w={w} in gap {lo, hi} should not be viable"
                )

    def test_initial_weight_not_in_any_interval(self, small_scorer, adjuster):
        # The object is missing under the initial weights, so ws0 cannot
        # lie strictly inside a viable interval.
        s = scenario(small_scorer, seed=214)
        intervals = adjuster.viable_weight_intervals(s.query, s.missing[0])
        for lo, hi in intervals:
            assert not (lo < s.query.ws < hi)

    def test_intervals_sorted_and_disjoint(self, small_scorer, adjuster):
        s = scenario(small_scorer, seed=215)
        intervals = adjuster.viable_weight_intervals(s.query, s.missing[0])
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo1 <= hi1 <= lo2 <= hi2

    def test_target_k_widens_intervals(self, small_scorer, adjuster):
        # A larger k can only make more weights viable.
        s = scenario(small_scorer, seed=216)
        missing = s.missing[0]
        narrow = adjuster.viable_weight_intervals(s.query, missing)
        wide = adjuster.viable_weight_intervals(
            s.query, missing, target_k=s.query.k + 10
        )
        narrow_mass = sum(hi - lo for lo, hi in narrow)
        wide_mass = sum(hi - lo for lo, hi in wide)
        assert wide_mass >= narrow_mass - 1e-12

    def test_huge_target_k_covers_everything(self, small_scorer, adjuster):
        s = scenario(small_scorer, seed=217)
        intervals = adjuster.viable_weight_intervals(
            s.query, s.missing[0], target_k=len(small_scorer.database)
        )
        assert intervals == [(0.0, 1.0)]

    def test_refinement_weight_lies_in_a_viable_interval(self, small_scorer, adjuster):
        # If the returned refinement keeps k unchanged, its weight must
        # sit inside (or on the boundary of) some viable interval.
        for seed in (218, 219, 220):
            s = scenario(small_scorer, seed=seed)
            refinement = adjuster.refine(s.query, s.missing, lam=0.5)
            if refinement.delta_k > 0 or len(s.missing) != 1:
                continue
            intervals = adjuster.viable_weight_intervals(s.query, s.missing[0])
            w = refinement.refined_query.ws
            assert any(lo - 1e-12 <= w <= hi + 1e-12 for lo, hi in intervals)

    def test_linear_and_indexed_paths_agree(self, small_scorer):
        from repro.paper import LinearPreferenceAdjuster

        s = scenario(small_scorer, seed=221)
        indexed = PreferenceAdjuster(small_scorer)
        linear = LinearPreferenceAdjuster(small_scorer)
        assert indexed.viable_weight_intervals(
            s.query, s.missing[0]
        ) == linear.viable_weight_intervals(s.query, s.missing[0])
