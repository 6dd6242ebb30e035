"""Tests for the sampling baseline (:class:`repro.paper.SamplingPreferenceAdjuster`)."""

import pytest

from repro.core.topk import BruteForceTopK
from repro.paper import SamplingPreferenceAdjuster
from repro.whynot.errors import NotMissingError

from tests.conftest import random_queries


def scenario(scorer, seed=130, k=5):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=1, k=k, missing_count=1, seed=seed, rank_window=25
    )[0]


class TestSamplingAdjuster:
    def test_sampled_refinement_revives_missing(self, small_scorer):
        sampler = SamplingPreferenceAdjuster(small_scorer, samples=100)
        oracle = BruteForceTopK(small_scorer)
        s = scenario(small_scorer)
        refinement = sampler.refine(s.query, s.missing)
        result = oracle.search(refinement.refined_query)
        assert all(result.contains(m) for m in s.missing)

    def test_more_samples_never_worse(self, small_scorer):
        # The probe grids are nested in effect: penalty is monotone
        # non-increasing in sample density on the same scenario.
        s = scenario(small_scorer, seed=131)
        coarse = SamplingPreferenceAdjuster(small_scorer, samples=10)
        fine = SamplingPreferenceAdjuster(small_scorer, samples=400)
        assert (
            fine.refine(s.query, s.missing).penalty
            <= coarse.refine(s.query, s.missing).penalty + 1e-9
        )

    def test_penalty_at_most_lambda(self, small_scorer):
        # The initial weight is always probed → penalty ≤ λ.
        sampler = SamplingPreferenceAdjuster(small_scorer, samples=5)
        for lam in (0.2, 0.8):
            s = scenario(small_scorer, seed=132)
            assert sampler.refine(s.query, s.missing, lam=lam).penalty <= lam + 1e-12

    def test_method_label_carries_sample_count(self, small_scorer):
        sampler = SamplingPreferenceAdjuster(small_scorer, samples=33)
        s = scenario(small_scorer, seed=133)
        assert sampler.refine(s.query, s.missing).method == "sampling-33"

    def test_not_missing_raises(self, small_scorer):
        sampler = SamplingPreferenceAdjuster(small_scorer, samples=10)
        q = random_queries(small_scorer.database, 1, seed=134, k=5)[0]
        top = small_scorer.top_k(q)
        with pytest.raises(NotMissingError):
            sampler.refine(q, [top.entries[0].obj])

    def test_invalid_sample_count(self, small_scorer):
        with pytest.raises(ValueError):
            SamplingPreferenceAdjuster(small_scorer, samples=0)

    def test_empty_missing_rejected(self, small_scorer):
        sampler = SamplingPreferenceAdjuster(small_scorer, samples=10)
        q = random_queries(small_scorer.database, 1, seed=135, k=5)[0]
        with pytest.raises(ValueError):
            sampler.refine(q, [])
