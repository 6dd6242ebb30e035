"""Property-based tests for both why-not refinement models.

The why-not scenario is drawn adversarially by hypothesis: any database,
any query, any choice of missing objects outside the result.  Both
models must (a) revive every missing object and (b) never be beaten by
their baseline (sampling / exhaustive enumeration).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.scoring import Scorer
from repro.core.topk import BruteForceTopK
from repro.index.kcrtree import KcRTree
from repro.whynot.baselines import SamplingPreferenceAdjuster, exhaustive_keyword_adapter
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.preference import PreferenceAdjuster

from tests.properties.strategies import databases_with_queries


@st.composite
def whynot_cases(draw):
    """(database, query, missing objects, λ) with genuinely missing M."""
    database, query = draw(databases_with_queries(min_size=8, max_size=30))
    scorer = Scorer(database)
    ranking = scorer.rank_all(query)
    outside = ranking[query.k :]
    assume(len(outside) >= 1)
    missing_count = draw(st.integers(min_value=1, max_value=min(2, len(outside))))
    indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(outside) - 1),
            min_size=missing_count,
            max_size=missing_count,
            unique=True,
        )
    )
    missing = [outside[i].obj for i in indexes]
    lam = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return database, scorer, query, missing, lam


@settings(max_examples=40, deadline=None)
@given(whynot_cases())
def test_preference_refinement_revives_and_dominates_sampling(case):
    database, scorer, query, missing, lam = case
    adjuster = PreferenceAdjuster(scorer)
    refinement = adjuster.refine(query, missing, lam=lam)

    result = BruteForceTopK(scorer).search(refinement.refined_query)
    assert all(result.contains(m) for m in missing)

    sampler = SamplingPreferenceAdjuster(scorer, samples=60)
    sampled = sampler.refine(query, missing, lam=lam)
    assert refinement.penalty <= sampled.penalty + 1e-9

    # Penalty can never exceed the pure-k-enlargement fallback.
    assert refinement.penalty <= lam + 1e-12


def check_keyword_adaption(case):
    """Both bound-and-prune arms (the kernel's scan index, the KcR-tree
    descent) revive M and give the exhaustive enumeration's answer."""
    database, scorer, query, missing, lam = case
    exhaustive = exhaustive_keyword_adapter(scorer).refine(query, missing, lam=lam)
    tree = KcRTree.build(database, max_entries=4)
    for adapter in (KeywordAdapter(scorer), KeywordAdapter(scorer, tree)):
        refinement = adapter.refine(query, missing, lam=lam)

        result = BruteForceTopK(scorer).search(refinement.refined_query)
        assert all(result.contains(m) for m in missing)

        assert abs(refinement.penalty - exhaustive.penalty) <= 1e-12
        assert refinement.refined_query == exhaustive.refined_query
        assert refinement.refined_worst_rank == exhaustive.refined_worst_rank

        assert refinement.penalty <= lam + 1e-12


@settings(max_examples=30, deadline=None)
@given(whynot_cases())
def test_keyword_adaption_revives_and_matches_exhaustive(case):
    check_keyword_adaption(case)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(whynot_cases())
def test_keyword_adaption_revives_and_matches_exhaustive_deep(case):
    check_keyword_adaption(case)


@settings(max_examples=30, deadline=None)
@given(whynot_cases())
def test_reported_worst_rank_is_exact(case):
    database, scorer, query, missing, lam = case
    adjuster = PreferenceAdjuster(scorer)
    refinement = adjuster.refine(query, missing, lam=lam)
    assert refinement.refined_worst_rank == scorer.worst_rank(
        missing, refinement.refined_query
    )


@settings(max_examples=25, deadline=None)
@given(whynot_cases())
def test_combined_refinement_revives(case):
    from repro.whynot.combined import CombinedRefiner

    database, scorer, query, missing, lam = case
    refiner = CombinedRefiner(
        scorer, PreferenceAdjuster(scorer), KeywordAdapter(scorer)
    )
    refinement = refiner.refine(query, missing, lam=lam)
    result = BruteForceTopK(scorer).search(refinement.refined_query)
    assert all(result.contains(m) for m in missing)
    assert 0.0 <= refinement.penalty <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(whynot_cases())
def test_viable_intervals_consistent_with_oracle(case):
    from repro.core.query import Weights

    database, scorer, query, missing, lam = case
    adjuster = PreferenceAdjuster(scorer)
    intervals = adjuster.viable_weight_intervals(query, missing[0])
    for lo, hi in intervals:
        if hi - lo < 1e-9:
            continue
        mid = (lo + hi) / 2.0
        refined = query.with_weights(Weights.from_spatial(mid))
        assert scorer.rank_of(missing[0], refined) <= query.k
