"""Tests for :mod:`repro.paper`'s context and the arms it serves.

The served why-not classes refuse a kernel-less scorer and a missing
object that is not the database's own copy.  The reference arms are
where such a run goes: :class:`ViewlessContext` ranks the missing
objects as passed, on either scoring path, and every arm built on it
returns the served class's answer for a copy of the database's object.
"""

import dataclasses

import pytest

from repro.core.query import Weights
from repro.core.scoring import Scorer
from repro.paper import (
    DualIndexPreferenceAdjuster,
    ExhaustiveKeywordAdapter,
    KcRTreeKeywordAdapter,
    LinearPreferenceAdjuster,
    ScanExplanationGenerator,
    ViewlessContext,
)
from repro.whynot.context import WhyNotContext
from repro.whynot.explanation import ExplanationGenerator
from repro.whynot.keyword import KeywordAdapter
from repro.whynot.preference import PreferenceAdjuster


def scenario(scorer, seed=140, missing_count=2):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=1, k=5, missing_count=missing_count, seed=seed,
        rank_window=25,
    )[0]


def copies(objects):
    """Equal objects that are not the database's own (foreign) copies."""
    return [dataclasses.replace(obj) for obj in objects]


class TestViewlessContext:
    @pytest.mark.parametrize("use_kernel", [True, False], ids=["kernel", "set-path"])
    def test_equals_the_served_context_on_the_databases_objects(
        self, small_db, small_scorer, use_kernel
    ):
        s = scenario(small_scorer)
        served = WhyNotContext(small_scorer, s.query, s.missing)
        reference = ViewlessContext(
            Scorer(small_db, use_kernel=use_kernel), s.query, s.missing
        )
        assert dict(reference.initial_ranks) == dict(served.initial_ranks)
        assert reference.missing_duals == served.missing_duals
        oids = [dual.oid for dual in reference.duals[:10]]
        assert reference.dual_points_of(oids) == served.dual_points_of(oids)

    def test_scores_a_foreign_missing_object_as_passed(self, small_scorer):
        s = scenario(small_scorer, seed=141, missing_count=1)
        (missing,) = s.missing
        moved = dataclasses.replace(missing, doc=s.query.doc)
        ranks = ViewlessContext(small_scorer, s.query, [moved]).initial_ranks
        assert ranks[missing.oid] == small_scorer.rank_of(moved, s.query)
        assert ranks[missing.oid] < small_scorer.rank_of(missing, s.query)

    def test_reweighted_keeps_the_missing_set_at_new_weights(self, small_scorer):
        s = scenario(small_scorer, seed=142)
        context = ViewlessContext(small_scorer, s.query, copies(s.missing))
        query = s.query.with_weights(Weights.from_spatial(0.9))
        moved = context.reweighted(query)
        assert isinstance(moved, ViewlessContext)
        assert moved.missing == context.missing and moved.query == query
        assert dict(moved.initial_ranks) == {
            obj.oid: small_scorer.rank_of(obj, query) for obj in s.missing
        }


def keyword_arm(request, scorer, reference):
    if reference is KcRTreeKeywordAdapter:
        return KcRTreeKeywordAdapter(scorer, request.getfixturevalue("small_kcrtree"))
    return reference(scorer)


@pytest.mark.parametrize(
    "served, reference",
    [
        (KeywordAdapter, ExhaustiveKeywordAdapter),
        (KeywordAdapter, KcRTreeKeywordAdapter),
        (PreferenceAdjuster, DualIndexPreferenceAdjuster),
        (PreferenceAdjuster, LinearPreferenceAdjuster),
    ],
    ids=lambda cls: cls.__name__,
)
def test_refining_a_foreign_copy_gives_the_served_answer(
    request, small_scorer, served, reference
):
    s = scenario(small_scorer, seed=143)
    want = served(small_scorer).refine(s.query, s.missing)
    arm = keyword_arm(request, small_scorer, reference)
    got = arm.refine(s.query, copies(s.missing))
    assert got.refined_query == want.refined_query
    assert got.penalty == want.penalty
    assert got.refined_worst_rank == want.refined_worst_rank
    assert got.initial_worst_rank == want.initial_worst_rank


def test_explaining_a_foreign_copy_gives_the_served_answer(small_scorer):
    s = scenario(small_scorer, seed=144)
    result = small_scorer.top_k(s.query)
    want = ExplanationGenerator(small_scorer).explain(s.query, s.missing, result=result)
    got = ScanExplanationGenerator(small_scorer).explain(
        s.query, copies(s.missing), result=result
    )
    assert got.worst_rank == want.worst_rank
    assert [
        (e.rank, e.reason, e.closer_objects, e.more_similar_objects)
        for e in got.explanations
    ] == [
        (e.rank, e.reason, e.closer_objects, e.more_similar_objects)
        for e in want.explanations
    ]
