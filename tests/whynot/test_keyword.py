"""Tests for the keyword-adapted why-not module (Definition 3).

Central contracts:

1. **Containment:** the refined query's result contains every missing
   object.
2. **Exactness of bound-and-prune:** the served scan-index arm and the
   paper's KcR-tree descent (:mod:`repro.paper`) return exactly the
   same refined keyword set and penalty as the exhaustive-scan
   baseline — pruning must never change the answer, only the work.
3. **Optimality:** no candidate in the enumeration space has a lower
   Eqn. (4) penalty (established via the exhaustive baseline).
"""

import pytest

from repro.core.topk import BruteForceTopK
from repro.index.kcrtree import KcRTree
from repro.paper import ExhaustiveKeywordAdapter, KcRTreeKeywordAdapter
from repro.whynot.errors import NotMissingError
from repro.whynot.keyword import KeywordAdapter

from tests.conftest import random_queries


def scenarios(scorer, *, count, k, missing_count=1, seed=80):
    from repro.bench.workloads import generate_whynot_scenarios

    return generate_whynot_scenarios(
        scorer, count=count, k=k, missing_count=missing_count, seed=seed,
        rank_window=25,
    )


@pytest.fixture(scope="module")
def adapter(small_scorer, small_kcrtree):
    return KcRTreeKeywordAdapter(small_scorer, small_kcrtree)


@pytest.fixture(scope="module")
def baseline(small_scorer):
    return ExhaustiveKeywordAdapter(small_scorer)


@pytest.fixture(scope="module")
def scan_adapter(small_scorer):
    return KeywordAdapter(small_scorer)


class TestContainment:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_refined_query_revives_missing(self, small_scorer, adapter, lam):
        oracle = BruteForceTopK(small_scorer)
        for scenario in scenarios(small_scorer, count=5, k=5):
            refinement = adapter.refine(scenario.query, scenario.missing, lam=lam)
            result = oracle.search(refinement.refined_query)
            for missing in scenario.missing:
                assert result.contains(missing), refinement.describe()

    def test_multiple_missing_objects(self, small_scorer, adapter):
        oracle = BruteForceTopK(small_scorer)
        for scenario in scenarios(small_scorer, count=3, k=5, missing_count=2, seed=81):
            refinement = adapter.refine(scenario.query, scenario.missing)
            result = oracle.search(refinement.refined_query)
            assert all(result.contains(m) for m in scenario.missing)

    def test_medium_database(self, medium_scorer, medium_kcrtree):
        adapter = KcRTreeKeywordAdapter(medium_scorer, medium_kcrtree)
        oracle = BruteForceTopK(medium_scorer)
        for scenario in scenarios(medium_scorer, count=2, k=10, seed=82):
            refinement = adapter.refine(scenario.query, scenario.missing)
            result = oracle.search(refinement.refined_query)
            assert all(result.contains(m) for m in scenario.missing)


class TestBoundAndPruneExactness:
    @pytest.mark.parametrize("arm", ["adapter", "scan_adapter"])
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_same_answer_as_exhaustive(self, request, small_scorer, baseline, arm, lam):
        adapter = request.getfixturevalue(arm)
        for scenario in scenarios(small_scorer, count=4, k=5, seed=83):
            pruned = adapter.refine(scenario.query, scenario.missing, lam=lam)
            exhaustive = baseline.refine(scenario.query, scenario.missing, lam=lam)
            assert pruned.penalty == pytest.approx(exhaustive.penalty, abs=1e-12)
            assert pruned.refined_query.doc == exhaustive.refined_query.doc
            assert pruned.refined_query.k == exhaustive.refined_query.k

    def test_pruning_reduces_scored_objects(self, small_scorer, adapter, baseline):
        scenario = scenarios(small_scorer, count=1, k=5, seed=84)[0]
        pruned = adapter.refine(scenario.query, scenario.missing)
        exhaustive = baseline.refine(scenario.query, scenario.missing)
        assert pruned.stats.objects_scored < exhaustive.stats.objects_scored

    def test_methods_reported(self, small_scorer, adapter, scan_adapter, baseline):
        scenario = scenarios(small_scorer, count=1, k=5, seed=85)[0]
        assert adapter.refine(scenario.query, scenario.missing).method == "kcr-bound-prune"
        assert (
            scan_adapter.refine(scenario.query, scenario.missing).method
            == "scan-index-bound-prune"
        )
        assert (
            baseline.refine(scenario.query, scenario.missing).method
            == "exhaustive-scan"
        )


class TestRefinementSemantics:
    def test_added_keywords_come_from_missing_docs(self, small_scorer, adapter):
        for scenario in scenarios(small_scorer, count=4, k=5, seed=86):
            refinement = adapter.refine(scenario.query, scenario.missing)
            missing_doc = frozenset().union(*(m.doc for m in scenario.missing))
            assert refinement.added <= missing_doc - scenario.query.doc

    def test_removed_keywords_come_from_query(self, small_scorer, adapter):
        for scenario in scenarios(small_scorer, count=4, k=5, seed=87):
            refinement = adapter.refine(scenario.query, scenario.missing)
            assert refinement.removed <= scenario.query.doc

    def test_delta_doc_is_edit_distance(self, small_scorer, adapter):
        for scenario in scenarios(small_scorer, count=4, k=5, seed=88):
            refinement = adapter.refine(scenario.query, scenario.missing)
            assert refinement.delta_doc == len(
                scenario.query.doc ^ refinement.refined_query.doc
            )

    def test_loc_weights_unchanged(self, small_scorer, adapter):
        # Definition 3: q' = (loc, doc', k', ~w) — weights stay fixed.
        for scenario in scenarios(small_scorer, count=3, k=5, seed=89):
            refined = adapter.refine(scenario.query, scenario.missing).refined_query
            assert refined.loc == scenario.query.loc
            assert refined.weights == scenario.query.weights

    def test_refined_k_covers_worst_rank(self, small_scorer, adapter):
        for scenario in scenarios(small_scorer, count=3, k=5, seed=90):
            refinement = adapter.refine(scenario.query, scenario.missing)
            assert refinement.refined_query.k == max(
                scenario.query.k, refinement.refined_worst_rank
            )

    def test_penalty_never_exceeds_lambda(self, small_scorer, adapter):
        # The zero-edit candidate (pure k-enlargement) achieves λ.
        for lam in (0.0, 0.4, 1.0):
            scenario = scenarios(small_scorer, count=1, k=5, seed=91)[0]
            refinement = adapter.refine(scenario.query, scenario.missing, lam=lam)
            assert refinement.penalty <= lam + 1e-12

    def test_lambda_zero_returns_zero_edit_refinement(self, small_scorer, adapter):
        # With λ=0 the Δk term vanishes; the admissible cut stops the
        # enumeration after the zero-edit candidate (penalty 0).
        scenario = scenarios(small_scorer, count=1, k=5, seed=92)[0]
        refinement = adapter.refine(scenario.query, scenario.missing, lam=0.0)
        assert refinement.delta_doc == 0
        assert refinement.penalty == 0.0


class TestGuardsAndErrors:
    def test_not_missing_raises(self, small_scorer, adapter):
        q = random_queries(small_scorer.database, 1, seed=93, k=5)[0]
        top = small_scorer.top_k(q)
        with pytest.raises(NotMissingError):
            adapter.refine(q, [top.entries[0].obj])

    def test_empty_missing_rejected(self, small_scorer, adapter):
        q = random_queries(small_scorer.database, 1, seed=94, k=5)[0]
        with pytest.raises(ValueError):
            adapter.refine(q, [])

    def test_kernel_free_scorer_takes_a_reference_arm(self, small_db, small_kcrtree):
        from repro.core.scoring import Scorer

        scorer = Scorer(small_db, use_kernel=False)
        with pytest.raises(ValueError, match="columnar kernel"):
            KeywordAdapter(scorer)
        assert KcRTreeKeywordAdapter(scorer, small_kcrtree).index is small_kcrtree
        scenario = scenarios(scorer, count=1, k=5, seed=96)[0]
        refinement = ExhaustiveKeywordAdapter(scorer).refine(
            scenario.query, scenario.missing
        )
        assert refinement.method == "exhaustive-scan"

    def test_mismatched_database_rejected(self, small_scorer, medium_kcrtree):
        with pytest.raises(ValueError):
            KcRTreeKeywordAdapter(small_scorer, medium_kcrtree)

    def test_candidate_budget_validated(self, small_scorer, small_kcrtree):
        with pytest.raises(ValueError):
            KcRTreeKeywordAdapter(small_scorer, small_kcrtree, candidate_budget=0)

    def test_max_edit_count_limits_search(self, small_scorer, small_kcrtree):
        capped = KcRTreeKeywordAdapter(small_scorer, small_kcrtree, max_edit_count=1)
        scenario = scenarios(small_scorer, count=1, k=5, seed=95)[0]
        refinement = capped.refine(scenario.query, scenario.missing)
        assert refinement.delta_doc <= 1

    def test_stats_populated(self, small_scorer, adapter):
        scenario = scenarios(small_scorer, count=1, k=5, seed=96)[0]
        refinement = adapter.refine(scenario.query, scenario.missing)
        stats = refinement.stats
        assert stats.candidates_generated >= 1
        assert stats.candidates_evaluated >= 1
        assert stats.edit_levels_explored >= 1
        assert 0.0 <= stats.prune_ratio <= 1.0


class TestScanIndexArm:
    """The tree-less arm: capped candidates are one indexed top-``cap``
    scan per missing object, the Δdoc = 0 candidate none."""

    @pytest.mark.parametrize("missing_count", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.9])
    def test_scans_are_booked_on_the_kernel_and_q_doc_scans_nothing(
        self, small_scorer, scan_adapter, adapter, lam, missing_count
    ):
        stats = small_scorer.kernel.stats
        for scenario in scenarios(
            small_scorer, count=3, k=5, missing_count=missing_count, seed=97
        ):
            calls, rows = stats.scan_calls, stats.scan_rows_scored
            refinement = scan_adapter.refine(scenario.query, scenario.missing, lam=lam)
            work = refinement.stats
            scans = stats.scan_calls - calls
            assert scans <= (work.candidates_generated - 1) * len(scenario.missing)
            assert (stats.scan_rows_scored - rows > 0) == (scans > 0)
            if lam == 0.0:  # only Δdoc is priced: q itself wins unranked
                assert scans == 0 and work.candidates_generated == 1
            # The descent's counters stay 0: no tree, no object scored by it.
            assert (
                work.nodes_expanded, work.nodes_resolved_by_bounds, work.objects_scored
            ) == (0, 0, 0)
            tree = adapter.refine(scenario.query, scenario.missing, lam=lam)
            assert (
                refinement.refined_query, refinement.penalty,
                refinement.refined_worst_rank,
            ) == (tree.refined_query, tree.penalty, tree.refined_worst_rank)
            assert (work.candidates_generated, work.candidates_pruned) == (
                tree.stats.candidates_generated, tree.stats.candidates_pruned
            )
