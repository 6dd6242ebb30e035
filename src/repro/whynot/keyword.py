"""Keyword-adapted why-not refinement (Definition 3, Eqn. 4).

Section 3.3 of the paper: "The keyword-adapted why-not module is
implemented using an optimized bound and prune algorithm [6].  The
algorithm is based on ... the KcR-tree ... Given a KcR-tree node N, for
a query keyword set q.doc, we can estimate the upper and lower bounds on
the number of objects in N that rank higher than a missing object, and
thus we can estimate the upper and lower bounds of the ranks of missing
objects and the penalties of the corresponding refined query. ...  We
generate the candidate query keyword sets and then traverse the KcR-tree
starting from the root.  For each candidate refined keyword set q'.doc,
we maintain its penalty upper and lower bounds according to the ranking
bounds derived from KcR-tree nodes.  When traversing the KcR-tree
downwards, we get tighter bounds.  We prune the keyword sets whose
penalty bounds exceed the currently seen best one."

Reconstruction (Section 3.3 and [6]):

* **Candidates** are ``S = (q.doc \\ D) ∪ A`` with ``D ⊆ q.doc`` and
  ``A ⊆ M.doc \\ q.doc``, enumerated in increasing edit count
  ``Δdoc = |D| + |A|``.  Only keywords of the missing objects are worth
  adding — any other keyword lowers every missing object's Jaccard
  similarity *and* costs an edit.
* **Admissible cut:** a candidate with ``Δdoc = e`` has penalty at least
  ``(1−λ)·e / |q.doc ∪ M.doc|``; once that floor reaches the best
  penalty seen, every remaining (larger-edit) candidate is pruned and
  enumeration stops.
* **Bound and prune per candidate:** a candidate only needs its exact
  worst rank if that rank is small enough to beat the best penalty.
  One ``ScoringKernel.scan_top_k(cap, …, floor=θ_m)`` over the rows that
  can still reach ``m``'s own score ``θ_m`` answers "is ``m`` among the
  top ``cap`` under the candidate, and at which place": ``m``'s place in
  that list is its rank, its absence a rank above the cap.  The one
  uncapped candidate, ``q.doc`` itself, reads its ranks off the
  :class:`WhyNotContext` and scans nothing.

The paper's KcR-tree descent, which bounds the same ranks with the
Fig. 2 payload, and the exhaustive scan are kept as references in
:mod:`repro.paper.keyword`; all three return the same ranks, so the
same prunes and refined query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Mapping, Sequence, cast

from repro.core.kernel import DocContext, ScoringKernel
from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.whynot.context import WhyNotContext, served_scorer
from repro.whynot.errors import NotMissingError
from repro.whynot.penalty import KeywordPenalty

__all__ = ["KeywordRefinement", "KeywordAdapter", "AdaptionStats"]

@dataclass(frozen=True, slots=True)
class KeywordRefinement:
    """The answer to a keyword-adapted why-not question.

    ``refined_query`` differs from the initial query only in its keyword
    set and (possibly) its ``k`` (Definition 3: ``q' = (loc, doc', k', ~w)``).
    """

    refined_query: SpatialKeywordQuery
    penalty: float
    delta_k: int
    delta_doc: int
    added: frozenset[str]
    removed: frozenset[str]
    refined_worst_rank: int
    initial_worst_rank: int
    lam: float
    stats: "AdaptionStats"
    method: str = "kcr-bound-prune"

    @property
    def k_only(self) -> bool:
        """True when the refinement keeps q.doc and only enlarges k."""
        return self.delta_doc == 0

    def describe(self) -> str:
        added = ", ".join(sorted(self.added)) or "-"
        removed = ", ".join(sorted(self.removed)) or "-"
        return (
            f"refined keywords={sorted(self.refined_query.doc)} "
            f"(+[{added}] -[{removed}]), k={self.refined_query.k} "
            f"(Δk={self.delta_k}, Δdoc={self.delta_doc}), penalty={self.penalty:.4f}"
        )


@dataclass(slots=True)
class AdaptionStats:
    """Work counters of one adaption run (the E5 pruning-ratio metrics)."""

    candidates_generated: int = 0
    candidates_pruned: int = 0
    candidates_evaluated: int = 0
    edit_levels_explored: int = 0
    nodes_expanded: int = 0
    nodes_resolved_by_bounds: int = 0
    objects_scored: int = 0

    @property
    def prune_ratio(self) -> float:
        """Fraction of generated candidates abandoned before exact ranking."""
        if self.candidates_generated == 0:
            return 0.0
        return self.candidates_pruned / self.candidates_generated


class KeywordAdapter:
    """The keyword-adaption module of YASK's why-not engine."""

    method = "scan-index-bound-prune"

    def __init__(
        self,
        scorer: Scorer,
        *,
        max_edit_count: int | None = None,
        candidate_budget: int | None = None,
    ) -> None:
        """
        Parameters
        ----------
        scorer:
            Shared Eqn. (1) evaluator, with a columnar kernel: capped
            candidates are ranked on the kernel's scan index.
        max_edit_count:
            Optional hard cap on ``Δdoc`` (None = bounded only by the
            admissible penalty cut).
        candidate_budget:
            Optional hard cap on generated candidates, for defensive use
            with extreme ``λ`` values where the Δdoc term vanishes.
        """
        if candidate_budget is not None and candidate_budget < 1:
            raise ValueError("candidate_budget must be at least 1")
        self._scorer = self._checked(scorer)
        self._max_edit_count = max_edit_count
        self._candidate_budget = candidate_budget

    @staticmethod
    def _checked(scorer: Scorer) -> Scorer:
        return served_scorer(scorer, "ExhaustiveKeywordAdapter")

    def _new_context(
        self, query: SpatialKeywordQuery, missing: Sequence[SpatialObject]
    ) -> WhyNotContext:
        return WhyNotContext(self._scorer, query, missing)

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def refine(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        *,
        lam: float = 0.5,
        context: WhyNotContext | None = None,
    ) -> KeywordRefinement:
        """Answer Definition 3 for missing set ``missing`` under ``λ``.

        ``context`` (the shared facts about ``(query, missing)``) is
        built here when the caller holds none.
        """
        if not missing:
            raise ValueError("the missing object set M must not be empty")
        if context is None:
            context = self._new_context(query, missing)
        initial_worst = context.initial_worst_rank
        if initial_worst <= query.k:
            ranks = context.initial_ranks
            raise NotMissingError([oid for oid in ranks if ranks[oid] <= query.k])

        penalty = KeywordPenalty(query, missing, initial_worst, lam)
        stats = AdaptionStats()

        ranker = self._ranker(query, context)

        best_doc: frozenset[str] | None = None
        best_worst: int | None = None
        best_penalty = math.inf

        for edit_count, candidate in self._enumerate_candidates(
            query, missing, penalty, lambda: best_penalty, stats
        ):
            rank_cap = self._useful_rank_cap(
                penalty, edit_count, best_penalty, query.k
            )
            worst = self._worst_rank_capped(
                query, candidate, context, ranker, rank_cap, stats
            )
            if worst is None:
                stats.candidates_pruned += 1
                continue
            stats.candidates_evaluated += 1
            pen = penalty(worst, candidate)
            if self._improves(
                pen, candidate, best_penalty, best_doc, query.doc
            ):
                best_penalty = pen
                best_doc = candidate
                best_worst = worst

        assert best_doc is not None and best_worst is not None  # e=0 candidate
        refined_k = penalty.refined_k(best_worst)
        refined_query = query.with_doc(best_doc).with_k(refined_k)
        return KeywordRefinement(
            refined_query=refined_query,
            penalty=best_penalty,
            delta_k=penalty.delta_k(best_worst),
            delta_doc=penalty.delta_doc(best_doc),
            added=frozenset(best_doc - query.doc),
            removed=frozenset(query.doc - best_doc),
            refined_worst_rank=best_worst,
            initial_worst_rank=initial_worst,
            lam=lam,
            stats=stats,
            method=self.method,
        )

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _enumerate_candidates(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[SpatialObject],
        penalty: KeywordPenalty,
        best_penalty: Callable[[], float],
        stats: AdaptionStats,
    ) -> Iterator[tuple[int, frozenset[str]]]:
        """Yield ``(edit_count, candidate_doc)`` in increasing edit count.

        Stops as soon as the admissible keyword-term floor of the next
        edit level reaches the best penalty seen so far (read through the
        ``best_penalty`` thunk, which tracks the caller's running best).
        """
        original = sorted(query.doc)
        addition_pool = sorted(penalty.missing_doc - query.doc)
        max_edits = len(original) + len(addition_pool)
        if self._max_edit_count is not None:
            max_edits = min(max_edits, self._max_edit_count)

        for edit_count in range(0, max_edits + 1):
            if penalty.modification_term_for_edits(edit_count) >= best_penalty():
                return
            stats.edit_levels_explored += 1
            for deletions in range(
                max(0, edit_count - len(addition_pool)),
                min(edit_count, len(original)) + 1,
            ):
                additions = edit_count - deletions
                for removed in combinations(original, deletions):
                    kept = query.doc - frozenset(removed)
                    for added in combinations(addition_pool, additions):
                        candidate = kept | frozenset(added)
                        if not candidate:
                            continue
                        if (
                            self._candidate_budget is not None
                            and stats.candidates_generated
                            >= self._candidate_budget
                        ):
                            return
                        stats.candidates_generated += 1
                        yield edit_count, candidate

    @staticmethod
    def _useful_rank_cap(
        penalty: KeywordPenalty, edit_count: int, best_penalty: float, k: int
    ) -> int | None:
        """Largest worst-rank that could still beat ``best_penalty``.

        Solving Eqn. (4) for ``R(M, q')`` given the candidate's fixed
        keyword term.  None means unbounded (λ = 0 or no best yet).
        """
        if math.isinf(best_penalty):
            return None
        if penalty.lam == 0.0:
            return None
        headroom = best_penalty - penalty.modification_term_for_edits(edit_count)
        if headroom <= 0.0:
            return k  # only an in-result rank could tie; Δk=0 candidates
        max_delta_k = headroom * (penalty.initial_worst_rank - k) / penalty.lam
        return k + math.ceil(max_delta_k)

    @staticmethod
    def _improves(
        pen: float,
        candidate: frozenset[str],
        best_penalty: float,
        best_doc: frozenset[str] | None,
        original_doc: frozenset[str],
    ) -> bool:
        """Deterministic better-than test: penalty, then Δdoc, then lexicographic."""
        if pen < best_penalty - 1e-15:
            return True
        if pen > best_penalty + 1e-15:
            return False
        if best_doc is None:
            return True
        candidate_edits = len(original_doc ^ candidate)
        best_edits = len(original_doc ^ best_doc)
        if candidate_edits != best_edits:
            return candidate_edits < best_edits
        return sorted(candidate) < sorted(best_doc)

    # ------------------------------------------------------------------
    # Worst-rank computation (bound and prune)
    # ------------------------------------------------------------------
    def _ranker(
        self, query: SpatialKeywordQuery, context: WhyNotContext
    ) -> "_CandidateRanker":
        """Spatial proximities are shared by every candidate: the scan
        scores only the missing objects itself, and the dual view holds
        theirs."""
        return _CandidateRanker(
            cast(ScoringKernel, self._scorer.kernel), query,
            {dual.oid: dual.a for dual in context.missing_duals},
        )

    def _worst_rank_capped(
        self,
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        context: WhyNotContext,
        ranker: "_CandidateRanker",
        rank_cap: int | None,
        stats: AdaptionStats,
    ) -> int | None:
        """``R(M, q')`` for the candidate doc, or None when provably > cap."""
        if candidate == query.doc:
            # Δdoc = 0, the first (uncapped) candidate: q itself.
            return context.initial_worst_rank
        ranker.set_candidate(candidate)
        worst = 0
        for obj in context.missing:
            rank = ranker.rank_within(obj, rank_cap)
            if rank is None:
                return None
            worst = max(worst, rank)
        return worst


class _CandidateRanker:
    """Candidate-set scoring on the kernel's scan index.

    Every candidate keyword set shares the query's spatial term, so the
    missing objects' proximities are read once per refine run; each
    candidate is encoded to a bitmask ``DocContext``, and ``TSim`` per
    row is bit arithmetic.
    """

    __slots__ = ("_kernel", "_ws", "_wt", "_loc", "_missing_prox", "_ctx")

    def __init__(
        self,
        kernel: ScoringKernel,
        query: SpatialKeywordQuery,
        missing_proximities: Mapping[int, float],
    ) -> None:
        """``missing_proximities``: ``1 − SDist`` of the missing objects
        by oid, the only objects the ranker scores itself."""
        self._kernel = kernel
        self._ws = query.ws
        self._wt = query.wt
        self._loc = query.loc
        self._missing_prox = missing_proximities
        self._ctx: DocContext | None = None

    def set_candidate(self, candidate: frozenset[str]) -> None:
        """Bind the candidate keyword set subsequent scores are under."""
        self._ctx = self._kernel.doc_context(candidate)

    def score(self, obj: SpatialObject) -> float:
        """``ST(o, q')`` under the bound candidate keyword set."""
        row = self._kernel.row_of(obj.oid)
        return self._ws * self._missing_prox[obj.oid] + self._wt * self._ctx.tsim_row(row)

    def rank_within(
        self, missing_obj: SpatialObject, cap: int | None
    ) -> int | None:
        """Exact rank of ``missing_obj`` when at most ``cap``, else None.

        One indexed top-``cap`` scan cut at the inclusive floor of the
        object's own score ``θ``: only rows that can reach ``θ`` are
        scored, with the scan's ``ws·(1 − d) + wt·t`` — bit-identical to
        :meth:`score`'s ``ws·proximity + wt·TSim`` — so the list holds
        exactly the object's beaters in (score desc, oid asc) order,
        then the object itself unless ``cap`` beaters filled it.  No
        cap (no penalty to beat yet) caps at every live row.
        """
        ctx = self._ctx
        rows = self._kernel.scan_top_k(
            cap or self._kernel.live_count, self._loc.x, self._loc.y,
            ctx.mask, ctx.length, self._ws, self._wt,
            floor=self.score(missing_obj),
        )
        for place, (_, oid, _, _) in enumerate(rows, 1):
            if oid == missing_obj.oid:
                return place
        return None
