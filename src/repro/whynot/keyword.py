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

Reconstruction (DESIGN.md §3.4):

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
  Two arms answer "is ``m`` among the top ``cap`` under the candidate,
  and at which place":

  - *scan index* (no tree given; the served engine's arm, every kernel
    model): one ``ScoringKernel.scan_top_k(cap, …, floor=θ_m)`` over the
    rows that can still reach ``m``'s own score ``θ_m`` — ``m``'s place
    in that list is its rank, its absence a rank above the cap.  The
    one uncapped candidate, ``q.doc`` itself, reads its ranks off the
    :class:`WhyNotContext` and scans nothing;
  - *KcR-tree* (the paper's descent, kept for callers that pass a
    tree): accumulate guaranteed beaters (rank lower bound) and abandon
    the candidate as soon as the bound crosses the cap, resolving nodes
    to exact counts only where the node bounds straddle the missing
    object's score.

  Both return the same ranks, so the same prunes and refined query.

The node-level count bounds come from the KcR-tree payload of Fig. 2
(keyword-count map + ``cnt``, plus the min/max doc length reconstruction
detail) combined with MINDIST/MAXDIST on the node MBR — see
:meth:`KeywordAdapter._node_beater_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.objects import SpatialObject
from repro.core.query import SpatialKeywordQuery
from repro.core.scoring import Scorer, outranks
from repro.index.kcrtree import KcRTree, KcSummary
from repro.index.rtree import RTreeNode
from repro.text.similarity import JaccardSimilarity
from repro.whynot.context import WhyNotContext
from repro.whynot.errors import NotMissingError
from repro.whynot.penalty import KeywordPenalty

__all__ = ["KeywordRefinement", "KeywordAdapter", "AdaptionStats"]

#: Safety margin when comparing derived float bounds against exact scores.
_BOUND_MARGIN = 1e-9


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

    def __init__(
        self,
        scorer: Scorer,
        index: KcRTree | None = None,
        *,
        use_bounds: bool = True,
        max_edit_count: int | None = None,
        candidate_budget: int | None = None,
    ) -> None:
        """
        Parameters
        ----------
        scorer:
            Shared Eqn. (1) evaluator.  Without ``index`` its columnar
            kernel ranks capped candidates on the kernel's scan index
            (Jaccard, Dice and Overlap alike).
        index:
            Optional :class:`KcRTree` over the scorer's database: capped
            candidates are then ranked by the paper's descent, whose
            bounds are derived for the Jaccard model (Eqn. 2, the
            paper's default), so ``use_bounds=True`` requires it.
        use_bounds:
            When False, every candidate's worst rank is computed by a
            full database scan — the exhaustive baseline of experiment
            E5/E8.
        max_edit_count:
            Optional hard cap on ``Δdoc`` (None = bounded only by the
            admissible penalty cut).
        candidate_budget:
            Optional hard cap on generated candidates, for defensive use
            with extreme ``λ`` values where the Δdoc term vanishes.
        """
        if use_bounds and index is None and scorer.kernel is None:
            raise ValueError(
                "the scan-index arm ranks on a columnar kernel; pass a "
                "KcR-tree or use use_bounds=False for this text model"
            )
        if (
            use_bounds
            and index is not None
            and not isinstance(scorer.text_model, JaccardSimilarity)
        ):
            raise ValueError(
                "KcR-tree rank bounds are derived for the Jaccard model; "
                "drop the tree or use use_bounds=False for other text models"
            )
        if index is not None and index.database is not scorer.database:
            raise ValueError("index and scorer must share the same database")
        if candidate_budget is not None and candidate_budget < 1:
            raise ValueError("candidate_budget must be at least 1")
        self._scorer = scorer
        self._index = index
        self._use_bounds = use_bounds
        self._max_edit_count = max_edit_count
        self._candidate_budget = candidate_budget

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    @property
    def index(self) -> KcRTree | None:
        return self._index

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
            context = WhyNotContext(self._scorer, query, missing)
        initial_worst = context.initial_worst_rank
        if initial_worst <= query.k:
            ranks = context.initial_ranks
            raise NotMissingError([oid for oid in ranks if ranks[oid] <= query.k])

        penalty = KeywordPenalty(query, missing, initial_worst, lam)
        stats = AdaptionStats()

        # Spatial proximities are shared by every candidate.  The scan
        # arm scores only the missing objects itself, and the dual view
        # holds theirs; the KcR descent and the exhaustive ablation index
        # the kernel's whole (shard-annotated) column.
        scan_arm = self._use_bounds and self._index is None
        ranker = _CandidateRanker(
            self._scorer,
            query,
            {dual.oid: dual.a for dual in context.missing_duals}
            if scan_arm and context.view is not None
            else None,
        )

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
            method=(
                "exhaustive-scan" if not self._use_bounds
                else "scan-index-bound-prune" if self._index is None
                else "kcr-bound-prune"
            ),
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
    # Worst-rank computation (bound-and-prune or exhaustive)
    # ------------------------------------------------------------------
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
        scan_arm = self._use_bounds and self._index is None
        if scan_arm and candidate == query.doc:
            # Δdoc = 0, the first (uncapped) candidate: q itself.
            return context.initial_worst_rank
        ranker.set_candidate(candidate)
        worst = 0
        for obj in context.missing:
            if not self._use_bounds:
                rank = ranker.rank_by_scan(obj, stats)
            elif scan_arm:
                rank = ranker.rank_within(obj, rank_cap)
            else:
                rank = self._rank_via_kcrtree(
                    query, candidate, obj, ranker, rank_cap, stats
                )
            if rank is None:
                return None
            if rank > worst:
                worst = rank
        return worst

    def _rank_via_kcrtree(
        self,
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        missing_obj: SpatialObject,
        ranker: "_CandidateRanker",
        rank_cap: int | None,
        stats: AdaptionStats,
    ) -> int | None:
        """Exact rank via KcR-tree descent, or None once provably ≥ cap.

        Nodes whose beater bounds coincide are credited without descent;
        leaves in the uncertain band are scored exactly, a leaf at a
        time.  ``beaters`` is a monotone lower bound of the final count
        throughout, so the cap check is sound at every step.
        """
        theta = ranker.score(missing_obj)
        beaters = 0
        stack: list[RTreeNode[SpatialObject]] = [self._index.root]
        while stack:
            node = stack.pop()
            if node.rect is None:
                continue
            lower, upper = self._node_beater_bounds(
                node, query, candidate, theta, ranker
            )
            if upper == 0:
                stats.nodes_resolved_by_bounds += 1
                continue
            if lower == upper:
                stats.nodes_resolved_by_bounds += 1
                beaters += lower
            elif node.is_leaf:
                scored, beating = ranker.leaf_beaters(node, theta, missing_obj)
                stats.objects_scored += scored
                beaters += beating
            else:
                stats.nodes_expanded += 1
                stack.extend(node.children)
            if rank_cap is not None and beaters + 1 > rank_cap:
                return None
        return beaters + 1

    def _node_beater_bounds(
        self,
        node: RTreeNode[SpatialObject],
        query: SpatialKeywordQuery,
        candidate: frozenset[str],
        theta: float,
        ranker: "_CandidateRanker",
    ) -> tuple[int, int]:
        """Bounds on how many objects under ``node`` outrank the missing object.

        Upper bound: an object can reach score ``θ`` only with
        ``TSim ≥ τ = (θ − ws·proxmax)/wt``; under Jaccard
        ``TSim(o) ≤ |o.doc ∩ S| / max(min_len, |S|)``, so a beater needs
        at least ``c = ⌈τ·max(min_len, |S|)⌉`` of the candidate keywords,
        and the keyword-count map caps how many objects can hold ``c``
        incidences (Fig. 2's payload at work).

        Lower bound: the ``Σ KC[t] − (|S|−1)·cnt`` objects guaranteed to
        contain *all* candidate keywords have ``TSim ≥ |S|/max_len``;
        when even the node's worst proximity pushes them past ``θ`` they
        all outrank the missing object.
        """
        summary: KcSummary = node.summary
        prox_min, prox_max = ranker.node_proximity_bounds(self._index, node)
        ws, wt = query.ws, query.wt

        # ---------------- upper bound ----------------
        best_overlap = summary.max_possible_overlap(candidate)
        candidate_len = len(candidate)
        # |o.doc ∪ S| ≥ max(min_len, |S|, |o.doc ∩ S|, min_len + |S| − |o.doc ∩ S|)
        # — the last term from |o∪S| = |o| + |S| − |o∩S| with |o| ≥ min_len.
        denom_floor = max(
            summary.min_doc_len,
            candidate_len,
            best_overlap,
            summary.min_doc_len + candidate_len - best_overlap,
        )
        tsim_node_ub = best_overlap / denom_floor if denom_floor else 0.0
        if ws * prox_max + wt * tsim_node_ub < theta - _BOUND_MARGIN:
            return (0, 0)
        tau = (theta - ws * prox_max) / wt if wt > 0.0 else 0.0
        if tau <= 0.0:
            upper = summary.cnt
        else:
            # Two valid necessary overlap conditions for TSim(o, S) ≥ τ;
            # take the stronger:
            #   x ≥ τ·max(min_len, |S|)          (from |o∪S| ≥ max(min_len,|S|))
            #   x ≥ τ·(min_len + |S|)/(1 + τ)    (from |o∪S| = |o|+|S|−x)
            required = math.ceil(
                max(
                    tau * max(summary.min_doc_len, candidate_len),
                    tau * (summary.min_doc_len + candidate_len) / (1.0 + tau),
                )
                - _BOUND_MARGIN
            )
            if required > best_overlap:
                upper = 0
            else:
                upper = summary.count_with_overlap_at_least(
                    candidate, max(required, 1)
                )
        if upper == 0:
            return (0, 0)

        # ---------------- lower bound ----------------
        lower = 0
        full = summary.count_containing_all(candidate)
        if full > 0 and summary.max_doc_len > 0:
            guaranteed_tsim = len(candidate) / max(
                summary.max_doc_len, len(candidate)
            )
            if ws * prox_min + wt * guaranteed_tsim > theta + _BOUND_MARGIN:
                lower = full
        return (min(lower, upper), upper)


class _CandidateRanker:
    """Candidate-set scoring with shared spatial proximities.

    Every candidate keyword set shares the query's spatial term, so the
    proximities are cached once per refine run.  With a columnar kernel
    on the scorer, proximities live in a row-indexed column (the scan
    arm's in a map of the missing objects') and each candidate is encoded
    to a bitmask :class:`DocContext` — ``TSim`` per object is then bit
    arithmetic, and a whole leaf, the whole database or the scan index's
    reachable rows are counted in one kernel call.
    Without one (non-set models), the original oid-keyed dict and
    ``similarity`` calls apply.  Both paths produce identical floats.
    """

    __slots__ = (
        "_scorer",
        "_ws",
        "_wt",
        "_kernel",
        "_prox",
        "_missing_prox",
        "_proximity",
        "_candidate",
        "_ctx",
        "_loc",
        "_leaf_rows",
        "_node_bounds",
    )

    def __init__(
        self,
        scorer: Scorer,
        query: SpatialKeywordQuery,
        missing_proximities: Mapping[int, float] | None = None,
    ) -> None:
        """``missing_proximities``: ``1 − SDist`` of the missing objects
        by oid, for the scan arm, which scores nothing else itself (the
        kernel computes the whole column otherwise)."""
        self._scorer = scorer
        self._ws = query.ws
        self._wt = query.wt
        self._loc = query.loc
        self._kernel = scorer.kernel
        self._missing_prox = missing_proximities
        if self._kernel is not None:
            self._prox = (
                None
                if missing_proximities is not None
                else self._kernel.proximities(query)
            )
            self._proximity: dict[int, float] | None = None
        else:
            self._prox = None
            self._proximity = {
                obj.oid: 1.0 - scorer.sdist(obj, query)
                for obj in scorer.database
            }
        self._candidate: AbstractSet[str] | None = None
        self._ctx = None
        #: Per-refinement memos keyed by ``id(node)``: a leaf's kernel
        #: rows, a node's (min, max) proximity.
        self._leaf_rows: dict[int, list[int]] = {}
        self._node_bounds: dict[int, tuple[float, float]] = {}

    def set_candidate(self, candidate: AbstractSet[str]) -> None:
        """Bind the candidate keyword set subsequent scores are under."""
        self._candidate = candidate
        if self._kernel is not None:
            self._ctx = self._kernel.doc_context(candidate)

    def score(self, obj: SpatialObject) -> float:
        """``ST(o, q')`` under the bound candidate keyword set."""
        if self._ctx is not None:
            row = self._kernel.row_of(obj.oid)
            proximity = (
                self._missing_prox[obj.oid] if self._prox is None else self._prox[row]
            )
            return self._ws * proximity + self._wt * self._ctx.tsim_row(row)
        tsim = self._scorer.text_model.similarity(obj.doc, self._candidate)
        return self._ws * self._proximity[obj.oid] + self._wt * tsim

    def node_proximity_bounds(
        self, index: KcRTree, node: RTreeNode[SpatialObject]
    ) -> tuple[float, float]:
        """``index.proximity_bounds(node, q.loc)``, shared by every
        candidate and missing object of the refinement."""
        bounds = self._node_bounds.get(id(node))
        if bounds is None:
            bounds = self._node_bounds[id(node)] = index.proximity_bounds(
                node, self._loc
            )
        return bounds

    def leaf_beaters(
        self,
        leaf: RTreeNode[SpatialObject],
        theta: float,
        missing_obj: SpatialObject,
    ) -> tuple[int, int]:
        """``(objects scored, beaters of (theta, missing_obj))`` in ``leaf``."""
        if self._ctx is None:
            others = [
                entry.item
                for entry in leaf.entries
                if entry.item.oid != missing_obj.oid
            ]
            return len(others), self._count_beaters(others, theta, missing_obj.oid)
        rows = self._leaf_rows.get(id(leaf))
        if rows is None:
            row_of = self._kernel.row_of
            rows = self._leaf_rows[id(leaf)] = [
                row_of(entry.item.oid) for entry in leaf.entries
            ]
        return (
            len(rows) - rows.count(self._kernel.row_of(missing_obj.oid)),
            self._ctx.count_beaters(
                rows, self._ws, self._wt, self._prox, theta, missing_obj.oid
            ),
        )

    def rank_by_scan(
        self, missing_obj: SpatialObject, stats: AdaptionStats
    ) -> int:
        """Exact rank of ``missing_obj`` by scoring the whole database."""
        stats.objects_scored += len(self._scorer.database) - 1
        if self._ctx is not None:
            return self._ctx.rank_scan(
                self._ws, self._wt, self._prox, missing_obj.oid
            )
        return 1 + self._count_beaters(
            self._scorer.database, self.score(missing_obj), missing_obj.oid
        )

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
        pairs = self._kernel.scan_top_k(
            cap or self._kernel.live_count, self._loc.x, self._loc.y,
            ctx.mask, ctx.length, self._ws, self._wt,
            floor=self.score(missing_obj),
        )
        for place, (_, oid) in enumerate(pairs, 1):
            if oid == missing_obj.oid:
                return place
        return None

    def _count_beaters(
        self, objects: Iterable[SpatialObject], theta: float, missing_oid: int
    ) -> int:
        """The set path's (score desc, oid asc) beater count."""
        beaters = 0
        for other in objects:
            if other.oid == missing_oid:
                continue
            if outranks(self.score(other), other.oid, theta, missing_oid):
                beaters += 1
        return beaters
