"""The why-not question answering engine (Fig. 1, right-hand engine).

Combines the three modules of Section 3.3 — the explanation generator,
the preference-adjusted module and the keyword-adapted module — behind
one facade that resolves missing-object references, validates the
question and dispatches to the chosen refinement model.  "Users can
apply the two refinement functions simultaneously to find better
solutions" (Section 3.2): :meth:`WhyNotEngine.refine_both` runs both
models and reports them side by side.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

from repro import concurrency
from repro.core.objects import SpatialDatabase, SpatialObject
from repro.core.query import QueryResult, SpatialKeywordQuery
from repro.core.scoring import Scorer
from repro.whynot.combined import CombinedRefinement, CombinedRefiner
from repro.whynot.context import WhyNotContext
from repro.whynot.errors import UnknownObjectError
from repro.whynot.explanation import ExplanationGenerator, WhyNotExplanation
from repro.whynot.keyword import KeywordAdapter, KeywordRefinement
from repro.whynot.preference import PreferenceAdjuster, PreferenceRefinement

__all__ = ["WhyNotAnswer", "WhyNotEngine"]

#: Recent ``(loc, doc, ~w, M)`` contexts an engine keeps (~0.05 MB each,
#: 0.18 at p90, per 20k objects): a session asks its questions back to
#: back, so a few cover the serving tier's concurrent sessions.
CONTEXT_MEMO_SIZE = 4


@dataclass(frozen=True, slots=True)
class WhyNotAnswer:
    """A combined answer: explanation plus the available refinements."""

    explanation: WhyNotExplanation
    preference: PreferenceRefinement | None = None
    keyword: KeywordRefinement | None = None

    @property
    def best_model(self) -> str | None:
        """Which executed model produced the lower penalty.

        Tie rule (explicit and deterministic): when both models were
        executed and their penalties are *exactly* equal, preference
        adjustment wins.  It is the less intrusive refinement — it keeps
        the user's keywords verbatim and only re-weights the ranking
        components, whereas keyword adaption rewrites the query text —
        so at equal cost the answer recommends the query closest to what
        the user originally asked.  With only one model executed that
        model wins by default; with neither, there is no winner (None).
        """
        if self.preference is None and self.keyword is None:
            return None
        if self.keyword is None:
            return "preference adjustment"
        if self.preference is None:
            return "keyword adaption"
        if self.keyword.penalty < self.preference.penalty:
            return "keyword adaption"
        # Strictly lower penalty — or the documented tie rule above.
        return "preference adjustment"


class WhyNotEngine:
    """Server-side why-not engine over one database and text model.

    The keyword adapter ranks its capped candidates on the scorer
    kernel's scan index, for every kernel model (so the scorer needs
    one); the ablation parameters, and the paper's tree descent, live
    on :class:`PreferenceAdjuster` and :class:`KeywordAdapter`.

    The questions of one session share a :class:`WhyNotContext`: the
    engine keeps the last :data:`CONTEXT_MEMO_SIZE` and, as a
    :class:`~repro.core.mutations.MutableDatabase` listener
    (:class:`~repro.service.api.YaskEngine` registers it), drops them
    with every mutation batch.
    """

    def __init__(self, scorer: Scorer) -> None:
        self._scorer = scorer
        self._preference = PreferenceAdjuster(scorer)
        self._explainer = ExplanationGenerator(
            scorer, preference_adjuster=self._preference
        )
        self._keyword = KeywordAdapter(scorer)
        self._combined = CombinedRefiner(scorer, self._preference, self._keyword)
        # Guards the dict only: contexts are built outside it.
        self._contexts_lock = concurrency.ordered_lock(
            "whynot.contexts", concurrency.LEVEL_LEAF
        )
        self._contexts: OrderedDict[Hashable, WhyNotContext] = OrderedDict()

    @property
    def database(self) -> SpatialDatabase:
        return self._scorer.database

    @property
    def scorer(self) -> Scorer:
        return self._scorer

    # ------------------------------------------------------------------
    # Missing-object resolution
    # ------------------------------------------------------------------
    def resolve_missing(
        self, references: Sequence[int | str | SpatialObject]
    ) -> list[SpatialObject]:
        """Resolve ids/names/objects to database objects (``M ⊂ D``).

        Duplicates collapse; unknown references raise
        :class:`UnknownObjectError`.
        """
        resolved: list[SpatialObject] = []
        seen: set[int] = set()
        for reference in references:
            try:
                obj = self._scorer.database.resolve(reference)
            except KeyError:
                raise UnknownObjectError(reference) from None
            if obj.oid not in seen:
                seen.add(obj.oid)
                resolved.append(obj)
        return resolved

    @contextmanager
    def _context(
        self,
        query: SpatialKeywordQuery,
        references: Sequence[int | str | SpatialObject],
    ) -> Iterator[WhyNotContext]:
        """The memoised context of ``query`` and the resolved references
        (its ``missing``); neither ``k`` nor ``λ`` is part of the key.
        A context is kept once the block has answered from it: a refused
        question (empty M, nothing missing, deadline) raises past the
        memo and takes no slot."""
        missing = self.resolve_missing(references)
        key = (
            query.loc, query.doc, query.weights,
            tuple(obj.oid for obj in missing),
        )
        with self._contexts_lock:
            context = self._contexts.get(key)
        if context is None:
            context = WhyNotContext(self._scorer, query, missing)
        yield context
        with self._contexts_lock:
            self._contexts[key] = context
            self._contexts.move_to_end(key)
            while len(self._contexts) > CONTEXT_MEMO_SIZE:
                self._contexts.popitem(last=False)

    def apply_mutations(self, change: object) -> None:
        """Mutation listener (runs under the engine's write lock, so no
        reader is building one): a context describes one generation."""
        with self._contexts_lock:
            self._contexts.clear()

    # ------------------------------------------------------------------
    # The three modules
    # ------------------------------------------------------------------
    def explain(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        initial_result: QueryResult | None = None,
    ) -> WhyNotExplanation:
        """Run the explanation generator for the missing set.

        ``initial_result`` — the query's already-computed top-k result
        (the session cache or the executor tier holds one) — is used as
        the explanation's starting point; without it the generator
        re-derives the result from scratch.
        """
        with self._context(query, missing) as context:
            return self._explainer.explain(
                query, context.missing, result=initial_result, context=context
            )

    def refine_preference(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
    ) -> PreferenceRefinement:
        """Run the preference-adjusted refinement model (Definition 2)."""
        with self._context(query, missing) as context:
            return self._preference.refine(
                query, context.missing, lam=lam, context=context
            )

    def refine_keywords(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
    ) -> KeywordRefinement:
        """Run the keyword-adapted refinement model (Definition 3)."""
        with self._context(query, missing) as context:
            return self._keyword.refine(
                query, context.missing, lam=lam, context=context
            )

    def refine_combined(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
    ) -> CombinedRefinement:
        """Apply both refinement functions together (Section 3.2)."""
        with self._context(query, missing) as context:
            return self._combined.refine(
                query, context.missing, lam=lam, context=context
            )

    def refine_both(
        self,
        query: SpatialKeywordQuery,
        missing: Sequence[int | str | SpatialObject],
        *,
        lam: float = 0.5,
        initial_result: QueryResult | None = None,
    ) -> WhyNotAnswer:
        """Explanation plus both refinement models side by side.

        ``initial_result`` (the cached top-k result for ``query``, when
        the caller holds one) spares the explanation generator from
        re-deriving it; the refiners rank in dual space and need no
        materialised result either way.
        """
        with self._context(query, missing) as context:
            resolved = context.missing
            explanation = self._explainer.explain(
                query, resolved, result=initial_result, context=context
            )
            preference = self._preference.refine(query, resolved, lam=lam, context=context)
            keyword = self._keyword.refine(query, resolved, lam=lam, context=context)
            return WhyNotAnswer(
                explanation=explanation, preference=preference, keyword=keyword
            )
