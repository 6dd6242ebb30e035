"""The why-not question answering engine (Sections 2.2 and 3.3).

Modules:

* :mod:`repro.whynot.penalty` — Eqns. (3) and (4).
* :mod:`repro.whynot.context` — what one session's questions share.
* :mod:`repro.whynot.preference` — Definition 2 via the weight-plane
  crossover sweep and rank update theorem.
* :mod:`repro.whynot.keyword` — Definition 3 via KcR-tree bound-and-prune.
* :mod:`repro.whynot.explanation` — the explanation generator.
* :mod:`repro.whynot.baselines` — sampling / exhaustive comparison points.
* :mod:`repro.whynot.engine` — the combined engine facade.
"""

from repro.whynot.baselines import SamplingPreferenceAdjuster, exhaustive_keyword_adapter
from repro.whynot.combined import CombinedRefinement, CombinedRefiner
from repro.whynot.context import WhyNotContext
from repro.whynot.engine import WhyNotAnswer, WhyNotEngine
from repro.whynot.errors import NotMissingError, UnknownObjectError, WhyNotError
from repro.whynot.explanation import (
    ExplanationGenerator,
    MissingReason,
    ObjectExplanation,
    WhyNotExplanation,
)
from repro.whynot.keyword import AdaptionStats, KeywordAdapter, KeywordRefinement
from repro.whynot.penalty import (
    KeywordPenalty,
    PreferencePenalty,
    keyword_edit_distance,
    missing_doc_union,
)
from repro.whynot.preference import PreferenceAdjuster, PreferenceRefinement

__all__ = [
    "SamplingPreferenceAdjuster",
    "exhaustive_keyword_adapter",
    "CombinedRefinement",
    "CombinedRefiner",
    "WhyNotContext",
    "WhyNotAnswer",
    "WhyNotEngine",
    "NotMissingError",
    "UnknownObjectError",
    "WhyNotError",
    "ExplanationGenerator",
    "MissingReason",
    "ObjectExplanation",
    "WhyNotExplanation",
    "AdaptionStats",
    "KeywordAdapter",
    "KeywordRefinement",
    "KeywordPenalty",
    "PreferencePenalty",
    "keyword_edit_distance",
    "missing_doc_union",
    "PreferenceAdjuster",
    "PreferenceRefinement",
]
