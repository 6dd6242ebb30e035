"""The paper's algorithms (Section 3.3), kept as references.

The served engine answers each question one way, on the scorer's
kernel.  The SetR-tree, KcR-tree and dual R-tree algorithms it
reproduces answer for answer, and the baselines they are compared
with, are these classes; E2–E8, the E8/E11 ablations and the parity
suites run them.  Each also runs on the set path
(``Scorer(use_kernel=False)``), which the served classes refuse.
"""

from repro.paper.context import ScanExplanationGenerator, ViewlessContext
from repro.paper.keyword import ExhaustiveKeywordAdapter, KcRTreeKeywordAdapter
from repro.paper.preference import (
    DualIndexPreferenceAdjuster,
    LinearPreferenceAdjuster,
    SamplingPreferenceAdjuster,
    ranks_at_weights,
)
from repro.paper.topk import BestFirstTopK, SearchStats, SpatioTextualIndex

__all__ = [
    "ScanExplanationGenerator",
    "ViewlessContext",
    "ExhaustiveKeywordAdapter",
    "KcRTreeKeywordAdapter",
    "DualIndexPreferenceAdjuster",
    "LinearPreferenceAdjuster",
    "SamplingPreferenceAdjuster",
    "ranks_at_weights",
    "BestFirstTopK",
    "SearchStats",
    "SpatioTextualIndex",
]
