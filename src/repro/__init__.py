"""YASK — a why-not question answering engine for spatial keyword query services.

A faithful, from-scratch Python reproduction of the system demonstrated
in:

    Lei Chen, Jianliang Xu, Christian S. Jensen, Yafei Li.
    "YASK: A Why-Not Question Answering Engine for Spatial Keyword
    Query Services."  PVLDB 9(13): 1501-1504, 2016.

Quickstart::

    from repro import Point, YaskEngine
    from repro.datasets import hong_kong_hotels

    engine = YaskEngine(hong_kong_hotels())
    result = engine.top_k(Point(114.171, 22.297), {"clean", "comfortable"}, k=3)
    answer = engine.why_not(result.query, ["Grand Victoria Harbour Hotel"])
    print(answer.explanation.narrative())

The served engine's modules are :mod:`repro.core`, :mod:`repro.whynot`
and :mod:`repro.service`; the paper's index-based algorithms
(Section 3.3) are kept as references in :mod:`repro.paper` and
:mod:`repro.index`, and ``docs/BENCHMARKS.md`` records the reproduced
evaluation.
"""

from repro.core import (
    BruteForceTopK,
    DualPoint,
    Point,
    QueryResult,
    RankedObject,
    Rect,
    ScoreBreakdown,
    Scorer,
    SpatialDatabase,
    SpatialKeywordQuery,
    SpatialObject,
    Weights,
)
from repro.index import KcRTree, RTree, SetRTree
from repro.paper import BestFirstTopK
from repro.service.api import YaskEngine
from repro.text import JaccardSimilarity, keyword_set
from repro.whynot import (
    KeywordAdapter,
    KeywordRefinement,
    PreferenceAdjuster,
    PreferenceRefinement,
    WhyNotAnswer,
    WhyNotEngine,
)

__version__ = "1.0.0"

__all__ = [
    "BestFirstTopK",
    "BruteForceTopK",
    "DualPoint",
    "Point",
    "QueryResult",
    "RankedObject",
    "Rect",
    "ScoreBreakdown",
    "Scorer",
    "SpatialDatabase",
    "SpatialKeywordQuery",
    "SpatialObject",
    "Weights",
    "KcRTree",
    "RTree",
    "SetRTree",
    "YaskEngine",
    "JaccardSimilarity",
    "keyword_set",
    "KeywordAdapter",
    "KeywordRefinement",
    "PreferenceAdjuster",
    "PreferenceRefinement",
    "WhyNotAnswer",
    "WhyNotEngine",
    "__version__",
]
