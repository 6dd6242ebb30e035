"""Fixture for YASK108: served modules importing the trees or the references."""

import repro.index.rtree  # line 3: flagged
from repro.paper import BestFirstTopK  # line 4: flagged
from repro import index  # line 5: flagged
from repro.core.scoring import Scorer  # served to served: not flagged
from repro.indexing_notes import NOTE  # a different package: not flagged


def lazily(scorer: Scorer) -> object:
    from repro.paper.keyword import KcRTreeKeywordAdapter  # line 11: flagged

    return KcRTreeKeywordAdapter, BestFirstTopK, index, NOTE, repro
