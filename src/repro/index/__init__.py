"""R-tree based indexing substrates (Section 3.1 / 3.3 of the paper).

* :class:`repro.index.rtree.RTree` — the plain R-tree everything builds on.
* :class:`repro.index.setrtree.SetRTree` — intersection/union keyword set
  summaries; serves top-k search and explanations under Jaccard.
* :class:`repro.index.kcrtree.KcRTree` — keyword-count maps (Fig. 2);
  serves the keyword-adaption why-not module.
* :class:`repro.index.irtree.IRTree` — max-impact inverted files (Cong et
  al. [4]); serves the cosine model.
* :class:`repro.index.dualspace.DualSpaceIndex` — dual-point R-tree
  answering the preference module's two range queries.
"""

from repro.index.dualspace import DualSpaceIndex
from repro.index.irtree import IRSummary, IRTree
from repro.index.kcrtree import KcRTree, KcSummary
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeEntry, RTreeNode
from repro.index.setrtree import SetRTree, SetSummary

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "DualSpaceIndex",
    "IRSummary",
    "IRTree",
    "KcRTree",
    "KcSummary",
    "RTree",
    "RTreeEntry",
    "RTreeNode",
    "SetRTree",
    "SetSummary",
]
