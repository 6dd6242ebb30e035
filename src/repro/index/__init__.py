"""R-tree based indexing substrates (Section 3.1 / 3.3 of the paper).

* :class:`repro.index.rtree.RTree` — the plain R-tree everything builds on.
* :class:`repro.index.setrtree.SetRTree` — intersection/union keyword set
  summaries; drives the paper's best-first top-k search (:mod:`repro.paper`).
* :class:`repro.index.kcrtree.KcRTree` — keyword-count maps (Fig. 2);
  drives the paper's keyword adaption (:mod:`repro.paper`).
* :class:`repro.index.dualspace.DualSpaceIndex` — dual-point R-tree
  answering the paper's two range queries of the preference sweep
  (:mod:`repro.paper`).
"""

from repro.index.dualspace import DualSpaceIndex
from repro.index.kcrtree import KcRTree, KcSummary
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree, RTreeEntry, RTreeNode
from repro.index.setrtree import SetRTree, SetSummary

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "DualSpaceIndex",
    "KcRTree",
    "KcSummary",
    "RTree",
    "RTreeEntry",
    "RTreeNode",
    "SetRTree",
    "SetSummary",
]
