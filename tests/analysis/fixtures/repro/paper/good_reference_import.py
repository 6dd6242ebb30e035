"""Fixture for YASK108: the reference package may import the trees and the served classes."""

from repro.index.kcrtree import KcRTree
from repro.whynot.keyword import KeywordAdapter


class TreeAdapter(KeywordAdapter):
    index: KcRTree
