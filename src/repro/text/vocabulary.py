"""Interned keyword vocabulary: string keywords → integer-bitset docs.

The columnar scoring kernel (:mod:`repro.core.kernel`) replaces
``frozenset`` intersections in the Eqn. (1)/(2) hot loops with integer
bit arithmetic: every corpus keyword is interned to a bit position once
at :class:`~repro.core.objects.SpatialDatabase` build time, each
object's ``o.doc`` becomes one arbitrary-precision Python ``int`` whose
set bits are its keywords, and ``|o.doc ∩ q.doc|`` becomes
``(mask & query_mask).bit_count()`` — the same compact-signature idea
QDR-Tree style indexes apply per node (PAPERS.md), applied datastore
wide.

Query keyword sets may contain words the corpus has never seen.  Those
can never intersect any object's doc, but they *do* count towards
``|q.doc|`` in the Jaccard denominator, so
:meth:`Vocabulary.encode_query` reports them separately instead of
silently dropping them.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

__all__ = ["Vocabulary"]


class Vocabulary:
    """An immutable keyword → bit-position interning table.

    Bit positions are assigned by sorted keyword order at construction,
    so two databases over the same corpus produce identical masks
    regardless of object order — mask equality is then meaningful across
    rebuilds.

    Under live mutation (:mod:`repro.core.mutations`) the table grows
    *append-only*: :meth:`extended` returns a new table whose existing
    bit positions are untouched and whose new keywords occupy the next
    positions (sorted among themselves).  Every already-encoded doc mask
    therefore stays valid — similarity arithmetic consumes bit *counts*,
    never positions — at the price that an extended table's positions
    need no longer be globally sorted.  :meth:`from_ordered` rebuilds a
    table from an explicit position order (a database document's
    ``vocabulary``, :mod:`repro.core.codec`, so a reloaded snapshot
    keeps its bit positions).
    """

    __slots__ = ("_ids", "_keywords")

    def __init__(self, docs: Iterable[AbstractSet[str]]) -> None:
        corpus: set[str] = set()
        for doc in docs:
            corpus.update(doc)
        self._keywords: tuple[str, ...] = tuple(sorted(corpus))
        self._ids: dict[str, int] = {
            keyword: position for position, keyword in enumerate(self._keywords)
        }

    @classmethod
    def from_ordered(cls, keywords: Iterable[str]) -> "Vocabulary":
        """Build a table with an explicit bit-position order.

        Raises ``ValueError`` on duplicates — a keyword cannot own two
        bit positions.
        """
        table = cls(())
        ordered = tuple(keywords)
        ids = {keyword: position for position, keyword in enumerate(ordered)}
        if len(ids) != len(ordered):
            raise ValueError("vocabulary order contains duplicate keywords")
        table._keywords = ordered
        table._ids = ids
        return table

    def extended(self, docs: Iterable[AbstractSet[str]]) -> "Vocabulary":
        """A new table with any unseen keywords appended.

        Existing bit positions are preserved verbatim; new keywords take
        the next positions in sorted order.  Returns ``self`` when the
        docs introduce nothing new (the insert-only fast path allocates
        no table).
        """
        fresh: set[str] = set()
        ids = self._ids
        for doc in docs:
            for keyword in doc:
                if keyword not in ids:
                    fresh.add(keyword)
        if not fresh:
            return self
        return Vocabulary.from_ordered(self._keywords + tuple(sorted(fresh)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keywords)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keywords)

    def __contains__(self, keyword: object) -> bool:
        return keyword in self._ids

    @property
    def keywords(self) -> tuple[str, ...]:
        """All interned keywords in bit-position order."""
        return self._keywords

    def id_of(self, keyword: str) -> int:
        """Bit position of ``keyword``; raises ``KeyError`` when unknown."""
        return self._ids[keyword]

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, keywords: AbstractSet[str]) -> int:
        """Bitmask of a corpus document (every keyword must be interned)."""
        ids = self._ids
        mask = 0
        for keyword in keywords:
            mask |= 1 << ids[keyword]
        return mask

    def encode_query(self, keywords: AbstractSet[str]) -> tuple[int, int]:
        """``(mask, unknown_count)`` for an arbitrary keyword set.

        ``unknown_count`` is how many keywords fell outside the corpus
        vocabulary; they contribute to ``|q.doc|`` but can never overlap
        an object document.
        """
        ids = self._ids
        mask = 0
        unknown = 0
        for keyword in keywords:
            position = ids.get(keyword)
            if position is None:
                unknown += 1
            else:
                mask |= 1 << position
        return mask, unknown

    def decode(self, mask: int) -> frozenset[str]:
        """Keyword set of a bitmask (inverse of :meth:`encode`)."""
        if mask < 0:
            raise ValueError("doc masks are non-negative")
        keywords = self._keywords
        out = []
        position = 0
        while mask:
            if mask & 1:
                out.append(keywords[position])
            mask >>= 1
            position += 1
        return frozenset(out)
