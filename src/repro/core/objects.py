"""Spatial objects and the object database ``D``.

Section 2.1 of the paper: "Let D denote a database of spatial objects.
Each object o ∈ D is defined as a pair (o.loc, o.doc), where o.loc is the
location of the object and o.doc is a set of keywords that describe the
object."

:class:`SpatialObject` is that pair (plus an identifier and an optional
human-readable name used by the demonstration GUI panels), and
:class:`SpatialDatabase` is ``D`` together with the dataspace rectangle
that normalises Euclidean distances into ``[0, 1]`` as Eqn. (1) requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from repro.core.geometry import Point, Rect
from repro.text.tokenize import document_frequencies
from repro.text.vocabulary import Vocabulary

__all__ = ["OID_LIMIT", "SpatialObject", "SpatialDatabase"]

#: Exclusive upper bound on object ids.  The scoring kernel keeps ids in
#: a signed 64-bit column and marks a deleted row with this value, which
#: must lose every (score desc, oid asc) tie-break against a real id.
OID_LIMIT = 1 << 62


@dataclass(frozen=True, slots=True)
class SpatialObject:
    """A spatial web object ``o = (o.loc, o.doc)``.

    Parameters
    ----------
    oid:
        Unique identifier within a database, ``0 <= oid < OID_LIMIT``.
        All engines break score ties deterministically by ascending
        ``oid`` so that results and ranks are total orders.
    loc:
        Object location (``o.loc``); both coordinates must be finite —
        a NaN has no place in an R-tree and no distance to anything.
    doc:
        Keyword set (``o.doc``).  Stored as a ``frozenset`` so objects
        are hashable and keyword sets can never drift under an index.
    name:
        Optional display name (e.g. the hotel name); used by the service
        layer and the demonstration panels, never by ranking.
    """

    oid: int
    loc: Point
    doc: frozenset[str]
    name: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.oid < OID_LIMIT:
            raise ValueError(
                f"object id must lie in [0, 2**62), got {self.oid}"
            )
        if not (math.isfinite(self.loc.x) and math.isfinite(self.loc.y)):
            raise ValueError(
                f"object coordinates must be finite, got "
                f"({self.loc.x}, {self.loc.y})"
            )
        if not isinstance(self.doc, frozenset):
            # Accept any iterable of keywords for convenience.
            object.__setattr__(self, "doc", frozenset(self.doc))

    @property
    def label(self) -> str:
        """Display label: the name when present, else ``object-<oid>``."""
        return self.name if self.name is not None else f"object-{self.oid}"

    def describe(self) -> str:
        """Return a one-line human-readable summary."""
        keywords = ", ".join(sorted(self.doc))
        return f"{self.label} @ ({self.loc.x:.4f}, {self.loc.y:.4f}) [{keywords}]"


class SpatialDatabase:
    """The database ``D`` of spatial objects plus its dataspace.

    The dataspace rectangle determines the normalisation constant for
    ``SDist``: the paper requires a *normalised* spatial distance, and the
    maximum possible Euclidean distance within a rectangular dataspace is
    its diagonal.  When no dataspace is given, the MBR of the objects is
    used (optionally expanded by ``margin`` so query points slightly
    outside the data extent still normalise below 1).

    The database is immutable through its public surface; engines and
    indexes capture it by reference.  Live mutation goes through
    :class:`repro.core.mutations.MutableDatabase`, which calls the
    package-private :meth:`_apply_mutations` — the dataspace (and hence
    the distance normaliser, i.e. every score float) is pinned at
    construction and never changes, and the interned vocabulary grows
    append-only so existing doc masks stay valid.  Each object is stored
    once, in the id map, whose insertion order is the object order.
    """

    def __init__(
        self,
        objects: Iterable[SpatialObject],
        *,
        dataspace: Rect | None = None,
        margin: float = 0.0,
    ) -> None:
        self._by_id: dict[int, SpatialObject] = {}
        self._by_name: dict[str, SpatialObject] = {}
        for obj in objects:
            if obj.oid in self._by_id:
                raise ValueError(f"duplicate object id {obj.oid}")
            self._by_id[obj.oid] = obj
            if obj.name is not None and obj.name not in self._by_name:
                self._by_name[obj.name] = obj
        if not self._by_id:
            raise ValueError("a SpatialDatabase requires at least one object")
        if dataspace is None:
            dataspace = Rect.from_points(obj.loc for obj in self._by_id.values())
            if margin > 0.0:
                dataspace = dataspace.expanded(margin)
        self._dataspace = dataspace
        diagonal = dataspace.diagonal
        # A degenerate (single-point) dataspace would make every distance
        # 0/0; treat it as the unit of measure instead so SDist stays 0.
        self._normaliser = diagonal if diagonal > 0.0 else 1.0
        # Dense caches over ``_by_id``, dropped by every batch.
        self._objects: tuple[SpatialObject, ...] | None = None
        self._doc_masks: tuple[int, ...] | None = None
        # Interned keyword table (the columnar substrate of
        # repro.core.kernel), built lazily on first use so text models
        # without a kernel never pay for it — but at most once per
        # database, shared by every kernel.
        self._vocabulary_index: Vocabulary | None = None

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self.objects)

    def __contains__(self, obj: object) -> bool:
        if isinstance(obj, SpatialObject):
            return self._by_id.get(obj.oid) is obj
        if isinstance(obj, int):
            return obj in self._by_id
        return False

    @property
    def objects(self) -> tuple[SpatialObject, ...]:
        """All objects, in insertion order: a cache a batch drops.

        On a live engine, read it (or iterate) under the engine's read
        lock, or a stale pre-batch tuple could be cached.  Readers that
        race to rebuild it build equal tuples.
        """
        objects = self._objects
        if objects is None:
            objects = self._objects = tuple(self._by_id.values())
        return objects

    @property
    def dataspace(self) -> Rect:
        """The normalisation rectangle."""
        return self._dataspace

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, oid: int) -> SpatialObject:
        """Return the object with identifier ``oid``.

        Raises ``KeyError`` for unknown identifiers — a why-not question
        about an object outside ``D`` is a caller error, not a missing
        object (Definitions 2 and 3 require ``M ⊂ D``).
        """
        try:
            return self._by_id[oid]
        except KeyError:
            raise KeyError(f"no object with id {oid} in database") from None

    def find_by_name(self, name: str) -> SpatialObject | None:
        """Return the first object carrying ``name``, or None.

        Mirrors the demonstration GUI where "desired hotels can be
        selected by entering their names" (Section 4).
        """
        return self._by_name.get(name)

    def resolve(self, reference: int | str | SpatialObject) -> SpatialObject:
        """Resolve an object id, name or object instance to an object."""
        if isinstance(reference, SpatialObject):
            return self.get(reference.oid)
        if isinstance(reference, int):
            return self.get(reference)
        obj = self.find_by_name(reference)
        if obj is None:
            raise KeyError(f"no object named {reference!r} in database")
        return obj

    # ------------------------------------------------------------------
    # Distance normalisation
    # ------------------------------------------------------------------
    @property
    def distance_normaliser(self) -> float:
        """The constant dividing raw Euclidean distances (the diagonal)."""
        return self._normaliser

    def normalized_distance(self, a: Point, b: Point) -> float:
        """Return ``SDist`` ∈ [0, 1]: Euclidean distance over the diagonal.

        Distances are clamped at 1 so that query points outside the
        dataspace cannot produce negative spatial proximity in Eqn. (1).
        """
        return min(a.distance_to(b) / self._normaliser, 1.0)

    # ------------------------------------------------------------------
    # Corpus statistics
    # ------------------------------------------------------------------
    def vocabulary(self) -> frozenset[str]:
        """Union of all object keyword sets."""
        vocab: set[str] = set()
        for obj in self.objects:
            vocab.update(obj.doc)
        return frozenset(vocab)

    @property
    def interned(self) -> bool:
        """Whether the vocabulary table exists yet."""
        return self._vocabulary_index is not None

    @property
    def vocabulary_index(self) -> Vocabulary:
        """The interned keyword → bit-position table of this corpus."""
        index = self._vocabulary_index
        if index is None:
            index = self._vocabulary_index = Vocabulary(
                obj.doc for obj in self.objects
            )
        return index

    @property
    def doc_masks(self) -> tuple[int, ...]:
        """Per-object doc bitmasks, aligned with :attr:`objects` (a
        cache like it, encoded against the append-only vocabulary)."""
        masks = self._doc_masks
        if masks is None:
            encode = self.vocabulary_index.encode
            masks = self._doc_masks = tuple(
                encode(obj.doc) for obj in self.objects
            )
        return masks

    def adopt_vocabulary(self, keywords: Iterable[str]) -> None:
        """Re-intern against an explicit bit-position order.

        :func:`repro.core.codec.database_from_doc` calls this so a
        reloaded snapshot keeps the bit positions its database had (a
        plain re-intern sorts the corpus and can reorder positions an
        extended vocabulary assigned append-only).  The order must cover
        the whole corpus.

        Once this database has interned — a scoring kernel may have
        snapshotted its masks in the current bit positions — adopting a
        *different* order is refused: consumers encode queries against
        the live table, so reordering positions under them would make
        every mask comparison silently wrong.  Adopt an order only on a
        freshly constructed database.
        """
        index = Vocabulary.from_ordered(keywords)
        if self._vocabulary_index is not None:
            if index.keywords == self._vocabulary_index.keywords:
                return  # identical order: nothing to do
            raise ValueError(
                "cannot adopt a different vocabulary order: this database "
                "already interned and kernels may hold its doc masks; "
                "adopt the order on a freshly built database"
            )
        try:
            masks = tuple(index.encode(obj.doc) for obj in self.objects)
        except KeyError as exc:
            raise ValueError(
                f"adopted vocabulary is missing corpus keyword {exc.args[0]!r}"
            ) from None
        self._vocabulary_index = index
        self._doc_masks = masks

    # ------------------------------------------------------------------
    # Mutation (package-private: see repro.core.mutations)
    # ------------------------------------------------------------------
    def _apply_mutations(
        self,
        removed_oids: AbstractSet[int],
        appended: Sequence[SpatialObject],
    ) -> None:
        """Apply one normalised mutation batch in place, in O(batch).

        The caller (:class:`~repro.core.mutations.MutableDatabase`) has
        already validated the batch: removed ids exist, appended ids are
        unused after the removals, and the batch does not empty the
        database.  Order rule shared with every incrementally-maintained
        kernel, and kept by ``_by_id``'s insertion order: survivors keep
        their relative order, appends go to the end, and an update is a
        remove + append — so a compacted kernel's row order always
        equals this object order.  The dense caches are dropped.
        """
        by_id = self._by_id
        by_name = self._by_name
        # A name passes to its next holder in object order, found by a
        # rescan only when its registered holder is what left.
        orphaned: set[str] = set()
        for oid in removed_oids:
            gone = by_id.pop(oid)
            if gone.name is not None and by_name.get(gone.name) is gone:
                del by_name[gone.name]
                orphaned.add(gone.name)
        for obj in appended:
            by_id[obj.oid] = obj
            if obj.name is not None and obj.name not in by_name:
                by_name[obj.name] = obj
        if orphaned:  # the rescan overrides an appended claimant
            for obj in by_id.values():
                if obj.name in orphaned:
                    by_name[obj.name] = obj
                    orphaned.discard(obj.name)
                    if not orphaned:
                        break
        self._objects = None
        self._doc_masks = None
        if self._vocabulary_index is not None:
            # Kernels encode the appended rows against the extended
            # table; existing bit positions never move.
            self._vocabulary_index = self._vocabulary_index.extended(
                obj.doc for obj in appended
            )

    def keyword_document_frequencies(self) -> dict[str, int]:
        """Keyword → number of objects containing it."""
        return document_frequencies([obj.doc for obj in self.objects])

    def filter(self, predicate: Callable[[SpatialObject], bool]) -> "SpatialDatabase":
        """Return a new database over the objects satisfying ``predicate``.

        The dataspace (and therefore distance normalisation) is retained
        so scores remain comparable across the filtered view.
        """
        kept = [obj for obj in self.objects if predicate(obj)]
        if not kept:
            raise ValueError("filter removed every object")
        return SpatialDatabase(kept, dataspace=self._dataspace)

    def summary(self) -> dict[str, float | int]:
        """Return dataset statistics used by benchmarks and DESIGN docs."""
        doc_lengths = [len(obj.doc) for obj in self.objects]
        return {
            "objects": len(self._by_id),
            "vocabulary": len(self.vocabulary()),
            "min_doc_len": min(doc_lengths),
            "max_doc_len": max(doc_lengths),
            "avg_doc_len": sum(doc_lengths) / len(doc_lengths),
            "dataspace_width": self._dataspace.width,
            "dataspace_height": self._dataspace.height,
        }
