"""An in-memory R-tree built from scratch.

Section 3.1 of the paper: "The algorithms inside the engines employ
R-tree based indexing techniques [4-6]."  This module provides the plain
R-tree those techniques build on:

* Guttman-style dynamic insertion (choose-leaf by least enlargement,
  quadratic node split),
* Sort-Tile-Recursive (STR) bulk loading for fast index construction in
  benchmarks,
* deletion with tree condensation and re-insertion,
* range search / counting, containment queries and best-first k-nearest
  neighbour search.

The two spatio-textual variants used by YASK — the SetR-tree (top-k and
explanations) and the KcR-tree (keyword adaption, Fig. 2) — are
subclasses that attach a per-node *summary* (keyword sets or
keyword-count maps).  The base class calls :meth:`RTree._summarise_leaf`
and :meth:`RTree._summarise_inner` whenever a node's composition changes,
so the variants only implement the summary algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generic, Iterable, Iterator, Sequence, TypeVar

from repro.core.geometry import Point, Rect

__all__ = ["RTreeEntry", "RTreeNode", "RTree", "DEFAULT_MAX_ENTRIES"]

T = TypeVar("T")

#: Default fanout.  32 keeps trees shallow for the dataset sizes the
#: benchmarks sweep (up to 2·10^5 objects) while keeping node scans cheap.
DEFAULT_MAX_ENTRIES = 32


@dataclass(slots=True)
class RTreeEntry(Generic[T]):
    """A leaf-level entry: a bounding rectangle and the indexed item."""

    rect: Rect
    item: T


class RTreeNode(Generic[T]):
    """An R-tree node: either a leaf of entries or an inner node of children.

    ``summary`` is the augmentation slot used by the SetR-tree and
    KcR-tree subclasses; the plain R-tree leaves it as None.
    """

    __slots__ = ("is_leaf", "entries", "children", "rect", "summary", "parent")

    def __init__(self, *, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[RTreeEntry[T]] = []
        self.children: list["RTreeNode[T]"] = []
        self.rect: Rect | None = None
        self.summary: Any = None
        self.parent: "RTreeNode[T] | None" = None

    def __len__(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def iter_rects(self) -> Iterator[Rect]:
        """Iterate the bounding rectangles of this node's members."""
        if self.is_leaf:
            for entry in self.entries:
                yield entry.rect
        else:
            for child in self.children:
                assert child.rect is not None
                yield child.rect

    def describe(self, indent: int = 0) -> str:
        """Render the subtree for debugging and documentation examples."""
        pad = "  " * indent
        kind = "leaf" if self.is_leaf else "node"
        lines = [f"{pad}{kind} n={len(self)} rect={self.rect.as_tuple() if self.rect else None}"]
        if not self.is_leaf:
            for child in self.children:
                lines.append(child.describe(indent + 1))
        return "\n".join(lines)


class RTree(Generic[T]):
    """A dynamic R-tree over rectangle-keyed items.

    Parameters
    ----------
    max_entries:
        Maximum node fanout ``M``.
    min_entries:
        Minimum fill ``m`` (defaults to ``M // 2``, at least 2 when M
        allows); underfull nodes after deletion are dissolved and their
        members re-inserted.
    """

    def __init__(
        self,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
    ) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self._max_entries = max_entries
        if min_entries is None:
            min_entries = max(1, max_entries // 2)
        if not (1 <= min_entries <= max_entries // 2):
            raise ValueError(
                f"min_entries must be in [1, max_entries/2], got {min_entries}"
            )
        self._min_entries = min_entries
        self._root: RTreeNode[T] = RTreeNode(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> RTreeNode[T]:
        return self._root

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def min_entries(self) -> int:
        return self._min_entries

    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> Rect | None:
        """MBR of the whole tree, or None when empty."""
        return self._root.rect

    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    def node_count(self) -> int:
        """Total number of nodes (inner + leaf)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def iter_items(self) -> Iterator[T]:
        """Iterate every indexed item (arbitrary order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.item
            else:
                stack.extend(node.children)

    def iter_levels(self) -> Iterator[list[RTreeNode[T]]]:
        """Yield nodes level by level from the root downwards.

        The keyword-adaption module descends all candidates one level at
        a time (DESIGN.md §3.4); this iterator is its substrate.
        """
        level = [self._root]
        while level:
            yield level
            next_level: list[RTreeNode[T]] = []
            for node in level:
                if not node.is_leaf:
                    next_level.extend(node.children)
            level = next_level

    # ------------------------------------------------------------------
    # Summary hooks (overridden by SetR-tree / KcR-tree)
    # ------------------------------------------------------------------
    def _summarise_leaf(self, entries: Sequence[RTreeEntry[T]]) -> Any:
        """Compute the augmentation payload of a leaf node."""
        return None

    def _summarise_inner(self, children: Sequence["RTreeNode[T]"]) -> Any:
        """Compute the augmentation payload of an inner node."""
        return None

    def _refresh(self, node: RTreeNode[T]) -> None:
        """Recompute a node's MBR and summary from its members."""
        rects = list(node.iter_rects())
        node.rect = Rect.union_all(rects) if rects else None
        if node.is_leaf:
            node.summary = self._summarise_leaf(node.entries)
        else:
            node.summary = self._summarise_inner(node.children)

    def _refresh_mbr(self, node: RTreeNode[T]) -> None:
        """Recompute only the MBR (the structural phase of a batch)."""
        rects = list(node.iter_rects())
        node.rect = Rect.union_all(rects) if rects else None

    def _refresh_upwards(self, node: RTreeNode[T] | None) -> None:
        while node is not None:
            self._refresh(node)
            node = node.parent

    # ------------------------------------------------------------------
    # Bulk loading (STR)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        items: Iterable[T],
        *,
        key: Callable[[T], Rect | Point],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
        **kwargs: Any,
    ) -> "RTree[T]":
        """Build a tree with Sort-Tile-Recursive packing.

        ``key`` maps an item to its location (a :class:`Point`) or
        bounding rectangle.  STR produces near-square leaf tiles, which
        keeps MINDIST bounds tight for best-first search.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries, **kwargs)
        entries: list[RTreeEntry[T]] = []
        for item in items:
            shape = key(item)
            rect = Rect.from_point(shape) if isinstance(shape, Point) else shape
            entries.append(RTreeEntry(rect=rect, item=item))
        if not entries:
            return tree
        leaves = tree._str_pack_leaves(entries)
        tree._root = tree._build_upper_levels(leaves)
        tree._root.parent = None
        tree._size = len(entries)
        return tree

    @staticmethod
    def _chunk_evenly(items: list, chunk_count: int) -> list[list]:
        """Split ``items`` into ``chunk_count`` runs whose sizes differ by ≤ 1.

        Even sizing is what keeps every STR-packed node at least half
        full: a run of ``n`` members split into ``⌈n/M⌉`` chunks evenly
        gives chunks of at least ``⌊n/⌈n/M⌉⌋ ≥ M/2`` members (for more
        than one chunk), satisfying the R-tree min-fill invariant that a
        naive fixed-stride slicing violates on its final chunk.
        """
        base, extra = divmod(len(items), chunk_count)
        chunks: list[list] = []
        start = 0
        for index in range(chunk_count):
            size = base + (1 if index < extra else 0)
            chunks.append(items[start : start + size])
            start += size
        return chunks

    def _str_pack_leaves(
        self, entries: list[RTreeEntry[T]]
    ) -> list[RTreeNode[T]]:
        capacity = self._max_entries
        leaf_count = math.ceil(len(entries) / capacity)
        slab_count = math.ceil(math.sqrt(leaf_count))
        entries.sort(key=lambda e: (e.rect.center.x, e.rect.center.y))
        leaves: list[RTreeNode[T]] = []
        for slab in self._chunk_evenly(entries, slab_count):
            slab.sort(key=lambda e: (e.rect.center.y, e.rect.center.x))
            chunk_count = max(1, math.ceil(len(slab) / capacity))
            for chunk in self._chunk_evenly(slab, chunk_count):
                if not chunk:
                    continue
                leaf = RTreeNode[T](is_leaf=True)
                leaf.entries = chunk
                self._refresh(leaf)
                leaves.append(leaf)
        return leaves

    def _build_upper_levels(
        self, nodes: list[RTreeNode[T]]
    ) -> RTreeNode[T]:
        capacity = self._max_entries
        while len(nodes) > 1:
            group_count = math.ceil(len(nodes) / capacity)
            slab_count = math.ceil(math.sqrt(group_count))
            nodes.sort(key=lambda n: (n.rect.center.x, n.rect.center.y))
            parents: list[RTreeNode[T]] = []
            for slab in self._chunk_evenly(nodes, slab_count):
                slab.sort(key=lambda n: (n.rect.center.y, n.rect.center.x))
                chunk_count = max(1, math.ceil(len(slab) / capacity))
                for chunk in self._chunk_evenly(slab, chunk_count):
                    if not chunk:
                        continue
                    parent = RTreeNode[T](is_leaf=False)
                    parent.children = chunk
                    for child in parent.children:
                        child.parent = parent
                    self._refresh(parent)
                    parents.append(parent)
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------
    # Insertion (Guttman)
    # ------------------------------------------------------------------
    def insert(self, item: T, shape: Rect | Point) -> None:
        """Insert an item keyed by a point or rectangle."""
        rect = Rect.from_point(shape) if isinstance(shape, Point) else shape
        self._insert_entry(RTreeEntry(rect=rect, item=item))
        self._size += 1

    def insert_batch(self, items: Iterable[tuple[T, Rect | Point]]) -> None:
        """Insert many items, deferring summary maintenance to one pass.

        Per-item insertion recomputes every path node's summary
        (keyword sets / count maps) per insert — for the augmented trees
        that dominates ingest cost, and a batch touching one region
        recomputes the same ancestors over and over.  This entry point
        runs the structural phase (choose-leaf, splits) with *MBR-only*
        refreshes — subsequent choose-leaf decisions only need current
        rectangles — while collecting the touched nodes, then recomputes
        MBRs *and* summaries bottom-up once per dirty path.  The
        resulting tree is node-for-node identical to the per-item path.
        """
        dirty: set[RTreeNode[T]] = set()
        count = 0
        for item, shape in items:
            rect = Rect.from_point(shape) if isinstance(shape, Point) else shape
            self._insert_entry(
                RTreeEntry(rect=rect, item=item), dirty=dirty
            )
            count += 1
        self._size += count
        self._refresh_dirty(dirty)

    def _refresh_dirty(self, dirty: set[RTreeNode[T]]) -> None:
        """Refresh every touched node and its ancestors once, bottom-up.

        The deferred half of a structural phase that maintained MBRs
        only (:meth:`insert_batch`, :meth:`_condense`): deepest nodes
        first, so child summaries exist before their parents merge them.
        """
        pending: dict[RTreeNode[T], int] = {}
        for node in dirty:
            walk: RTreeNode[T] | None = node
            while walk is not None and walk not in pending:
                depth = 0
                parent = walk.parent
                while parent is not None:
                    depth += 1
                    parent = parent.parent
                pending[walk] = depth
                walk = walk.parent
        for node in sorted(pending, key=pending.__getitem__, reverse=True):
            self._refresh(node)

    def _insert_entry(
        self,
        entry: RTreeEntry[T],
        dirty: set[RTreeNode[T]] | None = None,
    ) -> None:
        leaf = self._choose_leaf(self._root, entry.rect)
        leaf.entries.append(entry)
        if dirty is not None:
            dirty.add(leaf)
        self._handle_overflow_and_refresh(leaf, entry.rect, dirty)

    def _handle_overflow_and_refresh(
        self,
        node: RTreeNode[T],
        inserted: Rect,
        dirty: set[RTreeNode[T]] | None = None,
    ) -> None:
        """Split overfull nodes upward, refreshing MBRs and summaries.

        With a ``dirty`` set (batch mode) only MBRs are maintained —
        choose-leaf needs current rectangles — and touched nodes are
        recorded for the caller's single deferred summary pass
        (:meth:`_refresh_dirty`).  Pure insertion can only *grow* an
        ancestor's MBR to absorb the new rectangle, so the no-split
        fast path extends rects in O(1) per level instead of rescanning
        members; split nodes take their MBRs straight from the split's
        group bounds.
        """
        refresh = self._refresh if dirty is None else self._refresh_mbr
        while True:
            overfull = len(node) > self._max_entries
            if overfull:
                sibling = self._split(node)
                if dirty is not None:
                    dirty.add(node)
                    dirty.add(sibling)
                parent = node.parent
                if parent is None:
                    new_root = RTreeNode[T](is_leaf=False)
                    new_root.children = [node, sibling]
                    node.parent = new_root
                    sibling.parent = new_root
                    if dirty is None:
                        refresh(node)
                        refresh(sibling)
                    refresh(new_root)
                    self._root = new_root
                    return
                parent.children.append(sibling)
                sibling.parent = parent
                if dirty is None:
                    refresh(node)
                    refresh(sibling)
                node = parent
            elif dirty is None:
                self._refresh_upwards(node)
                return
            else:
                walk: RTreeNode[T] | None = node
                while walk is not None:
                    rect = walk.rect
                    if rect is None:
                        self._refresh_mbr(walk)
                    elif not rect.contains_rect(inserted):
                        walk.rect = rect.union(inserted)
                    walk = walk.parent
                return

    def _choose_leaf(self, node: RTreeNode[T], rect: Rect) -> RTreeNode[T]:
        """Descend by least enlargement, then least area (Guttman).

        Inlined float arithmetic — this runs for every live insert, and
        method/property dispatch per child dominates an otherwise tiny
        loop.  Tie behaviour matches the tuple-key form: the first child
        attaining the minimum ``(enlargement, area)`` wins.
        """
        rx0 = rect.min_x
        ry0 = rect.min_y
        rx1 = rect.max_x
        ry1 = rect.max_y
        while not node.is_leaf:
            best_child: RTreeNode[T] | None = None
            best_enlargement = math.inf
            best_area = math.inf
            for child in node.children:
                c = child.rect
                assert c is not None
                cx0 = c.min_x
                cy0 = c.min_y
                cx1 = c.max_x
                cy1 = c.max_y
                area = (cx1 - cx0) * (cy1 - cy0)
                ux0 = cx0 if cx0 < rx0 else rx0
                uy0 = cy0 if cy0 < ry0 else ry0
                ux1 = cx1 if cx1 > rx1 else rx1
                uy1 = cy1 if cy1 > ry1 else ry1
                enlargement = (ux1 - ux0) * (uy1 - uy0) - area
                if enlargement < best_enlargement or (
                    enlargement == best_enlargement and area < best_area
                ):
                    best_enlargement = enlargement
                    best_area = area
                    best_child = child
            assert best_child is not None
            node = best_child
        return node

    # ------------------------------------------------------------------
    # Quadratic split
    # ------------------------------------------------------------------
    def _split(self, node: RTreeNode[T]) -> RTreeNode[T]:
        """Split ``node`` in place, returning the new sibling.

        Guttman's quadratic split, computed over flat coordinate tuples:
        an STR-packed tree splits on nearly every insert into a full
        leaf, so the O(M²) seed pick and the per-round enlargement
        comparisons run on plain floats with zero ``Rect`` allocations.
        Selection order and tie behaviour are identical to the textbook
        object form.
        """
        members: list[tuple[Rect, Any]]
        if node.is_leaf:
            members = [(entry.rect, entry) for entry in node.entries]
        else:
            members = [(child.rect, child) for child in node.children]
        bounds = [
            (rect.min_x, rect.min_y, rect.max_x, rect.max_y)
            for rect, _ in members
        ]
        areas = [
            (b[2] - b[0]) * (b[3] - b[1]) for b in bounds
        ]

        seed_a, seed_b = self._pick_seeds_flat(bounds, areas)
        group_a: list[Any] = [members[seed_a][1]]
        group_b: list[Any] = [members[seed_b][1]]
        ax0, ay0, ax1, ay1 = bounds[seed_a]
        bx0, by0, bx1, by1 = bounds[seed_b]
        area_a = areas[seed_a]
        area_b = areas[seed_b]
        remaining = [
            (bounds[index], members[index][1])
            for index in range(len(members))
            if index not in (seed_a, seed_b)
        ]

        while remaining:
            # Force-assign when one group must absorb all leftovers to
            # reach minimum fill.
            if len(group_a) + len(remaining) == self._min_entries:
                for (x0, y0, x1, y1), member in remaining:
                    group_a.append(member)
                    if x0 < ax0:
                        ax0 = x0
                    if y0 < ay0:
                        ay0 = y0
                    if x1 > ax1:
                        ax1 = x1
                    if y1 > ay1:
                        ay1 = y1
                break
            if len(group_b) + len(remaining) == self._min_entries:
                for (x0, y0, x1, y1), member in remaining:
                    group_b.append(member)
                    if x0 < bx0:
                        bx0 = x0
                    if y0 < by0:
                        by0 = y0
                    if x1 > bx1:
                        bx1 = x1
                    if y1 > by1:
                        by1 = y1
                break
            # Pick the member with the strongest group preference.
            best_index = 0
            best_difference = -math.inf
            prefers_a = True
            for index, ((x0, y0, x1, y1), _) in enumerate(remaining):
                ux0 = ax0 if ax0 < x0 else x0
                uy0 = ay0 if ay0 < y0 else y0
                ux1 = ax1 if ax1 > x1 else x1
                uy1 = ay1 if ay1 > y1 else y1
                growth_a = (ux1 - ux0) * (uy1 - uy0) - area_a
                ux0 = bx0 if bx0 < x0 else x0
                uy0 = by0 if by0 < y0 else y0
                ux1 = bx1 if bx1 > x1 else x1
                uy1 = by1 if by1 > y1 else y1
                growth_b = (ux1 - ux0) * (uy1 - uy0) - area_b
                difference = abs(growth_a - growth_b)
                if difference > best_difference:
                    best_difference = difference
                    best_index = index
                    prefers_a = growth_a < growth_b
            (x0, y0, x1, y1), member = remaining.pop(best_index)
            if prefers_a:
                group_a.append(member)
                if x0 < ax0:
                    ax0 = x0
                if y0 < ay0:
                    ay0 = y0
                if x1 > ax1:
                    ax1 = x1
                if y1 > ay1:
                    ay1 = y1
                area_a = (ax1 - ax0) * (ay1 - ay0)
            else:
                group_b.append(member)
                if x0 < bx0:
                    bx0 = x0
                if y0 < by0:
                    by0 = y0
                if x1 > bx1:
                    bx1 = x1
                if y1 > by1:
                    by1 = y1
                area_b = (bx1 - bx0) * (by1 - by0)

        sibling = RTreeNode[T](is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.children = group_a
            sibling.children = group_b
            for child in node.children:
                child.parent = node
            for child in sibling.children:
                child.parent = sibling
        # MBRs come straight from the group bounds — batch mode relies
        # on them (no member rescan); summaries are the caller's duty.
        node.rect = Rect(ax0, ay0, ax1, ay1)
        sibling.rect = Rect(bx0, by0, bx1, by1)
        return sibling

    @staticmethod
    def _pick_seeds_flat(
        bounds: Sequence[tuple[float, float, float, float]],
        areas: Sequence[float],
    ) -> tuple[int, int]:
        """Quadratic seed pick: the pair wasting the most area together."""
        worst_pair = (0, 1)
        worst_waste = -math.inf
        count = len(bounds)
        for i in range(count):
            ix0, iy0, ix1, iy1 = bounds[i]
            area_i = areas[i]
            for j in range(i + 1, count):
                jx0, jy0, jx1, jy1 = bounds[j]
                ux0 = ix0 if ix0 < jx0 else jx0
                uy0 = iy0 if iy0 < jy0 else jy0
                ux1 = ix1 if ix1 > jx1 else jx1
                uy1 = iy1 if iy1 > jy1 else jy1
                waste = (ux1 - ux0) * (uy1 - uy0) - area_i - areas[j]
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        return worst_pair

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, item: T, shape: Rect | Point) -> bool:
        """Remove one entry matching ``item`` (by equality) at ``shape``.

        Returns True when an entry was removed.  Underfull nodes along
        the path are dissolved and their members re-inserted (Guttman's
        CondenseTree), with one deferred summary pass over the touched
        paths.
        """
        rect = Rect.from_point(shape) if isinstance(shape, Point) else shape
        leaf = self._find_leaf(self._root, rect, item)
        if leaf is None:
            return False
        for index, entry in enumerate(leaf.entries):
            if entry.item == item and entry.rect == rect:
                del leaf.entries[index]
                break
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(
        self, node: RTreeNode[T], rect: Rect, item: T
    ) -> RTreeNode[T] | None:
        if node.rect is None or not node.rect.contains_rect(rect):
            return None
        if node.is_leaf:
            for entry in node.entries:
                if entry.item == item and entry.rect == rect:
                    return node
            return None
        for child in node.children:
            found = self._find_leaf(child, rect, item)
            if found is not None:
                return found
        return None

    def _condense(self, node: RTreeNode[T]) -> None:
        """Dissolve underfull nodes up the path and re-insert their members.

        Like :meth:`insert_batch`, the whole pass maintains MBRs only —
        the orphans' choose-leaf descents need nothing else — and every
        node it touched gets its summary recomputed once at the end, not
        once per orphan per level.  The tree is node-for-node the one
        per-item re-insertion builds.
        """
        orphans: list[RTreeEntry[T]] = []
        dirty: set[RTreeNode[T]] = set()
        while node.parent is not None:
            parent = node.parent
            if len(node) < self._min_entries:
                parent.children.remove(node)
                orphans.extend(self._collect_entries(node))
            else:
                self._refresh_mbr(node)
                dirty.add(node)
            node = parent
        self._refresh_mbr(node)
        dirty.add(node)
        # Shrink the root when it has a single inner child.
        while not self._root.is_leaf and len(self._root.children) == 1:
            dirty.discard(self._root)
            self._root = self._root.children[0]
            self._root.parent = None
        if not self._root.is_leaf and not self._root.children:
            dirty.discard(self._root)
            self._root = RTreeNode[T](is_leaf=True)
        for entry in orphans:
            self._insert_entry(entry, dirty=dirty)
        self._refresh_dirty(dirty)

    @staticmethod
    def _collect_entries(node: RTreeNode[T]) -> list[RTreeEntry[T]]:
        collected: list[RTreeEntry[T]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                collected.extend(current.entries)
            else:
                stack.extend(current.children)
        return collected

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, window: Rect) -> list[T]:
        """Return items whose rectangle intersects ``window``."""
        results: list[T] = []
        if self._root.rect is None:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            assert node.rect is not None
            if not node.rect.intersects(window):
                continue
            if node.is_leaf:
                results.extend(
                    entry.item
                    for entry in node.entries
                    if entry.rect.intersects(window)
                )
            else:
                stack.extend(node.children)
        return results

    def count_in(self, window: Rect) -> int:
        """Count items intersecting ``window`` without materialising them."""
        if self._root.rect is None:
            return 0
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            assert node.rect is not None
            if not node.rect.intersects(window):
                continue
            if window.contains_rect(node.rect):
                count += self._subtree_size(node)
                continue
            if node.is_leaf:
                count += sum(
                    1 for entry in node.entries if entry.rect.intersects(window)
                )
            else:
                stack.extend(node.children)
        return count

    @staticmethod
    def _subtree_size(node: RTreeNode[T]) -> int:
        total = 0
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                total += len(current.entries)
            else:
                stack.extend(current.children)
        return total

    def nearest_neighbors(
        self, point: Point, k: int, *, tie_key: Callable[[T], Any] | None = None
    ) -> list[T]:
        """Best-first k-nearest-neighbour search from ``point``.

        ``tie_key`` fixes the order among equidistant items (engines pass
        the object id for determinism).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if self._root.rect is None:
            return []
        counter = 0
        # Heap entries: (distance, kind, tie, payload).  kind 0 orders
        # nodes before items at equal distance so an item is only emitted
        # once no node that could contain a closer item remains; ``tie``
        # is the caller's key for items (determinism) and an insertion
        # counter for nodes (heap stability).
        heap: list[tuple[float, int, Any, object]] = [
            (self._root.rect.min_distance_to_point(point), 0, counter, self._root)
        ]
        results: list[T] = []
        while heap and len(results) < k:
            _, kind, _, payload = heappop(heap)
            if kind == 1:
                results.append(payload)  # type: ignore[arg-type]
                continue
            node: RTreeNode[T] = payload  # type: ignore[assignment]
            if node.is_leaf:
                for entry in node.entries:
                    counter += 1
                    tie = tie_key(entry.item) if tie_key is not None else counter
                    heappush(
                        heap,
                        (entry.rect.min_distance_to_point(point), 1, tie, entry.item),
                    )
            else:
                for child in node.children:
                    assert child.rect is not None
                    counter += 1
                    heappush(
                        heap,
                        (child.rect.min_distance_to_point(point), 0, counter, child),
                    )
        return results

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        if self._size == 0:
            return
        expected_leaf_depth: int | None = None

        def walk(node: RTreeNode[T], depth: int, is_root: bool) -> int:
            nonlocal expected_leaf_depth
            assert node.rect is not None, "non-empty node missing MBR"
            if not is_root:
                assert len(node) >= self._min_entries, "underfull node"
            assert len(node) <= self._max_entries, "overfull node"
            if node.is_leaf:
                if expected_leaf_depth is None:
                    expected_leaf_depth = depth
                assert depth == expected_leaf_depth, "leaves at different depths"
                for entry in node.entries:
                    assert node.rect.contains_rect(entry.rect), "entry outside MBR"
                return len(node.entries)
            total = 0
            for child in node.children:
                assert child.parent is node, "broken parent pointer"
                assert child.rect is not None
                assert node.rect.contains_rect(child.rect), "child outside MBR"
                total += walk(child, depth + 1, False)
            return total

        total = walk(self._root, 0, True)
        assert total == self._size, f"size mismatch: {total} != {self._size}"
