"""Columnar packed frames for TAR-tree nodes (the kNNTA hot path).

The best-first search scores every entry of every expanded node: MINDIST
from the query point to the entry's MBR plus the Property-1 aggregate
bound its TIA reports over the query interval.  On the object path that
walk chases Python objects — ``Node`` → ``Entry`` list → ``Rect`` →
TIA handle — and the TIA read descends a paged B+-tree per entry.  A
:class:`NodeFrame` flattens one node's scoring inputs into contiguous
``array`` buffers so the inner loop reads plain machine values:

* ``coords`` (``array('d')``, 4 per entry) — the entry MBR as
  ``[lo_x, hi_x, lo_y, hi_y]``, in entry order.
* ``rows`` (``array('q')``, ``stride`` per entry) — one dense row per
  entry over the node's epoch span ``[first, first + width)``, the
  smallest span holding every entry's records (leaf counts, or the
  per-epoch child maxima of Property 1 for internal entries).  For
  COUNT/SUM trees a row holds running sums behind a leading zero
  (``stride = width + 1``), so column ``c`` is the entry's total over
  its first ``c`` epochs; for MAX trees it holds the raw per-epoch
  values (``stride = width``).

Frame index ``i`` corresponds to ``node.entries[i]`` — the entry list
itself stays the payload/child handle, so heap contents (and therefore
tie-breaking) are identical between the packed and object paths.

:meth:`NodeFrame.aggregates` clamps a query's epoch window to the
column pair ``(a, b)`` once per node; entry ``i``'s aggregate is then
``rows[r + b] - rows[r + a]`` (COUNT/SUM) or ``max(rows[r + a:r + b])``
(MAX, 0 when ``a == b``) with ``r = i * stride``.
Both search kernels (:mod:`repro.core.knnta`,
:mod:`repro.core.collective`) read aggregates only through it.
Epochs outside the span hold no record of any entry, and an epoch
without a record contributes zero, so clamping loses nothing.  Zero fill
is exact for MAX too: a TIA stores only positive values
(``insert_poi`` drops the rest), so a zero cell never beats a record.
The integer result is exactly the value ``BaseTIA.aggregate`` computes,
without touching the TIA backend (and hence without simulated TIA page
I/O: the packed path reads zero TIA pages, which is the point).
MINDIST replicates :meth:`repro.spatial.geometry.Rect.min_dist`
operation for operation, so scores are bit-identical to the object
path.

Memory guard
------------

Dense rows cost ``8 * count * width`` bytes where the entries' sparse
records cost 16 bytes each (an epoch and a value).  Dense wins whenever
most epochs of the span have records, which holds for the benchmark
datasets at their default epoch length; fine clocks (sub-day epochs over
a long history) leave most cells empty.  When the dense cells of a node
would take more than :data:`DENSE_LIMIT` times the bytes of its sparse
records, :func:`build_frame` declines and :meth:`FrameStore.frame`
returns ``None`` for that node.  The decision is cached per stamp like a
frame, and the node scores on the object path (see "Fallback triggers").

Invalidation protocol
---------------------

Frames are built lazily on first access and cached per ``node_id``.
Two mechanisms keep them coherent:

* **Stamps.**  Every :class:`~repro.spatial.rstar.Node` carries a
  ``stamp`` counter; the TAR-tree bumps it whenever the node's entry
  list or any entry's rect/MBR/TIA content changes (insert, delete,
  split, forced reinsertion, condensation, digest propagation, scrubber
  repair).  A cached frame records the stamp it was built under and is
  discarded when it no longer matches — this is what makes a frame
  invalidated *mid-flight* (a mutation interleaved with an incremental
  ``knnta_browse``) safe: the next expansion simply rebuilds.
* **Post-mutation observers.**  The store registers as a tree mutation
  observer: ``digest`` pops the affected leaf-to-root paths (the cheap,
  frequent case — digestion never restructures the tree), while
  ``insert``/``delete`` clear the whole cache (splits and forced
  reinsertions can relocate arbitrary entries, so path-based
  invalidation would be unsound).  Observers bound the cache's memory;
  stamps guarantee correctness even if an invalidation is missed.

Fallback triggers
-----------------

The search falls back to the object path per node whenever
:meth:`FrameStore.frame` returns ``None``:

* the store is disabled — permanently so after
  :meth:`~repro.core.tar_tree.TARTree.wrap_tias`, because wrapped TIAs
  (fault injectors, retry shims) must see every read the search makes;
* the tree behind a duck-typed view exposes no store at all
  (``frames`` resolves to ``None``);
* the node's dense rows would break the memory guard.

Mixing is safe: a packed push and an object push of the same entry
produce bit-identical heap tuples.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING, Any

from repro.temporal.tia import AggregateKind

if TYPE_CHECKING:
    from repro.core.tar_tree import TARTree
    from repro.spatial.rstar import Node

#: A node's dense cells may take at most this many times the bytes of
#: its sparse records before :func:`build_frame` declines it.
DENSE_LIMIT = 8


class NodeFrame:
    """The packed scoring inputs of one node, at one mutation stamp."""

    __slots__ = (
        "stamp",
        "count",
        "coords",
        "first",
        "width",
        "stride",
        "running",
        "rows",
    )

    def __init__(
        self,
        stamp: int,
        count: int,
        coords: array[float],
        first: int,
        width: int,
        running: bool,
        rows: array[int],
    ) -> None:
        self.stamp = stamp
        self.count = count
        self.coords = coords
        self.first = first
        self.width = width
        self.stride = width + 1 if running else width
        self.running = running
        self.rows = rows

    def aggregates(self, span: range) -> list[int]:
        """Every entry's aggregate over the epoch indices in ``span``.

        Clamps ``span`` to row columns ``0 <= a <= b <= width`` once; a
        window wholly before or after the node's span, or an empty one,
        gives ``a == b`` and all zeros.
        """
        width = self.width
        a = span.start - self.first
        b = span.stop - self.first
        if a < 0:
            a = 0
        elif a > width:
            a = width
        if b > width:
            b = width
        if b <= a:
            return [0] * self.count
        rows = self.rows
        stride = self.stride
        if self.running:
            # Column b of every row minus column a of every row.
            return list(map(sub, rows[b::stride], rows[a::stride]))
        return [max(rows[r + a : r + b]) for r in range(0, len(rows), stride)]

    def __repr__(self) -> str:
        return "NodeFrame(entries=%d, epochs=[%d, %d), stamp=%d)" % (
            self.count,
            self.first,
            self.first + self.width,
            self.stamp,
        )


def build_frame(node: Node, kind: AggregateKind) -> NodeFrame | None:
    """Pack ``node``'s entries into a fresh :class:`NodeFrame`.

    Reads MBRs and TIA contents through the object layer; TIA ``items``
    is a structural read, so building charges no simulated I/O.
    Returns ``None`` when the dense rows would break the memory guard
    (see the module docs).
    """
    coords = array("d")
    records: list[list[tuple[int, int]]] = []
    first: int | None = None
    last: int | None = None
    for entry in node.entries:
        mbr = entry.mbr
        lows = mbr.lows
        highs = mbr.highs
        coords.append(lows[0])
        coords.append(highs[0])
        coords.append(lows[1])
        coords.append(highs[1])
        items = list(entry.tia.items())
        if items:
            if first is None or items[0][0] < first:
                first = items[0][0]
            if last is None or items[-1][0] > last:
                last = items[-1][0]
        records.append(items)
    count = len(records)
    if first is None or last is None:
        first, width = 0, 0
    else:
        width = last - first + 1
    # 8 bytes per dense cell against 16 per sparse record.
    if count * width > 2 * DENSE_LIMIT * sum(map(len, records)):
        return None
    running = kind is not AggregateKind.MAX
    rows = array("q")
    for items in records:
        cells = [0] * width
        for epoch, value in items:
            cells[epoch - first] = value
        if running:
            rows.append(0)
            rows.extend(accumulate(cells))
        else:
            rows.extend(cells)
    return NodeFrame(node.stamp, count, coords, first, width, running, rows)


class FrameStore:
    """Lazy per-node frame cache for one TAR-tree.

    Thread-safety matches the tree's own contract: concurrent readers
    may race to build the same frame (both builds are identical, last
    write wins); invalidation happens on the mutation path, which
    callers already serialise against readers (the service's
    readers-writer lock).
    """

    __slots__ = ("_tree", "_frames", "_declined", "enabled")

    def __init__(self, tree: TARTree) -> None:
        self._tree = tree
        self._frames: dict[int, NodeFrame] = {}
        #: ``node_id`` -> the ``(stamp, entry count)`` the memory guard
        #: declined a frame under.
        self._declined: dict[int, tuple[int, int]] = {}
        self.enabled = True

    def frame(self, node: Node) -> NodeFrame | None:
        """The current frame for ``node``; ``None`` when disabled or declined.

        Serves the cached frame (or the cached memory-guard refusal)
        only while its stamp and entry count still match the node;
        otherwise rebuilds from the object layer.
        """
        if not self.enabled:
            return None
        node_id = node.node_id
        frame = self._frames.get(node_id)
        if (
            frame is not None
            and frame.stamp == node.stamp
            and frame.count == len(node.entries)
        ):
            return frame
        version = (node.stamp, len(node.entries))
        if self._declined.get(node_id) == version:
            return None
        frame = build_frame(node, self._tree.aggregate_kind)
        if frame is None:
            self._frames.pop(node_id, None)
            self._declined[node_id] = version
        else:
            self._declined.pop(node_id, None)
            self._frames[node_id] = frame
        return frame

    def cached(self, node: Node) -> NodeFrame | None:
        """The cached frame for ``node`` without building (tests/tools)."""
        return self._frames.get(node.node_id)

    def __len__(self) -> int:
        return len(self._frames)

    def clear(self) -> None:
        """Drop every cached frame and refusal (they rebuild lazily)."""
        self._frames.clear()
        self._declined.clear()

    def disable(self) -> None:
        """Permanently route queries to the object path.

        Called by :meth:`~repro.core.tar_tree.TARTree.wrap_tias`:
        wrapped TIAs (fault injection, retry accounting) must observe
        every aggregate read, which the packed path would bypass.
        """
        self.enabled = False
        self.clear()

    def invalidate_path(self, poi_id: Any) -> None:
        """Pop the frames along ``poi_id``'s leaf-to-root path."""
        node = self._tree._leaf_of.get(poi_id)
        frames = self._frames
        declined = self._declined
        while node is not None:
            frames.pop(node.node_id, None)
            declined.pop(node.node_id, None)
            node = node.parent

    def note_mutation(self, kind: str, poi_ids: tuple[Any, ...]) -> None:
        """Post-mutation observer hook (see the module docs)."""
        if not self._frames and not self._declined:
            return
        if kind == "digest":
            for poi_id in poi_ids:
                self.invalidate_path(poi_id)
        else:
            self.clear()

    def __repr__(self) -> str:
        return "FrameStore(frames=%d, enabled=%r)" % (
            len(self._frames),
            self.enabled,
        )
