"""Best-first kNNTA search over the TAR-tree (Section 4.3).

The entries of the root are seeded into a priority queue keyed by their
ranking-score lower bound; the front entry is repeatedly ejected — leaf
entries emit their POI as the next result, internal entries expand their
child node (one node access) and enqueue its entries.  The ranking
function is *consistent* (an entry's score never exceeds a child's,
Property 1), so the first ``k`` POIs ejected are exactly the top-``k``,
and by Berchtold et al. the search only ever accesses nodes intersecting
the final search region — the optimality the cost model of Section 6
estimates.

Scoring runs on one of two paths per expanded node.  The **packed
path** reads the node's :class:`~repro.core.frames.NodeFrame` — flat
``array`` buffers of MBR coordinates and one dense row of per-epoch
running sums (or raw values, for MAX) per entry — so MINDIST and the
Property-1 bound are computed from contiguous machine values without
touching ``Rect`` or TIA objects (and without TIA page I/O): one
:meth:`~repro.core.frames.NodeFrame.aggregates` call per node turns the
query window into a column pair and reads each entry's aggregate as the
difference of two running sums.  The **object path** is the original
entry-by-entry walk; it serves trees without a frame store, stores
disabled by :meth:`~repro.core.tar_tree.TARTree.wrap_tias`, nodes whose
dense rows the frame store's memory guard declines, and any frame
invalidated mid-flight.  Both paths execute the same float operations in the same
order, so answers — ids, scores, tie order — are bit-identical whichever
path scored each node.

:func:`knnta_search` runs the loop bounded by ``k``: it does not push an
entry whose exact score is strictly above the ``k``-th smallest POI
score pushed so far.  Those ``k`` POIs are queued or already emitted
and every one of them pops before the entry would, so the entry — and,
by Property 1, its whole subtree — could only pop after the ``k``-th
result, where the search stops.  Dropping it changes no row, score, tie
order, node access or TIA page (its score is computed either way);
:func:`knnta_browse` runs the same loop unbounded.

A cluster coordinator seeds that bound with ``threshold``, the running
k-th score of its scatter-gather: a shard search then also drops every
entry scoring strictly above the threshold, and with it (Property 1)
the entry's subtree.  The cut is inclusive, so a POI tied with the
threshold is still returned.  The entries that survive are pushed in
the same relative order as without the threshold, so the answer is
exactly the ``score <= threshold`` prefix of the unthresholded answer,
tie order included, and its node accesses are a subset of the
unthresholded search's.  The default ``inf`` leaves the loop as above.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf, sqrt
from typing import TYPE_CHECKING, Iterator, cast

from repro.core.query import QueryResult, RankedAnswer

if TYPE_CHECKING:
    from repro.core.query import KNNTAQuery, Normalizer
    from repro.core.tar_tree import TARTree
    from repro.spatial.rstar import Entry, Node


def knnta_search(
    tree: TARTree,
    query: KNNTAQuery,
    normalizer: Normalizer | None = None,
    threshold: float = inf,
) -> RankedAnswer:
    """Answer ``query`` on ``tree``; returns the ranked rows.

    The return value is a :class:`~repro.core.query.RankedAnswer` — a
    ``list`` of :class:`~repro.core.query.QueryResult` rows that also
    satisfies the :class:`~repro.core.query.Answer` protocol.
    ``normalizer`` defaults to the tree's root-bound normaliser for the
    query interval (see ``TARTree.normalizer``).  Node accesses and TIA
    page accesses are recorded into ``tree.stats``.  This is the
    bounded form of :func:`knnta_browse` — it yields exactly the first
    ``query.k`` results of the same best-first traversal, and the two
    functions are access-for-access identical up to ``k`` (see the
    module docs for why the bound is exact).  (For fault-tolerant
    execution see :func:`repro.reliability.recovery.robust_knnta`.)

    ``threshold`` is internal to the cluster coordinators, which pass
    the running k-th score of a scatter-gather: only POIs scoring at or
    below it are returned.  The answer is exactly the ``score <=
    threshold`` prefix of the unthresholded one — same rows, scores and
    tie order — and never costs more node accesses (see the module
    docs).
    """
    query.validate()
    return RankedAnswer(
        itertools.islice(
            _best_first(tree, query, normalizer, query.k, threshold), query.k
        )
    )


def knnta_browse(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> Iterator[QueryResult]:
    """Yield results one at a time in ranking order (distance browsing).

    The incremental form of :func:`knnta_search` (Hjaltason & Samet's
    *distance browsing*): the caller can consume as many results as it
    needs — "give me more" after inspecting the first few — without
    deciding ``k`` up front.  ``query.k`` is ignored; node accesses are
    charged lazily, only as far as the consumer iterates.
    """
    return _best_first(tree, query, normalizer, None, inf)


def _best_first(
    tree: TARTree,
    query: KNNTAQuery,
    normalizer: Normalizer | None,
    k: int | None,
    threshold: float,
) -> Iterator[QueryResult]:
    """The best-first loop; ``k`` bounds it (``None``: unbounded) and
    ``threshold`` seeds its bound."""
    query.validate()
    if normalizer is None:
        normalizer = tree.normalizer(query.interval, query.semantics)
    root = tree.root
    if not root.entries:
        return
    heap: list[tuple[float, int, Entry, float, float]] = []
    heappush = heapq.heappush
    tie = 0
    # The k smallest POI scores pushed so far that beat the threshold,
    # negated (a max-heap), and the k-th of them or else the threshold:
    # no entry scoring strictly above it is pushed.
    best: list[float] = []
    bound = threshold

    def tighten(score: float) -> None:
        nonlocal bound
        if len(best) < cast(int, k):
            heappush(best, -score)
            if len(best) == k:
                bound = -best[0]
        else:
            heapq.heapreplace(best, -score)
            bound = -best[0]

    # Hoist every per-query constant out of the inner loop: the query
    # point, the normalisation constants, the weight split and the epoch
    # window, which the object path re-derives from the clock on every
    # single entry.
    qx, qy = point = query.point
    interval = query.interval
    semantics = query.semantics
    d_max = normalizer.d_max
    g_max = normalizer.g_max
    alpha0 = query.alpha0
    alpha1 = 1.0 - alpha0
    frames = getattr(tree, "frames", None)
    if frames is not None:
        span = tree.clock.epoch_range(interval, semantics)

    def expand(node: Node) -> None:
        nonlocal tie
        track = k is not None and node.is_leaf
        frame = frames.frame(node) if frames is not None else None
        if frame is None:  # no store, store disabled or frame declined
            for entry in node.entries:
                distance, aggregate = normalizer.components(
                    entry.mbr.min_dist(point),
                    tree.tia_aggregate(entry.tia, interval, semantics),
                )
                score = alpha0 * distance + alpha1 * (1.0 - aggregate)
                if score > bound:
                    continue
                if track and score < bound:
                    tighten(score)
                heappush(heap, (score, tie, entry, distance, aggregate))
                tie += 1
            return
        coords = frame.coords
        base = 0
        for entry, raw_aggregate in zip(node.entries, frame.aggregates(span)):
            # MINDIST, operation for operation as Rect.min_dist.
            lo = coords[base]
            if qx < lo:
                dx = lo - qx
            else:
                hi = coords[base + 1]
                dx = qx - hi if qx > hi else 0.0
            lo = coords[base + 2]
            if qy < lo:
                dy = lo - qy
            else:
                hi = coords[base + 3]
                dy = qy - hi if qy > hi else 0.0
            base += 4
            distance = sqrt(dx * dx + dy * dy) / d_max
            aggregate = raw_aggregate / g_max
            score = alpha0 * distance + alpha1 * (1.0 - aggregate)
            if score > bound:
                continue
            if track and score < bound:
                tighten(score)
            heappush(heap, (score, tie, entry, distance, aggregate))
            tie += 1

    tree.record_node_access(root)
    expand(root)
    heappop = heapq.heappop
    while heap:
        score, _, entry, distance, aggregate = heappop(heap)
        if entry.is_leaf_entry:
            yield QueryResult(entry.item, score, distance, aggregate)
            continue
        child = cast("Node", entry.child)
        tree.record_node_access(child)
        expand(child)


def knnta_search_exhaustive(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> RankedAnswer:
    """Rank *every* POI by BFS order.

    Equivalent to :func:`knnta_search` with ``k = len(tree)`` but keeps
    the caller's ``k`` untouched; returns the full ranked list.
    """
    if normalizer is None:
        normalizer = tree.normalizer(query.interval, query.semantics)
    full = query._replace(k=max(1, len(tree)))
    return knnta_search(tree, full, normalizer=normalizer)
