"""The cluster coordinator: scatter-gather kNNTA over spatial shards.

:class:`ClusterTree` fronts N :class:`Shard` s — each a full TAR-tree
over one region of a :class:`~repro.cluster.planner.ShardPlan` — behind
the same :class:`~repro.core.query.KNNTAQuery` surface a single
:class:`~repro.core.tar_tree.TARTree` exposes.  Three properties make
the distribution *exact* (the sharded answer equals the single-tree
answer, score for score):

1. Every shard tree is built over the **full** dataset world, so the
   spatial normalisation constant ``d_max`` (the world diagonal) is
   identical everywhere.
2. The cluster's aggregate normaliser ``g_max`` merges the per-epoch
   maxima **across** shards before combining over the query interval —
   exactly the bound the single tree's root maintains — and the one
   resulting :class:`~repro.core.query.Normalizer` is pushed down into
   every shard search.
3. Each shard's *best-possible score* is a true lower bound on any of
   its POIs' scores (Property 1 again: MINDIST under-estimates every
   distance, the shard's root aggregate bound over-estimates every
   aggregate), so once the running k-th result's score is at or below
   a shard's bound, that shard cannot contribute and is skipped —
   the threshold-style early termination of the scatter-gather.

Mutations route to the owning shard by the plan: when the shard carries
a :class:`~repro.reliability.recovery.CheckpointedIngest`, the mutation
rides that shard's WAL (write-ahead, crash-recoverable per shard);
standalone shards mutate their tree directly.  Every access holds the
owning shard's :class:`~repro.service.locks.ReadWriteLock` on the
correct side — queries shared, mutations exclusive — the same protocol
the service layer enforces (lint rules RT001/RT002 cover this module).

Every shard is additionally its own *fault domain*: dispatch, routed
mutations and scrub ticks cross a :class:`~repro.cluster.resilience
.ShardGuard` (per-shard timeout, seeded retry/backoff, circuit
breaker — lint rule RT007 enforces the crossing).  Queries that miss a
quarantined shard stay correct by construction: the coordinator keeps
a :class:`~repro.cluster.resilience.ShardDescriptor` per shard (root
MBR + epoch maxima, refreshed inside every guarded mutation), so a
down shard whose best-possible score cannot beat the running k-th
result is *certified* irrelevant and the answer is exact; otherwise
the answer is an explicit :class:`~repro.cluster.resilience
.DegradedAnswer` (under ``allow_degraded``) or a
:class:`~repro.cluster.resilience.ClusterDegradedError` — never a
hang, crash or silently wrong result.  Quarantined shards recover
*online* via :meth:`ClusterTree.recover_shard`.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence, cast

from repro.cluster.planner import ShardPlan, plan_shards
from repro.cluster.resilience import (
    CALLER,
    CLOSED,
    CallToken,
    ClusterDegradedError,
    DegradedAnswer,
    MergedEpochMax,
    ResilienceConfig,
    ShardDescriptor,
    ShardGuard,
    ShardHealthEvent,
    classify_error,
)
from repro.core.collective import CollectiveProcessor
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery, Normalizer, QueryResult, RankedAnswer
from repro.core.tar_tree import DEFAULT_EPOCH_LENGTH_DAYS, POI, TARTree
from repro.devtools.lockmodel import COUNTER, RECOVERY, SHARD_RW
from repro.devtools.watchdog import monitored_lock
from repro.reliability.faults import FaultInjector
from repro.service.locks import ReadWriteLock
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock, TimeInterval
from repro.temporal.tia import AggregateKind, IntervalSemantics

if TYPE_CHECKING:
    from repro.core.grouping import GroupingStrategy
    from repro.datasets.generator import Dataset
    from repro.reliability.recovery import CheckpointedIngest, RecoveryReport
    from repro.service.scrubber import Scrubber
    from repro.spatial.rstar import Node

__all__ = ["ClusterStateError", "Shard", "ClusterTree"]


class ClusterStateError(RuntimeError):
    """A durable-state operation on a cluster that has none attached."""


class Shard:
    """One partition: a region, its TAR-tree, lock and optional WAL."""

    __slots__ = ("index", "region", "tree", "lock", "ingest", "scrubber",
                 "dirname")

    def __init__(
        self,
        index: int,
        region: Rect,
        tree: TARTree,
        ingest: CheckpointedIngest | None = None,
        dirname: str | None = None,
    ) -> None:
        self.index = index
        self.region = region
        self.tree = tree
        self.lock = ReadWriteLock(SHARD_RW)
        self.ingest = ingest
        self.scrubber: Scrubber | None = None
        #: Shard state directory name inside the cluster directory.  A
        #: live reshard retires and mints directories, so post-reshard
        #: names need not be contiguous in the shard index.
        self.dirname = dirname if dirname is not None else "shard-%d" % index

    def __repr__(self) -> str:
        return "Shard(%d, %d POIs, wal=%s)" % (
            self.index,
            len(self.tree),
            "attached" if self.ingest is not None else "none",
        )


class _ShardView:
    """Duck-typed shard-tree view used during scatter-gather.

    Routes ``record_node_access`` into a per-call private
    :class:`~repro.storage.stats.AccessStats` (so concurrent queries
    attribute node accesses exactly, as the service's batch view does)
    and overrides ``normalizer`` to hand back the *cluster-level*
    normaliser — a shard computing its own would use shard-local
    per-epoch maxima and break cross-shard score comparability.
    Everything else resolves on the wrapped tree.  TIA page accesses
    stay on the shard tree's own stats, as they do for service batches.
    """

    __slots__ = ("_tree", "stats", "_normalizers")

    def __init__(
        self,
        tree: TARTree,
        stats: AccessStats,
        normalizers: Mapping[tuple[TimeInterval, IntervalSemantics], Normalizer]
        | None = None,
    ) -> None:
        self._tree = tree
        self.stats = stats
        self._normalizers = normalizers

    def __getattr__(self, name: str) -> Any:
        return getattr(self._tree, name)

    def record_node_access(self, node: Node) -> None:
        self.stats.record_node(node.is_leaf)

    def normalizer(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        exact: bool = False,
    ) -> Normalizer:
        if self._normalizers is None:
            return self._tree.normalizer(interval, semantics, exact)
        return self._normalizers[(interval, semantics)]


class ClusterTree:
    """Scatter-gather kNNTA over spatially sharded TAR-trees.

    Exposes the single-tree query/mutation surface (``query``,
    ``insert_poi``, ``delete_poi``, ``digest_epoch``, ``normalizer``,
    ``current_time``, ``len``/``in``), so a
    :class:`~repro.service.QueryService` — or any other TARTree caller —
    can serve a cluster unchanged.  ``parallelism`` > 1 dispatches shard
    searches onto a thread pool, best-bound-first; the default of 1
    visits shards sequentially in bound order, which is deterministic
    and prunes identically.

    Running totals: ``queries``, ``shards_visited``, ``shards_pruned``
    (shards never dispatched because the k-th result already beat their
    bound) and ``routing_overflows`` (inserts outside every planned
    region, placed on the nearest shard).
    """

    #: Duck-typing marker the service layer keys on; a ClusterTree is
    #: deliberately never imported there (the cluster imports the
    #: service's lock, so the reverse import would cycle).
    is_cluster = True

    def __init__(
        self,
        plan: ShardPlan,
        shards: Sequence[Shard],
        parallelism: int = 1,
        directory: str | None = None,
        name: str = "cluster",
        resilience: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
        allow_degraded: bool = False,
    ) -> None:
        if len(shards) != len(plan):
            raise ValueError(
                "plan has %d regions but %d shards were given"
                % (len(plan), len(shards))
            )
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1, got %r" % (parallelism,))
        self.plan = plan
        self.shards = list(shards)
        self.parallelism = parallelism
        self.directory = directory
        self.name = name
        #: Live-reshard generation of ``plan`` (0 = as originally
        #: saved) and the next free shard-directory ordinal; both ride
        #: in the manifest so recovery is reshard-consistent.
        self.plan_epoch = 0
        self.next_dir: int | None = None
        first = self.shards[0].tree
        self.world = first.world
        self.clock = first.clock
        self.aggregate_kind = first.aggregate_kind
        #: Merged access totals across all cluster queries (the cluster
        #: analogue of ``TARTree.stats``; node accesses only — TIA page
        #: accesses accrue on each shard tree's own stats).
        self.stats = AccessStats()
        self.queries = 0
        self.shards_visited = 0
        self.shards_pruned = 0
        self.routing_overflows = 0
        self.shards_failed = 0
        self.certified_exact = 0
        self.degraded_answers = 0
        self.recoveries = 0
        self._counter_lock = monitored_lock(COUNTER)
        self._scrub_cursor = 0
        # -- fault domains -------------------------------------------------
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.allow_degraded = allow_degraded
        self.injector = injector
        #: Recent :class:`ShardHealthEvent` s (bounded; newest last).
        self.health_events: deque[ShardHealthEvent] = deque(maxlen=256)
        self._health_observers: list[Callable[[ShardHealthEvent], None]] = []
        self._guards = [
            ShardGuard(
                shard.index,
                self.resilience,
                injector=injector,
                on_event=self._note_health,
            )
            for shard in self.shards
        ]
        self._descriptors = [ShardDescriptor() for _ in self.shards]
        self._epoch_max = MergedEpochMax()
        self._recovery_lock = monitored_lock(RECOVERY)
        for shard in self.shards:
            with shard.lock.read_locked():
                self._descriptors[shard.index].refresh(shard.tree)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        num_shards: int = 4,
        method: str = "kd",
        clock: EpochClock | None = None,
        epoch_length: float = DEFAULT_EPOCH_LENGTH_DAYS,
        strategy: str | GroupingStrategy = "integral3d",
        until_time: float | None = None,
        bulk: bool = False,
        parallelism: int = 1,
        resilience: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
        allow_degraded: bool = False,
        **kwargs: Any,
    ) -> ClusterTree:
        """Plan shards over ``dataset`` and build one TAR-tree per shard.

        Mirrors :meth:`TARTree.build`: the effective POIs' check-in
        histories up to ``until_time`` are digested before placement.
        Every shard tree gets the dataset's full world (identical
        ``d_max``) and its own private
        :class:`~repro.storage.stats.AccessStats`.
        """
        if clock is None:
            clock = EpochClock(dataset.t0, epoch_length)
        current_time = dataset.tc if until_time is None else until_time
        poi_ids = dataset.effective_poi_ids()
        counts = dataset.epoch_counts(clock, poi_ids)
        positions: list[tuple[float, float]] = [
            (float(dataset.positions[poi_id][0]), float(dataset.positions[poi_id][1]))
            for poi_id in poi_ids
        ]
        plan = plan_shards(positions, num_shards, method=method, world=dataset.world)
        shards = [
            Shard(
                index,
                region,
                TARTree(
                    world=dataset.world,
                    clock=clock,
                    current_time=current_time,
                    strategy=strategy,
                    stats=AccessStats(),
                    **kwargs,
                ),
            )
            for index, region in enumerate(plan.regions)
        ]
        assignments: list[list[tuple[POI, dict[int, int]]]] = [
            [] for _ in plan.regions
        ]
        for poi_id, point in zip(poi_ids, positions):
            index = plan.route(point)
            if index is None:
                index = plan.nearest(point)
            assignments[index].append((POI(poi_id, *point), counts[poi_id]))
        cluster = cls(
            plan,
            shards,
            parallelism=parallelism,
            resilience=resilience,
            injector=injector,
            allow_degraded=allow_degraded,
        )
        for shard in shards:
            cluster._load_shard(shard, assignments[shard.index], bulk)
        return cluster

    def _load_shard(
        self,
        shard: Shard,
        rows: list[tuple[POI, dict[int, int]]],
        bulk: bool,
    ) -> None:
        """Guarded initial load of one shard (build time has no WAL)."""
        descriptor = self._descriptors[shard.index]

        def load(token: CallToken) -> None:
            with shard.lock.write_locked():
                descriptor.fresh = False
                if shard.ingest is None:
                    if bulk:
                        shard.tree.bulk_load(rows)
                    else:
                        for poi, history in rows:
                            shard.tree.insert_poi(poi, history or None)
                descriptor.refresh(shard.tree)

        self._guards[shard.index].call("mutate", load)

    # ------------------------------------------------------------------
    # Basic surface parity with TARTree
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard.tree) for shard in self.shards)

    def __contains__(self, poi_id: object) -> bool:
        return any(poi_id in shard.tree for shard in self.shards)

    @property
    def current_time(self) -> float:
        """The most advanced shard clock (digests advance per shard)."""
        return max(shard.tree.current_time for shard in self.shards)

    def poi(self, poi_id: Any) -> POI:
        """The registered :class:`~repro.core.tar_tree.POI`, any shard."""
        shard = self._owner_of(poi_id)
        if shard is None:
            raise KeyError(poi_id)
        return shard.tree.poi(poi_id)

    def poi_ids(self) -> list[Any]:
        """Every indexed POI id across all shards (shard order)."""
        ids: list[Any] = []
        for shard in self.shards:
            ids.extend(shard.tree.poi_ids())
        return ids

    def poi_tia(self, poi_id: Any) -> Any:
        """The POI's leaf TIA, wherever it is sharded."""
        shard = self._owner_of(poi_id)
        if shard is None:
            raise KeyError(poi_id)
        return shard.tree.poi_tia(poi_id)

    def tia_aggregate(
        self,
        tia: Any,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
    ) -> int:
        """Aggregate ``tia`` over ``interval`` (baseline-scan support).

        TIA aggregation is stateless with respect to the owning tree —
        any shard evaluates it identically — so the sequential-scan
        ground truth runs against a cluster unchanged.
        """
        return self.shards[0].tree.tia_aggregate(tia, interval, semantics)

    def node_count(self) -> int:
        return sum(shard.tree.node_count() for shard in self.shards)

    def counters(self) -> dict[str, int]:
        """The coordinator's running totals as a JSON-ready dict.

        Shard-scoped totals use the canonical dotted keys
        (``shards.visited``, ``shards.retries``, ...; same scheme as
        the per-shard ``shards.<i>.*`` blocks in :meth:`explain`).
        The pre-unification snake-case aliases are gone.
        """
        with self._counter_lock:
            counters = {
                "shards": len(self.shards),
                "queries": self.queries,
                "shards.visited": self.shards_visited,
                "shards.pruned": self.shards_pruned,
                "routing_overflows": self.routing_overflows,
                "shards.failed": self.shards_failed,
                "certified_exact": self.certified_exact,
                "degraded_answers": self.degraded_answers,
                "recoveries": self.recoveries,
            }
        counters["breaker_opens"] = sum(
            guard.breaker.opens for guard in self._guards
        )
        counters["shards.down"] = sum(
            1 for guard in self._guards if guard.breaker.state != CLOSED
        )
        counters["shards.retries"] = sum(guard.retries for guard in self._guards)
        counters["shards.timeouts"] = sum(guard.timeouts for guard in self._guards)
        return counters

    # ------------------------------------------------------------------
    # Health surface
    # ------------------------------------------------------------------

    def _note_health(self, event: ShardHealthEvent) -> None:
        self.health_events.append(event)
        for observer in list(self._health_observers):
            observer(event)

    def add_health_observer(
        self, observer: Callable[[ShardHealthEvent], None]
    ) -> None:
        """Register a callback invoked on every shard health event."""
        self._health_observers.append(observer)

    def remove_health_observer(
        self, observer: Callable[[ShardHealthEvent], None]
    ) -> None:
        self._health_observers.remove(observer)

    def health(self) -> dict[str, Any]:
        """Per-shard breaker/guard state plus recent health events."""
        shards = []
        for shard in self.shards:
            snapshot = self._guards[shard.index].snapshot()
            descriptor = self._descriptors[shard.index]
            snapshot["shard"] = shard.index
            snapshot["pois"] = descriptor.pois
            snapshot["descriptor_fresh"] = descriptor.fresh
            shards.append(snapshot)
        with self._counter_lock:
            recoveries = self.recoveries
            degraded = self.degraded_answers
            certified = self.certified_exact
        return {
            "shards": shards,
            "recoveries": recoveries,
            "degraded_answers": degraded,
            "certified_exact": certified,
            "events": [event.as_dict() for event in list(self.health_events)],
        }

    def _owner_of(self, poi_id: Any) -> Shard | None:
        for shard in self.shards:
            if poi_id in shard.tree:
                return shard
        return None

    # ------------------------------------------------------------------
    # Cluster-level normalisation (identical to the single tree's)
    # ------------------------------------------------------------------

    def global_epoch_max(self) -> dict[int, int]:
        """Per-epoch maxima over *all* shards — the single tree's view.

        Served from the per-shard descriptors, which every successful
        guarded mutation refreshes synchronously — so the query path
        never touches a shard tree for normalisation, and a *down*
        shard contributes its last consistent maxima instead of
        failing the whole cluster.  The merge is cached until a
        descriptor changes (:class:`MergedEpochMax`); the returned dict
        is shared and must not be mutated.
        """
        descriptors: list[ShardDescriptor] = []
        for shard in self.shards:
            descriptor = self._descriptors[shard.index]
            if not descriptor.fresh:
                self._refresh_descriptor(shard)
            descriptors.append(descriptor)
        return self._epoch_max.merged(descriptors)

    def _refresh_descriptor(self, shard: Shard) -> None:
        """Guarded descriptor rebuild; a down shard keeps stale values."""
        descriptor = self._descriptors[shard.index]

        def refresh(token: CallToken) -> None:
            with shard.lock.read_locked():
                descriptor.refresh(shard.tree)

        try:
            self._guards[shard.index].call("query", refresh)
        except Exception as exc:
            # The shard is unreachable: its last-known descriptor keeps
            # serving bounds (that is the whole point of the cache).
            if classify_error(exc) == CALLER:
                raise

    def max_aggregate_bound(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
    ) -> int:
        """Upper bound on any POI's aggregate over ``interval``, cluster-wide."""
        maxima = self.global_epoch_max()
        epoch_range = self.clock.epoch_range(interval, semantics)
        values = (maxima.get(epoch, 0) for epoch in epoch_range)
        if self.aggregate_kind is AggregateKind.MAX:
            return max(values, default=0)
        return sum(values)

    def normalizer(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        exact: bool = False,
    ) -> Normalizer:
        """The per-query normaliser every shard search must share."""
        d_max = self.world.diagonal()
        if exact:
            g_max = 0
            for shard in self.shards:
                for poi_id in shard.tree.poi_ids():
                    value = shard.tree.tia_aggregate(
                        shard.tree.poi_tia(poi_id), interval, semantics
                    )
                    if value > g_max:
                        g_max = value
        else:
            g_max = self.max_aggregate_bound(interval, semantics)
        return Normalizer.create(d_max, g_max)

    # ------------------------------------------------------------------
    # Scatter-gather query path
    # ------------------------------------------------------------------

    def query(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer | None = None,
        stats: AccessStats | None = None,
        allow_degraded: bool | None = None,
    ) -> RankedAnswer | DegradedAnswer:
        """Answer ``query`` exactly; see the module docs for the bound.

        ``stats`` (when given) additionally receives the merged node
        accesses of this call, for per-request attribution.

        When a shard is down, the answer is still *exact* whenever the
        degradation certificate holds (the shard's best-possible score
        cannot beat the running k-th result).  Otherwise the call
        raises :class:`ClusterDegradedError` — or, under
        ``allow_degraded`` (argument, else the cluster default),
        returns a :class:`DegradedAnswer` carrying the coverage, the
        missed shard ids and the tight score bound.
        """
        rows, per_shard, _visited, _pruned, _missed, blocking = self._scatter(
            query, normalizer
        )
        for shard_stats in per_shard.values():
            self.stats.merge(shard_stats)
            if stats is not None:
                stats.merge(shard_stats)
        return self._resolve(
            [row[3] for row in rows[: query.k]], blocking, allow_degraded
        )

    def _resolve(
        self,
        results: list[QueryResult],
        blocking: Mapping[int, float],
        allow_degraded: bool | None,
    ) -> RankedAnswer | DegradedAnswer:
        """Apply the degradation policy to one scatter-gather outcome.

        Both branches return :class:`~repro.core.query.Answer` shapes:
        an exact outcome is a :class:`RankedAnswer`, a permitted
        partial one a :class:`DegradedAnswer`.
        """
        if not blocking:
            return RankedAnswer(results)
        coverage = 1.0 - len(blocking) / float(len(self.shards))
        score_bound = min(blocking.values())
        missed = tuple(sorted(blocking))
        permitted = (
            self.allow_degraded if allow_degraded is None else allow_degraded
        )
        if not permitted:
            raise ClusterDegradedError(missed, coverage, score_bound)
        with self._counter_lock:
            self.degraded_answers += 1
        return DegradedAnswer(results, missed, coverage, score_bound)

    def explain(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer | None = None,
        allow_degraded: bool | None = None,
    ) -> tuple[RankedAnswer | DegradedAnswer, dict[str, int]]:
        """Answer ``query`` and report a flat, diffable cost mapping.

        The mapping carries the merged access counters (the plain
        :meth:`AccessStats.as_dict` keys), per-shard counters under
        ``shards.<i>.*``, the pruning outcome (``shards.visited`` /
        ``shards.pruned``) and the fault-domain outcome
        (``shards.failed`` — shards that errored out of the dispatch,
        ``shards.certified`` — failed shards proven irrelevant by the
        bound certificate, ``shards.down`` — breakers currently open).

        Coordinator-level keys use the same dot-separated scheme as the
        per-shard ``shards.<i>.*`` blocks (see
        :meth:`AccessStats.as_dict`).  The pre-unification snake-case
        spellings (``shards_visited``, ...) are no longer emitted.
        """
        rows, per_shard, visited, pruned, missed, blocking = self._scatter(
            query, normalizer
        )
        cost: dict[str, int] = {
            "shards": len(self.shards),
            "shards.visited": len(visited),
            "shards.pruned": pruned,
            "shards.failed": len(missed),
            "shards.certified": len(missed) - len(blocking),
            "shards.down": sum(
                1 for guard in self._guards if guard.breaker.state != CLOSED
            ),
        }
        total = AccessStats()
        for index in sorted(per_shard):
            shard_stats = per_shard[index]
            total.merge(shard_stats)
            cost.update(shard_stats.as_dict(label="shards.%d" % index))
        cost.update(total.as_dict())
        self.stats.merge(total)
        answer = self._resolve(
            [row[3] for row in rows[: query.k]], blocking, allow_degraded
        )
        return answer, cost

    def query_batch(
        self,
        queries: Sequence[KNNTAQuery],
        stats: AccessStats | None = None,
        allow_degraded: bool | None = None,
    ) -> list[RankedAnswer | DegradedAnswer]:
        """Answer a collective batch: per-shard shared traversal, full merge.

        Every non-empty shard runs the batch through its own
        :class:`~repro.core.collective.CollectiveProcessor` (sharing
        node fetches and per-interval aggregates within the shard), with
        the cluster-level normalisers pushed down; per-query results
        merge deterministically.  Batches visit all shards — the
        per-query pruning bound does not compose across a whole batch.

        A shard failing out of the dispatch degrades *per query*: each
        rider's answer is certified exact on its own bound (the missed
        shard's best-possible score for *that* query versus that
        query's k-th result) and only the riders the certificate cannot
        cover degrade (or raise, under the strict default).
        """
        for query in queries:
            query.validate()
        normalizers: dict[tuple[TimeInterval, IntervalSemantics], Normalizer] = {}
        for query in queries:
            key = (query.interval, query.semantics)
            if key not in normalizers:
                normalizers[key] = self.normalizer(query.interval, query.semantics)
        merged: list[list[tuple[float, int, int, QueryResult]]] = [
            [] for _ in queries
        ]
        batch_total = AccessStats()
        visited = 0
        failed: list[int] = []
        for shard in self.shards:
            try:
                outcome = self._batch_shard(shard, queries, normalizers)
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
                failed.append(shard.index)
                continue
            if outcome is None:
                continue
            shard_lists, shard_stats = outcome
            visited += 1
            batch_total.merge(shard_stats)
            for i, results in enumerate(shard_lists):
                merged[i].extend(
                    (result.score, shard.index, position, result)
                    for position, result in enumerate(results)
                )
        self.stats.merge(batch_total)
        if stats is not None:
            stats.merge(batch_total)
        any_blocking = False
        answers: list[RankedAnswer | DegradedAnswer] = []
        resolved: list[
            tuple[list[QueryResult], dict[int, float]]
        ] = []
        for query, rows in zip(queries, merged):
            rows.sort(key=lambda row: (row[0], row[1], row[2]))
            top = [row[3] for row in rows[: query.k]]
            blocking: dict[int, float] = {}
            if failed:
                kth = (
                    rows[query.k - 1][0]
                    if len(rows) >= query.k
                    else float("inf")
                )
                key = (query.interval, query.semantics)
                for index in failed:
                    bound = self._descriptors[index].bound(
                        query, normalizers[key], self.clock, self.aggregate_kind
                    )
                    if bound is None:
                        continue
                    if len(rows) < query.k or bound < kth:
                        blocking[index] = bound
                        any_blocking = True
            resolved.append((top, blocking))
        with self._counter_lock:
            self.queries += len(queries)
            self.shards_visited += visited
            self.shards_failed += len(failed)
            if failed and not any_blocking:
                self.certified_exact += 1
        for top, blocking in resolved:
            answers.append(self._resolve(top, blocking, allow_degraded))
        return answers

    def _batch_shard(
        self,
        shard: Shard,
        queries: Sequence[KNNTAQuery],
        normalizers: Mapping[tuple[TimeInterval, IntervalSemantics], Normalizer],
    ) -> tuple[list[list[QueryResult]], AccessStats] | None:
        """Guarded collective run on one shard; ``None`` if it is empty."""

        def dispatch(
            token: CallToken,
        ) -> tuple[list[list[QueryResult]], AccessStats] | None:
            shard_stats = AccessStats()
            view = cast(
                TARTree, _ShardView(shard.tree, shard_stats, normalizers)
            )
            with shard.lock.read_locked():
                token.check()
                if not shard.tree.root.entries:
                    return None
                tia_before = shard.tree.stats.snapshot()
                shard_lists = CollectiveProcessor(view).run(
                    queries, stats=shard_stats
                )
                shard_stats.merge(shard.tree.stats.diff(tia_before))
            return shard_lists, shard_stats

        return cast(
            "tuple[list[list[QueryResult]], AccessStats] | None",
            self._guards[shard.index].call("query", dispatch),
        )

    # -- internals -----------------------------------------------------------

    def _shard_bound(
        self, shard: Shard, query: KNNTAQuery, normalizer: Normalizer
    ) -> float | None:
        """Best possible score of any POI in ``shard``; ``None`` if empty.

        MINDIST from the query point to the shard's root MBR bounds
        every POI distance from below; the shard's root-level aggregate
        bound (Property 1) bounds every aggregate from above — so this
        weighted sum under-estimates every shard POI's score.  Served
        from the shard's descriptor (refreshed inside every guarded
        mutation), so computing it never touches the shard tree — a
        down shard's *last consistent* bound is exactly what the
        degradation certificate needs.
        """
        descriptor = self._descriptors[shard.index]
        if not descriptor.fresh:
            self._refresh_descriptor(shard)
        return descriptor.bound(
            query, normalizer, self.clock, self.aggregate_kind
        )

    def _query_shard(
        self, index: int, query: KNNTAQuery, normalizer: Normalizer
    ) -> tuple[list[QueryResult], AccessStats]:
        shard = self.shards[index]

        def dispatch(
            token: CallToken,
        ) -> tuple[list[QueryResult], AccessStats]:
            shard_stats = AccessStats()
            view = cast(TARTree, _ShardView(shard.tree, shard_stats))
            with shard.lock.read_locked():
                token.check()
                # Node accesses route through the view; TIA page accesses
                # land on the shard tree's own stats, so diff them into
                # the per-call stats (approximate only under concurrent
                # readers, exactly as for service batches on one tree).
                tia_before = shard.tree.stats.snapshot()
                results = knnta_search(view, query, normalizer=normalizer)
                shard_stats.merge(shard.tree.stats.diff(tia_before))
            return results, shard_stats

        return cast(
            "tuple[list[QueryResult], AccessStats]",
            self._guards[index].call("query", dispatch),
        )

    def _scatter(
        self, query: KNNTAQuery, normalizer: Normalizer | None
    ) -> tuple[
        list[tuple[float, int, int, QueryResult]],
        dict[int, AccessStats],
        list[int],
        int,
        dict[int, float],
        dict[int, float],
    ]:
        """Run the bound-pruned scatter-gather; returns merged rows.

        Rows are ``(score, shard index, within-shard rank, result)``
        sorted ascending — ties (probability zero on continuous data)
        break toward the lower shard index, matching the deterministic
        batch merge.  The two final mappings are ``{shard index:
        bound}`` for every shard that failed out of the dispatch
        (*missed*) and for the subset whose bound could still beat the
        k-th score (*blocking*); a missed shard absent from *blocking*
        was certified irrelevant and the answer stays provably exact.
        """
        query.validate()
        if normalizer is None:
            normalizer = self.normalizer(query.interval, query.semantics)
        bounds: list[tuple[float, int]] = []
        for shard in self.shards:
            bound = self._shard_bound(shard, query, normalizer)
            if bound is not None:
                bounds.append((bound, shard.index))
        bounds.sort()
        bound_of = dict((index, bound) for bound, index in bounds)
        rows: list[tuple[float, int, int, QueryResult]] = []
        per_shard: dict[int, AccessStats] = {}
        visited: list[int] = []
        missed: dict[int, float] = {}
        pruned = 0

        def kth_score() -> float:
            return rows[query.k - 1][0] if len(rows) >= query.k else float("inf")

        def absorb(index: int, answer: tuple[list[QueryResult], AccessStats]) -> None:
            results, shard_stats = answer
            visited.append(index)
            per_shard[index] = shard_stats
            rows.extend(
                (result.score, index, position, result)
                for position, result in enumerate(results)
            )
            rows.sort(key=lambda row: (row[0], row[1], row[2]))

        if self.parallelism == 1:
            for position, (bound, index) in enumerate(bounds):
                if bound >= kth_score():
                    pruned = len(bounds) - position
                    break
                try:
                    answer = self._query_shard(index, query, normalizer)
                except Exception as exc:
                    if classify_error(exc) == CALLER:
                        raise
                    missed[index] = bound
                    continue
                absorb(index, answer)
        else:
            queue = deque(bounds)
            pending: dict[Future[tuple[list[QueryResult], AccessStats]], int] = {}
            with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                while queue or pending:
                    while queue and len(pending) < self.parallelism:
                        bound, index = queue[0]
                        if bound >= kth_score():
                            pruned += len(queue)
                            queue.clear()
                            break
                        queue.popleft()
                        pending[
                            pool.submit(self._query_shard, index, query, normalizer)
                        ] = index
                    if not pending:
                        break
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = pending.pop(future)
                        try:
                            answer = future.result()
                        except Exception as exc:
                            if classify_error(exc) == CALLER:
                                raise
                            missed[index] = bound_of[index]
                            continue
                        absorb(index, answer)
        # The degradation certificate: a missed shard is harmless when
        # the answer already holds k results whose k-th score is at or
        # below the shard's best-possible score (its bound is a true
        # lower bound on every POI it holds, so nothing it could have
        # contributed would displace the current top-k).  Shards that
        # fail the test are *blocking* — the answer is not provably
        # exact without them.
        final_kth = kth_score()
        blocking = dict(
            (index, bound)
            for index, bound in missed.items()
            if len(rows) < query.k or bound < final_kth
        )
        with self._counter_lock:
            self.queries += 1
            self.shards_visited += len(visited)
            self.shards_pruned += pruned
            self.shards_failed += len(missed)
            if missed and not blocking:
                self.certified_exact += 1
        return rows, per_shard, visited, pruned, missed, blocking

    # ------------------------------------------------------------------
    # Routed mutations (per-shard lock + WAL)
    # ------------------------------------------------------------------

    def insert_poi(
        self, poi: POI, epoch_aggregates: Mapping[int, int] | None = None
    ) -> int | None:
        """Insert ``poi`` into its owning shard; returns the WAL LSN.

        Routing follows the plan; a point inside the world but outside
        every planned region falls back to the *nearest* region's shard
        and bumps ``routing_overflows``.  Returns ``None`` when the
        shard has no WAL attached.  Raises like the single tree on a
        duplicate id or an out-of-world point.
        """
        if not self.world.contains_point(poi.point):
            raise ValueError(
                "POI %r lies outside the world %r" % (poi, self.world)
            )
        if self._owner_of(poi.poi_id) is not None:
            raise ValueError("POI %r is already indexed" % (poi.poi_id,))
        index = self.plan.route(poi.point)
        if index is None:
            index = self.plan.nearest(poi.point)
            with self._counter_lock:
                self.routing_overflows += 1
        shard = self.shards[index]
        descriptor = self._descriptors[index]

        def apply(token: CallToken) -> int | None:
            with shard.lock.write_locked():
                token.check()
                descriptor.fresh = False
                if shard.ingest is None:
                    shard.tree.insert_poi(poi, epoch_aggregates)
                    lsn: int | None = None
                else:
                    lsn = cast(
                        "int | None", shard.ingest.insert(poi, epoch_aggregates)
                    )
                descriptor.refresh(shard.tree)
                return lsn

        return cast(
            "int | None", self._guards[index].call("mutate", apply)
        )

    def delete_poi(self, poi_id: Any) -> bool:
        """Delete ``poi_id`` from its owning shard; ``True`` if indexed."""
        shard = self._owner_of(poi_id)
        if shard is None:
            return False
        target = shard
        descriptor = self._descriptors[target.index]

        def apply(token: CallToken) -> bool:
            with target.lock.write_locked():
                token.check()
                descriptor.fresh = False
                if target.ingest is None:
                    deleted = target.tree.delete_poi(poi_id)
                else:
                    deleted = target.ingest.delete(poi_id) is not None
                descriptor.refresh(target.tree)
                return deleted

        return cast(bool, self._guards[target.index].call("mutate", apply))

    def digest_epoch(self, epoch_index: int, counts: Mapping[Any, int]) -> None:
        """Digest one epoch batch, routed per owning shard.

        The whole batch is validated against the cluster first (an
        unknown POI with a positive count raises ``KeyError`` before
        *any* shard applies anything), then each shard receives its
        sub-batch under its own write lock — through its WAL when one
        is attached.  Non-positive counts are dropped, matching both
        the single tree and the ingest semantics.
        """
        routed: dict[int, dict[Any, int]] = {}
        for poi_id, delta in counts.items():
            if delta <= 0:
                continue
            owner = self._owner_of(poi_id)
            if owner is None:
                raise KeyError(
                    "cannot digest check-ins for unknown POI %r" % (poi_id,)
                )
            routed.setdefault(owner.index, {})[poi_id] = delta
        for index in sorted(routed):
            shard = self.shards[index]
            sub_batch = routed[index]
            descriptor = self._descriptors[index]

            def apply(
                token: CallToken,
                shard: Shard = shard,
                sub_batch: dict[Any, int] = sub_batch,
                descriptor: ShardDescriptor = descriptor,
            ) -> None:
                with shard.lock.write_locked():
                    token.check()
                    descriptor.fresh = False
                    if shard.ingest is None:
                        shard.tree.digest_epoch(epoch_index, sub_batch)
                    else:
                        shard.ingest.digest(epoch_index, sub_batch)
                    descriptor.refresh(shard.tree)

            self._guards[index].call("mutate", apply)

    # ------------------------------------------------------------------
    # Durability and maintenance
    # ------------------------------------------------------------------

    def applied_lsns(self) -> list[int | None]:
        """Each shard's applied-LSN high-water mark, in shard order."""
        return [shard.tree.applied_lsn for shard in self.shards]

    def checkpoint(self) -> str:
        """Checkpoint every shard and rewrite the cluster manifest.

        Each shard snapshot is taken under that shard's write lock;
        the manifest written afterwards records the per-shard applied
        LSNs of exactly these snapshots, tying them into one consistent
        cluster checkpoint.  Returns the manifest path.
        """
        from repro.cluster.state import write_manifest

        if self.directory is None:
            raise ClusterStateError(
                "this cluster has no durable state; create one with "
                "save_cluster() or open_cluster()"
            )
        for shard in self.shards:
            if shard.ingest is None:
                raise ClusterStateError(
                    "shard %d has no CheckpointedIngest attached" % shard.index
                )
            with shard.lock.write_locked():
                shard.ingest.checkpoint()
            if shard.scrubber is not None:
                shard.scrubber.persist_manifest()
        return write_manifest(self.directory, self)

    def scrub_tick(self, budget: int | None = None) -> int:
        """One bounded scrubber tick on the next shard (round-robin).

        Doubles as the online-recovery driver: when the tick lands on a
        shard whose breaker is flagged ``needs_recovery`` and the
        cluster has durable state, the tick attempts
        :meth:`recover_shard` instead of scrubbing.  A shard that fails
        its tick (or its recovery) costs the tick — the guard records
        the failure and the tick returns 0 rather than crashing the
        maintenance loop.
        """
        with self._counter_lock:
            cursor = self._scrub_cursor
            self._scrub_cursor += 1
        shard = self.shards[cursor % len(self.shards)]
        guard = self._guards[shard.index]
        if guard.breaker.needs_recovery:
            if self.directory is None:
                return 0
            try:
                self.recover_shard(shard.index)
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
                return 0
            return 0

        def tick(token: CallToken) -> int:
            return cast(int, self._shard_scrubber(shard).tick(budget))

        try:
            return cast(int, guard.call("scrub", tick))
        except Exception as exc:
            if classify_error(exc) == CALLER:
                raise
            return 0

    def _shard_scrubber(self, shard: Shard) -> Scrubber:
        if shard.scrubber is None:
            from repro.service.scrubber import Scrubber

            manifest_path = None
            if shard.ingest is not None:
                manifest_path = (
                    shard.ingest.snapshot_path.rsplit(".json", 1)[0] + ".scrub.json"
                )
            shard.scrubber = Scrubber(
                shard.tree, shard.lock, manifest_path=manifest_path
            )
            shard.tree.add_mutation_observer(shard.scrubber.observe_mutation)
        return shard.scrubber

    # ------------------------------------------------------------------
    # Online shard recovery
    # ------------------------------------------------------------------

    def recover_shard(self, index: int) -> RecoveryReport:
        """Reopen shard ``index`` from its checkpoint + WAL tail, online.

        The recovery open runs through the guard as an ``"open"`` call
        (fault-injectable, never breaker-rejected — it is how a
        quarantined shard gets back in); the cutover then happens under
        the shard's write lock: the recovered tree must have reached at
        least the live tree's applied LSN (the WAL is the shared source
        of truth, so going backwards means durable state vanished), the
        old ingest and scrubber detach, a fresh
        :class:`~repro.reliability.recovery.CheckpointedIngest` rides
        the same WAL, and the shard descriptor refreshes from the
        recovered tree.  Queries keep flowing the whole time — they
        hold the read side of the same lock.  Afterwards the breaker is
        readmitted half-open; probe successes close it.

        Lock order (rank-descending, per the canonical hierarchy): the
        guarded reopen runs *before* the recovery lock — it only loads
        a fresh tree from durable state, touches no shared coordinator
        state, and may fire breaker/health callbacks, which must never
        happen under an engine lock.  The recovery lock (rank 20)
        serialises the cutover itself, nesting only the shard's write
        lock (rank 30) and the counter lock (rank 80) inside it; the
        readmission — another callback-firing breaker transition —
        happens after it is released.
        """
        from repro.reliability.recovery import CheckpointedIngest, recover

        if self.directory is None:
            raise ClusterStateError(
                "online shard recovery needs durable state; create it with "
                "save_cluster() or open_cluster()"
            )
        shard = self.shards[index]
        guard = self._guards[index]
        descriptor = self._descriptors[index]
        shard_dir = os.path.join(self.directory, shard.dirname)

        def reopen(token: CallToken) -> RecoveryReport:
            return cast("RecoveryReport", recover(shard_dir, name="tree"))

        report = cast("RecoveryReport", guard.call("open", reopen))
        with self._recovery_lock:
            with shard.lock.write_locked():
                old_lsn = shard.tree.applied_lsn
                new_lsn = report.tree.applied_lsn
                if old_lsn is not None and (new_lsn is None or new_lsn < old_lsn):
                    raise ClusterStateError(
                        "shard %d recovered to LSN %r behind the live tree's "
                        "LSN %r — refusing the cutover" % (index, new_lsn, old_lsn)
                    )
                if shard.scrubber is not None:
                    shard.tree.remove_mutation_observer(
                        shard.scrubber.observe_mutation
                    )
                    shard.scrubber = None
                if shard.ingest is not None:
                    shard.ingest.close()
                shard.tree = report.tree
                shard.ingest = CheckpointedIngest(
                    report.tree, shard_dir, name="tree"
                )
                descriptor.refresh(shard.tree)
            with self._counter_lock:
                self.recoveries += 1
        guard.readmit()
        return report

    def close(self) -> None:
        """Detach shard scrubbers, close shard WALs and guard executors
        (checkpoint first if the logs must stay minimal — closing never
        loses records)."""
        for shard in self.shards:
            if shard.scrubber is not None:
                shard.tree.remove_mutation_observer(shard.scrubber.observe_mutation)
                shard.scrubber.persist_manifest()
                shard.scrubber = None
            if shard.ingest is not None:
                shard.ingest.close()
                shard.ingest = None
        for guard in self._guards:
            guard.close()

    def __enter__(self) -> ClusterTree:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __repr__(self) -> str:
        return "ClusterTree(%d shards, %d POIs, %s plan%s)" % (
            len(self.shards),
            len(self),
            self.plan.method,
            ", durable" if self.directory is not None else "",
        )
