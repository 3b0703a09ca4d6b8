"""The remote coordinator: scatter-gather kNNTA over worker processes.

:class:`RemoteClusterTree` is the out-of-process twin of
:class:`~repro.cluster.coordinator.ClusterTree`: the same best-bound-
first scatter-gather, the same degradation certificate, the same
routed-mutation surface — but every shard lives in its own worker
process (:mod:`repro.cluster.workers`) and the coordinator holds only
:class:`~repro.cluster.resilience.ShardDescriptor` s plus one
JSON-lines socket per worker.  Answers are bit-identical to the single
tree's: the cluster-level normaliser is computed here from the merged
descriptor maxima (exactly the single tree's view) and pushed down the
wire as ``[d_max, g_max]`` — JSON floats round-trip exactly — and the
merge key ``(score, shard index, within-shard rank)`` is the same
deterministic tie-break the in-process coordinator uses.  The running
k-th score rides each ``query`` frame as ``threshold`` once k rows are
held, so a worker returns only rows that can still place; a worker
that ignores the field returns a superset, which the merge absorbs.

Fault semantics are PR 6's, reinterpreted over a connection: a socket
timeout is a :class:`~repro.cluster.resilience.ShardCallTimeout`, a
refused/reset/closed connection a :class:`~repro.reliability.faults
.TransientIOError` (retried for reads, never for mutations), and each
worker sits behind its own :class:`~repro.cluster.resilience
.ShardGuard` circuit breaker.  A killed worker therefore yields an
exact answer (when the descriptor bound certifies it irrelevant), an
explicit :class:`~repro.cluster.resilience.DegradedAnswer`, or a
:class:`~repro.cluster.resilience.ClusterDegradedError` — never a
hang; :meth:`RemoteClusterTree.recover_worker` respawns the process
(worker startup *is* snapshot + WAL recovery) and readmits it.

Locking: the ``routing`` read-write lock guards the routing table
(plan, worker list, guards, descriptors).  Queries and mutations hold
the read side; a live reshard (:mod:`repro.cluster.reshard`) takes the
write side for its drain-and-cutover — acquiring it *is* the mutation
quiesce.  Each :class:`WorkerClient` frames one request/response pair
at a time under its own ``conn`` mutex.
"""

from __future__ import annotations

import json
import os
import socket
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from math import inf
from typing import Any, Callable, Mapping, Sequence, cast

from repro.cluster.coordinator import ClusterStateError, merge_shard_rows
from repro.cluster.planner import ShardPlan
from repro.cluster.resilience import (
    CALLER,
    CLOSED,
    CallToken,
    ClusterDegradedError,
    DegradedAnswer,
    MergedEpochMax,
    ResilienceConfig,
    ShardCallTimeout,
    ShardDescriptor,
    ShardGuard,
    ShardHealthEvent,
    classify_error,
)
from repro.cluster.state import (
    check_reshard_consistency,
    manifest_payload,
    read_manifest,
    write_manifest_payload,
)
from repro.cluster.workers import WorkerHandle
from repro.core.query import KNNTAQuery, Normalizer, QueryResult, RankedAnswer
from repro.core.tar_tree import POI
from repro.devtools.lockmodel import CONN, COUNTER, RECOVERY, ROUTING
from repro.devtools.watchdog import monitored_lock
from repro.reliability.faults import TransientIOError
from repro.service.locks import ReadWriteLock
from repro.service.server import PROTO_VERSION
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock, TimeInterval
from repro.temporal.tia import AggregateKind, IntervalSemantics

__all__ = [
    "RemoteClusterTree",
    "RemoteShard",
    "WireProtocolError",
    "WorkerClient",
]


class WireProtocolError(RuntimeError):
    """The peer speaks a different wire-protocol version.

    Classified *fatal* by :func:`~repro.cluster.resilience
    .classify_error` (a RuntimeError): no amount of retrying fixes a
    version skew, so the breaker opens immediately.
    """


class WorkerClient:
    """One framed JSON-lines connection to a shard worker.

    Lazily connects on first :meth:`request` (validating the wire
    protocol via the ``hello`` exchange) and frames exactly one
    request/response pair at a time under the ``conn`` mutex.  Every
    transport-level failure drops the connection — the stream may be
    desynchronised mid-frame — so the next request reconnects cleanly;
    a restarted worker on the same announce file is picked up the same
    way.

    Error mapping (what the guard's classifier sees):

    * socket timeout → :class:`~repro.cluster.resilience
      .ShardCallTimeout` (transient, never retried inline);
    * refused / reset / EOF / undecodable frame →
      :class:`~repro.reliability.faults.TransientIOError`;
    * a ``bad-request`` response → ``ValueError`` (caller error — the
      worker is healthy, the request was wrong);
    * a ``proto-mismatch`` response (either direction) →
      :class:`WireProtocolError` (fatal);
    * any other error response → ``RuntimeError`` (fatal).
    """

    def __init__(
        self,
        host: str,
        port: int,
        index: int = -1,
        connect_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.index = index
        self.connect_timeout = connect_timeout
        #: The worker's ``hello`` payload once connected (descriptor,
        #: applied LSN, world/clock identity, pid).
        self.hello: dict[str, Any] | None = None
        self._lock = monitored_lock(CONN)
        self._sock: socket.socket | None = None
        self._rfile: Any = None

    # -- connection management -----------------------------------------

    def _connect_locked(self, timeout: float | None) -> None:
        budget = timeout if timeout is not None else self.connect_timeout
        sock = socket.create_connection((self.host, self.port), timeout=budget)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self.hello = self._check(self._exchange_locked({"op": "hello"}, budget))

    def _drop_locked(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _abandon(self) -> None:
        with self._lock:
            self._drop_locked()

    def close(self) -> None:
        """Drop the connection (idempotent; the worker keeps running)."""
        self._abandon()

    def connect(self, timeout: float | None = None) -> dict[str, Any]:
        """Connect eagerly; returns the worker's ``hello`` payload."""
        response = self.request({"op": "hello"}, timeout=timeout)
        self.hello = response
        return response

    # -- the framed exchange -------------------------------------------

    def _exchange_locked(
        self, payload: dict[str, Any], timeout: float | None
    ) -> dict[str, Any]:
        frame = dict(payload)
        frame.setdefault("proto", PROTO_VERSION)
        sock = self._sock
        if sock is None:
            raise TransientIOError(
                "worker %s:%d connection dropped before the exchange"
                % (self.host, self.port)
            )
        sock.settimeout(timeout)
        sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))
        line = self._rfile.readline()
        if not line:
            raise TransientIOError(
                "worker %s:%d closed the connection" % (self.host, self.port)
            )
        try:
            response = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise TransientIOError(
                "undecodable frame from worker %s:%d: %s"
                % (self.host, self.port, exc)
            ) from exc
        if not isinstance(response, dict):
            raise TransientIOError(
                "non-object frame from worker %s:%d" % (self.host, self.port)
            )
        return response

    def _check(self, response: dict[str, Any]) -> dict[str, Any]:
        announced = response.get("proto", PROTO_VERSION)
        if announced != PROTO_VERSION or response.get("code") == "proto-mismatch":
            raise WireProtocolError(
                "worker %s:%d speaks wire protocol %r but this coordinator "
                "speaks %r" % (self.host, self.port, announced, PROTO_VERSION)
            )
        if response.get("ok"):
            return response
        code = response.get("code")
        message = str(response.get("error", "unknown worker error"))
        if code == "bad-request":
            raise ValueError(message)
        raise RuntimeError(
            "worker %s:%d error (%s): %s" % (self.host, self.port, code, message)
        )

    def request(
        self, payload: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """Send one request and return its validated response."""
        try:
            with self._lock:
                if self._sock is None:
                    self._connect_locked(timeout)
                response = self._exchange_locked(payload, timeout)
        except WireProtocolError:
            self._abandon()
            raise
        except TimeoutError as exc:
            self._abandon()
            raise ShardCallTimeout(
                self.index,
                "worker.%d.request" % self.index,
                "no reply from %s:%d within %rs"
                % (self.host, self.port, timeout),
            ) from exc
        except TransientIOError:
            self._abandon()
            raise
        except OSError as exc:
            self._abandon()
            raise TransientIOError(
                "worker %s:%d connection failed: %s" % (self.host, self.port, exc)
            ) from exc
        return self._check(response)

    def __repr__(self) -> str:
        return "WorkerClient(%s:%d, %s)" % (
            self.host,
            self.port,
            "connected" if self._sock is not None else "idle",
        )


class RemoteShard:
    """One worker process as the coordinator sees it: endpoint + cache.

    Holds no tree — only the connection, the (optional) process handle,
    and the last state the worker reported: applied LSN, clock time and
    the manifest LSN of the last cluster checkpoint (for lag).
    """

    __slots__ = (
        "index",
        "region",
        "dirname",
        "client",
        "handle",
        "applied_lsn",
        "current_time",
        "manifest_lsn",
    )

    def __init__(
        self,
        index: int,
        region: Rect,
        dirname: str,
        client: WorkerClient,
        handle: WorkerHandle | None = None,
        manifest_lsn: int | None = None,
    ) -> None:
        self.index = index
        self.region = region
        self.dirname = dirname
        self.client = client
        self.handle = handle
        self.applied_lsn: int | None = None
        self.current_time: float | None = None
        self.manifest_lsn = manifest_lsn

    def __repr__(self) -> str:
        return "RemoteShard(%d, %s, %s:%d)" % (
            self.index,
            self.dirname,
            self.client.host,
            self.client.port,
        )


def _interval_pair(interval: TimeInterval) -> list[float]:
    return [interval.start, interval.end]


class RemoteClusterTree:
    """Scatter-gather kNNTA over out-of-process shard workers.

    Exposes the coordinator surface (``query`` / ``query_batch`` /
    ``insert_poi`` / ``delete_poi`` / ``digest_epoch`` / ``normalizer``
    / ``checkpoint`` / ``scrub_tick`` / ``health`` / ``counters``), so
    a :class:`~repro.service.QueryService` serves it unchanged.  Build
    one with :meth:`start`, which spawns one worker process per
    manifest shard directory and connects to each.

    ``parallelism`` defaults to the worker count — dispatching shard
    searches concurrently is the entire point of paying the process
    boundary — and 1 degenerates to the deterministic sequential
    best-bound-first walk.
    """

    #: Duck-typing marker the service layer keys on.
    is_cluster = True
    #: Standing subscriptions evaluate against in-heap trees; a remote
    #: coordinator has none, and the service refuses the op up front.
    supports_subscriptions = False

    def __init__(
        self,
        plan: ShardPlan,
        shards: Sequence[RemoteShard],
        directory: str,
        name: str = "cluster",
        parallelism: int | None = None,
        resilience: ResilienceConfig | None = None,
        allow_degraded: bool = False,
        request_timeout: float | None = 30.0,
        plan_epoch: int = 0,
        next_dir: int | None = None,
        reshard_policy: Any = None,
    ) -> None:
        if len(shards) != len(plan):
            raise ValueError(
                "plan has %d regions but %d shards were given"
                % (len(plan), len(shards))
            )
        self.plan = plan
        self.shards = list(shards)
        self.directory = directory
        self.name = name
        self.parallelism = (
            len(self.shards) if parallelism is None else parallelism
        )
        if self.parallelism < 1:
            raise ValueError(
                "parallelism must be >= 1, got %r" % (self.parallelism,)
            )
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.allow_degraded = allow_degraded
        self.request_timeout = request_timeout
        self.plan_epoch = plan_epoch
        self.next_dir = len(self.shards) if next_dir is None else next_dir
        self.reshard_policy = reshard_policy
        first = self.shards[0].client.hello
        if first is None:
            raise ValueError(
                "shard worker clients must be connected (hello exchanged) "
                "before constructing the coordinator"
            )
        world = first["world"]
        self.world = Rect(tuple(world[0]), tuple(world[1]))
        clock_t0, clock_length = first["clock"]
        self.clock = EpochClock(float(clock_t0), float(clock_length))
        self.aggregate_kind = AggregateKind(first["aggregate_kind"])
        #: Surface parity with the in-process coordinator; node and TIA
        #: accesses accrue worker-side, so this stays empty by design.
        self.stats = AccessStats()
        self.queries = 0
        self.shards_visited = 0
        self.shards_pruned = 0
        self.shard_rows = 0
        self.routing_overflows = 0
        self.shards_failed = 0
        self.certified_exact = 0
        self.degraded_answers = 0
        self.recoveries = 0
        self.reshards = 0
        self.health_events: deque[ShardHealthEvent] = deque(maxlen=256)
        self._health_observers: list[Callable[[ShardHealthEvent], None]] = []
        self._guards = [
            ShardGuard(shard.index, self.resilience, on_event=self._note_health)
            for shard in self.shards
        ]
        self._descriptors = [ShardDescriptor() for _ in self.shards]
        self._epoch_max = MergedEpochMax()
        self._routing = ReadWriteLock(ROUTING)
        self._counter_lock = monitored_lock(COUNTER)
        self._recovery_lock = monitored_lock(RECOVERY)
        self._scrub_cursor = 0
        #: Exclusive-maintenance claim (taken under the counter lock):
        #: a live reshard holds it for its whole Phase A/B span — splits
        #: serialise without holding any lock across the expensive
        #: successor build — and :meth:`checkpoint` claims it too, so a
        #: checkpoint can never compact a source WAL mid-drain.
        self._resharding = False
        for shard in self.shards:
            hello = shard.client.hello
            if hello is not None:
                self._absorb_state(shard, hello)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def start(
        cls,
        directory: str,
        parallelism: int | None = None,
        resilience: ResilienceConfig | None = None,
        allow_degraded: bool = False,
        request_timeout: float | None = 30.0,
        reshard_policy: Any = None,
        spawn_timeout: float = 30.0,
    ) -> RemoteClusterTree:
        """Spawn one worker per manifest shard and connect to each.

        Reads ``directory``'s cluster manifest (refusing one rolled
        back across a committed reshard, exactly like the in-process
        open), spawns a :class:`~repro.cluster.workers.WorkerHandle`
        per shard state directory — each worker's startup is its own
        snapshot + WAL recovery — and verifies every worker recovered
        to *at least* its manifest LSN.  Any failure tears down every
        worker already spawned before re-raising.
        """
        payload = read_manifest(directory)
        check_reshard_consistency(directory, payload)
        plan = ShardPlan.from_json(payload["plan"])
        entries = payload["shards"]
        if len(entries) != len(plan):
            raise ClusterStateError(
                "cluster manifest lists %d shards but the plan has %d regions"
                % (len(entries), len(plan))
            )
        shards: list[RemoteShard] = []
        try:
            for index, entry in enumerate(entries):
                dirname = str(entry["dir"])
                shard_dir = os.path.join(directory, dirname)
                if not os.path.isdir(shard_dir):
                    raise ClusterStateError(
                        "cluster manifest names missing shard directory %s"
                        % shard_dir
                    )
                handle = WorkerHandle.spawn(shard_dir, timeout=spawn_timeout)
                client = WorkerClient(handle.host, handle.port, index=index)
                shard = RemoteShard(
                    index,
                    plan.regions[index],
                    dirname,
                    client,
                    handle,
                    manifest_lsn=entry.get("applied_lsn"),
                )
                shards.append(shard)
                hello = client.connect(timeout=request_timeout)
                recovered_lsn = hello.get("applied_lsn")
                manifest_lsn = entry.get("applied_lsn")
                if manifest_lsn is not None and (
                    recovered_lsn is None or recovered_lsn < manifest_lsn
                ):
                    raise ClusterStateError(
                        "shard %d recovered to LSN %r but the cluster "
                        "manifest recorded LSN %r — shard state is behind "
                        "its checkpoint" % (index, recovered_lsn, manifest_lsn)
                    )
        except Exception:
            for shard in shards:
                shard.client.close()
                if shard.handle is not None and shard.handle.alive:
                    shard.handle.terminate()
            raise
        return cls(
            plan,
            shards,
            directory=directory,
            name=str(payload.get("name", "cluster")),
            parallelism=parallelism,
            resilience=resilience,
            allow_degraded=allow_degraded,
            request_timeout=request_timeout,
            plan_epoch=int(payload.get("plan_epoch", 0)),
            next_dir=int(payload.get("next_dir", len(entries))),
            reshard_policy=reshard_policy,
        )

    # ------------------------------------------------------------------
    # Worker-state absorption (descriptor cache maintenance)
    # ------------------------------------------------------------------

    def _timeout(self) -> float | None:
        return self.request_timeout

    def _absorb_state(self, shard: RemoteShard, payload: Mapping[str, Any]) -> None:
        """Fold a worker's reported state into its descriptor cache.

        Guarded LSN-monotonic: concurrent responses for one shard may
        interleave, and an older footer must never roll the descriptor
        back over a newer one.
        """
        lsn = payload.get("applied_lsn")
        if (
            shard.applied_lsn is not None
            and lsn is not None
            and lsn < shard.applied_lsn
        ):
            return
        descriptor = self._descriptors[shard.index]
        wire = payload.get("descriptor")
        if wire is not None:
            mbr = wire.get("mbr")
            descriptor.update(
                None if mbr is None else Rect(tuple(mbr[0]), tuple(mbr[1])),
                {int(epoch): int(value) for epoch, value in wire["epoch_max"]},
                int(wire["pois"]),
            )
        shard.applied_lsn = lsn
        time_value = payload.get("current_time")
        if time_value is not None:
            shard.current_time = float(time_value)

    def _refresh_descriptor_locked(self, shard: RemoteShard) -> None:
        """Guarded descriptor rebuild; a down worker keeps stale values."""

        def refresh(token: CallToken) -> None:
            response = shard.client.request(
                {"op": "hello"}, timeout=self._timeout()
            )
            self._absorb_state(shard, response)

        try:
            self._guards[shard.index].call("query", refresh)
        except Exception as exc:
            if classify_error(exc) == CALLER:
                raise

    # ------------------------------------------------------------------
    # Basic surface parity
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._routing.read_locked():
            return sum(
                self._descriptors[shard.index].pois for shard in self.shards
            )

    def __contains__(self, poi_id: object) -> bool:
        with self._routing.read_locked():
            return self._owner_of_locked(poi_id) is not None

    @property
    def current_time(self) -> float:
        """The most advanced worker clock (digests advance per shard)."""
        with self._routing.read_locked():
            times = [
                shard.current_time
                for shard in self.shards
                if shard.current_time is not None
            ]
        if not times:
            raise ClusterStateError("no worker has reported a clock yet")
        return max(times)

    def applied_lsns(self) -> list[int | None]:
        """Each worker's applied-LSN high-water mark, in shard order."""
        with self._routing.read_locked():
            return [shard.applied_lsn for shard in self.shards]

    def counters(self) -> dict[str, int]:
        """The coordinator's running totals (same keys as in-process,
        plus ``reshards``)."""
        with self._routing.read_locked():
            guards = list(self._guards)
            shard_count = len(self.shards)
        with self._counter_lock:
            counters = {
                "shards": shard_count,
                "queries": self.queries,
                "shards.visited": self.shards_visited,
                "shards.pruned": self.shards_pruned,
                "shards.rows": self.shard_rows,
                "routing_overflows": self.routing_overflows,
                "shards.failed": self.shards_failed,
                "certified_exact": self.certified_exact,
                "degraded_answers": self.degraded_answers,
                "recoveries": self.recoveries,
                "reshards": self.reshards,
            }
        counters["breaker_opens"] = sum(guard.breaker.opens for guard in guards)
        counters["shards.down"] = sum(
            1 for guard in guards if guard.breaker.state != CLOSED
        )
        counters["shards.retries"] = sum(guard.retries for guard in guards)
        counters["shards.timeouts"] = sum(guard.timeouts for guard in guards)
        return counters

    def _owner_of_locked(self, poi_id: object) -> RemoteShard | None:
        """Probe every worker for ownership of ``poi_id``.

        A positive probe is decisive (POI ids are unique cluster-wide),
        so finding the owner returns even if another worker is down.
        But an unreachable worker might *be* the owner — concluding
        "absent" there would let a duplicate insert through or turn a
        delete of an indexed POI into a silent ``False`` — so when no
        reachable worker owns the POI and any probe failed, the first
        probe failure propagates instead (the in-process coordinator's
        ``_owner_of`` can never fault, and remote semantics must not
        silently diverge from it).
        """
        first_failure: Exception | None = None
        for shard in self.shards:
            guard = self._guards[shard.index]

            def probe(token: CallToken, shard: RemoteShard = shard) -> bool:
                response = shard.client.request(
                    {"op": "contains", "poi_id": poi_id}, timeout=self._timeout()
                )
                return bool(response.get("contains"))

            try:
                if guard.call("query", probe):
                    return shard
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
                if first_failure is None:
                    first_failure = exc
        if first_failure is not None:
            raise first_failure
        return None

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
        """Per-worker breaker/process state plus recent health events.

        Extends the in-process shape with the process facts: ``pid``,
        ``alive``, ``port``, ``applied_lsn`` and ``checkpoint_lag``
        (records applied since the manifest's checkpoint LSN).
        """
        shards: list[dict[str, Any]] = []
        with self._routing.read_locked():
            for shard in self.shards:
                snapshot = self._guards[shard.index].snapshot()
                descriptor = self._descriptors[shard.index]
                snapshot["shard"] = shard.index
                snapshot["pois"] = descriptor.pois
                snapshot["descriptor_fresh"] = descriptor.fresh
                snapshot["dir"] = shard.dirname
                handle = shard.handle
                snapshot["pid"] = None if handle is None else handle.pid
                snapshot["alive"] = None if handle is None else handle.alive
                snapshot["port"] = shard.client.port
                snapshot["applied_lsn"] = shard.applied_lsn
                if shard.applied_lsn is not None:
                    snapshot["checkpoint_lag"] = shard.applied_lsn - (
                        shard.manifest_lsn or 0
                    )
                else:
                    snapshot["checkpoint_lag"] = None
                shards.append(snapshot)
            plan_epoch = self.plan_epoch
        with self._counter_lock:
            recoveries = self.recoveries
            degraded = self.degraded_answers
            certified = self.certified_exact
            reshards = self.reshards
        return {
            "shards": shards,
            "recoveries": recoveries,
            "degraded_answers": degraded,
            "certified_exact": certified,
            "reshards": reshards,
            "plan_epoch": plan_epoch,
            "events": [event.as_dict() for event in list(self.health_events)],
        }

    # ------------------------------------------------------------------
    # Cluster-level normalisation (identical to the single tree's)
    # ------------------------------------------------------------------

    def _fresh_descriptors_locked(self) -> list[ShardDescriptor]:
        descriptors: list[ShardDescriptor] = []
        for shard in self.shards:
            descriptor = self._descriptors[shard.index]
            if not descriptor.fresh:
                self._refresh_descriptor_locked(shard)
            descriptors.append(descriptor)
        return descriptors

    def _global_epoch_max_locked(self) -> dict[int, int]:
        return self._epoch_max.merged(self._fresh_descriptors_locked())

    def global_epoch_max(self) -> dict[int, int]:
        """Per-epoch maxima over all workers — the single tree's view.

        Cached until a descriptor changes (see
        :class:`~repro.cluster.resilience.MergedEpochMax`); the returned
        dict is shared and must not be mutated.
        """
        with self._routing.read_locked():
            return self._global_epoch_max_locked()

    def _max_aggregate_bound_locked(
        self, interval: TimeInterval, semantics: IntervalSemantics
    ) -> int:
        return self._epoch_max.max_aggregate_bound(
            self._fresh_descriptors_locked(),
            self.clock.epoch_range(interval, semantics),
            self.aggregate_kind,
        )

    def max_aggregate_bound(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
    ) -> int:
        """Upper bound on any POI's aggregate over ``interval``."""
        with self._routing.read_locked():
            return self._max_aggregate_bound_locked(interval, semantics)

    def _normalizer_locked(
        self, interval: TimeInterval, semantics: IntervalSemantics
    ) -> Normalizer:
        d_max = self.world.diagonal()
        g_max = self._max_aggregate_bound_locked(interval, semantics)
        return Normalizer.create(d_max, g_max)

    def normalizer(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        exact: bool = False,
    ) -> Normalizer:
        """The per-query normaliser every worker search must share."""
        if exact:
            raise ValueError(
                "a remote cluster serves only the bound normaliser; "
                "exact=True needs per-POI aggregates the coordinator "
                "deliberately does not hold"
            )
        with self._routing.read_locked():
            return self._normalizer_locked(interval, semantics)

    # ------------------------------------------------------------------
    # Scatter-gather query path
    # ------------------------------------------------------------------

    def _query_fields(
        self, query: KNNTAQuery, normalizer: Normalizer
    ) -> dict[str, Any]:
        return {
            "point": [query.point[0], query.point[1]],
            "interval": _interval_pair(query.interval),
            "k": query.k,
            "alpha0": query.alpha0,
            "semantics": query.semantics.value,
            "normalizer": [normalizer.d_max, normalizer.g_max],
        }

    def _query_worker(
        self,
        shard: RemoteShard,
        query: KNNTAQuery,
        normalizer: Normalizer,
        threshold: float,
    ) -> list[QueryResult]:
        """Guarded search on one worker, cut at ``threshold`` (the
        running k-th score at dispatch), which rides the frame only
        while finite."""
        payload = self._query_fields(query, normalizer)
        payload["op"] = "query"
        if threshold != inf:
            payload["threshold"] = threshold

        def dispatch(token: CallToken) -> list[QueryResult]:
            response = shard.client.request(payload, timeout=self._timeout())
            return [QueryResult(*row) for row in response["results"]]

        return cast(
            "list[QueryResult]",
            self._guards[shard.index].call("query", dispatch),
        )

    def _scatter_locked(
        self, query: KNNTAQuery, normalizer: Normalizer | None
    ) -> tuple[
        list[tuple[float, int, int, QueryResult]],
        list[int],
        int,
        dict[int, float],
        dict[int, float],
    ]:
        """Bound-pruned scatter-gather over workers (routing read held).

        Same contract as the in-process ``_scatter``: rows are
        ``(score, shard index, within-shard rank, result)`` sorted
        ascending and cut to ``query.k``, *missed* maps every failed
        shard to its bound and *blocking* the subset the degradation
        certificate cannot cover.
        """
        query.validate()
        if normalizer is None:
            normalizer = self._normalizer_locked(query.interval, query.semantics)
        push = normalizer
        shard_of = {shard.index: shard for shard in self.shards}
        bounds: list[tuple[float, int]] = []
        for shard in self.shards:
            descriptor = self._descriptors[shard.index]
            if not descriptor.fresh:
                self._refresh_descriptor_locked(shard)
            bound = descriptor.bound(query, push, self.clock, self.aggregate_kind)
            if bound is not None:
                bounds.append((bound, shard.index))
        bounds.sort()
        bound_of = dict((index, bound) for bound, index in bounds)
        rows: list[tuple[float, int, int, QueryResult]] = []
        visited: list[int] = []
        missed: dict[int, float] = {}
        pruned = 0
        received = 0

        def kth_score() -> float:
            return rows[query.k - 1][0] if len(rows) >= query.k else inf

        def absorb(index: int, results: list[QueryResult]) -> None:
            nonlocal received
            visited.append(index)
            received += len(results)
            merge_shard_rows(rows, index, results, query.k)

        if self.parallelism == 1:
            for position, (bound, index) in enumerate(bounds):
                if bound > kth_score():
                    pruned = len(bounds) - position
                    break
                try:
                    results = self._query_worker(
                        shard_of[index], query, push, kth_score()
                    )
                except Exception as exc:
                    if classify_error(exc) == CALLER:
                        raise
                    missed[index] = bound
                    continue
                absorb(index, results)
        else:
            queue = deque(bounds)
            pending: dict[Future[list[QueryResult]], int] = {}
            with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                while queue or pending:
                    while queue and len(pending) < self.parallelism:
                        bound, index = queue[0]
                        if bound > kth_score():
                            pruned += len(queue)
                            queue.clear()
                            break
                        queue.popleft()
                        # The k-th score as it stands now: it only falls
                        # later, so a stale threshold is merely looser.
                        pending[
                            pool.submit(
                                self._query_worker,
                                shard_of[index],
                                query,
                                push,
                                kth_score(),
                            )
                        ] = index
                    if not pending:
                        break
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = pending.pop(future)
                        try:
                            results = future.result()
                        except Exception as exc:
                            if classify_error(exc) == CALLER:
                                raise
                            missed[index] = bound_of[index]
                            continue
                        absorb(index, results)
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
            self.shard_rows += received
            self.shards_failed += len(missed)
            if missed and not blocking:
                self.certified_exact += 1
        return rows, visited, pruned, missed, blocking

    def _resolve(
        self,
        results: list[QueryResult],
        blocking: Mapping[int, float],
        allow_degraded: bool | None,
        shard_count: int,
    ) -> RankedAnswer | DegradedAnswer:
        """Apply the degradation policy to one scatter-gather outcome."""
        if not blocking:
            return RankedAnswer(results)
        coverage = 1.0 - len(blocking) / float(shard_count)
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

    def query(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer | None = None,
        stats: AccessStats | None = None,
        allow_degraded: bool | None = None,
    ) -> RankedAnswer | DegradedAnswer:
        """Answer ``query`` exactly over the worker fleet.

        Contacts only workers whose descriptor bound could still beat
        the running k-th score (best-bound-first, concurrently under
        ``parallelism``).  ``stats`` is accepted for surface parity but
        stays empty: node accesses happen worker-side.  Degradation
        semantics match the in-process coordinator exactly.
        """
        with self._routing.read_locked():
            rows, _visited, _pruned, _missed, blocking = self._scatter_locked(
                query, normalizer
            )
            shard_count = len(self.shards)
            top = [row[3] for row in rows[: query.k]]
        return self._resolve(top, blocking, allow_degraded, shard_count)

    def query_batch(
        self,
        queries: Sequence[KNNTAQuery],
        stats: AccessStats | None = None,
        allow_degraded: bool | None = None,
    ) -> list[RankedAnswer | DegradedAnswer]:
        """Answer a batch: one ``batch`` frame per worker, full merge.

        Every worker runs the whole batch under a single shard read
        lock (a consistent snapshot), with the cluster normalisers
        pushed down; merges are deterministic per query.  Batches visit
        all workers — the per-query bound does not compose across a
        batch — and a failed worker degrades per query, exactly like
        the in-process coordinator.
        """
        for query in queries:
            query.validate()
        with self._routing.read_locked():
            shard_count = len(self.shards)
            normalizers: dict[
                tuple[TimeInterval, IntervalSemantics], Normalizer
            ] = {}
            for query in queries:
                key = (query.interval, query.semantics)
                if key not in normalizers:
                    normalizers[key] = self._normalizer_locked(
                        query.interval, query.semantics
                    )
            riders = [
                self._query_fields(
                    query, normalizers[(query.interval, query.semantics)]
                )
                for query in queries
            ]
            outcomes = self._dispatch_batch(riders)
            merged: list[list[tuple[float, int, int, QueryResult]]] = [
                [] for _ in queries
            ]
            visited = 0
            failed: list[int] = []
            for shard in self.shards:
                outcome = outcomes[shard.index]
                if isinstance(outcome, Exception):
                    if classify_error(outcome) == CALLER:
                        raise outcome
                    failed.append(shard.index)
                    continue
                visited += 1
                for i, results in enumerate(outcome):
                    merged[i].extend(
                        (result.score, shard.index, position, result)
                        for position, result in enumerate(results)
                    )
            any_blocking = False
            resolved: list[tuple[list[QueryResult], dict[int, float]]] = []
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
                            query,
                            normalizers[key],
                            self.clock,
                            self.aggregate_kind,
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
        answers: list[RankedAnswer | DegradedAnswer] = []
        for top, blocking in resolved:
            answers.append(
                self._resolve(top, blocking, allow_degraded, shard_count)
            )
        return answers

    def _dispatch_batch(
        self, riders: list[dict[str, Any]]
    ) -> dict[int, list[list[QueryResult]] | Exception]:
        """Send the batch to every worker; exceptions ride the map."""

        def run(shard: RemoteShard) -> list[list[QueryResult]]:
            def dispatch(token: CallToken) -> list[list[QueryResult]]:
                response = shard.client.request(
                    {"op": "batch", "queries": riders}, timeout=self._timeout()
                )
                return [
                    [QueryResult(*row) for row in rows]
                    for rows in response["results"]
                ]

            return cast(
                "list[list[QueryResult]]",
                self._guards[shard.index].call("query", dispatch),
            )

        outcomes: dict[int, list[list[QueryResult]] | Exception] = {}
        if self.parallelism == 1 or len(self.shards) == 1:
            for shard in self.shards:
                try:
                    outcomes[shard.index] = run(shard)
                except Exception as exc:
                    outcomes[shard.index] = exc
        else:
            with ThreadPoolExecutor(
                max_workers=min(self.parallelism, len(self.shards))
            ) as pool:
                futures = {
                    pool.submit(run, shard): shard.index
                    for shard in self.shards
                }
                for future, index in futures.items():
                    try:
                        outcomes[index] = future.result()
                    except Exception as exc:
                        outcomes[index] = exc
        return outcomes

    # ------------------------------------------------------------------
    # Routed mutations (over the wire, through each worker's WAL)
    # ------------------------------------------------------------------

    def insert_poi(
        self, poi: POI, epoch_aggregates: Mapping[int, int] | None = None
    ) -> int | None:
        """Insert ``poi`` on its owning worker; returns the WAL LSN."""
        with self._routing.read_locked():
            if not self.world.contains_point(poi.point):
                raise ValueError(
                    "POI %r lies outside the world %r" % (poi, self.world)
                )
            if self._owner_of_locked(poi.poi_id) is not None:
                raise ValueError("POI %r is already indexed" % (poi.poi_id,))
            index = self.plan.route(poi.point)
            if index is None:
                index = self.plan.nearest(poi.point)
                with self._counter_lock:
                    self.routing_overflows += 1
            shard = self.shards[index]
            descriptor = self._descriptors[index]
            payload = {
                "op": "insert",
                "poi_id": poi.poi_id,
                "point": [poi.point[0], poi.point[1]],
                "aggregates": sorted(
                    (int(epoch), int(value))
                    for epoch, value in (epoch_aggregates or {}).items()
                ),
            }

            def apply(token: CallToken) -> int | None:
                descriptor.fresh = False
                response = shard.client.request(payload, timeout=self._timeout())
                self._absorb_state(shard, response)
                return cast("int | None", response.get("lsn"))

            return cast(
                "int | None", self._guards[index].call("mutate", apply)
            )

    def delete_poi(self, poi_id: Any) -> bool:
        """Delete ``poi_id`` from its owning worker; ``True`` if indexed."""
        with self._routing.read_locked():
            shard = self._owner_of_locked(poi_id)
            if shard is None:
                return False
            target = shard
            descriptor = self._descriptors[target.index]

            def apply(token: CallToken) -> bool:
                descriptor.fresh = False
                response = target.client.request(
                    {"op": "delete", "poi_id": poi_id}, timeout=self._timeout()
                )
                self._absorb_state(target, response)
                return bool(response.get("deleted"))

            return cast(
                bool, self._guards[target.index].call("mutate", apply)
            )

    def digest_epoch(self, epoch_index: int, counts: Mapping[Any, int]) -> None:
        """Digest one epoch batch, routed per owning worker.

        Validated against the whole cluster first (an unknown POI with
        a positive count raises ``KeyError`` before any worker applies
        anything), then each worker gets its sub-batch through its WAL.
        """
        with self._routing.read_locked():
            routed: dict[int, dict[Any, int]] = {}
            for poi_id, delta in counts.items():
                if delta <= 0:
                    continue
                owner = self._owner_of_locked(poi_id)
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
                    shard: RemoteShard = shard,
                    sub_batch: dict[Any, int] = sub_batch,
                    descriptor: ShardDescriptor = descriptor,
                ) -> None:
                    descriptor.fresh = False
                    response = shard.client.request(
                        {
                            "op": "digest",
                            "epoch": epoch_index,
                            "counts": list(sub_batch.items()),
                        },
                        timeout=self._timeout(),
                    )
                    self._absorb_state(shard, response)

                self._guards[index].call("mutate", apply)

    # ------------------------------------------------------------------
    # Durability and maintenance
    # ------------------------------------------------------------------

    def checkpoint(self) -> str:
        """Checkpoint every worker and rewrite the cluster manifest.

        Mutually exclusive with a live reshard: both claim the same
        exclusive-maintenance flag, so a checkpoint raises
        :class:`~repro.cluster.coordinator.ClusterStateError` while a
        split is in flight (and vice versa).  The routing write lock
        alone would not be enough — a split's Phase A runs lock-free,
        and a worker checkpoint interleaving there would compact the
        split's source WAL out from under its Phase B drain, silently
        losing the tail.  The body runs under the routing write lock:
        mutations hold the read side, so the per-worker snapshots and
        the manifest LSNs recorded for them form one consistent cluster
        checkpoint.  Worker requests here are deliberately direct — a
        retry/backoff sleep must never run under an exclusive lock.
        """
        with self._counter_lock:
            if self._resharding:
                raise ClusterStateError(
                    "a live reshard is in flight; checkpointing now would "
                    "compact the split's source WAL out from under its drain"
                )
            self._resharding = True
        try:
            with self._routing.write_locked():
                entries: list[tuple[str, Any]] = []
                for shard in self.shards:
                    response = shard.client.request(
                        {"op": "checkpoint"}, timeout=self._timeout()
                    )
                    shard.applied_lsn = response.get("applied_lsn")
                    shard.manifest_lsn = shard.applied_lsn
                    entries.append((shard.dirname, shard.applied_lsn))
                payload = manifest_payload(
                    self.name,
                    self.parallelism,
                    self.plan,
                    entries,
                    plan_epoch=self.plan_epoch,
                    next_dir=self.next_dir,
                )
                return write_manifest_payload(self.directory, payload)
        finally:
            with self._counter_lock:
                self._resharding = False

    def scrub_tick(self, budget: int | None = None) -> int:
        """One scrub tick on the next worker (round-robin).

        Doubles as the maintenance driver: a worker flagged
        ``needs_recovery`` gets respawned instead of scrubbed, and —
        when a reshard policy is attached — overload triggers a live
        split (:func:`repro.cluster.reshard.maybe_split`).
        """
        if self.reshard_policy is not None:
            from repro.cluster.reshard import maybe_split

            try:
                maybe_split(self)
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
        with self._counter_lock:
            cursor = self._scrub_cursor
            self._scrub_cursor += 1
        with self._routing.read_locked():
            shard = self.shards[cursor % len(self.shards)]
            guard = self._guards[shard.index]
        if guard.breaker.needs_recovery:
            try:
                self.recover_worker(shard.index)
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
            return 0

        def tick(token: CallToken) -> int:
            response = shard.client.request(
                {"op": "scrub", "budget": budget}, timeout=self._timeout()
            )
            return int(response.get("nodes_checked", 0))

        try:
            return cast(int, guard.call("scrub", tick))
        except Exception as exc:
            if classify_error(exc) == CALLER:
                raise
            return 0

    # ------------------------------------------------------------------
    # Online worker recovery (restart = snapshot + WAL replay)
    # ------------------------------------------------------------------

    def recover_worker(self, index: int) -> dict[str, Any]:
        """Respawn worker ``index`` and cut the coordinator over to it.

        The respawn runs through the guard as an ``"open"`` call (never
        breaker-rejected): terminate whatever process is left, spawn a
        fresh one over the same shard directory — its startup replays
        snapshot + WAL — and validate its hello.  The cutover itself
        (pure pointer swaps) happens under the recovery lock; the new
        worker must have recovered to at least the coordinator's last
        known applied LSN for this shard.  Afterwards the breaker is
        readmitted half-open.  Returns the new worker's hello payload.
        """
        with self._routing.read_locked():
            shard = self.shards[index]
            guard = self._guards[index]
        shard_dir = os.path.join(self.directory, shard.dirname)

        def reopen(token: CallToken) -> tuple[WorkerHandle, WorkerClient, dict[str, Any]]:
            old_handle = shard.handle
            if old_handle is not None and old_handle.alive:
                old_handle.terminate()
            shard.client.close()
            handle = WorkerHandle.spawn(shard_dir)
            client = WorkerClient(handle.host, handle.port, index=index)
            hello = client.connect(timeout=self._timeout())
            return handle, client, hello

        handle, client, hello = cast(
            "tuple[WorkerHandle, WorkerClient, dict[str, Any]]",
            guard.call("open", reopen),
        )
        stale: str | None = None
        with self._recovery_lock:
            old_lsn = shard.applied_lsn
            new_lsn = hello.get("applied_lsn")
            if old_lsn is not None and (new_lsn is None or new_lsn < old_lsn):
                stale = (
                    "shard %d worker recovered to LSN %r behind the "
                    "coordinator's LSN %r — refusing the cutover"
                    % (index, new_lsn, old_lsn)
                )
            else:
                shard.handle = handle
                shard.client = client
                self._absorb_state(shard, hello)
        if stale is not None:
            client.close()
            handle.terminate()
            raise ClusterStateError(stale)
        with self._counter_lock:
            self.recoveries += 1
        guard.readmit()
        return hello

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down (politely, then firmly) and close
        the guards' executors."""
        for shard in self.shards:
            try:
                shard.client.request({"op": "shutdown"}, timeout=5.0)
            except Exception:
                pass
            shard.client.close()
            if shard.handle is not None:
                shard.handle.join(timeout=5.0)
                if shard.handle.alive:
                    shard.handle.terminate()
        for guard in self._guards:
            guard.close()

    def __enter__(self) -> RemoteClusterTree:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return "RemoteClusterTree(%d workers, %s plan, epoch %d)" % (
            len(self.shards),
            self.plan.method,
            self.plan_epoch,
        )
