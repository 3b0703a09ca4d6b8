"""The running k-th score pushed down into every shard search.

A visited shard's search is seeded with the coordinator's running k-th
score, so it stops at the answer's frontier and returns only rows that
can still place.  The cut is inclusive: a row tied with the k-th score
on a lower shard index still wins the ``(score, shard, rank)`` merge,
so it must still be shipped.  Workers that predate the ``threshold``
field ignore it and return a superset, which the merge absorbs.
"""

import json
import os
import random

import pytest

from repro import ClusterTree, KNNTAQuery, TARTree, TimeInterval
from repro.cluster import (
    RemoteClusterTree,
    ShardWorkerServer,
    WorkerClient,
    save_cluster,
)
from repro.cluster.coordinator import Shard
from repro.cluster.planner import ShardPlan
from repro.cluster.remote import RemoteShard
from repro.cluster.state import read_manifest
from repro.core.scan import sequential_scan
from repro.core.tar_tree import POI
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock

from tests.cluster.test_workers import make_cluster_dir, random_queries, rows_of

WORLD = Rect((0.0, 0.0), (100.0, 100.0))
CLOCK = EpochClock(0.0, 1.0)
#: Shard 0 holds x <= 50, shard 1 the rest.  A (shard 0) and B (shard
#: 1) lie 10 from the query point with equal histories, so they score
#: exactly alike.  D makes shard 1 the best bound, so shard 1 is
#: searched first and its k-th row at k=2 is B; shard 0 is searched
#: second with B's score as its threshold and must still ship A, which
#: wins the tie.  Ids follow the insertion order, so the scan oracle
#: breaks the tie toward A as well.
TIE_POIS = [
    (POI(0, 40.0, 50.0), {1: 2}),  # A
    (POI(1, 45.0, 50.0), {1: 1}),  # G: near, unpopular, scores above the tie
    (POI(2, 10.0, 10.0), {1: 1}),  # F
    (POI(3, 51.0, 50.0), {1: 8}),  # D
    (POI(4, 60.0, 50.0), {1: 2}),  # B
]
TIE_POINT = (50.0, 50.0)


def tie_query(k):
    return KNNTAQuery(TIE_POINT, TimeInterval(0.0, 10.0), k=k, alpha0=0.5)


def new_tree():
    return TARTree(world=WORLD, clock=CLOCK, current_time=10.0, stats=AccessStats())


def tie_cluster(pois=TIE_POIS):
    plan = ShardPlan(
        [Rect((0.0, 0.0), (50.0, 100.0)), Rect((50.0, 0.0), (100.0, 100.0))]
    )
    cluster = ClusterTree(
        plan, [Shard(index, region, new_tree()) for index, region in
               enumerate(plan.regions)]
    )
    for poi, history in pois:
        cluster.insert_poi(poi, history)
    return cluster


def tie_oracle(pois=TIE_POIS):
    tree = new_tree()
    for poi, history in pois:
        tree.insert_poi(poi, history)
    return tree


class ThresholdBlindWorker(ShardWorkerServer):
    """A worker from before the push-down: ``threshold`` never reaches
    its search, so it answers with its full top-k."""

    stripped = 0

    def handle_request(self, raw):
        payload = json.loads(raw)
        if payload.pop("threshold", None) is not None:
            self.stripped += 1
        return super().handle_request(json.dumps(payload))


class InThreadCluster:
    """A RemoteClusterTree over in-thread workers on a saved cluster
    directory; ``blind`` names the shards served by
    :class:`ThresholdBlindWorker`."""

    def __init__(self, directory, blind=(), parallelism=1):
        manifest = read_manifest(directory)
        plan = ShardPlan.from_json(manifest["plan"])
        self.servers = []
        shards = []
        for index, entry in enumerate(manifest["shards"]):
            kind = ThresholdBlindWorker if index in blind else ShardWorkerServer
            server = kind(os.path.join(directory, entry["dir"])).start()
            self.servers.append(server)
            client = WorkerClient(*server.address, index=index)
            client.connect()
            shards.append(
                RemoteShard(index, plan.regions[index], entry["dir"], client)
            )
        self.remote = RemoteClusterTree(
            plan, shards, directory=directory, parallelism=parallelism
        )

    def close(self):
        self.remote.close()
        for server in self.servers:
            server.shutdown()


def rows_delta(coordinator, run):
    before = coordinator.counters()["shards.rows"]
    result = run()
    return result, coordinator.counters()["shards.rows"] - before


@pytest.mark.timeout(120)
def test_tie_at_the_kth_score_is_shipped_and_wins_on_both_coordinators(tmp_path):
    oracle = tie_oracle()
    inproc = tie_cluster()
    saved = tie_cluster()
    save_cluster(saved, str(tmp_path / "c"))
    saved.close()
    workers = InThreadCluster(str(tmp_path / "c"))
    try:
        for coordinator in (inproc, workers.remote):
            # k=2: shard 1 ships D and B, shard 0 ships only A (G scores
            # above the pushed-down tie); A wins the tie on shard index.
            answer, shipped = rows_delta(
                coordinator, lambda: coordinator.query(tie_query(2))
            )
            expected = sequential_scan(oracle, tie_query(2))
            assert [row.poi_id for row in expected] == [3, 0]
            assert rows_of(answer) == rows_of(expected)
            assert shipped == 3
            # k=3: shard 1 holds fewer than k POIs, so shard 0 gets no
            # threshold and ships its whole top-3.
            answer, shipped = rows_delta(
                coordinator, lambda: coordinator.query(tie_query(3))
            )
            expected = sequential_scan(oracle, tie_query(3))
            assert [row.poi_id for row in expected] == [3, 0, 4]
            assert rows_of(answer) == rows_of(expected)
            assert shipped == 5
            for k in (1, 4, 5):
                assert rows_of(coordinator.query(tie_query(k))) == rows_of(
                    sequential_scan(oracle, tie_query(k))
                )
    finally:
        workers.close()
        inproc.close()


def test_shard_whose_bound_equals_the_kth_score_is_still_searched(tmp_path):
    # Shard 0 holds only A, so its bound is exactly A's score, which
    # ties with B, the k-th row shard 1 returns: A still places ahead.
    pois = [TIE_POIS[0], TIE_POIS[3], TIE_POIS[4]]
    oracle = tie_oracle(pois)
    clusters = [tie_cluster(pois) for _ in range(2)]
    save_cluster(clusters[1], str(tmp_path / "c"))
    clusters[1].close()
    workers = InThreadCluster(str(tmp_path / "c"))
    try:
        for coordinator in (clusters[0], workers.remote):
            expected = sequential_scan(oracle, tie_query(2))
            assert [row.poi_id for row in expected] == [3, 0]
            assert rows_of(coordinator.query(tie_query(2))) == rows_of(expected)
            assert rows_of(coordinator.query_batch([tie_query(2)])[0]) == rows_of(
                expected
            )
            assert coordinator.counters()["shards.pruned"] == 0
    finally:
        workers.close()
        clusters[0].close()


@pytest.mark.timeout(300)
@pytest.mark.parametrize("parallelism", [1, 2])
def test_workers_ignoring_the_threshold_give_identical_answers(
    small_dataset, tmp_path, parallelism
):
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=4)
    single = TARTree.build(small_dataset)
    queries = random_queries(single, random.Random(5), count=20)
    current = InThreadCluster(directory, parallelism=parallelism)
    try:
        expected = [rows_of(current.remote.query(query)) for query in queries]
        current_rows = current.remote.counters()["shards.rows"]
    finally:
        current.close()
    mixed = InThreadCluster(directory, blind=(0, 2), parallelism=parallelism)
    try:
        got = [rows_of(mixed.remote.query(query)) for query in queries]
        mixed_rows = mixed.remote.counters()["shards.rows"]
        stripped = sum(
            server.stripped for server in mixed.servers
            if isinstance(server, ThresholdBlindWorker)
        )
    finally:
        mixed.close()
    assert got == expected
    assert got == [rows_of(single.query(query)) for query in queries]
    assert stripped > 0
    # The blind workers ship their whole top-k: more rows, same answers.
    assert mixed_rows > current_rows


def test_shard_rows_counter_matches_across_coordinators(small_dataset, tmp_path):
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=4)
    single = TARTree.build(small_dataset)
    queries = random_queries(single, random.Random(9), count=15)
    inproc = ClusterTree.build(small_dataset, num_shards=4, parallelism=1)
    workers = InThreadCluster(directory)
    full_rows = 0
    try:
        for query in queries:
            before = inproc.counters()
            assert rows_of(inproc.query(query)) == rows_of(
                workers.remote.query(query)
            )
            after = inproc.counters()
            visited = after["shards.visited"] - before["shards.visited"]
            rows = after["shards.rows"] - before["shards.rows"]
            assert rows <= query.k * visited
            full_rows += query.k * visited
        local, remote = inproc.counters(), workers.remote.counters()
    finally:
        workers.close()
        inproc.close()
    for key in ("shards.visited", "shards.pruned", "shards.rows"):
        assert local[key] == remote[key], key
    # Shards searched after the first ship only rows that can place.
    assert local["shards.rows"] < full_rows
