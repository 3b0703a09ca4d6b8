"""Workload ``cluster_workers``: scatter-gather over shard worker processes.

Closed loop, one client thread calling ``RemoteClusterTree.query`` with
sequential dispatch (``parallelism=1``) over 4 shard worker processes
started from a ``save_cluster`` directory of NYC x0.3 (510 POIs), with
the same broad query mix as ``tree_knnta`` (k=10, alpha0=0.3).  A query
takes about four round trips and worker search is a small share of it,
so coordinator, guard and wire changes show here and core changes
little.  One client with sequential dispatch keeps at most the
coordinator and one worker busy on two cores.

The traced run splits a query into layers: round trips and their
duration, coordinator self time, JSON codec time over the captured
frames, worker ``handle_request`` time replayed offline (no socket) on
copies of the shard directories, a bare ``health`` round trip, and the
same query stream on an in-process ``ClusterTree`` opened from a copy
of the same directory.
"""

import json
import os
import shutil
import tempfile
import time

from repro import (
    AccessStats,
    ClusterTree,
    TARTree,
    datasets,
    open_cluster,
    save_cluster,
    sequential_scan,
)
from repro.cluster import RemoteClusterTree
from repro.cluster.state import read_manifest
from repro.cluster.workers import ShardWorkerServer
from repro.datasets.workload import generate_queries

from common import (
    ALPHA0,
    DATASET_SEED,
    K,
    UNTRACED_LAYER_METRICS,
    Answers,
    closed_loop,
    loop_metrics,
    mean,
    overhead,
    peak_rss_mb,
    process_stat,
    rows_of,
    timed_setups,
)
from layers import (
    access_metrics,
    codec_ms,
    frame_hit_ratio,
    instrument_core,
    instrument_remote,
    instrument_workers,
)

DATASET = "NYC"
SHARDS = 4
#: Bare ``health`` round trips timed per worker.
HEALTH_PROBES = 100
#: Captured shard requests replayed through ``handle_request`` offline.
REPLAY_FRAMES = 3000

LAYER_METRICS = (
    "core.query_ms",
    "core.nodes_per_query",
    "core.tia_pages_per_query",
    "core.tia_buffer_hit_ratio",
    "core.frame_hit_ratio",
    "cluster.roundtrips_per_query",
    "cluster.roundtrip_ms",
    "cluster.coordinator_self_ms",
    "cluster.codec_ms",
    "workers.handle_ms",
    "cluster.transport_ms",
    "workers.health_rtt_ms",
    "cluster.shards_visited_per_query",
    "cluster.shards_pruned_per_query",
    "cluster.guard_retries",
    "cluster.guard_timeouts",
    "cluster.shards_failed",
    "cluster.inproc_query_ms",
    "setup.dataset_s",
    "setup.build_s",
    "setup.spawn_s",
)


class Config:
    def __init__(self, tiny, trace):
        self.scale = 0.05 if tiny else 0.3
        self.setups = 1 if tiny or trace else 3
        self.distinct_queries = 32 if tiny else 1000
        self.warm_queries = 32 if tiny else 100


class Setup:
    """Dataset, sharded build, durable state, worker spawn and warm-up."""

    def __init__(self, config, seed, workdir, tracer, spawned, keep_copy):
        start = time.perf_counter()
        with tracer.span("datasets.presets.make"):
            self.data = datasets.make(DATASET, scale=config.scale, seed=DATASET_SEED)
        self.dataset_s = time.perf_counter() - start
        start = time.perf_counter()
        self.directory = tempfile.mkdtemp(prefix="cluster-", dir=workdir)
        inproc = ClusterTree.build(self.data, num_shards=SHARDS)
        save_cluster(inproc, self.directory)
        inproc.close()
        self.build_s = time.perf_counter() - start
        # Pristine copies for the offline layers (worker replay and the
        # in-process cluster), taken before any worker opens the state.
        self.copies = []
        if keep_copy:
            for _ in range(2):
                copy = tempfile.mkdtemp(prefix="copy-", dir=workdir)
                shutil.copytree(self.directory, copy, dirs_exist_ok=True)
                self.copies.append(copy)
        start = time.perf_counter()
        self.remote = RemoteClusterTree.start(self.directory, parallelism=1)
        self.spawn_s = time.perf_counter() - start
        self.pids = [shard["pid"] for shard in self.remote.health()["shards"]]
        spawned.extend(self.pids)
        self.queries = generate_queries(
            self.data, n_queries=config.distinct_queries, k=K, alpha0=ALPHA0, seed=seed
        ).queries
        for query in self.queries[: config.warm_queries]:
            self.remote.query(query)

    def close(self):
        self.remote.close()


def surviving(pids):
    """The pids among ``pids`` that still run (zombies do not count)."""
    return [pid for pid in pids if (process_stat(pid) or ("Z",))[0] != "Z"]


def replay(server, lines):
    for line in lines:
        response = server.handle_request(line)
        if not response.get("ok"):
            raise RuntimeError("replayed request failed: %r" % (response,))


def replay_handlers(copy, frames, tracer):
    """Replay captured shard requests through ``handle_request``.

    Each shard's frames go to an unstarted ``ShardWorkerServer`` over
    a copy of that shard's directory, three times: once to warm its
    frames, once traced for the core spans and access counts, and once
    untraced and timed, as the real workers serve them.  Returns
    ``(mean handle ms, replayed frames, AccessStats delta of the traced
    pass summed over the shards)``.
    """
    entries = read_manifest(copy)["shards"]
    by_shard = {}
    for index, payload, _response in frames[:REPLAY_FRAMES]:
        if payload.get("op") in ("query", "batch"):
            by_shard.setdefault(index, []).append(json.dumps(payload).encode("utf-8"))
    replayed = 0
    totals = AccessStats()
    handle_seconds = 0.0
    for index, lines in sorted(by_shard.items()):
        server = ShardWorkerServer(os.path.join(copy, entries[index]["dir"]))
        try:
            replay(server, lines)
            snapshot = server.tree.stats.snapshot()
            tracer.enable()
            replay(server, lines)
            tracer.disable()
            totals.merge(server.tree.stats.diff(snapshot))
            start = time.perf_counter()
            replay(server, lines)
            handle_seconds += time.perf_counter() - start
            replayed += len(lines)
        finally:
            tracer.disable()
            # shutdown() waits for a serve loop, so give it one to stop.
            server.start()
            server.shutdown()
    handle_ms = 1000.0 * handle_seconds / replayed if replayed else 0.0
    return handle_ms, replayed, totals


def health_rtt_ms(remote):
    start = time.perf_counter()
    for shard in remote.shards:
        for _ in range(HEALTH_PROBES):
            shard.client.request({"op": "health"})
    return 1000.0 * (time.perf_counter() - start) / (HEALTH_PROBES * len(remote.shards))


def traced_layers(setup, answers, seconds, tracer, values):
    """The traced half of a ``--trace 1`` run.

    Returns ``(traced loop metrics, queries run)``, the in-process
    comparison run included.
    """
    remote, queries = setup.remote, setup.queries
    frames = []
    instrument_core(tracer)
    instrument_remote(tracer, frames)
    instrument_workers(tracer)
    before = remote.counters()
    tracer.enable()
    samples, speed = closed_loop(remote.query, queries, answers, seconds)
    tracer.disable()
    after = remote.counters()
    traced = loop_metrics(samples, speed)
    issued = float(len(samples))
    trips = tracer.calls("cluster.remote.request")
    trip_seconds = tracer.seconds("cluster.remote.request")
    values["cluster.roundtrips_per_query"] = trips / issued
    values["cluster.roundtrip_ms"] = tracer.mean_ms("cluster.remote.request")
    values["cluster.coordinator_self_ms"] = (
        1000.0 * (tracer.seconds("cluster.remote.query") - trip_seconds) / issued
    )
    for name in ("visited", "pruned"):
        key = "shards." + name
        values["cluster.shards_%s_per_query" % name] = (after[key] - before[key]) / issued
    values["cluster.codec_ms"] = codec_ms(frames)
    values["workers.health_rtt_ms"] = health_rtt_ms(remote)

    replay_copy, inproc_copy = setup.copies
    handle_ms, replayed, delta = replay_handlers(replay_copy, frames, tracer)
    values["workers.handle_ms"] = handle_ms
    values["cluster.transport_ms"] = values["cluster.roundtrip_ms"] - handle_ms
    # Worker-side core work, scaled from replayed shard requests to
    # client queries (each takes roundtrips_per_query requests).
    equivalent_queries = replayed / values["cluster.roundtrips_per_query"]
    values["core.query_ms"] = (
        1000.0 * tracer.seconds("core.tar_tree.query") / equivalent_queries
    )
    values.update(access_metrics(delta, equivalent_queries))
    values["core.frame_hit_ratio"] = frame_hit_ratio(tracer)

    inproc = open_cluster(inproc_copy, parallelism=1)
    try:
        for query in queries:
            inproc.query(query)
        inproc_samples, _speed = closed_loop(
            inproc.query, queries, answers, min(seconds, 5.0)
        )
    finally:
        inproc.close()
    values["cluster.inproc_query_ms"] = 1000.0 * mean(
        [latency for _finished, latency in inproc_samples]
    )
    return traced, len(samples) + len(inproc_samples)


def run(ctx):
    config = Config(ctx.tiny, ctx.trace)
    tracer = ctx.tracer
    spawned = []
    errors = []
    setup = None
    values = {}
    try:
        if ctx.trace:
            tracer.enable()
        setup_values, setup = timed_setups(
            config.setups,
            lambda: Setup(config, ctx.seed, ctx.workdir, tracer, spawned, ctx.trace),
        )
        tracer.disable()
        remote, queries = setup.remote, setup.queries
        answers = Answers()
        values.update(setup_values)
        seconds = ctx.seconds / 2.0 if ctx.trace else ctx.seconds
        samples, speed = closed_loop(remote.query, queries, answers, seconds)
        untraced = loop_metrics(samples, speed)
        values["peak_rss_mb"] = peak_rss_mb(setup.pids)
        attempted = len(samples)
        if not ctx.trace:
            values.update(untraced)
        else:
            values.update((name, untraced[name]) for name in UNTRACED_LAYER_METRICS)
            traced, traced_attempted = traced_layers(setup, answers, seconds, tracer, values)
            attempted += traced_attempted
            values.update(overhead(traced, untraced))
            values["setup.dataset_s"] = setup.dataset_s
            values["setup.build_s"] = setup.build_s
            values["setup.spawn_s"] = setup.spawn_s
        counters = remote.counters()
        values["cluster.guard_retries"] = counters["shards.retries"]
        values["cluster.guard_timeouts"] = counters["shards.timeouts"]
        values["cluster.shards_failed"] = counters["shards.failed"]
    finally:
        if setup is not None:
            setup.close()
    # The oracle is built once the workers are gone and peak RSS is read.
    oracle_tree = TARTree.build(setup.data)
    answers.check(lambda position: rows_of(sequential_scan(oracle_tree, queries[position])))
    failed = answers.mismatches
    if failed:
        errors.append(
            "%d answers differ from sequential_scan or from an earlier answer "
            "to the same query" % failed
        )
    # A failed shard call or a degraded answer is an error even when the
    # rows happened to match.
    failed += counters["shards.failed"] + counters["degraded_answers"]
    if counters["shards.failed"] or counters["degraded_answers"]:
        errors.append(
            "%d shard calls failed, %d answers degraded"
            % (counters["shards.failed"], counters["degraded_answers"])
        )
    leaked = surviving(spawned)
    if leaked:
        errors.append("worker pids outlived the run: %r" % (leaked,))
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "params": {
            "dataset": DATASET,
            "scale": config.scale,
            "indexed_pois": len(oracle_tree),
            "shards": SHARDS,
            "parallelism": 1,
            "distinct_queries": len(queries),
            "k": K,
            "alpha0": ALPHA0,
            "client_threads": 1,
            "loop": "closed",
            "setups": config.setups,
        },
    }
