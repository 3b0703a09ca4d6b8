"""Workload ``service_mixed``: served reads beside writes and subscriptions.

``QueryService`` (default ``ServiceConfig``) serves a durable 4-shard
in-process ``ClusterTree`` on NYC x0.3, built up to an epoch boundary
``REPLAY_EPOCHS`` epochs before the dataset's end.  Two client threads
run for the measured window:

* an open-loop generator ``submit()``s queries at ``QUERY_RATE`` q/s
  whose intervals are trailing 1-, 4- and 13-week windows ending at the
  current clock, so concurrent requests can share an interval and
  coalesce into one collective batch;
* a writer replays the remaining epochs through ``QueryService.digest``,
  one every ``DIGEST_PERIOD`` seconds, each followed by one ``insert``
  and one ``delete`` of a synthetic POI; every ``CHECKPOINT_EVERY``
  epochs it calls ``QueryService.checkpoint()``.

``SUBSCRIPTIONS`` standing subscriptions (window of 2 epochs, k=10,
alpha0=0.3) fan out on every digest.  Query latency runs from each
request's due time, so generator lateness and stalls count against the
program.  This is the only workload where WAL fsyncs, checkpoints,
frame invalidation, micro-batching and subscription advances run, and
they contend with reads for the service lock and the interpreter lock.
After each submit the generator runs the host-speed kernel
(``common.HostSpeed``).  A request's latency beyond the service's
micro-batching ``linger`` is scaled by it; the linger itself is a timer
wait, which a slow host does not stretch (see README.md).

Epochs the window does not reach are digested after it, untimed, so the
final state always equals the whole dataset; the synthetic POIs are
deleted again.  Probe queries and every subscription's last pushed
state are then checked against ``TARTree.build`` of the full dataset.
"""

import os
import random
import tempfile
import threading
import time

from repro import (
    POI,
    ClusterTree,
    EpochClock,
    KNNTAQuery,
    QueryService,
    TARTree,
    TimeInterval,
    datasets,
    save_cluster,
)
from repro.datasets import Dataset
from repro.datasets.streaming import epoch_stream
from repro.datasets.workload import generate_queries

from common import (
    ALPHA0,
    DATASET_SEED,
    K,
    UNTRACED_LAYER_METRICS,
    HostSpeed,
    mean,
    overhead,
    peak_rss_mb,
    percentile,
    rows_of,
    timed_setups,
)
from layers import frame_hit_ratio, instrument_coordinator, instrument_core, instrument_service

DATASET = "NYC"
SHARDS = 4
EPOCH_DAYS = 7.0
REPLAY_EPOCHS = 30
QUERY_RATE = 100.0
DIGEST_PERIOD = 1.0
CHECKPOINT_EVERY = 20
SUBSCRIPTIONS = 8
SUBSCRIPTION_WINDOW = 2
WINDOW_DAYS = (7.0, 28.0, 91.0)
PROBES = 64
#: Synthetic POI ids start above every dataset id.
SYNTHETIC_BASE = 10 ** 9
#: How long after the window a request may still take to complete.
DRAIN_TIMEOUT = 30.0

LAYER_METRICS = (
    "digest_p50_ms",
    "mutation_p50_ms",
    "push_lag_p50_ms",
    "push_lag_p90_ms",
    "core.frame_hit_ratio",
    "core.collective_ms",
    "core.nodes_per_query",
    "core.tia_pages_per_query",
    "core.tia_buffer_hit_ratio",
    "service.execute_ms",
    "service.queue_wait_ms",
    "service.batch_size_mean",
    "service.batched_share",
    "service.rejected",
    "service.timed_out",
    "service.failed",
    "bench.generator_lag_p99_ms",
    "continuous.advance_ms",
    "continuous.incremental_share",
    "reliability.apply_ms",
    "reliability.wal_bytes_per_checkin",
    "reliability.checkpoint_ms",
    "setup.dataset_s",
    "setup.build_s",
    "setup.spawn_s",
)


class Config:
    def __init__(self, tiny, trace):
        self.scale = 0.05 if tiny else 0.3
        self.setups = 1 if tiny or trace else 5
        self.warm_queries = 8 if tiny else 32


def truncated(data, cut):
    """``data``'s effective POIs with only the check-ins before ``cut``.

    Every POI the full dataset indexes stays (threshold 0), so replaying
    the epochs from ``cut`` on brings each history to the full dataset's.
    """
    ids = data.effective_poi_ids()
    return Dataset(
        data.name + "@cut",
        data.world,
        data.t0,
        cut,
        {poi_id: data.positions[poi_id] for poi_id in ids},
        {
            poi_id: data.checkin_times[poi_id][data.checkin_times[poi_id] < cut]
            for poi_id in ids
        },
        threshold=0,
    )


class Inputs:
    """Everything generated from the workload seed, before timing."""

    def __init__(self, data, seed, seconds):
        rng = random.Random(seed)
        locations = [data.positions[poi_id] for poi_id in data.effective_poi_ids()]
        count = int(seconds * QUERY_RATE) + 1
        self.query_points = [rng.choice(locations) for _ in range(count)]
        self.query_days = [rng.choice(WINDOW_DAYS) for _ in range(count)]
        self.subscription_points = [rng.choice(locations) for _ in range(SUBSCRIPTIONS)]
        world = data.world
        self.synthetic = [
            POI(
                SYNTHETIC_BASE + index,
                rng.uniform(world.lows[0], world.highs[0]),
                rng.uniform(world.lows[1], world.highs[1]),
            )
            for index in range(REPLAY_EPOCHS)
        ]
        self.probes = generate_queries(
            data, n_queries=PROBES, k=K, alpha0=ALPHA0, seed=seed
        ).queries


class Pushes:
    """Subscription sinks: each push's lag from the start of its digest."""

    def __init__(self):
        self.digest_started = None
        self.recording = True
        self.lags = []
        self.last = {}
        self.degraded = 0

    def sink(self, update):
        now = time.monotonic()
        self.last[update.subscription_id] = update
        if not update.exact:
            self.degraded += 1
        if self.recording and self.digest_started is not None:
            self.lags.append((self.digest_started, now - self.digest_started))


class Setup:
    """Dataset and replay batches, durable cluster, service, subscriptions,
    warm-up."""

    def __init__(self, config, inputs_seed, seconds, workdir, tracer):
        start = time.perf_counter()
        with tracer.span("datasets.presets.make"):
            self.data = datasets.make(DATASET, scale=config.scale, seed=DATASET_SEED)
        clock = EpochClock(self.data.t0, EPOCH_DAYS)
        cut_epoch = clock.num_epochs(self.data.tc) - REPLAY_EPOCHS
        self.cut = clock.bounds(cut_epoch)[0]
        with tracer.span("datasets.streaming.epoch_stream"):
            self.batches = list(
                epoch_stream(
                    self.data, clock, start_time=self.cut,
                    poi_ids=self.data.effective_poi_ids(),
                )
            )
        self.inputs = Inputs(self.data, inputs_seed, seconds)
        self.dataset_s = time.perf_counter() - start

        start = time.perf_counter()
        self.directory = tempfile.mkdtemp(prefix="cluster-", dir=workdir)
        self.cluster = ClusterTree.build(
            truncated(self.data, self.cut), num_shards=SHARDS, clock=clock
        )
        save_cluster(self.cluster, self.directory)
        self.build_s = time.perf_counter() - start

        start = time.perf_counter()
        self.service = QueryService(self.cluster)
        self.spawn_s = time.perf_counter() - start
        self.pushes = Pushes()
        self.subscriptions = []
        for point in self.inputs.subscription_points:
            subscription, initial = self.service.subscribe(
                point, SUBSCRIPTION_WINDOW, k=K, alpha0=ALPHA0, sink=self.pushes.sink
            )
            self.pushes.last[subscription.id] = initial
            self.subscriptions.append((subscription, point))
        for query in self.inputs.probes[: config.warm_queries]:
            self.service.query(query)

    def close(self):
        self.service.close()
        self.cluster.close()


def sleep_until(when):
    delay = when - time.monotonic()
    if delay > 0:
        time.sleep(delay)


class Load:
    """The two client threads and what they observed."""

    def __init__(self, setup, seconds, start):
        self.setup = setup
        self.start = start
        self.end = start + seconds
        self.speed = HostSpeed(start)
        self.requests = []  # (due, submitted, pending or None)
        self.digests = []  # (started, seconds, check-ins, WAL bytes)
        self.mutations = []  # (started, seconds)
        self.checkpoints = []  # seconds
        self.errors = []
        self.failures = 0
        self.replayed = 0

    def generate(self):
        service = self.setup.service
        inputs = self.setup.inputs
        clock_t0 = self.setup.cluster.clock.t0
        index = 0
        while True:
            due = self.start + index / QUERY_RATE
            if due >= self.end or index >= len(inputs.query_points):
                return
            sleep_until(due)
            end = service.tree.current_time
            begin = max(clock_t0, end - inputs.query_days[index])
            query = KNNTAQuery(
                inputs.query_points[index], TimeInterval(begin, end), k=K, alpha0=ALPHA0
            )
            submitted = time.monotonic()
            try:
                pending = service.submit(query)
            except Exception as exc:  # refused: counted as a failed request
                self.errors.append("submit refused: %s: %s" % (type(exc).__name__, exc))
                pending = None
            self.requests.append((due, submitted, pending))
            self.speed.sample(time.monotonic())
            index += 1

    def wal_bytes(self):
        return sum(
            os.path.getsize(shard.ingest.log_path)
            for shard in self.setup.cluster.shards
            if os.path.exists(shard.ingest.log_path)
        )

    def write(self):
        service = self.setup.service
        pushes = self.setup.pushes
        synthetic = self.setup.inputs.synthetic
        for index, (epoch, counts) in enumerate(self.setup.batches):
            due = self.start + index * DIGEST_PERIOD
            if due >= self.end:
                return
            sleep_until(due)
            wal_before = self.wal_bytes()
            started = time.monotonic()
            pushes.digest_started = started
            service.digest(epoch, counts)
            elapsed = time.monotonic() - started
            pushes.digest_started = None
            self.digests.append(
                (started, elapsed, sum(counts.values()), self.wal_bytes() - wal_before)
            )
            poi = synthetic[index]
            started = time.monotonic()
            service.insert(poi)
            self.mutations.append((started, time.monotonic() - started))
            started = time.monotonic()
            deleted = service.delete(poi.poi_id)
            self.mutations.append((started, time.monotonic() - started))
            if not deleted:
                self.failures += 1
                self.errors.append("synthetic POI %r was not deleted" % (poi.poi_id,))
            self.replayed = index + 1
            if self.replayed % CHECKPOINT_EVERY == 0:
                started = time.perf_counter()
                service.checkpoint()
                self.checkpoints.append(time.perf_counter() - started)

    def writes(self):
        """Write operations attempted: digests, mutations, checkpoints."""
        return len(self.digests) + len(self.mutations) + len(self.checkpoints)

    def _recorded(self, body):
        """Run a client thread's body; an exception ends that thread
        and is recorded as a failed operation instead of vanishing."""

        def target():
            try:
                body()
            except Exception as exc:
                self.failures += 1
                self.errors.append(
                    "%s stopped: %s: %s" % (body.__name__, type(exc).__name__, exc)
                )

        return target

    def run(self, tracer, trace_from):
        """Run both threads for the window; enable tracing at
        ``trace_from`` (monotonic) when given."""
        threads = [
            threading.Thread(target=self._recorded(self.generate), name="bench-generator"),
            threading.Thread(target=self._recorded(self.write), name="bench-writer"),
        ]
        for thread in threads:
            thread.start()
        if trace_from is not None:
            delay = trace_from - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            tracer.enable()
        for thread in threads:
            thread.join()
        tracer.disable()


def settle(load):
    """Wait for every request; return ``([(due, latency from due,
    completed at)], failures)``."""
    samples = []
    failures = 0
    for due, _submitted, pending in load.requests:
        if pending is None:
            failures += 1
            continue
        try:
            answer = pending.result(DRAIN_TIMEOUT)
        except Exception as exc:
            load.errors.append("request failed: %s: %s" % (type(exc).__name__, exc))
            failures += 1
            continue
        if not answer.exact or len(answer.rows) != K:
            load.errors.append("answer not exact with %d rows" % K)
            failures += 1
            continue
        completed = pending.enqueued_at + pending.latency
        samples.append((due, completed - due, completed))
    return samples, failures


def final_checks(setup, load):
    """Digest the epochs the window did not reach, then compare probes
    and every subscription's last pushed state with a single-tree
    oracle of the full dataset.  Returns ``(checks made, mismatches)``."""
    service = setup.service
    setup.pushes.recording = False
    for epoch, counts in setup.batches[load.replayed:]:
        service.digest(epoch, counts)
    if len(setup.cluster) != len(setup.data.effective_poi_ids()):
        load.errors.append("final cluster does not hold exactly the dataset's POIs")
    oracle = TARTree.build(setup.data)
    mismatches = 0
    for probe in setup.inputs.probes:
        if rows_of(service.query(probe)) != rows_of(oracle.query(probe)):
            mismatches += 1
    for subscription, point in setup.subscriptions:
        update = setup.pushes.last[subscription.id]
        expected = oracle.query(
            KNNTAQuery(point, update.window.interval, k=K, alpha0=ALPHA0)
        )
        if not update.exact or rows_of(update.answer) != rows_of(expected):
            mismatches += 1
    if mismatches:
        load.errors.append("%d probes or subscriptions differ from the oracle" % mismatches)
    return len(setup.inputs.probes) + len(setup.subscriptions), mismatches


def query_metrics(samples, start, speed, linger):
    """Latency percentiles at reference speed, the p50 as measured, and
    completions per second since ``start``.

    Each latency's first ``linger`` seconds stay as measured and the
    rest is scaled by ``speed``.  Throughput is set by the offered
    rate, so it is not scaled: it checks that the service keeps up.
    """
    scale = speed.scaler()
    latencies = [
        min(latency, linger) + scale(due, max(0.0, latency - linger))
        for due, latency, _completed in samples
    ]
    finished = max(sample[2] for sample in samples)
    return {
        "query_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "query_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "query_throughput_qps": len(samples) / (finished - start),
        "bench.query_wall_p50_ms": 1000.0 * percentile(
            [latency for _due, latency, _completed in samples], 0.50
        ),
        "bench.host_speed": speed.factors()[None],
    }


def split(samples, boundary, traced):
    """Samples started before (untraced) or after (traced) ``boundary``."""
    if boundary is None:
        return samples
    return [s for s in samples if (s[0] >= boundary) == traced]


def run(ctx):
    config = Config(ctx.tiny, ctx.trace)
    tracer = ctx.tracer
    setup = None
    values = {}
    executed = {}
    try:
        if ctx.trace:
            tracer.enable()
        setup_values, setup = timed_setups(
            config.setups,
            lambda: Setup(config, ctx.seed, ctx.seconds, ctx.workdir, tracer),
        )
        tracer.disable()
        values.update(setup_values)
        if ctx.trace:
            instrument_core(tracer)
            instrument_coordinator(tracer)
            instrument_service(tracer, executed)
        before = setup.service.stats()
        start = time.monotonic() + 0.05
        boundary = start + ctx.seconds / 2.0 if ctx.trace else None
        load = Load(setup, ctx.seconds, start)
        load.run(tracer, boundary)
        samples, failures = settle(load)
        values["peak_rss_mb"] = peak_rss_mb()
        stats = setup.service.stats()
        untraced = query_metrics(
            split(samples, boundary, False), start, load.speed, setup.service.config.linger
        )
        quiet_digests = split(load.digests, boundary, False)
        quiet_mutations = split(load.mutations, boundary, False)
        quiet_lags = split(setup.pushes.lags, boundary, False)
        values["digest_p50_ms"] = 1000.0 * percentile([d[1] for d in quiet_digests], 0.5)
        values["mutation_p50_ms"] = 1000.0 * percentile([m[1] for m in quiet_mutations], 0.5)
        values["push_lag_p50_ms"] = 1000.0 * percentile([l[1] for l in quiet_lags], 0.5)
        values["push_lag_p90_ms"] = 1000.0 * percentile([l[1] for l in quiet_lags], 0.9)
        values["bench.generator_lag_p99_ms"] = 1000.0 * percentile(
            [submitted - due for due, submitted, _p in load.requests], 0.99
        )
        if not ctx.trace:
            values.update(untraced)
        else:
            values.update((name, untraced[name]) for name in UNTRACED_LAYER_METRICS)
            traced = query_metrics(
                split(samples, boundary, True), boundary, load.speed,
                setup.service.config.linger,
            )
            values.update(overhead(traced, untraced))
            layer_metrics(values, tracer, setup, load, executed, before, stats, boundary)
        checked, mismatches = final_checks(setup, load)
    finally:
        if setup is not None:
            setup.close()
    if setup.pushes.degraded:
        load.errors.append("%d subscription pushes were degraded" % setup.pushes.degraded)
    failed = failures + mismatches + load.failures + setup.pushes.degraded
    return {
        "values": values,
        "attempted": len(load.requests) + load.writes() + checked,
        "failed": failed,
        "errors": load.errors,
        "params": {
            "dataset": DATASET,
            "scale": config.scale,
            "indexed_pois": len(setup.data.effective_poi_ids()),
            "shards": SHARDS,
            "replay_epochs": len(setup.batches),
            "epochs_in_window": load.replayed,
            "query_rate_qps": QUERY_RATE,
            "digest_period_s": DIGEST_PERIOD,
            "checkpoint_every": CHECKPOINT_EVERY,
            "subscriptions": SUBSCRIPTIONS,
            "subscription_window_epochs": SUBSCRIPTION_WINDOW,
            "query_window_days": list(WINDOW_DAYS),
            "k": K,
            "alpha0": ALPHA0,
            "client_threads": 2,
            "loop": "open",
            "setups": config.setups,
            "probes": PROBES,
        },
    }


def layer_metrics(values, tracer, setup, load, executed, before, stats, boundary):
    traced_requests = [
        pending for due, _s, pending in load.requests
        if due >= boundary and pending is not None and id(pending.query) in executed
    ]
    values["service.execute_ms"] = tracer.mean_ms("service.service.execute")
    values["service.queue_wait_ms"] = 1000.0 * mean(
        [pending.latency - executed[id(pending.query)] for pending in traced_requests]
    )
    histogram = {
        int(size): count for size, count in stats["batch_size_histogram"].items()
    }
    riders = sum(size * count for size, count in histogram.items())
    values["service.batch_size_mean"] = riders / float(sum(histogram.values()))
    values["service.batched_share"] = (
        sum(size * count for size, count in histogram.items() if size > 1) / float(riders)
    )
    values["service.rejected"] = stats["rejected"] - before["rejected"]
    values["service.timed_out"] = stats["timed_out"] - before["timed_out"]
    values["service.failed"] = stats["failed"] - before["failed"]
    per_request = stats["access_per_request"]
    values["core.nodes_per_query"] = per_request["rtree_nodes"]
    values["core.tia_pages_per_query"] = per_request["tia_pages"]
    pages = per_request["tia_pages"] + per_request["tia_buffer_hits"]
    values["core.tia_buffer_hit_ratio"] = per_request["tia_buffer_hits"] / pages if pages else 0.0
    values["core.frame_hit_ratio"] = frame_hit_ratio(tracer)
    values["core.collective_ms"] = tracer.mean_ms("cluster.coordinator.query_batch")
    values["core.query_ms"] = tracer.mean_ms("core.tar_tree.query")
    values["continuous.advance_ms"] = tracer.mean_ms("continuous.registry.advance")
    evaluations = stats["subscriptions"]
    incremental = evaluations["evals.incremental"]
    fresh = evaluations["evals.fresh"]
    values["continuous.incremental_share"] = incremental / float(incremental + fresh)
    values["reliability.apply_ms"] = tracer.mean_ms("cluster.coordinator.digest_epoch")
    checkins = sum(d[2] for d in load.digests)
    values["reliability.wal_bytes_per_checkin"] = sum(d[3] for d in load.digests) / float(checkins)
    values["reliability.checkpoint_ms"] = 1000.0 * mean(load.checkpoints)
    values["setup.dataset_s"] = setup.dataset_s
    values["setup.build_s"] = setup.build_s
    values["setup.spawn_s"] = setup.spawn_s
