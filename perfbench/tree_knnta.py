"""Workload ``tree_knnta``: the paper's own query on one TAR-tree.

Closed loop, one client thread calling ``TARTree.query`` on GS x1.0
(1,455 indexed POIs) with the paper's default mix from
``generate_queries``: k=10, alpha0=0.3, intervals of 2^0..2^9 days,
points sampled from the POIs.  The core does all the work here, so a
core change shows on this workload and a cluster, service or
subscription change should not.
"""

import time

from repro import TARTree, datasets, sequential_scan
from repro.datasets.workload import generate_queries

from common import (
    ALPHA0,
    DATASET_SEED,
    K,
    UNTRACED_LAYER_METRICS,
    Answers,
    closed_loop,
    loop_metrics,
    overhead,
    peak_rss_mb,
    rows_of,
    timed_setups,
)
from layers import access_metrics, frame_hit_ratio, instrument_core

DATASET = "GS"

#: Layer metrics this workload measures; the rest of the per-layer
#: list does not run here and reads 0.
LAYER_METRICS = (
    "core.query_ms",
    "core.nodes_per_query",
    "core.tia_pages_per_query",
    "core.tia_buffer_hit_ratio",
    "core.frame_hit_ratio",
    "setup.dataset_s",
    "setup.build_s",
)


class Setup:
    """Dataset, index and warm frames: everything before the first
    timed query."""

    def __init__(self, config, seed, tracer):
        start = time.perf_counter()
        with tracer.span("datasets.presets.make"):
            self.data = datasets.make(DATASET, scale=config.scale, seed=DATASET_SEED)
        self.dataset_s = time.perf_counter() - start
        start = time.perf_counter()
        self.tree = TARTree.build(self.data)
        self.build_s = time.perf_counter() - start
        self.queries = generate_queries(
            self.data, n_queries=config.distinct_queries, k=K, alpha0=ALPHA0, seed=seed
        ).queries
        for query in self.queries:
            self.tree.query(query)

    def close(self):
        pass


class Config:
    def __init__(self, tiny, trace):
        self.scale = 0.1 if tiny else 1.0
        self.setups = 1 if tiny or trace else 3
        self.distinct_queries = 32 if tiny else 500


def run(ctx):
    config = Config(ctx.tiny, ctx.trace)
    tracer = ctx.tracer
    # Tracing is on during set-up only for its dataset span; the layers
    # are patched after set-up, so warm-up queries stay untraced.
    if ctx.trace:
        tracer.enable()
    values, setup = timed_setups(config.setups, lambda: Setup(config, ctx.seed, tracer))
    tracer.disable()
    if ctx.trace:
        instrument_core(tracer)
    tree, queries = setup.tree, setup.queries
    answers = Answers()

    seconds = ctx.seconds / 2.0 if ctx.trace else ctx.seconds
    samples, speed = closed_loop(tree.query, queries, answers, seconds)
    untraced = loop_metrics(samples, speed)
    values["peak_rss_mb"] = peak_rss_mb()
    attempted = len(samples)
    if not ctx.trace:
        values.update(untraced)
    else:
        values.update((name, untraced[name]) for name in UNTRACED_LAYER_METRICS)
        snapshot = tree.stats.snapshot()
        tracer.enable()
        samples, speed = closed_loop(tree.query, queries, answers, seconds)
        tracer.disable()
        attempted += len(samples)
        values.update(access_metrics(tree.stats.diff(snapshot), len(samples)))
        values.update(overhead(loop_metrics(samples, speed), untraced))
        values["core.query_ms"] = tracer.mean_ms("core.tar_tree.query")
        values["core.frame_hit_ratio"] = frame_hit_ratio(tracer)
        values["setup.dataset_s"] = setup.dataset_s
        values["setup.build_s"] = setup.build_s
    answers.check(lambda position: rows_of(sequential_scan(tree, queries[position])))
    failed = answers.mismatches
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "errors": [] if not failed else [
            "%d answers differ from sequential_scan or from an earlier answer "
            "to the same query" % failed
        ],
        "params": {
            "dataset": DATASET,
            "scale": config.scale,
            "indexed_pois": len(tree),
            "distinct_queries": len(queries),
            "k": K,
            "alpha0": ALPHA0,
            "client_threads": 1,
            "loop": "closed",
            "setups": config.setups,
        },
    }
