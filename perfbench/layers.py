"""Which public entry points the traced run wraps, layer by layer.

Each ``instrument_*`` function patches one layer's public calls through
a :class:`~tracer.Tracer`; ``Tracer.restore`` undoes all of them.  The
spans are named ``<layer>.<module>.<call>`` after the ``repro``
package and module that define the call.
"""

import json
import threading
import time

import repro.core.knnta as knnta_module
from repro import (
    CheckpointedIngest,
    ClusterTree,
    CollectiveProcessor,
    QueryService,
    SubscriptionRegistry,
    TARTree,
)
from repro.cluster import RemoteClusterTree
from repro.cluster.remote import WorkerClient
from repro.cluster.resilience import ShardGuard
from repro.cluster.workers import ShardWorkerServer
from repro.core.frames import FrameStore

def instrument_core(tracer):
    """``TARTree.query``, the kNNTA search, frames and collective runs.

    ``FrameStore.frame`` runs once per node a query touches, so it gets
    counts only: a span there would cost more than the call it times.
    """
    tracer.timed(TARTree, "query", "core.tar_tree.query")
    tracer.timed(knnta_module, "knnta_search", "core.knnta.search")
    tracer.timed(CollectiveProcessor, "run", "core.collective.run")

    def frame_wrapper(original):
        def frame(store, node):
            if not tracer.enabled:
                return original(store, node)
            cached = store.cached(node)
            valid = (
                cached is not None
                and cached.stamp == node.stamp
                and cached.count == len(node.entries)
            )
            tracer.count("core.frames.valid" if valid else "core.frames.built")
            return original(store, node)

        return frame

    tracer.patch(FrameStore, "frame", frame_wrapper)


def frame_hit_ratio(tracer):
    valid = tracer.counts["core.frames.valid"]
    built = tracer.counts["core.frames.built"]
    return valid / float(valid + built) if valid + built else 0.0


def access_metrics(delta, queries):
    """Per-query node and TIA-page counts from an ``AccessStats`` delta."""
    pages = delta.tia_pages + delta.tia_buffer_hits
    return {
        "core.nodes_per_query": delta.rtree_nodes / float(queries),
        "core.tia_pages_per_query": delta.tia_pages / float(queries),
        "core.tia_buffer_hit_ratio": (
            delta.tia_buffer_hits / float(pages) if pages else 0.0
        ),
    }


def instrument_coordinator(tracer):
    """The in-process coordinator and the per-shard guard."""
    tracer.timed(ClusterTree, "query", "cluster.coordinator.query")
    tracer.timed(ClusterTree, "query_batch", "cluster.coordinator.query_batch")
    tracer.timed(ClusterTree, "digest_epoch", "cluster.coordinator.digest_epoch")
    tracer.timed(ShardGuard, "call", "cluster.resilience.call")


def instrument_remote(tracer, frames):
    """The remote coordinator and its wire; appends each round trip's
    ``(shard index, request, response)`` to ``frames``."""
    tracer.timed(RemoteClusterTree, "query", "cluster.remote.query")
    tracer.timed(ShardGuard, "call", "cluster.resilience.call")

    def request_wrapper(original):
        def request(client, payload, timeout=None):
            if not tracer.enabled:
                return original(client, payload, timeout)
            with tracer.span("cluster.remote.request"):
                response = original(client, payload, timeout)
            frames.append((client.index, payload, response))
            return response

        return request

    tracer.patch(WorkerClient, "request", request_wrapper)


def instrument_workers(tracer):
    tracer.timed(ShardWorkerServer, "handle_request", "cluster.workers.handle_request")


def instrument_service(tracer, executed):
    """Service calls, subscription advances and the durable ingest.

    ``executed`` maps ``id(query)`` to the seconds the service's worker
    threads spent executing the batch that query rode in.
    """
    for call in ("submit", "digest", "insert", "delete", "checkpoint"):
        tracer.timed(QueryService, call, "service.service." + call)
    tracer.timed(SubscriptionRegistry, "advance", "continuous.registry.advance")
    tracer.timed(CheckpointedIngest, "digest", "reliability.recovery.digest")
    tracer.timed(CheckpointedIngest, "checkpoint", "reliability.recovery.checkpoint")

    def execution_wrapper(original, batched):
        def execute(tree, queries, *args, **kwargs):
            if not tracer.enabled or not threading.current_thread().name.startswith(
                "repro-service-worker"
            ):
                return original(tree, queries, *args, **kwargs)
            start = time.perf_counter()
            try:
                with tracer.span("service.service.execute"):
                    return original(tree, queries, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                for query in queries if batched else (queries,):
                    executed[id(query)] = seconds

        return execute

    tracer.patch(ClusterTree, "query", lambda original: execution_wrapper(original, False))
    tracer.patch(
        ClusterTree, "query_batch", lambda original: execution_wrapper(original, True)
    )


def codec_ms(frames):
    """Mean JSON encode + decode time of one round trip's two frames.

    Both directions are encoded the way the wire does (request as sent,
    response with sorted keys) and decoded back, offline.
    """
    if not frames:
        return 0.0
    start = time.perf_counter()
    for _index, payload, response in frames:
        json.loads(json.dumps(payload))
        json.loads(json.dumps(response, sort_keys=True))
    return 1000.0 * (time.perf_counter() - start) / len(frames)
