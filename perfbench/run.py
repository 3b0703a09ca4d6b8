"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tree_knnta --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics ``BENCHMARK.json`` lists
with tracing off; ``--trace 1`` runs the traced variant and reports the
per-layer metrics.  The last line of standard output is the result
object; the line before it holds the run's provenance.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for cluster state, inside the checkout.
WORK = os.path.join(ROOT, ".bench_work")

for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from common import UNTRACED_LAYER_METRICS, provenance, stop_children  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("tree_knnta", "cluster_workers", "service_mixed")

#: Per-layer metrics every workload reports in its traced run; each
#: workload module lists the rest it measures in ``LAYER_METRICS``.
COMMON_LAYER_METRICS = UNTRACED_LAYER_METRICS + (
    "bench.setup_wall_s",
    "error_rate",
    "trace.overhead_query_p50_ms",
    "trace.overhead_query_p99_ms",
    "trace.overhead_throughput_qps",
)


class Context:
    """What a workload's ``run`` receives."""

    def __init__(self, args, workdir, tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tiny = args.tiny
        self.workdir = workdir
        self.tracer = tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="small datasets and one set-up (the self-test's scale)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def assemble(spec, trace, module, outcome):
    """Order the workload's values by the spec and attach units.

    With tracing on, per-layer metrics the workload does not exercise
    read 0: no call entered that layer.
    """
    values = outcome["values"]
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name in values:
                value = values[name]
            elif name in module.LAYER_METRICS or name in COMMON_LAYER_METRICS:
                raise RuntimeError("workload did not report %s" % name)
            else:
                value = 0
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": values[entry["name"]],
                "unit": entry["unit"],
            }
    return metrics


def main(argv=None):
    args = parse_args(argv)
    # A caller's timeout sends SIGTERM: unwind through every finally so
    # worker processes are torn down rather than orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    spec = load_spec()
    module = importlib.import_module(args.workload)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK)
    tracer = Tracer()
    try:
        outcome = module.run(Context(args, workdir, tracer))
    finally:
        tracer.restore()
        killed = stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if killed:
        outcome["errors"].append("child processes outlived the workload: %r" % (killed,))
    values = outcome["values"]
    attempted = outcome["attempted"]
    failed = outcome["failed"]
    values["error_rate"] = failed / float(attempted) if attempted else 1.0
    info = provenance(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                      outcome["params"])
    info["errors"] = outcome["errors"]
    if args.trace:
        info["spans"] = tracer.layers()
    else:
        # Figures behind the scaled end-to-end times, for the record.
        info["host"] = {
            name: values[name]
            for name in ("bench.host_speed", "bench.query_wall_p50_ms", "bench.setup_wall_s")
        }
    result = {
        "correct": not outcome["errors"] and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": assemble(spec, args.trace, module, outcome),
    }
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
