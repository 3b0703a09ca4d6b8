"""Self-test of the benchmark at tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced, the way the benchmark
command is invoked.  The test asserts that every metric ``BENCHMARK.json``
names is printed with its unit, that no operation failed or mismatched
the oracle, that no run leaves a process behind, and that the traced
runs together recorded spans in every layer.  It also checks the
host-speed scaling and the answer check on their own, and that the
command refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tree_knnta", "cluster_workers", "service_mixed")
sys.path.insert(0, HERE)
from common import REFERENCE_KERNEL_MS, Answers, HostSpeed  # noqa: E402
from tracer import LAYERS  # noqa: E402

sys.path.remove(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

_traced_spans = {}


def run_benchmark(workload, trace, cwd=ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--tiny",
    ]
    # In a session of its own, so any process the run leaves behind is
    # found by its session id even after it has been re-parented.
    with subprocess.Popen(
        command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as process:
        stdout, stderr = process.communicate(timeout=300)
    assert session_members(process.pid) == [], "the run left processes behind"
    return subprocess.CompletedProcess(command, process.returncode, stdout, stderr)


def session_members(session):
    """Pids of the processes, zombies included, in session ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


def parse(completed):
    assert completed.returncode == 0, completed.stderr[-4000:]
    lines = completed.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    return provenance, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_reports_every_metric_with_no_errors(workload, trace):
    provenance, result = parse(run_benchmark(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in listed)
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
        _traced_spans[workload] = provenance["spans"]
    else:
        for entry in listed:
            assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]
    for key in ("cpu_count", "python", "commit", "seed", "params"):
        assert key in provenance


def test_traced_runs_cover_every_layer():
    missing = [workload for workload in WORKLOADS if workload not in _traced_spans]
    for workload in missing:
        provenance, _result = parse(run_benchmark(workload, 1))
        _traced_spans[workload] = provenance["spans"]
    covered = set()
    for spans in _traced_spans.values():
        covered.update(prefix for prefix, amount in spans.items() if amount > 0)
    assert [layer for layer in LAYERS if layer not in covered] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("tree_knnta", 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_host_speed_scales_each_second_by_its_own_kernel_time():
    reference = REFERENCE_KERNEL_MS / 1000.0
    speed = HostSpeed(100.0)
    speed.samples = [
        (100.2, reference), (100.7, reference),
        (101.1, 2 * reference), (101.9, 2 * reference),
    ]
    scale = speed.scaler()
    assert scale(100.5, 0.004) == pytest.approx(0.004)
    # A second in which the host ran at half speed counts half.
    assert scale(101.5, 0.004) == pytest.approx(0.002)
    # A part without samples falls back to the whole window's median.
    assert scale(105.0, 0.004) == pytest.approx(0.004 * speed.factors()[None])


def test_answers_flag_repeats_and_oracle_mismatches():
    answers = Answers()
    answers.record(0, [(1, 0.5), (2, 0.25)])
    answers.record(0, [(1, 0.5), (2, 0.25)])
    assert answers.mismatches == 0
    answers.record(0, [(2, 0.25), (1, 0.5)])
    assert answers.mismatches == 1
    answers.record(1, [(3, 0.75)])
    oracle = {0: [(1, 0.5), (2, 0.25)], 1: [(4, 0.75)]}
    assert answers.check(oracle.__getitem__) == 1
    assert answers.mismatches == 2
