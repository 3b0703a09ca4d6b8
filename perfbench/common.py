"""Shared pieces of the benchmark: statistics, oracle checks, memory, provenance.

Everything here reads only the public ``repro`` surface and files inside
the checkout the benchmark runs from.
"""

import gc
import math
import multiprocessing
import os
import platform
import signal
import sys
import time
from multiprocessing import resource_tracker
from statistics import median

#: Dataset seed of every workload.  EXPERIMENTS.md and the committed
#: ``BENCH_*.json`` points all use 42; the workload seed (``--seed``)
#: only drives the queries, subscription points and synthetic writes.
DATASET_SEED = 42

#: The paper's default query mix (Section 8).
K = 10
ALPHA0 = 0.3

#: End-to-end times are scaled to the speed of a reference host (see
#: ``HostSpeed``).  ``REFERENCE_KERNEL_MS`` is the median CPU time of
#: one ``speed_kernel`` call, run back to back, on the 2-core host the
#: baseline in README.md was measured on, in a quiet spell; it only
#: sets the scale of the reported figures.
REFERENCE_KERNEL_MS = 0.08
#: Host speed is read per part of this many seconds of a window.
PART_SECONDS = 1.0
#: Kernel runs before and after each set-up (``timed_setups``).
SETUP_SAMPLES = 20

_KERNEL_DATA = [((index * 7919) % 1009) * 0.37 for index in range(400)]
_KERNEL_TABLE = dict.fromkeys(range(53), 0.0)


def speed_kernel():
    """A fixed pure-Python workload that uses nothing from ``repro``:
    loops, float arithmetic, dictionary updates and a sort."""
    table = _KERNEL_TABLE
    total = 0.0
    for index, value in enumerate(_KERNEL_DATA):
        table[index % 53] += value
        total += math.sqrt(value + 1.0) * 0.5
    for value in sorted(_KERNEL_DATA):
        total -= value
    return total


def kernel_seconds():
    """CPU seconds of this thread for one ``speed_kernel`` call.

    Thread CPU time leaves out waits for a core or for the interpreter
    lock, so the figure tracks how fast the core runs, not how busy the
    program keeps it.  Collection is paused so that garbage the program
    left behind is not collected on the kernel's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        speed_kernel()
        return time.thread_time() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Scale factors that take a time measured on this host to the
    reference host's speed.

    Other tenants of a shared host slow it down in spells of seconds to
    minutes, and CPU time stretches with wall time through them, so it
    cannot tell a slow host from a slow program.  The measuring thread
    runs ``speed_kernel`` between requests instead.  In each
    ``PART_SECONDS`` part of the window a time is multiplied by
    ``REFERENCE_KERNEL_MS`` over the median kernel time of that part.
    The kernel runs no program code, so a change to the program moves
    its time only through the caches the program leaves behind.
    """

    def __init__(self, start):
        self.start = start
        self.samples = []  # (when, kernel seconds)

    def sample(self, when=None):
        seconds = kernel_seconds()
        self.samples.append((time.perf_counter() if when is None else when, seconds))

    def sample_idle(self):
        """``SETUP_SAMPLES`` kernel runs back to back."""
        for _ in range(SETUP_SAMPLES):
            self.sample()

    def part(self, when):
        return max(0, int((when - self.start) / PART_SECONDS))

    def factors(self):
        """``{part: factor}``; ``None`` keys the whole window."""
        by_part = {}
        for when, seconds in self.samples:
            by_part.setdefault(self.part(when), []).append(seconds)
        factors = {
            part: REFERENCE_KERNEL_MS / (1000.0 * median(values))
            for part, values in by_part.items()
        }
        factors[None] = REFERENCE_KERNEL_MS / (
            1000.0 * median(seconds for _when, seconds in self.samples)
        )
        return factors

    def scaler(self):
        """A function ``(when, seconds) -> seconds at reference speed``."""
        factors = self.factors()

        def scale(when, seconds):
            return seconds * factors.get(self.part(when), factors[None])

        return scale


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    return ordered[index]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def rows_of(answer):
    """An answer's ranked rows as plain tuples: ids, scores, tie order."""
    return [tuple(row) for row in answer]


def timed_setups(count, setup):
    """Run ``setup`` ``count`` times; return ``({"setup_s": median
    seconds at reference speed, "bench.setup_wall_s": median seconds as
    measured}, last result)``.

    Each set-up's time is scaled by the host speed read from
    ``SETUP_SAMPLES`` kernel runs just before and just after it: a
    probe thread beside the set-up would share the cores with it and
    read the program's own load as a slow host.  Every result but the
    last is torn down through its ``close`` method and dropped before
    the next set-up starts, so no two set-ups are alive at once and the
    peak RSS is that of one.  Garbage is collected before each set-up and before
    timing starts, so its collection pauses land in neither.
    """
    durations = []
    scaled = []
    result = None
    for _ in range(count):
        if result is not None:
            result.close()
            result = None
        gc.collect()
        speed = HostSpeed(time.perf_counter())
        speed.sample_idle()
        start = time.perf_counter()
        result = setup()
        seconds = time.perf_counter() - start
        speed.sample_idle()
        durations.append(seconds)
        scaled.append(seconds * speed.factors()[None])
    gc.collect()
    return {"setup_s": median(scaled), "bench.setup_wall_s": median(durations)}, result


class Answers:
    """Each distinct query's first answer, and later answers that
    differ from it.

    The closed loops compare every answer with the first one to the
    same query while they run, and the first answers with the oracle
    after the window (``check``), once peak RSS has been read: the
    oracle's index never shares the process with the timed run.
    """

    def __init__(self):
        self.first = {}
        self.mismatches = 0

    def record(self, position, answer):
        rows = rows_of(answer)
        expected = self.first.setdefault(position, rows)
        if rows is not expected and rows != expected:
            self.mismatches += 1

    def check(self, oracle_rows):
        """Compare the first answers with ``oracle_rows(position)``;
        return the number that differ (counted in ``mismatches``)."""
        wrong = sum(
            1 for position, rows in self.first.items() if rows != oracle_rows(position)
        )
        self.mismatches += wrong
        return wrong


def closed_loop(query, queries, answers, seconds):
    """One client calling ``query`` over ``queries`` (cycled) for ``seconds``.

    After each call the client records the answer in ``answers`` and
    runs the speed kernel once.  Returns ``([(finished, latency)],
    HostSpeed)``.
    """
    samples = []
    count = len(queries)
    start = time.perf_counter()
    speed = HostSpeed(start)
    deadline = start + seconds
    index = 0
    now = start
    while now < deadline:
        position = index % count
        before = time.perf_counter()
        answer = query(queries[position])
        now = time.perf_counter()
        samples.append((now, now - before))
        answers.record(position, answer)
        speed.sample(now)
        index += 1
    return samples, speed


#: Metrics a traced run takes from its untraced first half.
UNTRACED_LAYER_METRICS = ("query_p99_ms", "bench.query_wall_p50_ms", "bench.host_speed")


#: Share of a part's queries, the fastest, that its throughput counts.
THROUGHPUT_SHARE = 0.75


def part_throughput(latencies):
    """Queries per second of the fastest ``THROUGHPUT_SHARE`` of ``latencies``."""
    kept = sorted(latencies)[: max(1, int(len(latencies) * THROUGHPUT_SHARE))]
    return len(kept) / sum(kept)


def loop_metrics(samples, speed):
    """A closed loop's p50 and throughput at reference speed, read over
    its quiet parts, plus its p99 and its p50 as measured.

    The window is cut into ``PART_SECONDS`` parts.  Other tenants of a
    shared host also take cores away for seconds at a time: the kernel
    then runs as fast as before, but a query that waits on another
    process (the worker clusters' round trips) waits longer, and the
    stalls land on a few queries of a part.  So the p50 is the lower
    quartile of the parts' scaled p50s.  The throughput is the upper
    quartile of the parts' throughputs, each the part's fastest
    ``THROUGHPUT_SHARE`` of queries over the scaled time they spent
    inside their query calls (which leaves out the loop's answer checks
    and speed kernel).  A spell that takes up to three quarters of the
    window moves neither; a program that got slower moves every part.
    The last part, cut short by the deadline, is left out.
    """
    scale = speed.scaler()
    latencies = [scale(finished, latency) for finished, latency in samples]
    parts = {}
    for (finished, _latency), scaled in zip(samples, latencies):
        parts.setdefault(speed.part(finished), []).append(scaled)
    if len(parts) > 1:
        del parts[max(parts)]
    return {
        "query_p50_ms": 1000.0 * percentile(
            [percentile(part, 0.50) for part in parts.values()], 0.25
        ),
        "query_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "query_throughput_qps": percentile(
            [part_throughput(part) for part in parts.values()], 0.75
        ),
        "bench.query_wall_p50_ms": 1000.0 * percentile(
            [latency for _finished, latency in samples], 0.50
        ),
        "bench.host_speed": speed.factors()[None],
    }


def overhead(traced, untraced):
    """Traced minus untraced end-to-end query metrics."""
    return {
        "trace.overhead_" + name.replace("query_throughput", "throughput"):
            traced[name] - untraced[name]
        for name in ("query_p50_ms", "query_p99_ms", "query_throughput_qps")
    }


def peak_rss_mb(pids=()):
    """Sum of ``VmHWM`` over this process and ``pids``, in MB."""
    total_kb = 0
    for pid in ("self",) + tuple(pids):
        with open("/proc/%s/status" % pid, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def process_stat(pid):
    """``(state, parent pid)`` of ``pid`` from ``/proc``, or None once it is gone."""
    try:
        with open("/proc/%d/stat" % pid, "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def child_pids():
    """Pids of this process's children, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = process_stat(int(entry))
            if stat is not None and stat[1] == me:
                pids.append(int(entry))
    return pids


def stop_children():
    """Stop every child process and wait until each has ended.

    The spawn start method that shard workers use also starts
    multiprocessing's resource tracker, which otherwise runs on until
    this process exits; it is stopped and waited for here.  Any other
    child still running is killed.  Every child is reaped, so none is
    left behind as a zombie.  Returns the pids that were still running
    and had to be killed.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    multiprocessing.active_children()
    killed = []
    for pid in child_pids():
        stat = process_stat(pid)
        if stat is not None and stat[0] != "Z":
            killed.append(pid)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return killed


def commit_of(root):
    """The commit the checkout holds, read from ``.git`` when it exists."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path, "r", encoding="ascii") as handle:
                    return handle.read().strip()
            with open(os.path.join(root, ".git", "packed-refs"), "r",
                      encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(root, workload, seed, seconds, trace, params):
    """The host, code and input facts every result carries."""
    return {
        "workload": workload,
        "seed": seed,
        "dataset_seed": DATASET_SEED,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "commit": commit_of(root),
        "params": params,
    }
