#!/usr/bin/env python3
"""mldlab benchmark: time to a checked verdict, end to end and per layer.

Run from the root of a checkout that holds mldlab's sources under src/:

    python3 bench/run.py --workload scan_narrow --seed 1 --seconds 36 --trace 0

--trace 0 measures the end-to-end metrics named in BENCHMARK.json, with no
tracing.  --trace 1 interleaves untraced passes with traced ones (jobs=1,
wrappers from tracing.py) and reports the per-layer metrics.  The last line
of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it is the run context (core count, Python and
numpy versions, seed, sample counts, quartiles, tracing overhead, and in
traced runs the span table).  The workloads and the reasons for them are in
workloads.py; `collect.py` runs many seeds and summarises them.

End-to-end metrics (untraced):
  verdict_s        median wall seconds of a jobs=1 verdict, from the first
                   call into mldlab to the output in hand (on transfer_lift
                   a verdict is one batch of 110 instances); outputs are
                   checked outside the timed region.
  verdict_s_jobs2  the same at jobs=2 (see each workload for whose pool).
  setup_s          median over 1 + SETUP_PROBES fresh processes of: import
                   mldlab (numpy included) + build the workload's inputs.
  item_ms_p50/p99  per-item latency at jobs=1; an item is one transfer_lift
                   instance (1100 per run), and one whole verdict on the
                   other workloads.  p99 is the nearest-rank percentile when
                   more than ten items lie beyond it; a run with too few
                   items for that (every workload but transfer_lift) has no
                   tail to report, and item_ms_p99 repeats the median.
  peak_rss_mb      peak RSS of the workload process plus the largest peak
                   RSS among the pool workers it waited for; copy-on-write
                   pages of forked workers count in both, as in a sum of RSS.

Every output check (and every exception raised by a pass) counts in
"attempted"/"failed"; their ratio is the fail ratio, which is 0 on a correct
build, so it travels in those two fields rather than as a metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, digest, load_mldlab

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def timed_setup(workload, seed):
    start = time.perf_counter()
    mods = load_mldlab()
    batches = workload.build(mods, seed)
    return time.perf_counter() - start, mods, batches


class Checker:
    """Counts output checks.  The first output of each batch gets the
    workload's full check; every later one must have the same digest."""

    def __init__(self, workload, batches, ref, seed):
        self.workload, self.batches, self.ref = workload, batches, ref
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first: dict[int, str] = {}

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def output(self, index, output):
        d = digest(self.workload.summary(output))
        if index not in self.first:
            self.first[index] = d
            for label, ok in self.workload.check(self.batches[index], output,
                                                 self.ref, self.rng):
                self.record(label, ok)
        else:
            self.record(f"batch {index} output identical to its first pass",
                        d == self.first[index])


def timed_pass(workload, mods, batch, jobs):
    gc.collect()  # the previous pass's garbage is not this pass's cost
    start = time.perf_counter()
    output = workload.run(mods, batch, jobs)
    return output, time.perf_counter() - start


def tail_p99(values):
    """Nearest-rank 99th percentile when more than ten values lie beyond it;
    with fewer items there is no such tail, and the median stands in."""
    ordered = sorted(values)
    rank = math.ceil(0.99 * len(ordered))
    if len(ordered) - rank <= 10:
        return statistics.median(ordered)
    return ordered[rank - 1]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure_untraced(workload, mods, batches, seconds, checker):
    """Pairs of a jobs=1 and a jobs=2 pass on the same batch, cycling through
    the batches, until every batch has run and the time is up.  Always jobs=1
    first: a worker's peak RSS depends on the size of the process it started
    from.  Item latencies come from the first jobs=1 pass of each batch; a
    workload without items counts each jobs=1 verdict as one."""
    times = {1: [], 2: []}
    items = []
    start = time.perf_counter()
    for i in itertools.count():
        index = i % len(batches)
        for jobs in (1, 2):
            output, elapsed = timed_pass(workload, mods, batches[index], jobs)
            times[jobs].append(elapsed)
            if jobs == 1 and (i < len(batches) or "latencies" not in output):
                items.extend(output.get("latencies", [elapsed]))
            checker.output(index, output)
        pair = times[1][-1] + times[2][-1]
        if i + 1 >= len(batches) and time.perf_counter() - start + pair > seconds:
            return times, items


def measure_traced(workload, mods, batches, seconds, checker):
    """Rounds of untraced jobs=1, traced jobs=1 and untraced jobs=2 passes on
    the first batch; at least two traced passes, so that their counts can be
    compared."""
    tracer = tracing.Tracer()
    plain = {1: [], 2: []}
    traced, layers = [], []

    def plain_pass(jobs):
        output, elapsed = timed_pass(workload, mods, batches[0], jobs)
        plain[jobs].append(elapsed)
        checker.output(0, output)

    def traced_pass():
        tracer.start_pass()
        with tracing.installed(tracer, mods):
            output, elapsed = timed_pass(workload, mods, batches[0], 1)
        traced.append(elapsed)
        table = tracer.layer_table()
        layers.append((tracing.layer_metrics(table, tracer.counts, workload.items(output),
                                             workload.bytes_out(output)), table))
        checker.output(0, output)

    start = time.perf_counter()
    while True:
        plain_pass(1)
        traced_pass()
        plain_pass(2)
        if len(traced) < 2:
            traced_pass()
        round_s = plain[1][-1] + traced[-1] + plain[2][-1]
        if time.perf_counter() - start + round_s > seconds:
            return plain, traced, layers


def traced_metrics(plain, traced, layers, checker):
    first = layers[0][0]
    for name, value in first.items():
        if isinstance(value, int):
            checker.record(f"count {name} repeats exactly across traced passes",
                           all(metrics[name] == value for metrics, _ in layers))
    out = {}
    for name, value in first.items():
        out[name] = value if isinstance(value, int) else statistics.median(
            metrics[name] for metrics, _ in layers)
    out["pool.efficiency"] = statistics.median(plain[1]) / (2 * statistics.median(plain[2]))
    overhead = statistics.median(traced) / statistics.median(plain[1]) - 1
    return out, overhead


def setup_probes(workload_name, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def child_pids():
    """Direct children of this process, zombies included, read from /proc."""
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path(entry.path, "stat").read_text()
            except OSError:  # ended while we looked
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                pids.append(int(entry.name))
    return pids


def reap(pid, flags=0):
    try:
        return os.waitpid(pid, flags)[0] == pid
    except ChildProcessError:  # already reaped, e.g. by multiprocessing
        return True


def stop_children(grace=10.0):
    """Wait until every child process has ended; after `grace` seconds, kill
    the ones still running.  Run on every way out of main, so that no
    process the benchmark started outlives it."""
    deadline = time.monotonic() + grace
    while (pids := [pid for pid in child_pids() if not reap(pid, os.WNOHANG)]):
        if time.monotonic() > deadline:
            print(f"error: killing child processes {pids} left running",
                  file=sys.stderr)
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                reap(pid)
            return
        time.sleep(0.05)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_children()


def run(args) -> int:
    if not (SRC / "mldlab" / "__init__.py").is_file():
        print("error: run from a checkout with mldlab sources in src/mldlab",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(timed_setup(workload, args.seed)[0]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads((BENCH / "reference.json").read_text())
    setup_first, mods, batches = timed_setup(workload, args.seed)
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        print("error: mldlab was not imported from src/", file=sys.stderr)
        return 2

    checker = Checker(workload, batches, ref, args.seed)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "numpy": mods.numpy_version}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    try:
        if args.trace:
            with workload.workers():
                plain, traced, layers = measure_traced(workload, mods, batches,
                                                       args.seconds, checker)
            values, overhead = traced_metrics(plain, traced, layers, checker)
            context["samples"] = {"plain_jobs1": len(plain[1]),
                                  "plain_jobs2": len(plain[2]), "traced": len(traced)}
            context["tracing_overhead"] = overhead
            context["spans"] = layers[0][1]
        else:
            with workload.workers():
                times, items = measure_untraced(workload, mods, batches,
                                                args.seconds, checker)
            rss = peak_rss_mb()  # after the workers have exited and been reaped
            setups = [setup_first] + setup_probes(args.workload, args.seed)
            values = {
                "verdict_s": statistics.median(times[1]),
                "verdict_s_jobs2": statistics.median(times[2]),
                "setup_s": statistics.median(setups),
                "item_ms_p50": 1000 * statistics.median(items),
                "item_ms_p99": 1000 * tail_p99(items),
                "peak_rss_mb": rss,
            }
            context["samples"] = {"verdict_jobs1": len(times[1]),
                                  "verdict_jobs2": len(times[2]),
                                  "items": len(items), "setup": len(setups)}
            context["quartiles"] = {"verdict_s": quartiles(times[1]),
                                    "verdict_s_jobs2": quartiles(times[2]),
                                    "setup_s": quartiles(setups)}
    except Exception:  # a raising pass is a failed check, reported below
        traceback.print_exc()
        checker.record("no exception in the measured passes", False)

    units = {m["name"]: m["unit"] for m in declared}
    if checker.failed == 0 and set(values) != set(units):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    context["checks"] = {"attempted": checker.attempted, "failed": checker.failed,
                         "failures": checker.failures[:20]}
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
