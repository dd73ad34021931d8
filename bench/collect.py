#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 bench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seed 1 \\
        --out bench/baseline.json [--workloads scan_narrow transfer_lift]

Run it from the root of a checkout.  For each workload it runs bench/run.py
once per seed untraced, one at a time, and twice traced with --traced-seed
(omit it to skip the traced runs); the integer per-layer counts of the two
traced runs must agree exactly, which guards the benchmark's determinism
across processes.  For each end-to-end metric it reports the
median over the seeds, the quartiles from statistics.quantiles(n=4), and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged as unsteady (setup_s
included, though only its median is held to the bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return {"seed": seed, "context": json.loads(lines[-2])["context"],
            "result": json.loads(lines[-1])}


def summarise(runs, end_to_end):
    summary = {}
    for metric in end_to_end:
        values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "steady": spread < metric["bound"] / 3}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads:
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        entry = {"runs": runs}
        if len(runs) >= 2:
            entry["summary"] = summarise(runs, spec["end_to_end"])
        if args.traced_seed is not None:
            first, second = (run_once(name, args.traced_seed, seconds, 1)
                             for _ in range(2))
            entry["traced"] = first
            entry["counts_repeat"] = all(
                second["result"]["metrics"][metric]["value"] == m["value"]
                for metric, m in first["result"]["metrics"].items()
                if isinstance(m["value"], int))
            print(f"{name:14s} traced integer counts repeat across processes: "
                  f"{entry['counts_repeat']}", flush=True)
        report["workloads"][name] = entry
        for metric, s in entry.get("summary", {}).items():
            print(f"{name:14s} {metric:16s} median {s['median']:10.4f}  spread "
                  f"{s['spread']:.3f} (bound {s['bound']}){'' if s['steady'] else '  UNSTEADY'}",
                  flush=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
