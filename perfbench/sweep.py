#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --traced-seed 0 --write perfbench/baseline.json

Runs perfbench/run.py once per workload and seed, one run at a time, with
BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound; a spread at or above a third
of the bound is flagged.  `--traced-seed` adds one traced run per workload,
and `--write` stores the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    p.add_argument("--traced-seed", type=int, help="also make one traced run per workload at this seed")
    p.add_argument("--write", help="write the summary as JSON to this path")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, {entry['failed']} of {entry['attempted']} operations failed", flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"], s["bound"] = metric["unit"], metric["bound"]
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < metric["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<12} median {s['median']:>12.6g} {metric['unit']:<3} "
                  f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  spread {s['spread']:6.3f}  "
                  f"bound {metric['bound']}{flag}", flush=True)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.traced_seed, "metrics": traced["metrics"]}
        summary["workloads"][workload] = entry
    last = os.path.join(HERE, "out", f"{workloads[-1]}-seed{args.seeds[-1]}-trace0.json")
    with open(last, encoding="utf-8") as fh:
        summary["context"] = {k: v for k, v in json.load(fh)["context"].items() if k != "seed"}
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
