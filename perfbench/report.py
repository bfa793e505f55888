#!/usr/bin/env python3
"""Print every metric of the runs in perfbench/out/, one row per workload.

    python3 perfbench/report.py [--dir perfbench/out]

Each cell reads `value unit (n=samples)`.  When a workload has runs at
several seeds, the value is the median over them and n counts the samples
of all of them.  End-to-end metrics come from untraced runs, per-layer
metrics from traced ones; the run context is printed above the tables so
that numbers from different machines are never read side by side.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COLUMNS_PER_TABLE = 4


def load(directory, trace):
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def cells(runs):
    out = {}
    for name in runs[0]["metrics"]:
        ms = [r["metrics"][name] for r in runs]
        value = statistics.median(m["value"] for m in ms)
        out[name] = f"{value:.6g} {ms[0]['unit']} (n={sum(m['samples'] for m in ms)})"
    return out


def table(title, by_workload):
    if not by_workload:
        return
    rows = {w: cells(runs) for w, runs in by_workload.items()}
    names = list(next(iter(rows.values())))
    print(f"\n{title}")
    for i in range(0, len(names), COLUMNS_PER_TABLE):
        chunk = names[i : i + COLUMNS_PER_TABLE]
        widths = [max(len(n), *(len(rows[w].get(n, "")) for w in rows)) for n in chunk]
        label = max(len("workload"), *(len(w) for w in rows))
        print("  ".join(["workload".ljust(label)] + [n.ljust(wd) for n, wd in zip(chunk, widths)]))
        for w, row in rows.items():
            print("  ".join([w.ljust(label)] + [row.get(n, "-").ljust(wd) for n, wd in zip(chunk, widths)]))
        print()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", default=os.path.join(HERE, "out"))
    args = p.parse_args(argv)
    untraced, traced = load(args.dir, 0), load(args.dir, 1)
    if not untraced and not traced:
        print(f"no results in {args.dir}", file=sys.stderr)
        return 1
    contexts = {json.dumps({k: v for k, v in r["context"].items() if k != "seed"}, sort_keys=True)
                for runs in (*untraced.values(), *traced.values()) for r in runs}
    for context in contexts:
        print("context:", context)
    for kind, runs_by_workload in (("untraced", untraced), ("traced", traced)):
        for w, runs in runs_by_workload.items():
            failed = sum(r["failed"] for r in runs)
            print(f"{kind} {w}: seeds {sorted(r['seed'] for r in runs)}, "
                  f"{failed} of {sum(r['attempted'] for r in runs)} operations failed")
            if failed:
                print(f"warning: {w} has failed operations; see 'failures' in its result files")
    table("end-to-end (untraced runs)", untraced)
    table("per layer (traced runs)", traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
