#!/usr/bin/env python3
"""Run one letterlab benchmark workload and print its result as one JSON line.

Run from the root of a letterlab checkout:

    python3 perfbench/run.py --workload short_texts --seed 3 --seconds 15 --trace 0

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
every pass is traced and the result holds the per-layer metrics,
including the tracing overhead.  Either way the full result
(run context, sample counts, every operation's output digest) goes to
perfbench/out/, and a traced run also writes its spans there.

Times are scaled to a reference machine speed by calibration slices run
between operations (see speed.py); the unscaled times are kept in the
result file.  Outputs are checked on every pass: against the committed
reference digests at the default seed, against the first pass otherwise,
and on the first pass by independent checks written with the standard
library.  A run at any other seed also replays the default seed's
operations once, untimed, against the reference digests.  An operation that
raises, exits non-zero or gives a wrong output counts as failed.  The
script exits non-zero without a result line if the checkout lacks the
letterlab sources or the test fixtures.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from speed import REFERENCE_PROCESS_S, process_slice_time, scale
from tracing import NullTracer, Tracer, self_times, span_cost_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(os.path.basename(HERE), "work")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
FIXTURES = ("english_training.txt", "english_analysis.txt", "solver_plaintext.txt")

# every public function the workloads call, as <module>.<function>
TRACED_FUNCTIONS = (
    "alphabet.builtin_alphabet",
    "alphabet.normalize",
    "alphabet.tokenize_words",
    "freq.count_letters",
    "freq.count_digrams",
    "freq.positional_stats",
    "freq.stability_curve",
    "stylometry.vc_profile",
    "stylometry.alberti_test",
    "stylometry.blocks_of",
    "stylometry.compass_of_variation",
    "stylometry.lipogram_scan",
    "markov.to_vc_sequence",
    "markov.fit_transitions",
    "markov.independence_test",
    "markov.entropy_estimates",
    "markov.generate",
    "zipf.word_rank_frequency",
    "zipf.fit_power_law",
    "cipher.LanguageModel.train",
    "cipher.parse_cryptogram",
    "cipher.hill_climb_solve",
)
LAYERS = ("alphabet", "freq", "stylometry", "markov", "zipf", "cipher", "cli", "bench")

PER_LAYER = {
    **{f"{f}.{kind}": unit for f in TRACED_FUNCTIONS for kind, unit in (("s", "s"), ("calls", "count"))},
    "cipher.hill_climb_solve.restart_ms": "ms",
    "cipher.hill_climb_solve.key_recovered": "count",
    "cipher.hill_climb_solve.key_attempted": "count",
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.process_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "src.lines": "lines",
}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    wall: float  # at the reference speed
    raw_wall: float
    times: dict  # op id -> seconds at the reference speed
    errors: dict  # op id -> message
    spans: list


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("bulk_corpus", "short_texts", "solve", "cli"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up once and print the set-up time")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's output digests as the reference (default seed only)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.write_reference and args.seed != DEFAULT_SEED:
        p.error(f"--write-reference needs the default seed {DEFAULT_SEED}")
    return args


def check_layout():
    missing = [
        path
        for path in [os.path.join(SRC, "letterlab", "__init__.py")]
        + [os.path.join(ROOT, "tests", "data", f) for f in FIXTURES]
        if not os.path.isfile(path)
    ]
    if missing:
        raise HarnessError("not a letterlab checkout; missing " + ", ".join(os.path.relpath(m, ROOT) for m in missing))


def set_up(name, seed, workdir):
    """Import letterlab and build one workload; returns (workload, seconds, unscaled seconds)."""
    before = process_slice_time()
    start = perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    loaded = os.path.abspath(sys.modules["letterlab"].__file__)
    if not loaded.startswith(os.path.join(SRC, "")):
        raise HarnessError(f"letterlab was imported from {loaded}, not from this checkout")
    wl = workloads.WORKLOADS[name](ROOT, seed, workdir)
    raw = perf_counter() - start
    after = process_slice_time()
    return wl, raw * scale(before, after, REFERENCE_PROCESS_S), raw


def set_up_in_child(args, workdir):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise HarnessError(f"set-up in a child process failed:\n{done.stderr}")
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], sample["raw_setup_s"]


def run_pass(wl, ops, traced):
    """One pass over the operations, back to back.

    After every `wl.segment_s` or more of operation time come calibration
    slices, one per `wl.segment_s`; a segment's operations are scaled by the
    slices on both sides of it.  Slices are not part of the pass.
    """
    tracer = Tracer() if traced else NullTracer()
    raw, times, results, errors = {}, {}, {}, {}
    gc.collect()
    before = wl.calibrate()
    segment, elapsed = [], 0.0
    for i, (op_id, fn) in enumerate(ops):
        t = perf_counter()
        try:
            with tracer.span("op", op_id):
                results[op_id] = fn(tracer.call)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            errors[op_id] = f"{type(exc).__name__}: {exc}"
        raw[op_id] = perf_counter() - t
        segment.append(op_id)
        elapsed += raw[op_id]
        if elapsed >= wl.segment_s or i == len(ops) - 1:
            after = statistics.fmean(wl.calibrate() for _ in range(max(1, round(elapsed / wl.segment_s))))
            factor = scale(before, after, wl.reference_slice_s)
            for seg_op in segment:
                times[seg_op] = raw[seg_op] * factor
            before, segment, elapsed = after, [], 0.0
    spans = tracer.spans if traced else []
    return Pass(sum(times.values()), sum(raw.values()), times, errors, spans), results


def verify(wl, ops, p, results, expected, independent):
    """Digest every output and compare; returns (digests, failures)."""
    digests, failures = {}, {}
    for op_id, _ in ops:
        if op_id in p.errors:
            failures[op_id] = p.errors[op_id]
            continue
        try:
            d = digests[op_id] = wl.output_digest(results[op_id])
        except TypeError as exc:  # a result type the canonical rendering does not know
            failures[op_id] = f"no digest: {exc}"
            continue
        message = wl.check(op_id, results[op_id]) if independent else None
        if message is None and expected is not None and expected.get(op_id) != d:
            message = f"output digest {d} differs from the expected {expected.get(op_id)}"
        if message is not None:
            failures[op_id] = message
    return digests, failures


def check_reference(workload, reference):
    """Replay the default seed's operations once, untimed, against the reference digests.

    Other seeds have no committed digests, so this ties a run at any seed
    to known-good outputs.  Returns (failure messages, operations attempted).
    """
    wl, _, _ = set_up(workload, DEFAULT_SEED, os.path.join(WORK_DIR, f"{workload}-seed{DEFAULT_SEED}"))
    ops = wl.reference_ops()
    p, results = run_pass(wl, ops, traced=False)
    _, failed = verify(wl, ops, p, results, reference, independent=True)
    return [f"reference {op_id}: {msg}" for op_id, msg in failed.items()], len(ops)


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.isfile(path):
        raise HarnessError(f"no reference digests at {os.path.relpath(path, ROOT)}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def measure(wl, seconds, trace, reference):
    """Run passes for `seconds`, and at least one."""
    ops = wl.ops()
    passes, failures = [], []
    first_digests = counts = None
    start = perf_counter()
    while True:
        p, results = run_pass(wl, ops, bool(trace))
        first = first_digests is None
        expected = reference if reference is not None else first_digests
        digests, failed = verify(wl, ops, p, results, expected, independent=first)
        failures += [f"pass {len(passes)} {op_id}: {msg}" for op_id, msg in failed.items()]
        if first:
            first_digests, counts = digests, wl.result_metrics(results)
        del results  # keep one pass's outputs alive at a time
        passes.append(p)
        if perf_counter() - start >= seconds:
            return ops, passes, failures, first_digests, counts


def op_summary(ops, passes):
    """Median time of each operation over passes; then median and tail over operations."""
    per_op = sorted(statistics.median(p.times[op_id] for p in passes) for op_id, _ in ops)
    n = len(per_op)
    # the highest percentile with at least ten operations beyond it
    k = max(n - 11, 0)
    return {
        "p50": statistics.median(per_op),
        "tail": per_op[k],
        "tail_percentile": round(100.0 * (k + 1) / n, 2),
        "operations": n,
    }


def end_to_end_metrics(wl, setup_samples, passes, ops):
    summary = op_summary(ops, passes)
    samples = len(passes) * len(ops)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s", "samples": len(setup_samples)},
        "run_s": {"value": statistics.median(p.wall for p in passes), "unit": "s", "samples": len(passes)},
        "op_p50_ms": {"value": summary["p50"] * 1e3, "unit": "ms", "samples": samples,
                      "operations": summary["operations"]},
        "op_tail_ms": {"value": summary["tail"] * 1e3, "unit": "ms", "samples": samples,
                       "percentile": summary["tail_percentile"], "operations": summary["operations"]},
        "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB", "samples": 1},
    }


def per_layer_metrics(wl, passes, counts, probe_metrics):
    values = {name: [] for name in PER_LAYER}
    process_spans = []
    for p in passes:
        seconds = dict.fromkeys(TRACED_FUNCTIONS, 0.0)
        calls = dict.fromkeys(TRACED_FUNCTIONS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), own in zip(p.spans, self_times(p.spans)):
            if name in seconds:
                seconds[name] += (end - start) / 1e9
                calls[name] += 1
            elif name == "cli.process":
                process_spans.append((end - start) / 1e9)
            self_s[name.split(".")[0] if "." in name else "bench"] += own
        for f in TRACED_FUNCTIONS:
            values[f"{f}.s"].append(seconds[f])
            values[f"{f}.calls"].append(calls[f])
        for layer in LAYERS:
            values[f"{layer}.self_s"].append(self_s[layer])
    metrics = {name: {"value": statistics.median(v), "unit": PER_LAYER[name], "samples": len(v)}
               for name, v in values.items() if v}
    extra = {
        "cli.process_s": statistics.median(process_spans) if process_spans else 0.0,
        # spans per pass times the cost of one: a traced pass minus an untraced
        # one is below the passes' own noise on every workload
        "trace.overhead_s": statistics.median(len(p.spans) for p in passes) * span_cost_s(),
        "src.lines": source_stats()[0],
        **probe_metrics,
        **counts,
    }
    solves = metrics["cipher.hill_climb_solve.calls"]["value"]
    if solves:
        extra["cipher.hill_climb_solve.restart_ms"] = 1e3 * metrics["cipher.hill_climb_solve.s"]["value"] / (solves * wl.RESTARTS)
    for name, value in extra.items():
        samples = len(process_spans) if name == "cli.process_s" else 1
        metrics[name] = {"value": value, "unit": PER_LAYER[name], "samples": samples}
    for name, unit in PER_LAYER.items():
        metrics.setdefault(name, {"value": 0, "unit": unit, "samples": 0})
    return metrics


@functools.cache
def source_stats():
    """(line count, sha256) of src/letterlab's Python files; the digest names the code measured without git."""
    lines, h = 0, hashlib.sha256()
    base = os.path.join(SRC, "letterlab")
    for dirpath, dirnames, files in os.walk(base):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += len(data.splitlines())
                h.update(os.path.relpath(path, base).encode() + b"\0")
                h.update(data)
    return lines, h.hexdigest()


def run_context(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_stats()[1],
    }


def git_commit():
    """HEAD of the checkout; None when git is missing or the checkout is not a repository of its own."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_json(path, data, indent=1):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=indent, sort_keys=False)
        fh.write("\n")


def declared_names(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    try:
        check_layout()
        workdir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}")
        if args.setup_only:
            _, seconds, raw = set_up(args.workload, args.seed, workdir + "-setup")
            print(json.dumps({"setup_s": seconds, "raw_setup_s": raw}))
            return 0
        reference = None if args.write_reference else load_reference(args.workload)
        wl, *first = set_up(args.workload, args.seed, workdir)
        samples = [tuple(first)] + [set_up_in_child(args, workdir) for _ in range(SETUP_SAMPLES - 1)]
        setup_samples = [s for s, _ in samples]
        ops, passes, failures, digests, counts = measure(
            wl, args.seconds, args.trace, reference if args.seed == DEFAULT_SEED else None)
        probe_metrics = {}
        probe_spans = []
        attempted = len(passes) * len(ops)
        if args.trace:
            tracer = Tracer()
            probe_metrics, probe_failures, probe_attempted = wl.probes(tracer, digests)
            failures += [f"probe {msg}" for msg in probe_failures]
            attempted += probe_attempted
            probe_spans = tracer.spans
            metrics = per_layer_metrics(wl, passes, counts, probe_metrics)
        else:
            metrics = end_to_end_metrics(wl, setup_samples, passes, ops)
        if reference is not None and args.seed != DEFAULT_SEED:
            # after the metrics, so that its memory is not in peak_rss_mb
            reference_failures, reference_attempted = check_reference(args.workload, reference)
            failures += reference_failures
            attempted += reference_attempted
        declared = declared_names(args.trace)
        if sorted(declared) != sorted(metrics):
            raise HarnessError("metric names differ from BENCHMARK.json: "
                               f"{sorted(set(declared) ^ set(metrics))}")
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = not failures
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(os.path.join(OUT_DIR, stem + ".json"), {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": run_context(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "setup_samples": setup_samples,
        "raw_setup_samples": [raw for _, raw in samples],
        "pass_walls": [p.wall for p in passes],
        "raw_pass_walls": [p.raw_wall for p in passes],
        "metrics": metrics,
        "digests": digests,
    })
    if args.trace:
        write_json(os.path.join(OUT_DIR, stem.replace("-trace1", "-spans") + ".json"), {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "passes": [
                {"pass": i, "spans": [[s[0], s[1] - p.spans[0][1], s[2] - p.spans[0][1], *s[3:]] for s in p.spans]}
                for i, p in enumerate(passes)
            ],
            "probes": [list(s) for s in probe_spans],
        }, indent=None)
    if args.write_reference:
        if not correct:
            print("perfbench: not writing a reference from a run with failures", file=sys.stderr)
            return 1
        write_json(os.path.join(REFERENCE_DIR, f"{args.workload}.json"),
                   {"workload": args.workload, "seed": args.seed, "digests": digests})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
