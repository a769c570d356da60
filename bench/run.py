#!/usr/bin/env python3
"""Benchmark for the indtrees library.

    python3 bench/run.py --workload desk-exact --seed 1 --seconds 15 --trace 0

Runs one workload as a closed loop in this process (the next call starts when
the previous one returns) for at least --seconds of call time, in whole
passes over the workload's fixed input slots, checks every output outside
the timed region, and prints the metrics. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, measured with
layer spans recorded from the benchmark side. The library is imported from
the checkout's src/ directory; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from host_speed import REFERENCE_SECONDS, calibration_seconds
from spans import Recorder, lower_quartile, median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 5  # repeats of every input slot, so that its lower quartile means something


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, make the warm-up call, print 'ready' and exit")
    return ap.parse_args(argv)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the joined pool workers
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Process start to the first timed call, measured on fresh processes:
    (scaled to the reference host speed, as measured)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    scaled = []
    for _ in range(SETUP_PROBES):
        c0 = calibration_seconds()
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(t)
        scaled.append(t * 2 * REFERENCE_SECONDS / (c0 + calibration_seconds()))
    return scaled, times


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "indtrees").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_fingerprint(wl, fp: dict) -> None:
    """Exact counts must repeat bit for bit for one (code, workload, seed), in any mode."""
    path = OUT / "fingerprints" / f"{wl.name}-seed{wl.seed}-{_code_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        with open(path) as fh:
            before = json.load(fh)
        for key, value in fp.items():
            if before.get(key) != value:
                wl.problems.append(f"exact count {key} = {value!r}, an earlier run "
                                   f"with this seed gave {before.get(key)!r}")
    else:
        with open(path, "w") as fh:
            json.dump(fp, fh, indent=1, sort_keys=True)


def _loop(wl, seconds: float, step) -> int:
    """Call step(i, x) until `seconds` of measured time and at least
    MIN_PASSES whole passes over the input slots; step returns (output,
    measured seconds). Returns the items attempted.

    Each pass starts on a freshly collected heap, so that garbage left by
    the checks is not collected inside the timed calls."""
    busy = 0.0
    attempted = 0
    i = 0
    while True:
        x = wl.input(i)
        if i % wl.cycle == 0:
            gc.collect()
        out, dt = step(i, x)
        busy += dt
        attempted += wl.items(out)
        wl.check(i, x, out)
        i += 1
        if busy >= seconds and i >= MIN_PASSES * wl.cycle and i % wl.cycle == 0:
            return attempted


def _end_to_end(wl, args) -> tuple[int, dict, list[str]]:
    """Timings are scaled to the reference host speed (see host_speed.py).

    Each call is bracketed by two runs of the calibration loop and scaled by
    their mean. A slot's latency is the lower quartile of its scaled repeats;
    call_ms_p50 and call_ms_tail are the median and the maximum over the
    slots, and items_per_s is items over the summed scaled call time."""
    latencies = []
    scaled = []
    items = []

    def step(i, x):
        c0 = calibration_seconds()
        t0 = perf_counter()
        out = wl.call(x)
        dt = perf_counter() - t0
        latencies.append(dt)
        scaled.append(dt * 2 * REFERENCE_SECONDS / (c0 + calibration_seconds()))
        items.append(wl.items(out))
        return out, dt

    attempted = _loop(wl, args.seconds, step)
    rss = _peak_rss_mb()
    wl.finish(traced=False)
    fp = wl.fingerprint()
    _check_fingerprint(wl, fp)
    setup, setup_raw = _setup_seconds(args)
    passes = len(scaled) // wl.cycle
    slot_s = [lower_quartile(scaled[s::wl.cycle]) for s in range(wl.cycle)]
    raw_tail_s, raw_tail_pct, n_calls = tail(latencies)
    metrics = {
        "items_per_s": (attempted / sum(scaled), "1/s"),
        "call_ms_p50": (median(slot_s) * 1e3, "ms"),
        "call_ms_tail": (max(slot_s) * 1e3, "ms"),
        "ok_frac": (1 - wl.failed / attempted, "frac"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (median(setup), "s"),
    }
    notes = [
        f"calls: {n_calls} in {passes} passes over {wl.cycle} input slots; a slot's latency "
        f"is the lower quartile of its {passes} scaled calls; call_ms_p50 is the median and "
        f"call_ms_tail the maximum over the {wl.cycle} slots",
        f"host speed: scaled / measured call time = {sum(scaled) / sum(latencies):.4f}",
        f"as measured, over all calls: median {median(latencies) * 1e3:.4g} ms, "
        f"p{raw_tail_pct:.1f} {raw_tail_s * 1e3:.4g} ms, "
        f"{attempted / sum(latencies):.6g} items/s, setup {median(setup_raw):.4g} s",
        f"failed_frac: {wl.failed / attempted:.6g} ({wl.failed} of {attempted} items)",
        "setup_s samples (scaled): " + ", ".join(f"{t:.4f}" for t in setup),
        f"exact counts: {json.dumps(fp, sort_keys=True)}",
    ]
    return attempted, metrics, notes


def _per_layer(wl, args) -> tuple[int, dict, list[str]]:
    rec = Recorder()
    steps = []

    def step(i, x):
        rec.call = i
        out, times = wl.traced_step(x, rec)
        steps.append(times)
        return out, sum(times.values())

    attempted = _loop(wl, args.seconds, step)
    wl.finish(traced=True)
    rec.write_jsonl(OUT / wl.name / f"spans-seed{wl.seed}.jsonl")

    self_times = rec.self_times()
    by_name = defaultdict(list)
    for s, self_t in zip(rec.spans, self_times):
        by_name[s.name].append((s, self_t))

    def spans(name):
        return [s for s, _ in by_name.get(name, ())]

    def self_s(name):
        return sum(t for _, t in by_name.get(name, ()))

    def ms_p50(group):
        return median([s.duration for s in group]) * 1e3

    def rate(group, attr):
        busy = sum(s.duration for s in group)
        return sum(s.attrs[attr] for s in group) / busy if busy else 0.0

    def per_pass_ms(*names):
        # summed per full pass over the workload's input cycle, median over passes
        passes = defaultdict(float)
        for name in names:
            for s in spans(name):
                passes[s.call // wl.cycle] += s.duration
        return median(list(passes.values())) * 1e3

    sample = spans("graphs.sample_gnp")
    bnb = spans("solver.max_induced_tree")
    greedy = spans("solver.greedy")
    vrb = spans("moments.variance_ratio_bound")
    exports = defaultdict(float)
    for s in spans("experiments.export_csv") + spans("experiments.export_json"):
        exports[s.call] += s.duration
    untraced = sum(t["untraced"] for t in steps)
    traced = sum(t["traced"] for t in steps)
    parallel = sum(t.get("parallel", 0.0) for t in steps)
    fp = wl.fingerprint()
    _check_fingerprint(wl, fp)

    metrics = {
        "rng.generator_us_p50": (median(wl.generator_us()), "us"),
        "graphs.sample_gnp.calls": (len(sample), "count"),
        "graphs.sample_gnp.self_s": (self_s("graphs.sample_gnp"), "s"),
        "graphs.sample_gnp.small_us_p50": (
            ms_p50([s for s in sample if s.attrs["n"] <= 64]) * 1e3, "us"),
        "graphs.sample_gnp.dense_ms_p50": (
            ms_p50([s for s in sample if 64 < s.attrs["n"] <= 4096]), "ms"),
        "graphs.sample_gnp.skip_ms_p50": (ms_p50([s for s in sample if s.attrs["n"] > 4096]), "ms"),
        "graphs.edges_per_s": (rate(sample, "edges"), "1/s"),
        "graphs.write_graph_ms_p50": (ms_p50(spans("graphs.write_graph")), "ms"),
        "graphs.read_graph_ms_p50": (ms_p50(spans("graphs.read_graph")), "ms"),
        "graphs.edges_sampled": (fp.get("graphs.edges_sampled", 0), "count"),
        "solver.max_induced_tree.self_s": (self_s("solver.max_induced_tree"), "s"),
        "solver.max_induced_tree.ms_p50": (ms_p50(bnb), "ms"),
        "solver.max_induced_tree.ms_tail": (
            tail([s.duration for s in bnb])[0] * 1e3 if bnb else 0.0, "ms"),
        "solver.bnb.nodes": (fp.get("solver.bnb.nodes", 0), "count"),
        "solver.bnb.nodes_per_s": (rate(bnb, "nodes"), "1/s"),
        "solver.bnb.not_optimal": (sum(1 for s in bnb if not s.attrs["optimal"]), "count"),
        "solver.greedy.self_s": (self_s("solver.greedy"), "s"),
        "solver.greedy.ms_p50": (ms_p50(greedy), "ms"),
        "solver.greedy.restarts_per_s": (rate(greedy, "restarts"), "1/s"),
        "solver.greedy.size_mean": (fp.get("solver.greedy.size_mean", 0), "vertices"),
        "experiments.run_experiment.self_s": (self_s("experiments.run_experiment"), "s"),
        "experiments.export_ms_p50": (median(list(exports.values())) * 1e3, "ms"),
        "experiments.parallel_speedup": (untraced / parallel if parallel else 0.0, "ratio"),
        "moments.compute_profile_ms_p50": (ms_p50(spans("moments.compute_profile")), "ms"),
        "moments.variance_ratio_bound.sparse_ms_p50": (
            ms_p50([s for s in vrb if s.attrs["regime"] == "sparse"]), "ms"),
        "moments.variance_ratio_bound.dense_ms_p50": (
            ms_p50([s for s in vrb if s.attrs["regime"] == "dense"]), "ms"),
        "moments.entries_per_s": (rate(vrb, "entries"), "1/s"),
        "moments.log_expected_trees.max_err_nats": (
            fp.get("moments.log_expected_trees.max_err_nats", 0.0), "nats"),
        "counting.trees_per_s": (rate(spans("counting.enumerate_labeled_trees"), "trees"), "1/s"),
        "counting.validate_overlap_bounds_ms": (
            per_pass_ms("counting.validate_overlap_bounds"), "ms"),
        "counting.forest_crosscheck_ms": (
            per_pass_ms("counting.forest_crosscheck", "counting.rooted_forest_crosscheck"), "ms"),
        "trace.overhead_frac": (traced / untraced - 1, "frac"),
        "trace.coverage": (rec.top_level_seconds() / traced, "frac"),
    }
    notes = [f"{'span':<36} {'calls':>7} {'total_s':>10} {'self_s':>10} {'p50_ms':>10}"]
    for name in sorted(by_name):
        group = by_name[name]
        notes.append(f"{name:<36} {len(group):>7} {sum(s.duration for s, _ in group):>10.4f} "
                     f"{sum(t for _, t in group):>10.4f} "
                     f"{median([s.duration for s, _ in group]) * 1e3:>10.4f}")
    notes.append(f"exact counts: {json.dumps(fp, sort_keys=True)}")
    return attempted, metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "indtrees" / "__init__.py").is_file():
        print(f"indtrees sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import indtrees
    from workloads import WORKLOADS

    if Path(indtrees.__file__).resolve().parent != SRC / "indtrees":
        print(f"imported indtrees from {indtrees.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, out_dir)
    wl.call(wl.warmup_input())  # warm-up: pool start, lazy caches, file cache
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        attempted, metrics, notes = _per_layer(wl, args)
    else:
        attempted, metrics, notes = _end_to_end(wl, args)

    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for line in notes:
        print("  " + line)
    for msg in dict.fromkeys(wl.known):
        print(f"  known defect: {msg}")
    for msg in wl.problems:
        print(f"  FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not wl.problems,
        "attempted": attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
