#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly, one seed per run, and print
the median and quartiles of every end-to-end metric next to its bound.

    python3 bench/steadiness.py                        # every workload, seeds 1..10
    python3 bench/steadiness.py --workload sample-io --seeds 1 2 3 4 5
    python3 bench/steadiness.py --save a.json          # keep the raw values
    python3 bench/steadiness.py --compare a.json b.json

The spread of a metric is (q3 - q1) / median over the runs, with quartiles
from statistics.quantiles(values, n=4). A metric is steady when its spread
is below a third of its bound (setup_s is exempt: it is compared only by its
median). --compare checks that the second set's median of each metric is not
worse than the first set's by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    if not result["correct"]:
        print(f"  {workload} seed {seed}: correct=false\n{proc.stderr}", file=sys.stderr)
    return result


def report(spec: dict, runs: dict) -> bool:
    """Print the table for {workload: [result, ...]}; True if every metric is steady."""
    steady = True
    for workload, results in runs.items():
        print(f"{workload}: {len(results)} runs, "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}, "
              f"all correct {all(r['correct'] for r in results)}, "
              f"wall per run {min(r['wall_s'] for r in results):.1f}-"
              f"{max(r['wall_s'] for r in results):.1f} s")
        print(f"  {'metric':<14} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            exempt = m["name"] == "setup_s"
            ok = exempt or spread < m["bound"] / 3
            steady = steady and ok
            verdict = "median only" if exempt else ("steady" if ok else "NOT STEADY")
            print(f"  {m['name']:<14} {m['unit']:<5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>7.4g}  {verdict}")
    return steady


def compare(spec: dict, first: dict, second: dict) -> bool:
    ok = True
    for workload in first:
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            good = worse <= m["bound"]
            ok = ok and good
            print(f"  {workload:<14} {m['name']:<14} {a:>12.6g} -> {b:>12.6g} "
                  f"worse by {worse:+.4f} (bound {m['bound']})  {'ok' if good else 'REGRESSED'}")
    return ok


def main(argv=None) -> int:
    spec = _spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", help="write the raw results to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two saved sets instead of running")
    args = ap.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        return 0 if compare(spec, *sets) else 1

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in args.seeds:
            runs[workload].append(_run(workload, seed, args.seconds))
            print(f"  ran {workload} seed {seed}", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 0 if report(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
