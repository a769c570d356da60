"""Monte Carlo concentration studies.

Samples G(n,p), measures maximum induced tree sizes, and compares the
empirical distribution against the floor threshold and the root of the
Stirling exponent. Trial i always uses RNG stream i of the master seed, so
serial and parallel runs produce identical records.
"""
from __future__ import annotations

import csv

import itertools
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counting import enumerate_labeled_trees
from .graphs import Graph, _sample_pair_index, sample_gnp
from .moments import BracketError, g_threshold, log_expected_trees, solve_k_hat
from .rng import Seed
from .solver import (
    DEFAULT_BUDGET,
    SolveResult,
    greedy_tree_lower_bound,
    max_induced_tree,
)

THETA_UPPER = (math.e - 2) / (3 * math.e - 2)  # Theorem hypothesis boundary
_SOLVER_STREAM_OFFSET = 1 << 63  # solver randomness never shares a sampling stream


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PRule:
    """Edge probability as a function of n: constant c, power n^-theta, or c/ln n."""

    kind: str  # "constant" | "power" | "reciprocal_log"
    value: float

    def p(self, n: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "power":
            return float(n) ** (-self.value)
        if self.kind == "reciprocal_log":
            return self.value / math.log(n)
        raise ConfigError(f"unknown p rule kind {self.kind!r}")


@dataclass(frozen=True)
class SolverSpec:
    kind: str  # "exact" | "greedy"
    budget: int = DEFAULT_BUDGET
    restarts: int = 100


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    p_rule: PRule
    trials: int
    delta: float
    solver: SolverSpec
    master_seed: int
    output_path: str | None = None
    workers: int = 1

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.n_values:
            raise ConfigError("n_values must be non-empty")
        if self.solver.kind not in ("exact", "greedy"):
            raise ConfigError(f"unknown solver kind {self.solver.kind!r}")
        for n in self.n_values:
            if n < 1:
                raise ConfigError(f"n must be positive, got {n}")
            p = self.p_rule.p(n)
            if not (0.0 < p < 1.0):
                raise ConfigError(f"p rule gives p={p} at n={n}, need 0 < p < 1")
        if self.p_rule.kind == "power" and not (0 < self.p_rule.value < THETA_UPPER):
            warnings.warn(
                f"theta={self.p_rule.value} outside the diagnostic range "
                f"(0, {THETA_UPPER:.4f}); results are exploratory",
                stacklevel=2,
            )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        try:
            rule = d["p_rule"]
            solver = d.get("solver", {})
            return ExperimentConfig(
                n_values=tuple(int(n) for n in d["n_values"]),
                p_rule=PRule(rule["kind"], float(rule["value"])),
                trials=int(d["trials"]),
                delta=float(d.get("delta", 0.5)),
                solver=SolverSpec(
                    solver.get("kind", "exact"),
                    int(solver.get("budget", DEFAULT_BUDGET)),
                    int(solver.get("restarts", 100)),
                ),
                master_seed=int(d["master_seed"]),
                output_path=d.get("output_path"),
                workers=int(d.get("workers", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class TrialRecord:
    n: int
    p: float
    stream: int
    size: int
    optimal: bool
    nodes: int
    millis: float

    def sort_key(self):
        return (self.n, self.p, self.stream)


def _run_trial(args) -> TrialRecord:
    n, p, stream, master, solver = args
    g = sample_gnp(n, p, Seed(master, stream))
    t0 = time.perf_counter()
    if solver.kind == "exact":
        res: SolveResult = max_induced_tree(g, solver.budget)
    else:
        res = greedy_tree_lower_bound(
            g, solver.restarts, Seed(master, stream | _SOLVER_STREAM_OFFSET)
        )
    millis = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(n, p, stream, res.size, res.optimal, res.nodes_explored, millis)


@dataclass(frozen=True)
class BatchSummary:
    n: int
    p: float
    histogram: dict[int, int]  # over optimal trials only
    lower_bound_only: int
    window: tuple[int, int] | None  # [g, g+1]; None when np <= 1
    window_mass: float
    near_tie: bool
    k_hat: float | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "lower_bound_only": self.lower_bound_only,
            "window": list(self.window) if self.window else None,
            "window_mass": self.window_mass,
            "near_tie": self.near_tie,
            "k_hat": self.k_hat,
        }


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    summaries: tuple[BatchSummary, ...]


def _summarize(n: int, p: float, records: list[TrialRecord], delta: float) -> BatchSummary:
    # greedy/budget-exhausted results are lower bounds; keep them out of the histogram
    hist: dict[int, int] = {}
    lb_only = 0
    for rec in records:
        if rec.optimal:
            hist[rec.size] = hist.get(rec.size, 0) + 1
        else:
            lb_only += 1
    window = None
    mass = 0.0
    near_tie = False
    if n * p > 1:
        thr = g_threshold(n, p, delta)
        window = (thr.value, thr.value + 1)
        near_tie = thr.near_tie
        total = sum(hist.values())
        if total:
            mass = (hist.get(window[0], 0) + hist.get(window[1], 0)) / total
    try:
        k_hat = solve_k_hat(n, p).root
    except (BracketError, ValueError):
        k_hat = None
    return BatchSummary(n, p, hist, lb_only, window, mass, near_tie, k_hat)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Execute all trials; identical config gives identical records at any worker count."""
    config.validate()
    if workers is None:
        workers = config.workers
    jobs = []
    stream = 0
    for n in config.n_values:
        p = config.p_rule.p(n)
        for _ in range(config.trials):
            jobs.append((n, p, stream, config.master_seed, config.solver))
            stream += 1
    if workers > 1:
        # about four chunks per worker, so even a small batch reaches every worker
        chunksize = max(1, math.ceil(len(jobs) / (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, jobs, chunksize=chunksize))
    else:
        records = [_run_trial(j) for j in jobs]
    records.sort(key=TrialRecord.sort_key)
    summaries = []
    for n in config.n_values:
        p = config.p_rule.p(n)
        batch = [r for r in records if r.n == n and r.p == p]
        summaries.append(_summarize(n, p, batch, config.delta))
    return ExperimentResult(config, tuple(records), tuple(summaries))


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class ConcentrationReport:
    n: int
    p: float
    histogram: dict[int, int]
    best_pair: tuple[int, int]
    best_pair_mass: float
    g_value: int | None
    g_near_tie: bool
    k_hat: float | None
    markov_tail: dict[int, float]  # k above the window -> E X_k

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "best_pair": list(self.best_pair),
            "best_pair_mass": self.best_pair_mass,
            "g": self.g_value,
            "g_near_tie": self.g_near_tie,
            "k_hat": self.k_hat,
            "markov_tail": {str(k): v for k, v in sorted(self.markov_tail.items())},
        }

    def to_text(self) -> str:
        lines = [f"n={self.n} p={self.p}"]
        total = sum(self.histogram.values())
        for size in sorted(self.histogram):
            c = self.histogram[size]
            bar = "#" * max(1, round(40 * c / total))
            lines.append(f"  size {size:>3}: {c:>6} {bar}")
        lines.append(
            f"  best consecutive pair {self.best_pair} mass {self.best_pair_mass:.4f}"
        )
        if self.g_value is not None:
            tie = " (near tie)" if self.g_near_tie else ""
            lines.append(f"  g(n) window [{self.g_value}, {self.g_value + 1}]{tie}")
        if self.k_hat is not None:
            lines.append(f"  k_hat = {self.k_hat:.3f}")
        for k in sorted(self.markov_tail):
            lines.append(f"  E X_{k} = {self.markov_tail[k]:.3g} (Markov upper tail)")
        return "\n".join(lines)


def concentration_report(
    records: tuple[TrialRecord, ...] | list[TrialRecord], delta: float = 0.5
) -> ConcentrationReport:
    """Histogram plus the mass of the best two consecutive sizes; rejects mixed (n,p)."""
    if not records:
        raise ValueError("empty record set")
    keys = {(r.n, r.p) for r in records}
    if len(keys) > 1:
        raise ValueError(f"mixed (n, p) batches: {sorted(keys)}")
    (n, p), = keys
    hist: dict[int, int] = {}
    for rec in records:
        if rec.optimal:
            hist[rec.size] = hist.get(rec.size, 0) + 1
    if not hist:
        raise ValueError("no optimal records to summarize")
    total = sum(hist.values())
    best_pair = None
    best_mass = -1.0
    for s in sorted(hist):
        m = (hist.get(s, 0) + hist.get(s + 1, 0)) / total
        if m > best_mass:
            best_mass = m
            best_pair = (s, s + 1)
    g_value = None
    near_tie = False
    if n * p > 1 and p < 1:
        thr = g_threshold(n, p, delta)
        g_value, near_tie = thr.value, thr.near_tie
    try:
        k_hat = solve_k_hat(n, p).root if 0 < p < 1 else None
    except (BracketError, ValueError):
        k_hat = None
    tail = {}
    top = max(hist)
    if 0 < p < 1:
        for k in range(top + 1, min(top + 4, n) + 1):
            tail[k] = log_expected_trees(n, p, k).to_float()
    return ConcentrationReport(
        n, p, hist, best_pair, best_mass, g_value, near_tie, k_hat, tail
    )


# ---------------------------------------------------------------------------
# persistence

CSV_FIELDS = ("n", "p", "seed_stream", "size", "optimal", "nodes", "millis")


def _format_float(x: float) -> str:
    return repr(float(x))


def export_csv(records, path_or_buf, canonical: bool = True) -> None:
    """RFC-4180 CSV; canonical mode zeroes the volatile millis column so that
    reruns of the same config are byte-identical."""
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    fh = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(
                [
                    rec.n,
                    _format_float(rec.p),
                    rec.stream,
                    rec.size,
                    "true" if rec.optimal else "false",
                    rec.nodes,
                    "0" if canonical else _format_float(rec.millis),
                ]
            )
    finally:
        if own:
            fh.close()


def import_csv(path) -> list[TrialRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                TrialRecord(
                    n=int(row["n"]),
                    p=float(row["p"]),
                    stream=int(row["seed_stream"]),
                    size=int(row["size"]),
                    optimal=row["optimal"] == "true",
                    nodes=int(row["nodes"]),
                    millis=float(row["millis"]),
                )
            )
    return records


def export_json(result: ExperimentResult, path_or_buf, canonical: bool = True) -> None:
    payload = {
        "records": [
            {
                "n": r.n,
                "p": r.p,
                "seed_stream": r.stream,
                "size": r.size,
                "optimal": r.optimal,
                "nodes": r.nodes,
                "millis": 0 if canonical else r.millis,
            }
            for r in result.records
        ],
        "summary": [s.to_dict() for s in result.summaries],
    }
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    fh = open(path_or_buf, "w") if own else path_or_buf
    try:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if own:
            fh.close()


def export(result: ExperimentResult, path, fmt: str, canonical: bool = True) -> None:
    if fmt == "csv":
        export_csv(result.records, path, canonical=canonical)
    elif fmt == "json":
        export_json(result, path, canonical=canonical)
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")


# ---------------------------------------------------------------------------
# sampling oracle for the expectation formula


def monte_carlo_tree_count(
    n: int, p: float, k: int, trials: int, seed: Seed
) -> tuple[float, float]:
    """Mean and standard error of the number of induced k-trees over sampled
    graphs, counted by explicit subset enumeration (independent of the
    log-domain expectation formula)."""
    pair_index = {
        pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))
    }
    m = len(pair_index)
    subsets = list(itertools.combinations(range(n), k))
    sub_pairs = np.array(
        [
            [pair_index[pq] for pq in itertools.combinations(s, 2)]
            for s in subsets
        ],
        dtype=np.int64,
    )
    # encode each subset's induced edge pattern as an integer; trees on k
    # labeled vertices give the admissible patterns
    local_pairs = list(itertools.combinations(range(k), 2))
    weights = (1 << np.arange(len(local_pairs), dtype=np.int64))
    tree_codes = []
    for tree in enumerate_labeled_trees(k):
        code = 0
        for e in tree:
            code |= 1 << local_pairs.index(e)
        tree_codes.append(code)
    tree_codes = np.unique(np.array(tree_codes, dtype=np.int64))

    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        # pair_index follows the sampler's lexicographic pair order
        edgevec = np.zeros(m, dtype=np.int64)
        edgevec[_sample_pair_index(n, p, seed.with_stream(t))] = 1
        codes = edgevec[sub_pairs] @ weights
        counts[t] = np.count_nonzero(np.isin(codes, tree_codes))
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return mean, stderr


def count_induced_k_trees(g: Graph, k: int) -> int:
    """Direct count by subset enumeration; cross-check for the vectorized path."""
    from .graphs import induced_subgraph, is_tree

    return sum(
        1
        for s in itertools.combinations(range(g.n), k)
        if is_tree(induced_subgraph(g, s))
    )
