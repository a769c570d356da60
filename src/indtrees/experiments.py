"""Monte Carlo concentration studies.

Samples G(n,p), measures maximum induced tree sizes, and compares the
empirical distribution against the floor threshold and the root of the
Stirling exponent. Trial i always uses RNG stream i of the master seed, so
serial and parallel runs produce identical records.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

from .graphs import check_vertex_count, open_output, sample_gnp
from .moments import DEFAULT_DELTA, THETA_UPPER, g_threshold, log_expected_trees, solve_k_hat
from .rng import Seed
from .solver import (
    DEFAULT_BUDGET,
    DEFAULT_RESTARTS,
    SolveResult,
    greedy_tree_lower_bound,
    max_induced_tree,
)

_SOLVER_STREAM_OFFSET = 1 << 63  # solver randomness never shares a sampling stream


class ConfigError(ValueError):
    pass


def _json_int(value, field: str) -> None:
    """A ConfigError naming the field unless value is a JSON integer (not a
    bool, float or string): int() would truncate 2.9 or parse "16"."""
    if type(value) is not int:
        raise ConfigError(f"{field} must be an integer, got {value!r}")


def _json_number(value, field: str) -> None:
    """A ConfigError naming the field unless value is a JSON number (not a bool
    or string) that converts to a float: float() would parse "0.5" and take
    True as 1."""
    if type(value) not in (int, float):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{field} is too large for a float") from None


def _json_object(
    value, field: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """value if it is a JSON object holding every required key and no key
    outside required + optional, else a ConfigError naming the field, or the
    first key missing from it, or the first key nothing reads."""
    if type(value) is not dict:
        raise ConfigError(f"{field} must be a JSON object, got {value!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{key} is missing from {field}")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {field}")
    return value


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
            if n < 2:
                raise ConfigError(f"reciprocal_log p rule needs n >= 2 (ln n > 0), got n={n}")
            return self.value / math.log(n)
        raise ConfigError(f"unknown p rule kind {self.kind!r}")


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "exact"  # "exact" | "greedy"
    budget: int = DEFAULT_BUDGET
    restarts: int = DEFAULT_RESTARTS


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    p_rule: PRule
    trials: int
    master_seed: int
    delta: float = DEFAULT_DELTA
    solver: SolverSpec = SolverSpec()
    workers: int = 1

    def validate(self) -> None:
        self._validate()

    def _check_types(self) -> None:
        """The JSON type rules, applied here alone: from_dict checks the raw
        JSON values with them, and _validate a config built in Python."""
        for field in ("trials", "master_seed", "workers"):
            _json_int(getattr(self, field), field)
        for n in self.n_values:
            _json_int(n, "n_values entry")
        _json_int(self.solver.budget, "solver.budget")
        _json_int(self.solver.restarts, "solver.restarts")
        _json_number(self.delta, "delta")
        _json_number(self.p_rule.value, "p_rule.value")

    def _validate(self) -> None:
        """validate(), one frame below validate or run_experiment, so that the
        theta warning's stacklevel=3 names the line that called either."""
        self._check_types()
        if not math.isfinite(self.delta):
            raise ConfigError(f"delta must be finite, got {self.delta}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.n_values:
            raise ConfigError("n_values must be non-empty")
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigError(f"n_values must not repeat an n, got {list(self.n_values)}")
        if self.solver.kind not in ("exact", "greedy"):
            raise ConfigError(f"unknown solver kind {self.solver.kind!r}")
        if self.solver.budget < 1 or self.solver.restarts < 1:
            raise ConfigError(f"solver budget and restarts must be >= 1, got {self.solver}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not (0 <= self.master_seed < 1 << 64):
            raise ConfigError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        for n in self.n_values:
            if n < 1:
                raise ConfigError(f"n must be positive, got {n}")
            check_vertex_count(n, ConfigError)
            p = self.p_rule.p(n)
            if not (0.0 < p < 1.0):
                raise ConfigError(f"p rule gives p={p} at n={n}, need 0 < p < 1")
        if self.p_rule.kind == "power" and not (0 < self.p_rule.value < THETA_UPPER):
            warnings.warn(
                f"theta={self.p_rule.value} outside the diagnostic range "
                f"(0, {THETA_UPPER:.4f}); results are exploratory",
                stacklevel=3,
            )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _json_object(
            d,
            "experiment config",
            ("n_values", "p_rule", "trials", "master_seed"),
            ("delta", "solver", "workers", "output_path"),  # output_path: old configs; unread
        )
        rule = _json_object(d["p_rule"], "p_rule", ("kind", "value"))
        solver = _json_object(d.get("solver", {}), "solver", (), ("kind", "budget", "restarts"))
        if type(d["n_values"]) is not list:
            raise ConfigError(f"n_values must be a list, got {d['n_values']!r}")
        # a key left out is not passed: the dataclasses own every default
        cfg = ExperimentConfig(
            n_values=tuple(d["n_values"]),
            p_rule=PRule(**rule),
            solver=SolverSpec(**solver),
            **{k: d[k] for k in ("trials", "master_seed", "delta", "workers") if k in d},
        )
        cfg._check_types()
        # a JSON integer in a float field loads as a float
        rule = replace(cfg.p_rule, value=float(cfg.p_rule.value))
        return replace(cfg, delta=float(cfg.delta), p_rule=rule)

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

    def sort_key(self):
        return (self.n, self.p, self.stream)


def _run_trial(args) -> TrialRecord:
    n, p, stream, master, solver = args
    g = sample_gnp(n, p, Seed(master, stream))
    if solver.kind == "exact":
        res: SolveResult = max_induced_tree(g, solver.budget)
    else:
        res = greedy_tree_lower_bound(
            g, solver.restarts, Seed(master, stream | _SOLVER_STREAM_OFFSET)
        )
    return TrialRecord(n, p, stream, res.size, res.optimal, res.nodes_explored)


@dataclass(frozen=True)
class BatchSummary:
    """One (n, p) batch; its fields are the summary keys of result.json.

    Derived values, the best consecutive pair and the Markov upper tail, are
    properties: they cost nothing in run_experiment and stay out of exports.
    """

    n: int
    p: float
    histogram: dict[int, int]  # over optimal trials only
    lower_bound_only: int
    window: tuple[int, int] | None  # [g, g+1]; None when np <= 1
    window_mass: float
    near_tie: bool
    k_hat: float | None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        d["window"] = list(self.window) if self.window else None
        return d

    @property
    def best_pair(self) -> tuple[int, int] | None:
        """The consecutive sizes (s, s+1) holding the most optimal trials; the lowest on a tie."""
        hist = self.histogram
        return max(
            ((s, s + 1) for s in sorted(hist)),
            key=lambda pair: hist[pair[0]] + hist.get(pair[1], 0),
            default=None,
        )

    @property
    def best_pair_mass(self) -> float:
        if self.best_pair is None:
            return 0.0
        s, t = self.best_pair
        return (self.histogram[s] + self.histogram.get(t, 0)) / sum(self.histogram.values())

    @property
    def markov_tail(self) -> dict[int, float]:
        """E X_k for the (up to) three sizes above the largest one observed."""
        if not self.histogram or not 0 < self.p < 1:
            return {}
        top = max(self.histogram)
        return {
            k: log_expected_trees(self.n, self.p, k).to_float()
            for k in range(top + 1, min(top + 4, self.n) + 1)
        }

    def to_text(self) -> str:
        lines = [f"n={self.n} p={self.p}"]
        total = sum(self.histogram.values())
        for size in sorted(self.histogram):
            c = self.histogram[size]
            bar = "#" * max(1, round(40 * c / total))
            lines.append(f"  size {size:>3}: {c:>6} {bar}")
        if self.lower_bound_only:
            lines.append(
                f"  {self.lower_bound_only} trials gave lower bounds only (not in the histogram)"
            )
        if self.best_pair is not None:
            lines.append(
                f"  best consecutive pair {self.best_pair} mass {self.best_pair_mass:.4f}"
            )
        if self.window is not None:
            # to_dict keeps window_mass 0.0 for a batch without optimal trials
            mass = f"{self.window_mass:.4f}" if total else "undefined (no optimal trials)"
            tie = " (near tie)" if self.near_tie else ""
            lines.append(f"  g(n) window [{self.window[0]}, {self.window[1]}] mass {mass}{tie}")
        if self.k_hat is not None:
            lines.append(f"  k_hat = {self.k_hat:.3f}")
        tail = self.markov_tail
        for k in sorted(tail):
            lines.append(f"  E X_{k} = {tail[k]:.3g} (Markov upper tail)")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentResult:
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
    if n * p > 1 and p < 1:
        thr = g_threshold(n, p, delta)
        window = (thr.value, thr.value + 1)
        near_tie = thr.near_tie
        total = sum(hist.values())
        if total:
            mass = (hist.get(window[0], 0) + hist.get(window[1], 0)) / total
    try:
        k_hat = solve_k_hat(n, p)
    except ValueError:
        k_hat = None
    return BatchSummary(n, p, hist, lb_only, window, mass, near_tie, k_hat)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Execute all trials; identical config gives identical records at any worker count."""
    if workers is not None:
        config = replace(config, workers=workers)
    config._validate()
    workers = config.workers
    batches = [(n, config.p_rule.p(n)) for n in config.n_values]
    jobs = []
    for n, p in batches:
        for _ in range(config.trials):
            jobs.append((n, p, len(jobs), config.master_seed, config.solver))
    if workers > 1:
        # about four chunks per worker, so even a small batch reaches every worker
        chunksize = max(1, math.ceil(len(jobs) / (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, jobs, chunksize=chunksize))
    else:
        records = [_run_trial(j) for j in jobs]
    # pool.map keeps job order, so batch i is the i-th slice of config.trials records
    t = config.trials
    summaries = tuple(
        _summarize(n, p, records[i * t : (i + 1) * t], config.delta)
        for i, (n, p) in enumerate(batches)
    )
    records.sort(key=TrialRecord.sort_key)
    return ExperimentResult(tuple(records), summaries)


# ---------------------------------------------------------------------------
# persistence

CSV_FIELDS = ("n", "p", "seed_stream", "size", "optimal", "nodes", "millis")


def _export_row(rec: TrialRecord) -> list:
    """rec's values in CSV_FIELDS order, millis written as 0 so that reruns give equal bytes."""
    return [rec.n, rec.p, rec.stream, rec.size, rec.optimal, rec.nodes, 0]


def export_csv(records, path_or_buf) -> None:
    """RFC-4180 CSV of _export_row, optimal as true/false; millis is always written as 0."""
    with open_output(path_or_buf, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in records:
            row = _export_row(rec)
            row[4] = "true" if rec.optimal else "false"
            writer.writerow(row)


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
                )
            )
    return records


# one record as json.dump(indent=2, sort_keys=True) lays it out in the
# payload: keys sorted, each value a {} field of _export_row's order
_JSON_RECORD = "    {{\n%s\n    }}" % ",\n".join(
    f'      "{key}": {{{CSV_FIELDS.index(key)}}}' for key in sorted(CSV_FIELDS)
)


def export_json(result: ExperimentResult, path_or_buf) -> None:
    """The bytes of json.dump({"records": [...], "summary": [...]}, indent=2,
    sort_keys=True) and a newline, with each record dict(zip(CSV_FIELDS,
    _export_row(r))). The records are written from _JSON_RECORD, since the
    pure-Python encoder that indent=2 selects costs about 10 us a record;
    only the summaries go through json.dumps."""
    records = []
    for rec in result.records:
        row = _export_row(rec)
        row[1] = repr(rec.p) if math.isfinite(rec.p) else json.dumps(rec.p)  # NaN, Infinity
        row[4] = "true" if rec.optimal else "false"
        records.append(_JSON_RECORD.format(*row))
    summary = json.dumps([s.to_dict() for s in result.summaries], indent=2, sort_keys=True)
    # the summary list sits one level in; a raw newline occurs only between
    # tokens, since json.dumps escapes the ones inside strings
    summary = summary.replace("\n", "\n  ")
    body = "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"
    with open_output(path_or_buf) as fh:
        fh.write(f'{{\n  "records": {body},\n  "summary": {summary}\n}}\n')
