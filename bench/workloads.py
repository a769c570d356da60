"""The four benchmark workloads.

Each workload turns the workload seed into a fixed set of `cycle` inputs,
its input slots, and visits them in passes: `input(i)` is slot i % cycle,
the same input on every pass. It makes one closed-loop call per input
(`call`) and checks every output outside the timed region (`check`). The
library only ever receives the generated (n, p, Seed) inputs. The timed loop
stops only at a pass boundary, so every slot is measured equally often, and
each slot's latency is read from its repeated calls (see run.py).

Failures are counted per item (a trial, a graph or a grid cell). A failure
at a recorded known defect (see KNOWN_IMPRECISE_N) counts as a failed item
but does not mark the run incorrect; any other failure does.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
from time import perf_counter

from indtrees import experiments
from indtrees.counting import (
    cayley,
    count_forests,
    count_forests_enumerated,
    enumerate_labeled_trees,
    rooted_forest_count_closed_form,
    rooted_forest_count_enumerated,
    validate_overlap_bounds,
)
from indtrees.experiments import (
    ExperimentConfig,
    PRule,
    SolverSpec,
    export_csv,
    export_json,
    import_csv,
    run_experiment,
)
from indtrees.graphs import Graph, is_tree, read_graph, sample_gnp, write_graph
from indtrees.moments import (
    compute_profile,
    g_threshold,
    gamma,
    log_expected_trees,
    solve_k_hat,
    variance_ratio_bound,
)
from indtrees.rng import Seed
from indtrees.solver import (
    check_witness,
    greedy_tree_lower_bound,
    max_induced_tree,
    max_induced_tree_bruteforce,
)

from spans import NULL, patched

# Timed experiment batches run serially in this process. With a pool of two
# workers on the reference machine's two shared CPUs, the ten-seed spread of
# desk-exact's items_per_s reached 0.45 even with host-speed scaling, above
# any allowed bound (BASELINE.md). The two-worker pool still runs: in the
# check that its records equal the serial ones, and in the traced run's
# experiments.parallel_speedup.
TIMED_WORKERS = 1
WORKERS = 2  # the machine's core count

# log_binom's lgamma differences lose precision as n grows: at the grid's
# n = 1e10 and 1e12 cells ln E X_k is off by 1e-5 to 5e-3 nats. Those cells
# fail the 1e-6-nat check and count as failed items; the run stays "correct"
# so that the defect is measured rather than hidden or fatal.
KNOWN_IMPRECISE_N = 10**10
LOG_EX_TOL_NATS = 1e-6
MPMATH_DIGITS = 60


class Workload:
    name = ""
    cycle = 1
    prefix_calls = 2  # the exact counts cover this many leading inputs

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.out = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.failed = 0
        self.problems: list[str] = []  # unexpected failures: the run is incorrect
        self.known: list[str] = []  # failures at a recorded known defect

    def warmup_input(self):
        """The input of the untimed warm-up call that ends set-up."""
        return self.input(0)

    def fail(self, items: int, message: str, known: bool = False) -> None:
        self.failed += items
        (self.known if known else self.problems).append(message)

    def traced_step(self, x, rec):
        """One untraced and one traced call on the same input, in alternating
        order so that neither side always runs on warmer caches."""
        times = {}
        for mode in (("untraced", "traced") if rec.call % 2 else ("traced", "untraced")):
            t0 = perf_counter()
            out = self.call(x, rec if mode == "traced" else NULL)
            times[mode] = perf_counter() - t0
        return out, times

    def finish(self, traced: bool) -> None:
        """Checks that need the whole run; untimed."""

    def generator_us(self) -> list[float]:
        return []


# ---------------------------------------------------------------------------
# experiment batches


def _canonical_csv(result) -> bytes:
    buf = io.StringIO()
    export_csv(result.records, buf)
    return buf.getvalue().encode()


def _record_key(r):
    return (r.n, r.p, r.stream, r.size, r.optimal, r.nodes)


class _Experiment(Workload):
    n_values: tuple[int, ...] = ()
    p = 0.0
    trials = 0
    solver = SolverSpec("exact")
    check_every = 1  # every k-th trial is re-solved independently

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._masters = [self.rng.getrandbits(63) for _ in range(self.cycle)]
        self._first_csv: dict[int, bytes] = {}  # slot -> canonical CSV of its first call
        self._trial_counter = 0
        self._prefix: list = []
        self._witnesses: list = []
        self._gen_us: list[float] = []
        self.csv_path = out_dir / "records.csv"
        self.json_path = out_dir / "result.json"

    def input(self, i: int) -> ExperimentConfig:
        return ExperimentConfig(
            n_values=self.n_values,
            p_rule=PRule("constant", self.p),
            trials=self.trials,
            delta=0.5,
            solver=self.solver,
            master_seed=self._masters[i % self.cycle],
            workers=TIMED_WORKERS,
        )

    def _batch(self, cfg, workers, rec=NULL):
        with rec.span("experiments.run_experiment", workers=workers):
            result = run_experiment(cfg, workers=workers)
        with rec.span("experiments.export_csv"):
            export_csv(result.records, self.csv_path)
        with rec.span("experiments.export_json"):
            export_json(result, self.json_path)
        return result

    def call(self, cfg, rec=NULL):
        return self._batch(cfg, TIMED_WORKERS, rec)

    def items(self, result) -> int:
        return len(result.records)

    def _reference_ok(self, g: Graph, cfg, rec) -> bool:
        raise NotImplementedError

    def check(self, i, cfg, result) -> None:
        expected = len(self.n_values) * self.trials
        bad: set[int] = set()
        if len(result.records) != expected:
            bad.update(range(expected))
        keys = [_record_key(r) for r in result.records]
        if [_record_key(r) for r in import_csv(self.csv_path)] != keys:
            bad.update(r.stream for r in result.records)
        with open(self.json_path) as fh:
            rows = json.load(fh)["records"]
        json_keys = [
            (r["n"], r["p"], r["seed_stream"], r["size"], r["optimal"], r["nodes"])
            for r in rows
        ]
        if json_keys != keys:
            bad.update(r.stream for r in result.records)
        csv = _canonical_csv(result)
        if self._first_csv.setdefault(i % self.cycle, csv) != csv:
            bad.update(r.stream for r in result.records)  # a repeat of this input differs
        for rec in result.records:
            if self.solver.kind == "exact" and not rec.optimal:
                bad.add(rec.stream)
            self._trial_counter += 1
            if self._trial_counter % self.check_every == 0:
                g = sample_gnp(rec.n, rec.p, Seed(cfg.master_seed, rec.stream))
                if not self._reference_ok(g, cfg, rec):
                    bad.add(rec.stream)
        if bad:
            self.fail(len(bad), f"batch {i} (master {cfg.master_seed}): "
                                f"{len(bad)} trials failed their checks")
        if i < self.prefix_calls:
            self._prefix.append((cfg, result))

    def _wrappers(self, rec) -> dict:
        def graph_attrs(g, attrs, args):
            attrs["edges"] = g.edge_count

        def bnb_attrs(res, attrs, args):
            attrs["nodes"] = res.nodes_explored
            attrs["optimal"] = res.optimal

        def greedy_attrs(res, attrs, args):
            attrs["size"] = res.size
            self._witnesses.append((args[0], res))

        return {
            "sample_gnp": rec.wrap("graphs.sample_gnp", sample_gnp,
                                   lambda a: {"n": a[0]}, graph_attrs),
            "max_induced_tree": rec.wrap("solver.max_induced_tree", max_induced_tree,
                                         after=bnb_attrs),
            "greedy_tree_lower_bound": rec.wrap("solver.greedy", greedy_tree_lower_bound,
                                                lambda a: {"restarts": a[1]}, greedy_attrs),
            "g_threshold": rec.wrap("moments.g_threshold", g_threshold),
            "solve_k_hat": rec.wrap("moments.solve_k_hat", solve_k_hat),
        }

    def traced_step(self, cfg, rec):
        """Untraced workers=1, traced workers=1 (layer spans nest under the
        run_experiment span because the pool is not used), untraced workers=2."""
        times = {}
        for mode in (("untraced", "traced") if rec.call % 2 else ("traced", "untraced")):
            t0 = perf_counter()
            if mode == "traced":
                with patched(experiments, self._wrappers(rec)):
                    traced = self._batch(cfg, 1, rec)
            else:
                serial = self._batch(cfg, 1)
            times[mode] = perf_counter() - t0
        t0 = perf_counter()
        result = self._batch(cfg, WORKERS)
        times["parallel"] = perf_counter() - t0

        for r in result.records:
            a = perf_counter()
            Seed(cfg.master_seed, r.stream).generator()
            self._gen_us.append((perf_counter() - a) * 1e6)
        if not (_canonical_csv(serial) == _canonical_csv(traced) == _canonical_csv(result)):
            self.fail(len(result.records), f"master {cfg.master_seed}: canonical CSV "
                                           "differs across worker counts or tracing")
        bad = sum(1 for g, res in self._witnesses if not check_witness(g, res))
        if bad:
            self.fail(bad, f"master {cfg.master_seed}: {bad} greedy witnesses are not induced trees")
        self._witnesses.clear()
        return result, times

    def finish(self, traced: bool) -> None:
        if traced:
            return  # traced_step already compared every batch across worker counts
        for cfg, result in self._prefix:
            if _canonical_csv(run_experiment(cfg, workers=WORKERS)) != _canonical_csv(result):
                self.fail(len(result.records), f"master {cfg.master_seed}: canonical CSV "
                                               f"at workers={WORKERS} differs from workers=1")

    def fingerprint(self) -> dict:
        records = [r for _, res in self._prefix for r in res.records]
        edges = sum(
            sample_gnp(r.n, r.p, Seed(cfg.master_seed, r.stream)).edge_count
            for cfg, res in self._prefix for r in res.records
        )
        digest = hashlib.sha256(b"".join(_canonical_csv(res) for _, res in self._prefix))
        return {
            "graphs.edges_sampled": edges,
            "solver.bnb.nodes": sum(r.nodes for r in records) if self.solver.kind == "exact" else 0,
            "solver.greedy.size_mean": (sum(r.size for r in records) / len(records)
                                        if self.solver.kind == "greedy" else 0),
            "canonical_csv_sha256": digest.hexdigest(),
        }

    def generator_us(self) -> list[float]:
        return self._gen_us


class DeskExact(_Experiment):
    """The desk-scale concentration study: many light exact trials per batch."""

    name = "desk-exact"
    n_values = (14, 16)
    p = 0.45
    trials = 100  # per n; 200 trials per batch
    cycle = 12  # batches (master seeds) per pass
    solver = SolverSpec("exact")
    check_every = 200

    def _reference_ok(self, g, cfg, rec) -> bool:
        return max_induced_tree_bruteforce(g).size == rec.size


class SparseGreedy(_Experiment):
    """Few heavy greedy trials per batch on large sparse graphs."""

    name = "sparse-greedy"
    n_values = (1000,)
    p = 0.01
    trials = 4
    cycle = 6  # batches (master seeds) per pass
    solver = SolverSpec("greedy", restarts=1)
    check_every = 16

    def _reference_ok(self, g, cfg, rec) -> bool:
        res = greedy_tree_lower_bound(
            g, self.solver.restarts,
            Seed(cfg.master_seed, rec.stream | experiments._SOLVER_STREAM_OFFSET),
        )
        return res.size == rec.size and check_witness(g, res)


# ---------------------------------------------------------------------------
# sample -> write -> read round trips


class SampleIO(Workload):
    """`indtrees sample`: G(n,p) sampling and the text graph format, no solver."""

    name = "sample-io"
    # both sides of graphs._GEOMETRIC_SKIP_THRESHOLD (4096): the dense path,
    # the skip path at the same density, and the skip path on a sparse graph
    shapes = ((4096, 0.01), (4200, 0.01), (16384, 0.0005))
    cycle = len(shapes)
    prefix_calls = len(shapes)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._masters = [self.rng.getrandbits(63) for _ in self.shapes]
        self._first_edges: dict[int, int] = {}  # slot -> edge count of its first graph
        self._edges = 0
        self.path = out_dir / "graph.txt"

    def input(self, i: int):
        n, p = self.shapes[i % self.cycle]
        return n, p, Seed(self._masters[i % self.cycle])

    def call(self, x, rec=NULL):
        n, p, seed = x
        with rec.span("graphs.sample_gnp", n=n) as attrs:
            g = sample_gnp(n, p, seed)
            attrs["edges"] = g.edge_count
        with rec.span("graphs.write_graph"):
            write_graph(g, self.path)
        with rec.span("graphs.read_graph"):
            h = read_graph(self.path)
        return g, h

    def items(self, out) -> int:
        return 1

    def check(self, i, x, out) -> None:
        n, p, seed = x
        g, h = out
        pairs = n * (n - 1) // 2
        z = (g.edge_count - p * pairs) / math.sqrt(pairs * p * (1 - p))
        repeat_ok = self._first_edges.setdefault(i % self.cycle, g.edge_count) == g.edge_count
        if not (g == h and g.n == n and abs(z) <= 5 and repeat_ok):
            self.fail(1, f"n={n} p={p} {seed}: round trip equal {g == h}, edge z-score {z:.2f}, "
                         f"same edge count as the first call on this input {repeat_ok}")
        if i < self.prefix_calls:
            self._edges += g.edge_count

    def fingerprint(self) -> dict:
        return {"graphs.edges_sampled": self._edges}


# ---------------------------------------------------------------------------
# theory grid


def _mp_log_expected_trees(n: int, p: float, k: int) -> float:
    import mpmath

    with mpmath.workdps(MPMATH_DIGITS):
        q = mpmath.mpf(p)
        v = (
            mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + (k - 2) * mpmath.log(k)
            + (k - 1) * mpmath.log(q)
            + (k * (k - 1) // 2 - k + 1) * mpmath.log1p(-q)
        )
        return float(v)


def _log_sum_exp(values) -> float:
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log(sum(math.exp(v - top) for v in vals))


def _moment_cells():
    cells = []
    for n in (10**5, 10**6, 10**7, 10**8, 10**10, 10**12):
        ln = math.log(n)
        for p in (n ** -0.2, n ** -0.25, 1 / (3 * ln), 0.02):
            cells.append(("moments", n, p))
    return cells


class TheoryGrid(Workload):
    """Moments and counting cells; graphs, solver and experiments are not touched."""

    name = "theory-grid"
    prufer_k = 8
    cells = (
        _moment_cells()
        + [("overlap", k, l) for k in range(2, 7) for l in range(2, k + 1)]
        + [("forests", l) for l in range(1, 8)]
        + [("rooted", n) for n in range(2, 7)]
        + [("prufer", prufer_k)]
    )
    cycle = len(cells)
    prefix_calls = len(cells)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.order = list(self.cells)
        self.rng.shuffle(self.order)
        self.max_err = 0.0
        self._reference: dict = {}  # (n, p, k) -> mpmath ln E X_k, evaluated once per run

    def input(self, i: int):
        return self.order[i % len(self.order)]

    def warmup_input(self):
        # the first cell in grid order, so that set-up does not depend on the seed
        return self.cells[0]

    def call(self, cell, rec=NULL):
        kind = cell[0]
        if kind == "moments":
            _, n, p = cell
            with rec.span("moments.compute_profile"):
                prof = compute_profile(n, p)
            with rec.span("moments.variance_ratio_bound") as attrs:
                vb = variance_ratio_bound(n, p, prof.k)
                attrs["regime"] = vb.regime
                attrs["entries"] = len(vb.entries)
            return prof, vb
        if kind == "overlap":
            with rec.span("counting.validate_overlap_bounds"):
                return validate_overlap_bounds(cell[1], cell[2])
        if kind == "forests":
            l = cell[1]
            with rec.span("counting.forest_crosscheck"):
                return [(count_forests(l, r).value, count_forests_enumerated(l, r))
                        for r in range(l)]
        if kind == "rooted":
            n = cell[1]
            with rec.span("counting.rooted_forest_crosscheck"):
                return [(rooted_forest_count_closed_form(n, m), rooted_forest_count_enumerated(n, m))
                        for m in range(1, n + 1)]
        with rec.span("counting.enumerate_labeled_trees") as attrs:
            count = sum(1 for _ in enumerate_labeled_trees(cell[1]))
            attrs["trees"] = count
        return count

    def items(self, out) -> int:
        return 1

    def check(self, i, cell, out) -> None:
        kind = cell[0]
        if kind == "moments":
            _, n, p = cell
            prof, vb = out
            key = (n, p, prof.k)
            if key not in self._reference:
                self._reference[key] = _mp_log_expected_trees(*key)
            err = abs(log_expected_trees(n, p, prof.k).logmag - self._reference[key])
            self.max_err = max(self.max_err, err)
            parts = _log_sum_exp(vb.part_log_sums.values())
            problems = []
            if abs(gamma(n, p, prof.k_hat)) > 1e-9:
                problems.append(f"|gamma(k_hat)| = {abs(gamma(n, p, prof.k_hat)):.3g}")
            if not (math.isfinite(vb.log_total)
                    and math.isclose(vb.log_total, parts, rel_tol=1e-12, abs_tol=1e-12)):
                problems.append(f"log_total {vb.log_total!r} vs parts {parts!r}")
            where = f"moments n={n:.0e} p={p:.4g} k={prof.k}"
            if problems:
                self.fail(1, f"{where}: " + "; ".join(problems))
            elif err > LOG_EX_TOL_NATS:
                self.fail(1, f"{where}: ln E X_k off by {err:.3g} nats vs "
                             f"{MPMATH_DIGITS}-digit mpmath", known=n >= KNOWN_IMPRECISE_N)
        elif kind == "overlap":
            k = cell[1]
            total = sum(row.n_total for row in out.rows)
            if total != cayley(k) ** 2 or not out.all_ok:
                self.fail(1, f"overlap k={k} l={cell[2]}: total {total}, all_ok {out.all_ok}")
        elif kind in ("forests", "rooted"):
            if any(a != b for a, b in out):
                self.fail(1, f"{kind} {cell[1]}: recurrence/closed form != enumeration: {out}")
        elif out != cell[1] ** (cell[1] - 2):
            self.fail(1, f"Prüfer stream k={cell[1]} yielded {out} trees")

    def finish(self, traced: bool) -> None:
        # The stream is deterministic, so one check per run covers every
        # stream cell: all edge sets distinct, and every 16th one a tree
        # (checking all would cost twice the enumeration itself).
        k = self.prufer_k
        bit = {e: i for i, e in enumerate(itertools.combinations(range(k), 2))}
        codes = set()
        not_trees = 0
        for j, t in enumerate(enumerate_labeled_trees(k)):
            codes.add(sum(1 << bit[e] for e in t))
            if j % 16 == 0 and not is_tree(Graph(k, t)):
                not_trees += 1
        if len(codes) != k ** (k - 2) or not_trees:
            self.fail(1, f"Prüfer stream k={k}: {len(codes)} distinct edge sets, "
                         f"{not_trees} non-trees")

    def fingerprint(self) -> dict:
        return {"moments.log_expected_trees.max_err_nats": self.max_err}


WORKLOADS = {w.name: w for w in (DeskExact, SparseGreedy, SampleIO, TheoryGrid)}
