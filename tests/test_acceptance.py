"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 7 evaluates the variance-ratio bound where the theorem makes its
claim: p = n^-theta with theta = THETA_UPPER / 2, halfway into the range
n^(-(e-2)/(3e-2)+eps) <= p = o(1), at n = 1e30 (dense regime), 1e40 and 1e50
(sparse regime). Its log-sums there are tens of nats below zero only if
log_binom stays exact at large n; the lgamma difference puts them at +4.5e5
to +1.9e7. Outside that range, at p = n^-0.2 and n <= 1e8, the bound exceeds
1 (README, "Variance bound at finite n").
"""
import io
import math
import time


from indtrees.counting import (
    cayley,
    count_forests,
    count_forests_enumerated,
    count_overlap_pairs,
    enumerate_labeled_trees,
    rooted_forest_count_closed_form,
    rooted_forest_count_enumerated,
    validate_overlap_bounds,
)
from indtrees.experiments import (
    THETA_UPPER,
    ExperimentConfig,
    PRule,
    SolverSpec,
    export_csv,
    run_experiment,
)
from indtrees.graphs import sample_gnp
from indtrees.moments import (
    gamma,
    log_expected_trees,
    solve_k_hat,
    variance_ratio_bound,
)
from indtrees.rng import Seed
from indtrees.solver import max_induced_tree, max_induced_tree_bruteforce
from oracles import monte_carlo_tree_count


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {verdict}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_cayley_counts():
    expected = [1, 1, 3, 16, 125, 1296, 16807, 262144, 4782969]
    t0 = time.perf_counter()
    counts = [sum(1 for _ in enumerate_labeled_trees(k)) for k in range(1, 10)]
    elapsed = time.perf_counter() - t0
    ok = counts == expected and elapsed < 60
    _report(1, "cayley counts k=1..9", ok, f"{counts}, {elapsed:.1f}s")


def test_criterion_2_overlap_partition():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 7):
        for l in range(2, k + 1):
            total = sum(count_overlap_pairs(k, l).pairs_total)
            if total != cayley(k) ** 2:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _report(2, "overlap partition 2<=l<=k<=6", ok, f"{elapsed:.1f}s")


def test_criterion_3_bound_dominance():
    violations = 0
    for k in range(2, 7):
        for l in range(2, k + 1):
            report = validate_overlap_bounds(k, l)
            violations += sum(1 for row in report.rows if not row.ok)
    _report(3, "bound dominance on the grid", violations == 0, f"{violations} violations")


def test_criterion_4_forest_cross_check():
    phi_ok = True
    for l in range(1, 8):
        for r in range(l):
            phi = count_forests_enumerated(l, r) if l <= 8 else None
            if phi != count_forests(l, r).value:
                phi_ok = False
            bound = math.comb(l, l - r) * (l - r) * l ** (r - 1) if r >= 1 else 1
            if r >= 1 and phi > bound:
                phi_ok = False
            if r == 0 and phi != 1:
                phi_ok = False
    matched = None
    rooted_ok = True
    for n in range(2, 7):
        for m in range(1, n + 1):
            enum = rooted_forest_count_enumerated(n, m)
            minus = math.comb(n, m) * m * n ** (n - m - 1)
            plus = math.comb(n, m) * m * n ** (n - m + 1)
            if rooted_forest_count_closed_form(n, m) != enum or minus != enum:
                rooted_ok = False
            if plus == enum and n > 1:
                rooted_ok = False
            matched = "n-m-1"
    ok = phi_ok and rooted_ok
    _report(4, "forest cross-check l<=7", ok, f"rooted-forest exponent matched: {matched}")


def test_criterion_5_expectation_vs_sampling():
    t0 = time.perf_counter()
    ok = True
    details = []
    for (n, p, k, stream_master) in [(12, 0.4, 4, 1001), (14, 0.3, 5, 1002)]:
        mean, se = monte_carlo_tree_count(n, p, k, trials=10**5, seed=Seed(stream_master))
        expected = log_expected_trees(n, p, k).to_float()
        z = abs(mean - expected) / se
        details.append(f"n={n}: mean={mean:.3f} E={expected:.3f} z={z:.2f}")
        if z > 3:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    _report(5, "expectation vs sampling", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_6_threshold_sign_flip():
    ok = True
    for n in (10**5, 10**6, 10**7):
        for p in (n**-0.2, n**-0.25, 1 / (3 * math.log(n)), 0.02):
            root = solve_k_hat(n, p)
            if abs(gamma(n, p, root)) > 1e-9:
                ok = False
            if log_expected_trees(n, p, math.floor(root - 0.5)).logmag <= 0:
                ok = False
            if log_expected_trees(n, p, math.ceil(root + 0.5)).logmag >= 0:
                ok = False
    _report(6, "threshold sign flip grid", ok)


def test_criterion_7_variance_bound_smallness():
    totals = []
    parts_small = True
    details = []
    theta = THETA_UPPER / 2  # halfway into the theorem's range of p = n^-theta
    for n in (10**30, 10**40, 10**50):
        p = float(n) ** -theta
        k = math.floor(solve_k_hat(n, p) - 0.5)
        vb = variance_ratio_bound(n, p, k)
        worst = max(vb.part_log_sums.values())
        details.append(f"n={n:.0e}: regime={vb.regime} max part log-sum={worst:.1f}")
        if worst >= 0:  # partial sum < 1 means log < 0
            parts_small = False
        totals.append(vb.log_total)
    decreasing = all(b < a for a, b in zip(totals, totals[1:]))
    ok = parts_small and decreasing
    _report(
        7,
        "variance-bound smallness",
        ok,
        f"p=n^-{theta:.4f}; " + "; ".join(details)
        + f"; totals={['%.1f' % t for t in totals]}",
    )


def test_criterion_8_solver_oracle_equivalence():
    t0 = time.perf_counter()
    ps = (0.2, 0.5, 0.8)
    mismatches = 0
    for i in range(500):
        n = 10 + i % 7
        p = ps[i % 3]
        g = sample_gnp(n, p, Seed(880, i))
        if max_induced_tree(g).size != max_induced_tree_bruteforce(g).size:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 600
    _report(8, "solver oracle equivalence, 500 graphs", ok, f"{mismatches} mismatches, {elapsed:.0f}s")


def test_criterion_9_desk_scale_concentration():
    cfg = ExperimentConfig(
        n_values=(16,),
        p_rule=PRule("constant", 0.45),
        trials=2000,
        delta=0.5,
        solver=SolverSpec("exact"),
        master_seed=2016,
    )
    r1 = run_experiment(cfg, workers=1)
    r2 = run_experiment(cfg, workers=4)
    b1, b2 = io.StringIO(), io.StringIO()
    export_csv(r1.records, b1)
    export_csv(r2.records, b2)
    identical = b1.getvalue() == b2.getvalue()

    rep = r1.summaries[0]
    total = sum(rep.histogram.values())
    markov_ok = True
    for size, count in rep.histogram.items():
        ex = log_expected_trees(16, 0.45, size).to_float()
        if ex < 1e-6 and count / total > 0.01:
            markov_ok = False
    ok = identical and markov_ok
    _report(
        9,
        "desk-scale concentration",
        ok,
        f"byte-identical={identical}, best pair {rep.best_pair} mass "
        f"{rep.best_pair_mass:.3f}, Markov coherent={markov_ok}",
    )
