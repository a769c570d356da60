"""Command-line interface: sampling, solving, counting oracles, moment
profiles, variance bounds, and experiment batches."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .counting import (
    MAX_OVERLAP_K,
    cayley,
    count_forests,
    count_forests_enumerated,
    extensions_match_enumeration,
    rooted_forest_count_closed_form,
    rooted_forest_count_enumerated,
    validate_overlap_bounds,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    export_csv,
    export_json,
    run_experiment,
)
from .graphs import mask_vertices, read_graph, sample_gnp, write_graph
from .moments import (
    DEFAULT_DELTA,
    compute_profile,
    solve_k_hat,
    target_k,
    variance_ratio_bound,
)
from .rng import Seed
from .solver import DEFAULT_BUDGET, DEFAULT_RESTARTS, greedy_tree_lower_bound, max_induced_tree


def _cmd_sample(args) -> int:
    g = sample_gnp(args.n, args.p, Seed(args.seed, 0))
    write_graph(g, args.out or sys.stdout)
    return 0


def _cmd_solve(args) -> int:
    g = read_graph(args.infile)
    if args.greedy:
        res = greedy_tree_lower_bound(g, args.restarts, Seed(args.seed, 0))
    else:
        res = max_induced_tree(g, args.budget)
    print(
        json.dumps(
            {
                "size": res.size,
                "witness": mask_vertices(res.witness),
                "optimal": res.optimal,
                "nodes": res.nodes_explored,
            }
        )
    )
    return 0


def _bound_rows_json(report) -> list[dict]:
    rows = []
    for row in report.rows:
        rows.append(
            {
                "r": row.r,
                "N": row.n_total,
                "N_matching": row.n_matching,
                "bound1": row.bound_square,
                "bound2": row.bound_product,
                "bound3": row.bound_forest,
                "ok": row.ok,
            }
        )
    return rows


def _cmd_oracle_overlap(args) -> int:
    report = validate_overlap_bounds(args.k, args.l)
    total = sum(row.n_total for row in report.rows)
    print(f"pairs of trees on two {args.k}-sets sharing {args.l} vertices")
    print(f"{'r':>3} {'N(k,l,r)':>14} {'matching':>14}")
    for row in report.rows:
        print(f"{row.r:>3} {row.n_total:>14} {row.n_matching:>14}")
    print(f"sum {total:>14}  (= (k^(k-2))^2 = {cayley(args.k) ** 2})")
    print(
        json.dumps(
            {"k": args.k, "l": args.l, "rows": _bound_rows_json(report)}
        )
    )
    return 0


def _cmd_oracle_forests(args) -> int:
    # r = 0 is asked for at every l, so count_forests checks l's range
    counts = [count_forests(args.l, r).value for r in range(max(args.l, 1))]
    print(f"labeled forests on {args.l} vertices by edge count")
    for r, v in enumerate(counts):
        print(f"{r:>3} {v:>14}")
    rows = [{"l": args.l, "r": r, "phi": v} for r, v in enumerate(counts)]
    print(json.dumps({"l": args.l, "rows": rows}))
    return 0


def _cmd_oracle_validate(args) -> int:
    """Overlap bounds, partition and extension counts t(F) for k <= kmax,
    forest counts for l <= 7 and rooted-forest counts for n <= 6, each
    against exact enumeration."""
    if not (2 <= args.kmax <= MAX_OVERLAP_K):
        raise ValueError(f"--kmax must be in [2, {MAX_OVERLAP_K}], got {args.kmax}")
    all_ok = True
    payload = []
    for k in range(2, args.kmax + 1):
        for l in range(2, k + 1):
            report = validate_overlap_bounds(k, l)
            bounds_ok = report.all_ok
            partition_ok = sum(row.n_total for row in report.rows) == cayley(k) ** 2
            extensions_ok = extensions_match_enumeration(k, l)
            all_ok = all_ok and bounds_ok and partition_ok and extensions_ok
            payload.append({"k": k, "l": l, "rows": _bound_rows_json(report)})
            print(
                f"k={k} l={l}: {'ok' if bounds_ok else 'VIOLATION'}"
                f"{'' if partition_ok else ', PARTITION MISMATCH'}"
                f"{'' if extensions_ok else ', EXTENSION MISMATCH'}"
            )
    for l in range(1, 8):
        ok = all(count_forests(l, r).value == count_forests_enumerated(l, r) for r in range(l))
        all_ok = all_ok and ok
        print(f"forests l={l}: {'ok' if ok else 'MISMATCH'}")
    for n in range(2, 7):
        ok = all(
            rooted_forest_count_closed_form(n, m) == rooted_forest_count_enumerated(n, m)
            for m in range(1, n + 1)
        )
        all_ok = all_ok and ok
        print(f"rooted forests n={n}: {'ok' if ok else 'MISMATCH'}")
    print(json.dumps(payload))
    return 0 if all_ok else 1


def _cmd_moments_profile(args) -> int:
    prof = compute_profile(args.n, args.p, args.delta)
    print(json.dumps(prof.to_dict(), indent=2))
    return 0


def _cmd_moments_varbound(args) -> int:
    k = args.k
    if k is None:
        k = target_k(solve_k_hat(args.n, args.p))
    vb = variance_ratio_bound(args.n, args.p, k)
    print("part,ell,log_summand")
    for part, ell, v in vb.rows():
        print(f"{part},{ell},{v!r}")
    print(json.dumps({"part_sums": vb.part_log_sums, "total": vb.log_total}))
    return 0


def _cmd_experiment_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    out = Path(args.out)
    # the nearest existing path at or above --out must be a directory
    existing = next(q for q in (out, *out.parents) if q.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out: {existing} is not a directory")
    # run_experiment validates the config, and warns, before any trial
    result = run_experiment(config, workers=args.workers)
    out.mkdir(parents=True, exist_ok=True)
    export_csv(result.records, out / "records.csv")
    export_json(result, out / "result.json")
    for s in result.summaries:
        print(s.to_text())
    print(f"wrote {out / 'records.csv'} and {out / 'result.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="indtrees",
        description="Maximum induced trees in G(n,p): solvers, oracles, moments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample a G(n,p) graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("solve", help="maximum induced tree of a graph file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--greedy", action="store_true")
    sp.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    sp.add_argument(
        "--seed", type=int, default=0,
        help="greedy stream Seed(seed, 0), as for sample --seed: use a seed other than the graph's",
    )
    sp.set_defaults(func=_cmd_solve)

    op = sub.add_parser("oracle", help="exact counting oracles")
    osub = op.add_subparsers(dest="oracle_command", required=True)
    sp = osub.add_parser("overlap", help="tree-pair overlap counts N(k,l,r)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.set_defaults(func=_cmd_oracle_overlap)
    sp = osub.add_parser("forests", help="forest counts phi(l,r)")
    sp.add_argument("--l", type=int, required=True)
    sp.set_defaults(func=_cmd_oracle_forests)
    sp = osub.add_parser(
        "validate", help="check all counting bounds and forest counts against enumeration"
    )
    sp.add_argument("--kmax", type=int, default=6)
    sp.set_defaults(func=_cmd_oracle_validate)

    mp = sub.add_parser("moments", help="log-domain moment formulas")
    msub = mp.add_subparsers(dest="moments_command", required=True)
    sp = msub.add_parser("profile", help="k*, k_hat, threshold, partition points")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument(
        "--delta", type=float, default=DEFAULT_DELTA,
        help="k = floor(k_hat - 1 + delta); delta must put k in [2, n]",
    )
    sp.set_defaults(func=_cmd_moments_profile)
    sp = msub.add_parser("varbound", help="variance-ratio partition bounds")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument(
        "--k", type=int, default=None,
        help=f"tree size; default floor(k_hat - 1 + {DEFAULT_DELTA}), profile's k at default --delta",
    )
    sp.set_defaults(func=_cmd_moments_varbound)

    ep = sub.add_parser("experiment", help="Monte Carlo concentration batches")
    esub = ep.add_subparsers(dest="experiment_command", required=True)
    sp = esub.add_parser("run", help="run a batch from a JSON config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_experiment_run)

    return ap


def main(argv=None) -> int:
    """Run one subcommand and return its exit code: 0 for success, 1 for a violated
    bound or count mismatch (`oracle validate`), 2 for bad input, 3 for I/O errors."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ConfigError, json.JSONDecodeError) as exc:  # a config that is not valid JSON
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation the OS refused: the input is too large
        msg = str(exc) or "allocation refused"
        print(f"indtrees {args.command}: out of memory: {msg}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"indtrees {args.command}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
