"""Maximum induced trees in binomial random graphs: exact solvers, counting
oracles, log-domain moment formulas, and Monte Carlo concentration studies."""

from .counting import (
    cayley,
    count_forests,
    count_overlap_pairs,
    enumerate_labeled_trees,
    f_piecewise,
    validate_overlap_bounds,
)
from .experiments import ExperimentConfig, run_experiment
from .graphs import (
    Graph,
    induced_subgraph,
    is_tree,
    mask_vertices,
    read_graph,
    sample_gnp,
    write_graph,
)
from .moments import (
    LogReal,
    compute_profile,
    g_threshold,
    log_expected_trees,
    solve_k_hat,
    variance_ratio_bound,
)
from .rng import Seed
from .solver import (
    SolveResult,
    greedy_tree_lower_bound,
    max_induced_tree,
    max_induced_tree_bruteforce,
)

__all__ = [
    "Graph",
    "LogReal",
    "Seed",
    "SolveResult",
    "ExperimentConfig",
    "sample_gnp",
    "induced_subgraph",
    "mask_vertices",
    "is_tree",
    "read_graph",
    "write_graph",
    "max_induced_tree",
    "max_induced_tree_bruteforce",
    "greedy_tree_lower_bound",
    "cayley",
    "enumerate_labeled_trees",
    "count_forests",
    "count_overlap_pairs",
    "f_piecewise",
    "validate_overlap_bounds",
    "log_expected_trees",
    "solve_k_hat",
    "g_threshold",
    "compute_profile",
    "variance_ratio_bound",
    "run_experiment",
]
