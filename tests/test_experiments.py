import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from indtrees import experiments
from indtrees.experiments import (
    CSV_FIELDS,
    BatchSummary,
    ConfigError,
    ExperimentResult,
    ExperimentConfig,
    PRule,
    SolverSpec,
    TrialRecord,
    _export_row,
    _summarize,
    export_csv,
    export_json,
    import_csv,
    run_experiment,
)
from indtrees.graphs import sample_gnp
from indtrees.moments import DEFAULT_DELTA
from indtrees.rng import Seed
from indtrees.solver import DEFAULT_BUDGET, DEFAULT_RESTARTS, max_induced_tree
from oracles import complete_graph, count_induced_k_trees, monte_carlo_tree_count, path_graph


def small_config(**overrides):
    base = dict(
        n_values=(10,),
        p_rule=PRule("constant", 0.4),
        trials=8,
        delta=0.5,
        solver=SolverSpec("exact"),
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config ------------------------------------------------------------------


def test_p_rules():
    assert PRule("constant", 0.3).p(100) == 0.3
    assert PRule("power", 0.2).p(10**5) == pytest.approx(10**-1)
    assert PRule("reciprocal_log", 1.0).p(10**5) == pytest.approx(1 / math.log(10**5))
    with pytest.raises(ConfigError):
        PRule("nope", 0.1).p(10)


def test_config_validation():
    small_config().validate()
    with pytest.raises(ConfigError):
        small_config(trials=0).validate()
    with pytest.raises(ConfigError):
        small_config(n_values=()).validate()
    with pytest.raises(ConfigError):
        small_config(p_rule=PRule("constant", 1.5)).validate()
    with pytest.raises(ConfigError):
        small_config(solver=SolverSpec("magic")).validate()
    with pytest.raises(ConfigError, match="n >= 2"):
        small_config(p_rule=PRule("reciprocal_log", 0.5), n_values=(1,)).validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"solver": SolverSpec("exact", budget=0)}, "budget and restarts"),
        ({"solver": SolverSpec("greedy", restarts=-4)}, "budget and restarts"),
        ({"solver": SolverSpec("greedy", restarts=0)}, "budget and restarts"),
        ({"workers": -2}, "workers must be >= 1"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"master_seed": -1}, "master_seed"),
        ({"master_seed": 2**64}, "master_seed"),
    ],
)
def test_config_rejects_bad_solver_worker_and_seed_settings(overrides, message):
    small_config(master_seed=2**64 - 1).validate()
    with pytest.raises(ConfigError, match=message):
        small_config(**overrides).validate()
    with pytest.raises(ConfigError, match=message):
        run_experiment(small_config(**overrides, trials=1))


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"workers": 2.0}, "workers"),
        ({"solver": SolverSpec("greedy", restarts=2.0)}, "solver.restarts"),
        ({"solver": SolverSpec("exact", budget=10.0**6)}, "solver.budget"),
        ({"n_values": (10.0,)}, "n_values entry"),
        ({"n_values": (np.int64(10),)}, "n_values entry"),
        ({"master_seed": np.uint64(3)}, "master_seed"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"delta": "0.5"}, "delta"),
        ({"p_rule": PRule("constant", "0.4")}, "p_rule.value"),
    ],
)
def test_config_built_in_python_gets_the_json_type_rules(overrides, field, monkeypatch):
    def no_trial(args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(experiments, "_run_trial", no_trial)
    with pytest.raises(ConfigError, match=f"^{field} "):
        small_config(**overrides).validate()
    with pytest.raises(ConfigError, match=f"^{field} "):
        run_experiment(small_config(**overrides))


@pytest.mark.parametrize("master, stream", [(1.5, 0), (True, 0), (np.uint64(3), 0), (3, 2.0)])
def test_seed_rejects_a_master_or_stream_that_is_not_an_int(master, stream):
    with pytest.raises(ValueError, match="must be an unsigned 64-bit integer"):
        Seed(master, stream)


@pytest.mark.parametrize("workers", [0, -2])
def test_run_experiment_rejects_workers_argument_below_1(workers):
    with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
        run_experiment(small_config(trials=1), workers=workers)


def test_config_rejects_repeated_n():
    small_config(n_values=(8, 9)).validate()
    for repeated in ((8, 8), (8, 9, 8)):
        with pytest.raises(ConfigError, match="repeat"):
            small_config(n_values=repeated).validate()
        with pytest.raises(ConfigError, match="repeat"):
            run_experiment(small_config(n_values=repeated, trials=3))


@pytest.mark.parametrize("n_values, n", [((0,), 0), ((10, -3), -3)])
def test_config_rejects_a_non_positive_n(n_values, n):
    with pytest.raises(ConfigError, match=f"^n must be positive, got {n}$"):
        small_config(n_values=n_values).validate()
    with pytest.raises(ConfigError, match=f"^n must be positive, got {n}$"):
        run_experiment(small_config(n_values=n_values, trials=1))


def test_config_warns_outside_theorem_range():
    with pytest.warns(UserWarning):
        small_config(p_rule=PRule("power", 0.5), n_values=(100,)).validate()


def test_theta_warning_names_the_callers_line():
    cfg = small_config(p_rule=PRule("power", 0.5), trials=1)
    with pytest.warns(UserWarning, match="outside the diagnostic range") as direct:
        cfg.validate()
    with pytest.warns(UserWarning, match="outside the diagnostic range") as batch:
        run_experiment(cfg)
    assert [w.filename for w in direct] == [w.filename for w in batch] == [__file__]


def test_minimal_config_takes_the_dataclass_defaults():
    doc = {
        "n_values": [10],
        "p_rule": {"kind": "constant", "value": 0.4},
        "trials": 8,
        "master_seed": 99,
    }
    cfg = ExperimentConfig(n_values=(10,), p_rule=PRule("constant", 0.4), trials=8, master_seed=99)
    assert ExperimentConfig.from_dict(doc) == cfg
    assert ExperimentConfig.from_dict({**doc, "solver": {}}) == cfg
    assert (cfg.delta, cfg.solver, cfg.workers) == (
        DEFAULT_DELTA, SolverSpec("exact", DEFAULT_BUDGET, DEFAULT_RESTARTS), 1
    )


def test_config_json_round_trip(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "n_values": [10],
                "p_rule": {"kind": "constant", "value": 0.4},
                "trials": 8,
                "delta": 0.5,
                "solver": {"kind": "exact"},
                "master_seed": 99,
            }
        )
    )
    assert ExperimentConfig.from_json(path) == cfg
    # a config written when output_path was a field still loads
    doc = json.loads(path.read_text())
    assert ExperimentConfig.from_dict({**doc, "output_path": "out/x.csv"}) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_values": [10]})  # missing fields


@pytest.mark.parametrize(
    "fields",
    [
        {"n_values": "16"},  # int() of each character would run n = 1 and n = 6
        {"n_values": 10},
        {"n_values": [10.7]},
        {"n_values": ["10"]},
        {"n_values": [True]},
        {"trials": 2.9},
        {"trials": True},
        {"trials": "8"},
        {"master_seed": 1.5},
        {"workers": 1.0},
        {"solver": {"kind": "exact", "budget": 1e6}},
        {"solver": {"kind": "greedy", "restarts": 2.5}},
    ],
)
def test_config_rejects_non_integer_fields(fields):
    doc = {
        "n_values": [10],
        "p_rule": {"kind": "constant", "value": 0.4},
        "trials": 8,
        "master_seed": 99,
        **fields,
    }
    field = next(iter(fields))
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize(
    "fields",
    [
        {"delta": "0.5"},  # float() would parse the string
        {"delta": True},
        {"delta": None},
        {"p_rule": {"kind": "constant", "value": "0.4"}},
        {"p_rule": {"kind": "power", "value": True}},  # float() would run theta = 1
        {"p_rule": {"kind": "power", "value": [0.3]}},
    ],
)
def test_config_rejects_non_number_fields(fields):
    doc = {
        "n_values": [10],
        "p_rule": {"kind": "constant", "value": 0.4},
        "trials": 8,
        "master_seed": 99,
        **fields,
    }
    field = "delta" if "delta" in fields else "p_rule.value"
    with pytest.raises(ConfigError, match=rf"{field} must be a number"):
        ExperimentConfig.from_dict(doc)


def test_config_accepts_integer_numbers():
    doc = {"n_values": [10], "p_rule": {"kind": "power", "value": 1}, "trials": 8,
           "master_seed": 99, "delta": 1}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.delta == 1.0 and type(cfg.delta) is float
    assert cfg.p_rule.value == 1.0 and type(cfg.p_rule.value) is float
    with pytest.raises(ConfigError, match="too large"):  # float() overflows
        ExperimentConfig.from_dict({**doc, "delta": 10**400})


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("p", [0.05, 0.4])  # n p <= 1 never reaches g_threshold
def test_non_finite_delta_rejected_before_any_trial(monkeypatch, delta, p):
    def no_trial(args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_trial", no_trial)
    cfg = small_config(delta=delta, p_rule=PRule("constant", p))
    with pytest.raises(ConfigError, match=f"delta must be finite, got {delta}"):
        run_experiment(cfg)


# --- running -----------------------------------------------------------------


def test_run_experiment_deterministic_across_workers():
    cfg = small_config(trials=12)
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=4)

    assert serial.records == parallel.records
    assert [s.to_dict() for s in serial.summaries] == [
        s.to_dict() for s in parallel.summaries
    ]


def test_summaries_follow_config_order_with_per_n_batches():
    # a power rule gives each n its own p; n_values are not sorted
    cfg = small_config(n_values=(12, 8, 10), p_rule=PRule("power", 0.1), trials=5)
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert [(s.n, s.p) for s in serial.summaries] == [(n, cfg.p_rule.p(n)) for n in cfg.n_values]
    assert [(r.n, r.stream) for r in serial.records] == sorted(
        (r.n, r.stream) for r in serial.records
    )
    for s in serial.summaries:
        batch = [r for r in serial.records if r.n == s.n]
        assert len(batch) == cfg.trials and all(r.p == s.p for r in batch)
        hist = {}
        for r in batch:
            if r.optimal:
                hist[r.size] = hist.get(r.size, 0) + 1
        assert s.histogram == hist
    bufs = []
    for result in (serial, parallel):
        buf = io.StringIO()
        export_json(result, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_records_reproduce_solver_output():
    cfg = small_config(trials=5)
    result = run_experiment(cfg)
    for rec in result.records:
        g = sample_gnp(rec.n, rec.p, Seed(cfg.master_seed, rec.stream))
        res = max_induced_tree(g)
        assert (res.size, res.optimal, res.nodes_explored) == (
            rec.size,
            rec.optimal,
            rec.nodes,
        )


def test_streams_disjoint_across_batches():
    cfg = small_config(n_values=(8, 10), trials=4)
    result = run_experiment(cfg)
    streams = [r.stream for r in result.records]
    assert len(streams) == len(set(streams)) == 8


def test_greedy_tier_excluded_from_histogram():
    cfg = small_config(solver=SolverSpec("greedy", restarts=5), trials=6)
    result = run_experiment(cfg)
    (summary,) = result.summaries
    assert summary.histogram == {}
    assert summary.lower_bound_only == 6


def test_report_window_mass_undefined_without_optimal_trials():
    cfg = small_config(solver=SolverSpec("greedy", restarts=5), trials=6)
    (summary,) = run_experiment(cfg).summaries
    window = [line for line in summary.to_text().splitlines() if "g(n) window" in line]
    assert window == ["  g(n) window [9, 10] mass undefined (no optimal trials)"]
    assert summary.to_dict()["window_mass"] == 0.0


# --- reporting ---------------------------------------------------------------


def _record(n, p, stream, size, optimal=True):
    return TrialRecord(n, p, stream, size, optimal, 0)


def test_report_single_bar():
    recs = [_record(10, 0.4, i, 5) for i in range(20)]
    rep = _summarize(10, 0.4, recs, 0.5)
    assert rep.histogram == {5: 20}
    assert rep.best_pair_mass == 1.0
    assert rep.best_pair in ((5, 6), (4, 5))
    assert "size   5" in rep.to_text()


def test_report_complete_graph_measures_two():
    g = complete_graph(5)
    res = max_induced_tree(g)
    assert res.size == 2
    recs = [_record(5, 0.9999, i, res.size) for i in range(10)]
    rep = _summarize(5, 0.9999, recs, 0.5)
    assert rep.best_pair_mass == 1.0
    assert rep.histogram == {2: 10}


def test_report_best_pair():
    recs = (
        [_record(10, 0.4, i, 6) for i in range(6)]
        + [_record(10, 0.4, 10 + i, 7) for i in range(10)]
        + [_record(10, 0.4, 30 + i, 8) for i in range(4)]
    )
    rep = _summarize(10, 0.4, recs, 0.5)
    assert rep.best_pair == (6, 7)
    assert rep.best_pair_mass == pytest.approx(16 / 20)
    assert rep.markov_tail  # E X_k lines for sizes above the histogram


def test_report_without_optimal_trials_has_no_best_pair():
    rep = _summarize(10, 0.4, [_record(10, 0.4, i, 6, optimal=False) for i in range(3)], 0.5)
    assert rep.histogram == {} and rep.lower_bound_only == 3
    assert rep.best_pair is None
    assert rep.best_pair_mass == 0.0
    assert "best consecutive pair" not in rep.to_text()


# --- persistence -------------------------------------------------------------


def test_csv_header_only_for_empty():
    buf = io.StringIO()
    export_csv([], buf)
    assert buf.getvalue() == "n,p,seed_stream,size,optimal,nodes,millis\n"


def test_csv_round_trip(tmp_path):
    recs = [
        TrialRecord(10, 0.4, 0, 5, True, 123),
        TrialRecord(10, 0.4, 1, 6, False, 456),
        TrialRecord(12, 0.25, 2, 7, True, 789),
    ]
    path = tmp_path / "r.csv"
    export_csv(recs, path)
    assert len(path.read_text().splitlines()) == 4
    back = import_csv(path)
    assert back == recs


EDGE_PS = (1e-05, 5e-324, 0.1 + 0.2, 1 / 3)

records = st.builds(
    TrialRecord,
    n=st.integers(0, 2**16),
    # the non-finite p take json's NaN and Infinity spellings
    p=st.sampled_from(EDGE_PS + (math.inf, math.nan)) | st.floats(0, 1),
    stream=st.sampled_from((0, 2**64 - 1)) | st.integers(0, 2**64 - 1),
    size=st.integers(0, 2**16),
    optimal=st.booleans(),
    nodes=st.integers(0, 10**12),
)
summaries = st.builds(
    BatchSummary,
    n=st.integers(1, 2**16),
    p=st.sampled_from(EDGE_PS) | st.floats(0, 1),
    histogram=st.dictionaries(st.integers(0, 200), st.integers(1, 10**6), max_size=12),
    lower_bound_only=st.integers(0, 10**6),
    window=st.none() | st.integers(0, 200).map(lambda g: (g, g + 1)),
    window_mass=st.floats(0, 1),
    near_tie=st.booleans(),
    k_hat=st.none() | st.floats(0, 1e6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=6).map(tuple), st.lists(summaries, max_size=3).map(tuple))
@example((), ())
@example(
    tuple(TrialRecord(16, p, 2**64 - 1, 7, False, 123) for p in EDGE_PS),
    (BatchSummary(16, 0.45, {6: 1, 10: 2}, 4, None, 0.0, False, None),),
)
def test_export_json_equals_the_json_encoder(recs, sums):
    result = ExperimentResult(recs, sums)
    payload = {
        "records": [dict(zip(CSV_FIELDS, _export_row(r))) for r in result.records],
        "summary": [s.to_dict() for s in result.summaries],
    }
    buf = io.StringIO()
    export_json(result, buf)
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(records.filter(lambda r: math.isfinite(r.p)), max_size=6))
def test_csv_round_trip_of_any_records(tmp_path, recs):
    # p's repr, stream 2^64 - 1 and 10^12 nodes all come back exactly
    path = tmp_path / "r.csv"
    export_csv(recs, path)
    assert import_csv(path) == recs


def test_canonical_export_byte_identical(tmp_path):
    cfg = small_config(trials=6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(run_experiment(cfg).records, p1)
    export_csv(run_experiment(cfg, workers=3).records, p2)
    assert p1.read_bytes() == p2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    export_json(run_experiment(cfg), j1)
    export_json(run_experiment(cfg, workers=2), j2)
    assert j1.read_bytes() == j2.read_bytes()
    # SHA-256 of records.csv and result.json for one exact and one greedy
    # config, recorded with the geometric-skip sampler
    greedy = small_config(solver=SolverSpec("greedy", restarts=5), trials=6, n_values=(10, 14))
    pinned = {
        cfg: (
            "d9ffa8757085b6534ddac58ae60b8dd3ee76b454fcaba4b7a0f24b3bc52f5703",
            "70c5ae939632414bcca4799c6665631450ddb9f9394c8617c9ffc2a9c1662253",
        ),
        greedy: (
            "d83c94b7b42689fc9d07faa83f01358f1ea6af8cfe804668401e0d67e8f294f5",
            "78d3130209ec6fba7c9c34a7c84789727088826ee88cf1610b98f5ba71479607",
        ),
    }
    for config, (csv_sha, json_sha) in pinned.items():
        result = run_experiment(config)
        export_csv(result.records, p1)
        export_json(result, j1)
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(j1.read_bytes()).hexdigest() == json_sha


# --- sampling oracle for the expectation formula -----------------------------


def test_monte_carlo_count_matches_direct_enumeration():
    n, p, k = 9, 0.35, 4
    trials = 40
    seed = Seed(512)
    mean, _ = monte_carlo_tree_count(n, p, k, trials, seed)
    direct = [
        count_induced_k_trees(sample_gnp(n, p, Seed(seed.master, t)), k)
        for t in range(trials)
    ]
    assert mean == pytest.approx(sum(direct) / trials)


def test_count_induced_k_trees_examples():
    assert count_induced_k_trees(path_graph(5), 3) == 3  # the 3 sub-paths
    assert count_induced_k_trees(complete_graph(5), 2) == 10  # every edge
    assert count_induced_k_trees(complete_graph(5), 3) == 0  # all triangles
