import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import indtrees
from indtrees import cli, counting, experiments
from indtrees.cli import main
from indtrees.experiments import THETA_UPPER
from indtrees.graphs import read_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_to_file_and_stdout(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, "sample", "--n", "10", "--p", "0.5", "--seed", "3", "--out", str(path)
    )
    assert code == 0
    g = read_graph(path)
    assert g.n == 10
    code, out, _ = run_cli(capsys, "sample", "--n", "10", "--p", "0.5", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == f"10 {g.edge_count}"
    assert len(lines) == 1 + g.edge_count
    assert out.encode("ascii") == path.read_bytes()


def test_solve_json_output(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_cli(capsys, "sample", "--n", "12", "--p", "0.4", "--seed", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "solve", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"size", "witness", "optimal", "nodes"}
    assert doc["optimal"] is True
    assert len(doc["witness"]) == doc["size"]


def test_solve_greedy(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_cli(capsys, "sample", "--n", "12", "--p", "0.4", "--seed", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "solve", "--in", str(path), "--greedy", "--restarts", "10", "--seed", "4"
    )
    doc = json.loads(out)
    assert code == 0 and doc["optimal"] is False and doc["size"] >= 1


@pytest.mark.parametrize(
    "n, argv, stdout",
    [
        (40, (), '{"size": 17, "witness": [0, 2, 3, 5, 6, 7, 10, 13, 14, 15, 17, 18, 23, 25, '
                 '29, 32, 34], "optimal": true, "nodes": 179231}\n'),
        (40, ("--greedy", "--restarts", "5", "--seed", "7"),
         '{"size": 13, "witness": [0, 6, 7, 9, 15, 17, 18, 26, 28, 29, 30, 33, 36], '
         '"optimal": false, "nodes": 0}\n'),
        (0, (), '{"size": 0, "witness": [], "optimal": true, "nodes": 0}\n'),
        (0, ("--greedy",), '{"size": 0, "witness": [], "optimal": false, "nodes": 0}\n'),
    ],
    ids=["exact-n40", "greedy-n40", "exact-n0", "greedy-n0"],
)
def test_solve_stdout_pinned(capsys, tmp_path, n, argv, stdout):
    path = tmp_path / "g.txt"
    run_cli(capsys, "sample", "--n", str(n), "--p", "0.3", "--seed", "1", "--out", str(path))
    code, out, err = run_cli(capsys, "solve", "--in", str(path), *argv)
    assert (code, out, err) == (0, stdout, "")


def test_oracle_overlap_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "overlap", "--k", "4", "--l", "3")
    assert code == 0
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["k"] == 4 and doc["l"] == 3
    assert sum(row["N"] for row in doc["rows"]) == 16**2
    assert all(row["ok"] for row in doc["rows"])


def test_oracle_overlap_stdout_pinned(capsys):
    # SHA-256 of the stdout of every cell 2 <= l <= k <= 6, recorded when the
    # table was counted separately from the bound report
    out = ""
    for k in range(2, 7):
        for l in range(2, k + 1):
            code, cell_out, _ = run_cli(capsys, "oracle", "overlap", "--k", str(k), "--l", str(l))
            assert code == 0
            out += cell_out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc0cb8c2e135d00ab12cf792d1f11707acbff5f7e3fa17b79f9aefe67bce1a9f"
    )


def test_oracle_overlap_sum_line_states_cayley_square(capsys, monkeypatch):
    # the right-hand side is (k^(k-2))^2 = 256 at k = 4, whatever the table sums to
    count = counting.count_overlap_pairs

    def doubled(k, l):
        table = count(k, l)
        return dataclasses.replace(table, pairs_total=tuple(2 * n for n in table.pairs_total))

    monkeypatch.setattr(counting, "count_overlap_pairs", doubled)
    code, out, _ = run_cli(capsys, "oracle", "overlap", "--k", "4", "--l", "3")
    assert code == 0
    assert "sum            512  (= (k^(k-2))^2 = 256)" in out.splitlines()


def test_oracle_overlap_counts_table_once(capsys, monkeypatch):
    calls = []
    count = counting.count_overlap_pairs

    def counted(k, l):
        calls.append((k, l))
        return count(k, l)

    monkeypatch.setattr(counting, "count_overlap_pairs", counted)
    monkeypatch.setattr(cli, "count_overlap_pairs", counted, raising=False)
    code, _, _ = run_cli(capsys, "oracle", "overlap", "--k", "5", "--l", "3")
    assert code == 0 and calls == [(5, 3)]


def test_oracle_forests(capsys):
    code, out, _ = run_cli(capsys, "oracle", "forests", "--l", "4")
    doc = json.loads(out.strip().splitlines()[-1])
    assert [row["phi"] for row in doc["rows"]] == [1, 6, 15, 16]


def test_oracle_forests_past_enumeration(capsys):
    # the table has no size limit: every graph on [12] with no cycle
    code, out, err = run_cli(capsys, "oracle", "forests", "--l", "12")
    doc = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and err == ""
    assert sum(row["phi"] for row in doc["rows"]) == 123373203208
    assert doc["rows"][-1] == {"l": 12, "r": 11, "phi": 12**10}


def test_oracle_validate(capsys):
    code, out, _ = run_cli(capsys, "oracle", "validate", "--kmax", "4")
    assert code == 0
    assert "VIOLATION" not in out


def test_moments_profile(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "profile", "--n", "100000", "--p", "0.02"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 100000
    assert doc["g"] >= 2


def test_moments_varbound(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "varbound", "--n", "100000", "--p", "0.02"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "part,ell,log_summand"
    summary = json.loads(lines[-1])
    assert "part_sums" in summary and "total" in summary


# SHA-256 of the stdout of `moments varbound` at a sparse and a dense cell:
# every entry, the part sums and the total, as the scalar loop printed them
VARBOUND_STDOUT = [
    ("100000000", "0.01", "abdda6b3cde58a6cbc493c30af1f6533ee349ef6d4bbad97d9b898c702c6a358"),
    ("100000", "0.2", "cedcf2eecc432717ccbf749dce2363e2b527944a7773196c5f8a745b0b6c1e9d"),
]


@pytest.mark.parametrize("n, p, sha", VARBOUND_STDOUT, ids=["sparse-1e8", "dense-1e5"])
def test_moments_varbound_stdout_pinned(capsys, n, p, sha):
    code, out, _ = run_cli(capsys, "moments", "varbound", "--n", n, "--p", p)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_experiment_run_exit_codes(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    cfg.write_text(
        json.dumps(
            {
                "n_values": [10],
                "p_rule": {"kind": "constant", "value": 0.4},
                "trials": 4,
                "delta": 0.5,
                "solver": {"kind": "exact"},
                "master_seed": 5,
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "result.json").exists()

    # config error -> 2
    cfg.write_text(json.dumps({"n_values": [10]}))
    code, _, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2

    # unreadable config -> 3
    code, _, err = run_cli(
        capsys,
        "experiment",
        "run",
        "--config",
        str(tmp_path / "missing.json"),
        "--out",
        str(out_dir),
    )
    assert code == 3


def assert_one_line_error(err, *fragments):
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--budget", "0"), "budget must be >= 1, got 0"),
        (("--greedy", "--restarts", "-4"), "restarts must be >= 1, got -4"),
        (("--greedy", "--restarts", "0"), "restarts must be >= 1, got 0"),
    ],
)
def test_solve_rejects_bad_budget_and_restarts(capsys, tmp_path, argv, message):
    path = tmp_path / "g.txt"
    run_cli(capsys, "sample", "--n", "12", "--p", "0.4", "--seed", "1", "--out", str(path))
    code, out, err = run_cli(capsys, "solve", "--in", str(path), *argv)
    assert code == 2 and out == ""
    assert_one_line_error(err, "indtrees solve:", message)


def test_solve_missing_file_exits_3(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(capsys, "solve", "--in", str(missing))
    assert code == 3 and out == ""
    assert_one_line_error(err, "indtrees solve:", str(missing))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"3 1\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
        (b"3 1\n0 1\n\xe9\n", "'ascii' codec can't decode byte 0xe9"),
        (b"3 2\n0 1\n", "header claims 2 edges, found 1"),
    ],
    ids=["malformed_line", "non_ascii", "header_count"],
)
def test_solve_bad_graph_file_exits_2(capsys, tmp_path, data, message):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "solve", "--in", str(path))
    assert code == 2 and out == ""
    assert_one_line_error(err, "indtrees solve:", message)


def test_solve_directory_exits_3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "solve", "--in", str(tmp_path))
    assert code == 3 and out == ""
    assert_one_line_error(err, "indtrees solve:", str(tmp_path))


def test_solve_reads_a_pipe(capsys, tmp_path):
    # sample | solve --in /dev/stdin: the graph file is read from a non-seekable pipe
    path = tmp_path / "g.txt"
    run_cli(capsys, "sample", "--n", "14", "--p", "0.4", "--seed", "2", "--out", str(path))
    code, file_out, _ = run_cli(capsys, "solve", "--in", str(path))
    assert code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(indtrees.__file__).parents[1]))
    cmd = [sys.executable, "-m", "indtrees.cli"]
    sample = subprocess.Popen(
        [*cmd, "sample", "--n", "14", "--p", "0.4", "--seed", "2"], stdout=subprocess.PIPE, env=env
    )
    solve = subprocess.run(
        [*cmd, "solve", "--in", "/dev/stdin"], stdin=sample.stdout, capture_output=True,
        text=True, env=env, timeout=120,
    )
    sample.stdout.close()
    assert sample.wait(timeout=120) == 0
    assert solve.returncode == 0, solve.stderr
    assert solve.stdout == file_out


def test_sample_bad_p_exits_2(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "10", "--p", "1.5", "--seed", "1")
    assert code == 2 and out == ""
    assert_one_line_error(err, "indtrees sample:", "1.5")


def test_moments_profile_no_bracket_exits_2(capsys):
    code, out, err = run_cli(capsys, "moments", "profile", "--n", "100", "--p", ".001")
    assert code == 2 and out == ""
    assert_one_line_error(err, "indtrees moments:", "k_star")


def test_moments_profile_beyond_float_resolution_exits_2(capsys):
    n = 10**107
    p = n ** -THETA_UPPER
    code, out, err = run_cli(capsys, "moments", "profile", "--n", str(n), "--p", repr(p))
    assert code == 2 and out == ""
    assert_one_line_error(err, "indtrees moments:", "beyond float64 resolution")


CELL_1E8 = ("--n", "100000000", "--p", "0.01")


@pytest.mark.parametrize(
    "argv, fragments",
    [
        (("varbound", *CELL_1E8, "--w-exponent", "nan"), ("w must be finite", "nan")),
        (("varbound", *CELL_1E8, "--w-exponent", "inf"), ("w must be finite", "inf")),
        (("varbound", *CELL_1E8, "--w-exponent", "1000"), ("overflows", "1000")),
        (("varbound", "--n", "0", "--p", "0.5", "--k", "2"), ("n must be in [2,", "got 0")),
        (("profile", "--n", "1" + "0" * 310, "--p", "0.01"), ("n must be in [2,", "0" * 310)),
        (("profile", "--n", "0", "--p", "0.01"), ("n must be in [2,", "got 0")),
        (("profile", "--n", "1", "--p", "0.5"), ("n must be in [2,", "got 1")),
        (("profile", "--n", "100000", "--p", "0.02", "--delta", "nan"), ("delta must be finite", "nan")),
        (("profile", "--n", "100000", "--p", "0.02", "--delta", "inf"), ("delta must be finite", "inf")),
    ],
    ids=["w-nan", "w-inf", "w-overflow", "varbound-n0", "n-1e310", "n0", "n1", "delta-nan", "delta-inf"],
)
def test_moments_bad_inputs_exit_2(capsys, argv, fragments):
    code, out, err = run_cli(capsys, "moments", *argv)
    assert code == 2 and out == ""
    assert_one_line_error(err, "indtrees moments:", *fragments)


def test_oracle_validate_runs_forest_checks(capsys):
    code, out, _ = run_cli(capsys, "oracle", "validate", "--kmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("forests")] == [
        f"forests l={l}: ok" for l in range(1, 8)
    ]
    assert [line for line in lines if line.startswith("rooted")] == [
        f"rooted forests n={n}: ok" for n in range(2, 7)
    ]


def test_oracle_validate_forest_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_forests_enumerated", lambda l, r: -1)
    code, out, _ = run_cli(capsys, "oracle", "validate", "--kmax", "2")
    assert code == 1
    assert "forests l=1: MISMATCH" in out


def test_oracle_validate_extension_mismatch_exits_1(capsys, monkeypatch):
    masks = counting._restriction_masks
    monkeypatch.setattr(counting, "_restriction_masks", lambda k, l: {**masks(k, l), 0: -1})
    code, out, _ = run_cli(capsys, "oracle", "validate", "--kmax", "3")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("k=")] == [
        f"k={k} l={l}: ok, EXTENSION MISMATCH" for k, l in ((2, 2), (3, 2), (3, 3))
    ]


def test_oracle_validate_stdout_pinned(capsys):
    # SHA-256 of `oracle validate --kmax 6`, recorded while t(F) was checked
    # one forest at a time through count_trees_extending_forest
    code, out, _ = run_cli(capsys, "oracle", "validate", "--kmax", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "96dc43f008db79b00c5e77b3172172c767951d1703c889c368e65969d594776e"
    )


def test_oracle_range_errors_leave_stdout_empty(capsys):
    for kmax in ("9", "1", "0", "-3"):
        code, out, err = run_cli(capsys, "oracle", "validate", "--kmax", kmax)
        assert code == 2 and out == ""
        assert_one_line_error(err, "indtrees oracle:", "kmax")
    for l in ("0", "-1"):
        code, out, err = run_cli(capsys, "oracle", "forests", "--l", l)
        assert code == 2 and out == ""
        assert_one_line_error(err, "indtrees oracle:", "l must be in")


def _write_config(path, **fields):
    cfg = {
        "n_values": [10],
        "p_rule": {"kind": "constant", "value": 0.4},
        "trials": 4,
        "solver": {"kind": "exact"},
        "master_seed": 5,
    }
    cfg.update(fields)
    path.write_text(json.dumps(cfg))


def test_experiment_run_rejects_repeated_n(capsys, tmp_path):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg, n_values=[8, 8], trials=3)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", "n_values must not repeat an n, got [8, 8]")
    _write_config(cfg, n_values=[8, 9], trials=3)
    code, out, _ = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("n=")] == [
        "n=8 p=0.4", "n=9 p=0.4"
    ]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"solver": {"kind": "exact", "budget": 0}}, "budget and restarts must be >= 1"),
        ({"solver": {"kind": "greedy", "restarts": -4}}, "budget and restarts must be >= 1"),
        ({"workers": -2}, "workers must be >= 1, got -2"),
        ({"master_seed": -1}, "master_seed must be in [0, 2^64), got -1"),
        ({"master_seed": 2**64}, f"master_seed must be in [0, 2^64), got {2**64}"),
    ],
)
def test_experiment_run_rejects_bad_solver_and_worker_settings(capsys, tmp_path, fields, message):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg, **fields)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", message)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_values": "16"}, "n_values must be a list, got '16'"),
        ({"n_values": [10.7]}, "n_values entry must be an integer, got 10.7"),
        ({"trials": 2.9}, "trials must be an integer, got 2.9"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ({"workers": "2"}, "workers must be an integer, got '2'"),
        ({"solver": {"kind": "exact", "budget": 1e6}}, "solver.budget must be an integer, got 1000000.0"),
        ({"solver": {"kind": "greedy", "restarts": False}}, "solver.restarts must be an integer, got False"),
    ],
    ids=["n_values-str", "n-float", "trials-float", "trials-bool", "seed-float", "workers-str",
         "budget-float", "restarts-bool"],
)
def test_experiment_run_rejects_non_integer_settings(capsys, tmp_path, fields, message):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg, **fields)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", message)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"delta": "0.5"}, "delta must be a number, got '0.5'"),
        ({"p_rule": {"kind": "constant", "value": "0.4"}},
         "p_rule.value must be a number, got '0.4'"),
        ({"p_rule": {"kind": "power", "value": True}}, "p_rule.value must be a number, got True"),
        ({"delta": float("nan")}, "delta must be finite, got nan"),
        ({"delta": float("inf")}, "delta must be finite, got inf"),
        ({"p_rule": {"kind": "constant", "value": 0.05}, "delta": float("nan")},
         "delta must be finite, got nan"),
    ],
    ids=["delta-str", "value-str", "value-bool", "delta-nan", "delta-inf", "delta-nan-sparse"],
)
def test_experiment_run_rejects_bad_numbers(capsys, tmp_path, fields, message):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg, **fields)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", message)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"solver": 5}, "solver must be a JSON object, got 5"),
        ({"solver": ["exact"]}, "solver must be a JSON object, got ['exact']"),
        ({"solver": None}, "solver must be a JSON object, got None"),
        ({"p_rule": "constant"}, "p_rule must be a JSON object, got 'constant'"),
        ({"p_rule": [0.4]}, "p_rule must be a JSON object, got [0.4]"),
        ({"delt": 9}, "unknown key 'delt' in experiment config"),
        ({"p_rule": {"kind": "constant", "value": 0.4, "vlaue": 0.3}},
         "unknown key 'vlaue' in p_rule"),
        ({"solver": {"kind": "greedy", "restart": 1}}, "unknown key 'restart' in solver"),
    ],
    ids=["solver-int", "solver-list", "solver-null", "p_rule-str", "p_rule-list",
         "unknown-top-level-key", "unknown-p_rule-key", "unknown-solver-key"],
)
def test_experiment_run_rejects_non_object_sections(capsys, tmp_path, fields, message):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg, **fields)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", message)


@pytest.mark.parametrize(
    "section, key, message",
    [
        (None, "n_values", "n_values is missing from experiment config"),
        (None, "p_rule", "p_rule is missing from experiment config"),
        (None, "trials", "trials is missing from experiment config"),
        (None, "master_seed", "master_seed is missing from experiment config"),
        ("p_rule", "kind", "kind is missing from p_rule"),
        ("p_rule", "value", "value is missing from p_rule"),
    ],
)
def test_experiment_run_names_missing_fields(capsys, tmp_path, section, key, message):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg)
    doc = json.loads(cfg.read_text())
    del (doc[section] if section else doc)[key]
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", message)


@pytest.mark.parametrize("text", ["[]", "5", '"n_values"', "null"])
def test_experiment_run_rejects_non_object_config(capsys, tmp_path, text):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(text)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    message = f"experiment config must be a JSON object, got {json.loads(text)!r}"
    assert_one_line_error(err, "config error:", message)


@pytest.fixture
def sample_calls(monkeypatch):
    """The number of graphs experiment trials have sampled, as a one-item list."""
    calls = [0]
    real = experiments.sample_gnp

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(experiments, "sample_gnp", counted)
    return calls


def test_experiment_run_rejects_n_past_vertex_ceiling(capsys, tmp_path, sample_calls):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg, n_values=[8, 70000])
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists() and sample_calls == [0]
    assert_one_line_error(err, "config error:", "vertex count 70000 outside [0, 65536]")


def test_experiment_run_malformed_json_exits_2_missing_config_3(capsys, tmp_path):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg)
    cfg.write_text(cfg.read_text()[:-7])
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", "line 1 column")
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(tmp_path / "missing.json"),
        "--out", str(out_dir),
    )
    assert code == 3 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "missing.json")


@pytest.mark.parametrize("below", [False, True], ids=["out-is-file", "out-under-file"])
def test_experiment_run_rejects_file_out_before_any_trial(capsys, tmp_path, sample_calls, below):
    cfg, taken = tmp_path / "cfg.json", tmp_path / "taken"
    _write_config(cfg)
    taken.write_text("keep")
    out_dir = taken / "out" if below else taken
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 3 and out == "" and sample_calls == [0]
    assert_one_line_error(err, f"--out: {taken} is not a directory")
    assert taken.read_text() == "keep"


def test_experiment_run_rejects_workers_flag_below_1(capsys, tmp_path):
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    _write_config(cfg)
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--workers", "0", "--out", str(out_dir)
    )
    assert code == 2 and out == "" and not out_dir.exists()
    assert_one_line_error(err, "config error:", "workers must be >= 1, got 0")


def test_experiment_run_prints_concentration_report(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, n_values=[10, 12])
    code, out, _ = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 0
    assert out.count("best consecutive pair") == 2
    assert out.count("g(n) window [") == 2 and " mass " in out
    _write_config(cfg, solver={"kind": "greedy", "restarts": 3})
    code, out, _ = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 0
    assert "4 trials gave lower bounds only" in out


def test_experiment_run_reciprocal_log_at_n1_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, n_values=[1], p_rule={"kind": "reciprocal_log", "value": 0.5})
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2 and out == ""
    assert_one_line_error(err, "config error:", "n >= 2")


def test_public_api_and_help(capsys):
    for name in indtrees.__all__:
        assert getattr(indtrees, name) is not None
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    top_help = capsys.readouterr().out
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"sample", "solve", "oracle", "moments", "experiment"}
    for name, sub in commands.choices.items():
        assert name in top_help
        nested = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
        for action in nested:
            with pytest.raises(SystemExit):
                main([name, "--help"])
            sub_help = capsys.readouterr().out
            for leaf in action.choices:
                assert leaf in sub_help


def test_experiment_run_warns_once(tmp_path):
    # a fresh interpreter, so stderr shows warnings as a user sees them
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, trials=2, p_rule={"kind": "power", "value": 0.5})
    env = dict(os.environ, PYTHONPATH=str(Path(indtrees.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "indtrees.cli", "experiment", "run",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("outside the diagnostic range") == 1
