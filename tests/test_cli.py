import dataclasses
import json

import numpy as np
import pytest

from dcprox.trace import (Trace, _audit_summary, audit_trace, read_summary_csv,
                          read_trace_csv, write_trace_csv)
from dcprox.cli import main
from dcprox.datasets import load_dataset_json
from dcprox.logreg import build_logreg_problem, l1_proximable, l2_concave
from dcprox.poisson import build_poisson_problem
from dcprox.problem import DcProblem, least_squares_smooth, whole_space
from dcprox.solver import SolverConfig, StoppingRule, adca_run, spdcae_run


def _write_config(path, **over):
    cfg = {
        "problem": {"kind": "logreg-synthetic", "m": 40, "n": 8,
                    "lambda": 0.01, "data_seed": 0},
        "solvers": [{"name": "spdcae1"}],
        "tolerances": [1e-1, 1e-2],
        "seeds": [0],
        "max_iter": 300,
        "reference_iterations": 1500,
    }
    cfg.update(over)
    path.write_text(json.dumps(cfg))
    return path


def test_gen_writes_usable_logreg_dataset(tmp_path, capsys):
    out = tmp_path / "data.json"
    rc = main(["gen", "--kind", "logreg-synthetic", "--m", "20", "--n", "6",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    kind, data, truth, params = load_dataset_json(out)
    assert kind == "logreg"
    assert params["seed"] == 3
    prob = build_logreg_problem(data)
    assert np.isfinite(prob.f.eval(np.zeros(6)))


def test_gen_writes_usable_poisson_dataset(tmp_path):
    out = tmp_path / "counts.json"
    rc = main(["gen", "--kind", "poisson-synthetic", "--m", "10", "--n", "30",
               "--k-nonzeros", "4", "--amp-max", "100", "--out", str(out)])
    assert rc == 0
    kind, data, truth, params = load_dataset_json(out)
    assert kind == "poisson-cs"
    prob = build_poisson_problem(data)
    assert np.isfinite(prob.f.eval(np.ones(30)))


def test_ref_prints_value_and_writes_json(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "ref.json"
    rc = main(["ref", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    stored = json.loads(out.read_text())
    assert printed == stored["reference"]
    assert stored["stop_reason"] == "stalled"
    assert 0 < stored["iterations"] < 1500  # below the configured cap


def test_bench_writes_outputs_and_prints_rows(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "runs"
    rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 2  # one solver, two tolerances
    assert all("spdcae1" in l for l in lines)
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert read_trace_csv(out_dir / "trace_spdcae1_0.csv")


def test_bench_tol_and_seed_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "runs"
    rc = main(["bench", "--config", str(cfg), "--out", str(out_dir),
               "--tol", "0.5", "--tol", "0.05", "--seed", "2", "--seed", "7",
               "--max-iter", "150"])
    assert rc == 0
    rows = read_summary_csv(out_dir / "summary.csv")
    assert sorted({r.tol for r in rows}, reverse=True) == [0.5, 0.05]
    assert (out_dir / "trace_spdcae1_7.csv").exists()
    trace = read_trace_csv(out_dir / "trace_spdcae1_2.csv")
    assert trace[-1].k <= 150


def test_check_passes_on_real_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "runs"
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rc = main(["check", "--trace", str(out_dir / "trace_spdcae1_0.csv"),
               "--summary", str(out_dir / "summary.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iteration-counter-consecutive ok" in out
    assert "objective-finite ok" in out
    assert "step-size-consistent ok" in out
    assert "backtrack-count-nonnegative ok" in out
    assert "rejected-gate-zero-beta ok" in out
    assert "restart-zero-beta ok" in out
    assert "descent-slack-floor ok" in out
    assert "first-hit-monotone ok" in out


def _solver_traces():
    """An adca trace with rejected gates and an spdcae trace with restarts,
    relative errors and descent slacks, both on an l1 - l2 least-squares
    problem, so each optional column is missing in one and present in the
    other."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 40))
    y = rng.standard_normal(30)
    prob = DcProblem(f=least_squares_smooth(A, y), g=l1_proximable(0.5),
                     h=l2_concave(0.5), feasible_set=whole_space())
    L = float(np.linalg.eigvalsh(A.T @ A).max())
    stop = StoppingRule(max_iter=150)
    gated = adca_run(prob, L, 0, stop, x0=np.zeros(40)).trace
    restarted = spdcae_run(prob, SolverConfig(T2=10),
                           StoppingRule(max_iter=150, ref_value=1.0), x0=np.zeros(40),
                           diagnostics=True).trace
    return gated, restarted


def test_check_passes_on_solver_traces(tmp_path, capsys):
    gated, restarted = _solver_traces()
    assert any(rec.gate_passed is False for rec in gated)
    assert any(rec.restarted for rec in restarted[:-1])
    assert all(rec.descent_slack is not None for rec in restarted)
    paths = []
    for name, trace in (("gated", gated), ("restarted", restarted)):
        paths += ["--trace", str(tmp_path / f"{name}.csv")]
        write_trace_csv(paths[-1], trace)
    assert main(["check", *paths]) == 0


def test_trace_csv_from_trace_and_from_records_is_byte_identical(tmp_path):
    for i, trace in enumerate(_solver_traces()):
        columns, records = tmp_path / f"columns{i}.csv", tmp_path / f"records{i}.csv"
        write_trace_csv(columns, trace)
        write_trace_csv(records, Trace.from_records(list(trace)))
        assert columns.read_bytes() == records.read_bytes()
        # a trace read back, with per-row masks, writes the same bytes again
        again = tmp_path / f"again{i}.csv"
        write_trace_csv(again, read_trace_csv(columns))
        assert again.read_bytes() == columns.read_bytes()


# Doctored-trace case -> the audit it breaks; every audit has a case.
_DOCTORED = {"gate": "rejected-gate-zero-beta", "restart": "restart-zero-beta",
             "slack": "descent-slack-floor", "counter": "iteration-counter-consecutive",
             "counter-skip": "iteration-counter-consecutive",
             "objective": "objective-finite", "step": "step-size-consistent",
             "backtracks": "backtrack-count-nonnegative",
             "step-sign": "step-size-positive", "beta": "beta-nonnegative",
             "seconds-negative": "seconds-nondecreasing",
             "seconds-falling": "seconds-nondecreasing", "empty": "trace-nonempty"}


@pytest.mark.parametrize("audit", list(_DOCTORED))
def test_check_flags_doctored_trace(tmp_path, capsys, audit):
    gated, restarted = _solver_traces()
    # a Trace builds fresh records on access: edit a list of them instead
    trace = list(gated if audit == "gate" else restarted)
    if audit == "gate":
        i = next(i for i, rec in enumerate(trace) if rec.gate_passed is False)
        trace[i].beta_used = 0.5
        message = "rejected gate"
    elif audit == "restart":
        i = next(i for i, rec in enumerate(trace[:-1]) if rec.restarted)
        trace[i + 1].beta_used = 0.5
        message = "right after a restart"
    elif audit == "slack":
        trace[3].descent_slack = -1e-6 * max(1.0, abs(trace[2].F_value))
        message = "descent slack"
    elif audit == "counter":
        trace[7].k = trace[6].k
        message = "iteration counter not 1, 2, ..., n"
    elif audit == "counter-skip":
        for i, rec in enumerate(trace):  # 5, 8, 11, ...: increasing, not consecutive
            rec.k = 5 + 3 * i
        message = "iteration counter not 1, 2, ..., n"
    elif audit == "objective":
        trace[9].F_value = float("inf")
        message = "non-finite objective value"
    elif audit == "step":
        trace[11].t = 1.01 / trace[11].L_accepted
        message = "step size inconsistent"
    elif audit == "backtracks":
        trace[2].n_backtracks = -2
        message = "negative backtrack count"
    elif audit == "step-sign":
        # t L = 1 still holds
        trace[4].t = trace[4].L_accepted = -1.0
        message = "nonpositive step size or accepted L"
    elif audit == "beta":
        i = next(i for i in range(1, len(trace)) if not trace[i - 1].restarted)
        trace[i].beta_used = -2.0
        message = "negative extrapolation weight"
    elif audit == "seconds-negative":
        trace[0].wall_clock_seconds = -1.0
        message = "seconds negative or falling"
    elif audit == "seconds-falling":
        trace[5].wall_clock_seconds = trace[3].wall_clock_seconds
        message = "seconds negative or falling"
    else:
        trace = []
        message = "empty trace"
    path = tmp_path / "trace.csv"
    write_trace_csv(path, Trace.from_records(trace))
    assert main(["check", "--trace", str(path)]) == 3
    out, err = capsys.readouterr()
    assert message in err and err.count("check FAIL") == 1
    assert f"{_DOCTORED[audit]} ok" not in out


def test_every_audit_passes_real_traces_and_has_a_doctored_case():
    """An adca trace and a diagnostics spdcae trace pass every audit, and
    each audit is broken by a case of the doctored-trace test."""
    for trace in _solver_traces():
        results = audit_trace(trace)
        assert [(name, problem) for name, passed, problem in results if not passed] == []
        assert {name for name, _, _ in results} == set(_DOCTORED.values())


@pytest.mark.parametrize("column, cell", [("backtracks", "1.5"), ("k", "x"),
                                          ("k", str(2**63)),
                                          ("backtracks", str(-2**63 - 1)),
                                          ("restarted", "2"), ("F", "")])
def test_check_names_the_cell_it_cannot_read(tmp_path, capsys, column, cell):
    gated, _ = _solver_traces()
    path = tmp_path / "trace.csv"
    write_trace_csv(path, gated)
    lines = path.read_text().splitlines()
    row = lines[4].split(",")
    row[lines[0].split(",").index(column)] = cell
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"unreadable trace (trace line 5, column '{column}': cannot read {cell!r}" in err


def test_check_flags_corrupted_trace(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "runs"
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir)]) == 0
    path = out_dir / "trace_spdcae1_0.csv"
    rows = path.read_text().splitlines()
    parts = rows[1].split(",")
    parts[5] = "-2"  # backtracks column
    rows[1] = ",".join(parts)
    path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    rc = main(["check", "--trace", str(path)])
    assert rc == 3
    assert "negative backtrack count" in capsys.readouterr().err


def test_check_flags_nonmonotone_summary(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    path.write_text(
        "solver,tol,mean_iterations,mean_seconds,hit_rate,max_flag\n"
        "spdcae1,0.1,50.0,0.1,1.0,0\n"
        "spdcae1,0.01,30.0,0.05,1.0,0\n")
    rc = main(["check", "--summary", str(path)])
    assert rc == 3
    assert "first-hit" in capsys.readouterr().err


_SUMMARY = ("solver,tol,mean_iterations,mean_seconds,hit_rate,max_flag\n"
            "spdcae1,0.1,50.0,0.1,1.0,0\n"
            "spdcae1,0.01,80.0,0.2,0.5,1\n")
# Doctored summary rows -> (the audit they break, its message); every summary
# audit but first-hit-monotone has a case.  The rows are their solver's only
# ones, so first hits stay monotone.
_DOCTORED_SUMMARY = {
    "pdcae1,0.1,90.0,0.3,1.7,0": ("hit-rate-in-unit-interval", "hit rate outside"),
    "pdcae1,0.1,90.0,0.3,0.5,0": ("max-flag-matches-hit-rate", "max_flag disagrees"),
    "pdcae1,0.1,,,0.5,1": ("means-empty-iff-no-hits", "means empty on a row with hits"),
    "pdcae1,0.1,90.0,0.3,0.0,1": ("means-empty-iff-no-hits", "present on one without"),
    "pdcae1,0.1,90.0,-4.0,0.5,1": ("mean-seconds-nonnegative", "negative mean seconds"),
    "pdcae1,0.1,90.0,0.3,1.0,0\npdcae1,0.1,90.0,0.3,1.0,0":
        ("solver-tol-unique", "repeated (solver, tol) row"),
}


@pytest.mark.parametrize("row", list(_DOCTORED_SUMMARY),
                         ids=["hit-rate", "max-flag", "means-empty", "means-present",
                              "mean-seconds", "repeat"])
def test_check_flags_doctored_summary(tmp_path, capsys, row):
    audit, message = _DOCTORED_SUMMARY[row]
    path = tmp_path / "summary.csv"
    path.write_text(_SUMMARY + row + "\n")
    assert main(["check", "--summary", str(path)]) == 3
    out, err = capsys.readouterr()
    assert f"{message}" in err and "(pdcae1, tol 0.1)" in err
    assert err.count("check FAIL") == 1 and f"{audit} ok" not in out


def test_every_summary_audit_passes_real_outputs_and_has_a_doctored_case(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", max_iter=30, seeds=[0, 1],
                        solvers=[{"name": "spdcae1"}, {"name": "pdcae1"}])
    out_dir = tmp_path / "runs"
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir)]) == 0
    rows = read_summary_csv(out_dir / "summary.csv")
    assert {row.hit_rate for row in rows} >= {0.0, 1.0}  # hit and missed rows
    results = _audit_summary(rows)
    assert [(name, problem) for name, passed, problem in results if not passed] == []
    assert {name for name, _, _ in results} == \
        {audit for audit, _ in _DOCTORED_SUMMARY.values()} | {"first-hit-monotone"}


@pytest.mark.parametrize("column, cell", [("mean_iterations", "abc"), ("max_flag", "2"),
                                          ("tol", "")])
def test_check_names_the_summary_cell_it_cannot_read(tmp_path, capsys, column, cell):
    lines = _SUMMARY.splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index(column)] = cell
    lines[1] = ",".join(row)
    path = tmp_path / "summary.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", "--summary", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"unreadable summary (summary line 2, column '{column}': cannot read {cell!r}" in err


@pytest.mark.parametrize("flag, text", [
    ("--trace", ""), ("--summary", ""), ("--summary", "a,b\n1,2\n"),
    ("--summary", "solver,tol,mean_iterations,mean_seconds,hit_rate,max_flag\n"
                  "spdcae1,0.1\n"),
], ids=["empty-trace", "empty-summary", "foreign-summary-header",
        "short-summary-row"])
def test_check_reports_unreadable_csv(tmp_path, capsys, flag, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(["check", flag, str(path)]) == 3
    assert "unreadable" in capsys.readouterr().err


def _assert_one_line_error(capsys, rc, named):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


@pytest.mark.parametrize("command", ["ref", "bench"])
@pytest.mark.parametrize("over, named", [
    # a name keys its runs, trace file and summary rows
    (dict(solvers=[{"name": "spdcae1"}, {"name": "spdcae1", "eta": 5.0}]),
     "solver 'spdcae1' is listed more than once"),
    # a repeated seed would be solved and counted twice
    (dict(seeds=[0, 0, 1]), "seed 0 is listed more than once"),
    (dict(seeds=[-1]), "invalid value -1 of 'seeds'"),
    (dict(reference_seed=-3), "invalid value -3 of 'reference_seed'"),
], ids=["repeated-solver", "repeated-seed", "negative-seed",
        "negative-reference-seed"])
def test_bad_seed_or_repeat_exits_2_before_any_solve(tmp_path, capsys, no_solves,
                                                     command, over, named):
    cfg = _write_config(tmp_path / "cfg.json", **over)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    _assert_one_line_error(capsys, rc, named)
    assert not (tmp_path / "out").exists()


def test_repeated_seed_flag_exits_2(tmp_path, capsys, no_solves):
    cfg = _write_config(tmp_path / "cfg.json")
    rc = main(["bench", "--config", str(cfg), "--seed", "2", "--seed", "2"])
    _assert_one_line_error(capsys, rc, "seed 2 is listed more than once")


def test_bench_out_that_is_a_file_exits_2_before_any_solve(tmp_path, capsys,
                                                          no_solves):
    cfg = _write_config(tmp_path / "cfg.json")
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(["bench", "--config", str(cfg), "--out", str(taken)])
    _assert_one_line_error(capsys, rc, str(taken))


def test_gen_out_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    rc = main(["gen", "--kind", "logreg-synthetic", "--m", "5", "--n", "3",
               "--out", str(out)])
    _assert_one_line_error(capsys, rc, str(out))


def test_ref_out_in_missing_directory_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "missing" / "r.json"
    rc = main(["ref", "--config", str(cfg), "--out", str(out)])
    _assert_one_line_error(capsys, rc, str(out))


def test_ref_out_in_missing_directory_exits_2_before_the_solve(tmp_path, capsys,
                                                              no_solves):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "missing" / "r.json"
    rc = main(["ref", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert str(out) in captured.err


def test_bench_out_with_foreign_traces_exits_2_before_any_solve(tmp_path, capsys,
                                                               no_solves):
    # the config writes trace_spdcae1_0.csv only
    cfg = _write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "runs"
    out_dir.mkdir()
    names = ["notes.csv", "trace_pdcae1_0.csv", "trace_spdcae1_0.csv",
             "trace_spdcae1_1.csv"]
    for name in names:
        (out_dir / name).write_text("earlier run")
    rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
    _assert_one_line_error(capsys, rc, "trace_pdcae1_0.csv, trace_spdcae1_1.csv")
    # nothing is deleted or rewritten
    assert sorted(p.name for p in out_dir.iterdir()) == names
    assert all((out_dir / name).read_text() == "earlier run" for name in names)


def test_bench_rerun_into_the_same_directory_overwrites(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", seeds=[0, 1], tolerances=[1e-9])
    out_dir = tmp_path / "runs"
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir),
                 "--max-iter", "5"]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out_dir)]) == 0
    for seed in (0, 1):
        assert len(read_trace_csv(out_dir / f"trace_spdcae1_{seed}.csv")) > 5
    # the capped first run's summary is replaced too
    assert {r.max_flag for r in read_summary_csv(out_dir / "summary.csv")} == {False}


def test_bench_max_iter_zero_is_config_error(tmp_path, capsys, no_solves):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["bench", "--config", str(cfg), "--max-iter", "0"]) == 2
    assert "iteration budgets" in capsys.readouterr().err


def test_check_without_inputs_is_config_error(capsys):
    assert main(["check"]) == 2


def test_bad_json_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["ref", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["bench", "--config", str(tmp_path / "nope.json")]) == 2


def test_config_missing_keys_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"kind": "logreg-synthetic"}}))
    assert main(["ref", "--config", str(cfg)]) == 2
    assert "missing configuration keys" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ref", "bench"])
def test_unknown_solver_key_is_config_error(tmp_path, capsys, command):
    cfg = _write_config(tmp_path / "cfg.json",
                        solvers=[{"name": "spdcae1", "etaa": 3.0}])
    assert main([command, "--config", str(cfg)]) == 2
    assert "'etaa'" in capsys.readouterr().err


@pytest.mark.parametrize("over, named", [
    (dict(solvers=[{"name": "spdcae1", "T2": 3.7, "max_inner": True}]), "'T2'"),
    (dict(problem={"kind": "logreg-synthetic", "m": 40, "n": 8,
                   "lambda": float("nan")}), "'lambda'"),
    (dict(max_iter=5.5), "'max_iter'"),
    (dict(solvers=[{"name": "spdcae1", "metric": "bogus"}]), "'spdcae1'"),
    (dict(solvers=[{"name": "spdcae1", "eta": 0.5}]), "'spdcae1'"),
])
def test_bad_solver_or_number_is_config_error(tmp_path, capsys, over, named):
    # json.dumps writes NaN, which json.load reads back
    cfg = _write_config(tmp_path / "cfg.json", **over)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_FAMILY_PROBLEMS = {
    "logreg": ({"kind": "logreg-synthetic", "m": 40, "n": 8, "lambda": 0.01},
               ["--kind", "logreg-synthetic", "--m", "40", "--n", "8",
                "--lambda", "0.01"]),
    "poisson": ({"kind": "poisson-synthetic", "n": 25, "m": 10, "k_nonzeros": 3,
                 "amp_max": 100.0},
                ["--kind", "poisson-synthetic", "--m", "10", "--n", "25",
                 "--k-nonzeros", "3", "--amp-max", "100"]),
}


@pytest.mark.parametrize("source", ["synthetic", "dataset-json"])
@pytest.mark.parametrize("family, solvers, named", [
    ("logreg", [{"name": "spdcae1", "metric": "split-gradient"}], "'spdcae1'"),
    ("poisson", [{"name": "spdcae1"}, {"name": "pdcae"}], "'pdcae'"),
], ids=["logreg-split-gradient", "poisson-pdcae-without-L"])
def test_solver_the_family_cannot_run_is_config_error(tmp_path, capsys, no_solves,
                                                      source, family, solvers, named):
    problem, gen_args = _FAMILY_PROBLEMS[family]
    if source == "dataset-json":
        data = tmp_path / "data.json"
        assert main(["gen", *gen_args, "--out", str(data)]) == 0
        problem = {"kind": "dataset-json", "path": str(data)}
    cfg = _write_config(tmp_path / "cfg.json", problem=problem, solvers=solvers)
    capsys.readouterr()
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert named in out.err and out.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", ["logreg", "poisson"])
def test_gen_then_bench_matches_the_synthetic_config(tmp_path, capsys, family):
    # gen and the bench build a problem from one table, so a dataset file
    # written by gen benchmarks exactly as its synthetic config does
    problem, gen_args = _FAMILY_PROBLEMS[family]
    data = tmp_path / "data.json"
    assert main(["gen", *gen_args, "--out", str(data)]) == 0
    outputs = {}
    for source, pcfg in (("synthetic", problem),
                         ("dataset-json", {"kind": "dataset-json", "path": str(data)})):
        cfg = _write_config(tmp_path / f"{source}.json", problem=pcfg)
        out_dir = tmp_path / source
        assert main(["bench", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["check", "--trace", str(out_dir / "trace_spdcae1_0.csv"),
                     "--summary", str(out_dir / "summary.csv")]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        for row in summary["summary"]:
            row.pop("mean_seconds")
        trace = [dataclasses.replace(rec, wall_clock_seconds=0.0)
                 for rec in read_trace_csv(out_dir / "trace_spdcae1_0.csv")]
        outputs[source] = (summary, trace)
    assert outputs["dataset-json"] == outputs["synthetic"]
    assert any(row["mean_iterations"] is not None
               for row in outputs["synthetic"][0]["summary"])


def _assert_problem_error(capsys, rc, kind, out_path):
    out = capsys.readouterr()
    assert rc == 2
    assert f"problem kind '{kind}'" in out.err or f"for kind '{kind}'" in out.err
    assert out.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("args, kind", [
    (["--kind", "poisson-synthetic", "--m", "5", "--n", "10"], "poisson-synthetic"),
    (["--kind", "poisson-synthetic", "--m", "5", "--n", "30", "--bg", "nan"],
     "poisson-synthetic"),
    (["--kind", "logreg-synthetic", "--m", "5", "--n", "10", "--lambda", "-1"],
     "logreg-synthetic"),
    (["--kind", "poisson-synthetic", "--m", "5", "--n", "30", "--noise-rate", "0.3"],
     "poisson-synthetic"),
], ids=["k-nonzeros-above-n", "nan-background", "negative-lambda",
        "flag-of-the-other-kind"])
def test_gen_value_the_generator_rejects_exits_2(tmp_path, capsys, args, kind):
    out = tmp_path / "data.json"
    _assert_problem_error(capsys, main(["gen", *args, "--out", str(out)]), kind, out)


def _bad_problems(tmp_path):
    bad_label = tmp_path / "bad_label.svm"
    bad_label.write_text("+1 1:0.5\nx 2:1.0\n")
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    empty_svm = tmp_path / "empty.svm"
    empty_svm.write_text("")
    featureless = tmp_path / "featureless.svm"
    featureless.write_text("+1\n-1\n")
    dataset = {"kind": "logreg", "A": {"format": "dense", "values": [[1.0], [0.5]]},
               "labels": [1.0, -1.0], "lambda": 0.01, "truth": [0.0]}
    malformed = {}
    for case, change in (("list-dataset-json", None),
                         ("scalar-matrix-dataset-json", {"A": 5}),
                         ("scalar-labels-dataset-json", {"labels": 1.0})):
        path = malformed[case] = tmp_path / f"{case}.json"
        path.write_text(json.dumps([] if change is None else dict(dataset, **change)))
    return {
        "poisson-n-below-k-nonzeros": {"kind": "poisson-synthetic", "n": 10, "m": 5},
        "negative-lambda": {"kind": "logreg-synthetic", "m": 40, "n": 8,
                            "lambda": -1},
        "missing-libsvm-file": {"kind": "logreg-file",
                                "path": str(tmp_path / "nope.svm")},
        "bad-libsvm-label": {"kind": "logreg-file", "path": str(bad_label)},
        "empty-libsvm-file": {"kind": "logreg-file", "path": str(empty_svm)},
        "featureless-libsvm-file": {"kind": "logreg-file", "path": str(featureless)},
        "empty-dataset-json": {"kind": "dataset-json", "path": str(empty)},
        **{case: {"kind": "dataset-json", "path": str(path)}
           for case, path in malformed.items()},
    }


@pytest.mark.parametrize("command", ["bench", "ref"])
@pytest.mark.parametrize("case", ["poisson-n-below-k-nonzeros", "negative-lambda",
                                  "missing-libsvm-file", "bad-libsvm-label",
                                  "empty-libsvm-file", "featureless-libsvm-file",
                                  "empty-dataset-json", "list-dataset-json",
                                  "scalar-matrix-dataset-json",
                                  "scalar-labels-dataset-json"])
def test_problem_the_builder_rejects_exits_2(tmp_path, capsys, no_solves, command,
                                             case):
    problem = _bad_problems(tmp_path)[case]
    cfg = _write_config(tmp_path / "cfg.json", problem=problem)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    _assert_problem_error(capsys, rc, problem["kind"], out)


def test_unknown_subcommand_exits_2(capsys):
    assert main(["tune"]) == 2


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("command", ["bench", "ref"])
@pytest.mark.parametrize("problem", [
    {"kind": "logreg-synthetic", "m": 40, "n": 8},
    {"kind": "poisson-synthetic", "m": 12, "n": 30, "k_nonzeros": 3},
], ids=["logreg", "poisson"])
def test_infeasible_start_exits_2_before_any_solve(tmp_path, capsys, no_solves, command,
                                                   problem):
    # lambda ||x0||_1 overflows, so g(x0) = inf at every seed's start
    cfg = _write_config(tmp_path / "cfg.json", problem={**problem, "lambda": 1e308},
                        seeds=[3, 1], reference_seed=3)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    _assert_one_line_error(capsys, rc, f"problem kind '{problem['kind']}', seed 3, "
                                       "lambda 1e+308: start point is infeasible")
    assert not out.exists()


def _assert_solver_failure(capsys, rc, named):
    out = capsys.readouterr()
    assert rc == 3
    assert out.err.startswith("solver failure: ") and out.err.count("\n") == 1, out.err
    assert named in out.err


def test_line_search_failure_reports_the_last_L_tried(tmp_path, capsys):
    # one trial per iteration: k = 2 deflates 0.1 to 0.05, which fails, and
    # no trial ever uses the inflated 0.1
    cfg = _write_config(tmp_path / "cfg.json",
                        problem={"kind": "logreg-synthetic", "m": 200, "n": 30},
                        solvers=[{"name": "pdcae1", "max_inner": 1}],
                        reference_solver="pdcae")
    rc = main(["bench", "--config", str(cfg)])
    _assert_solver_failure(capsys, rc, "within 1 trials at iteration 2 "
                                       "(last L tried = 5.000e-02)")


def test_nonfinite_extrapolation_weight_is_a_solver_failure(tmp_path, capsys):
    # eta = 1e308 takes a trial step of 2e-308 after a step of 1, a step
    # ratio of 5e307 that overflows theta; the search stops there
    cfg = _write_config(tmp_path / "cfg.json",
                        problem={"kind": "logreg-synthetic", "m": 40, "n": 8},
                        solvers=[{"name": "spdcae1", "eta": 1e308}],
                        reference_solver="pdcae")
    rc = main(["bench", "--config", str(cfg)])
    _assert_solver_failure(capsys, rc, "non-finite extrapolation weight (theta = inf)")
