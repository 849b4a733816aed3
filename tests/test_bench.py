import dataclasses
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcprox import bench
from dcprox.bench import (_REFERENCE_STALL_ITERS, BenchResult, ConfigError,
                          RunConfig, _build_base, _first_hits, _instance,
                          _profile, run_matrix, solve_reference)
from dcprox.datasets import save_dataset_json
from dcprox.solver import StoppingRule, spdcae_run
from dcprox.trace import (Trace, TraceRecord, read_summary_csv, read_trace_csv,
                          write_trace_csv)


def _logreg_cfg(**over):
    d = {
        "problem": {"kind": "logreg-synthetic", "m": 40, "n": 8,
                    "lambda": 0.01, "data_seed": 0},
        "solvers": [{"name": "spdcae1"}, {"name": "pdcae1"}],
        "tolerances": [1e-1, 1e-2],
        "seeds": [0, 1],
        "max_iter": 400,
        "reference_iterations": 2000,
    }
    d.update(over)
    return d


def _poisson_cfg(**over):
    d = {
        "problem": {"kind": "poisson-synthetic", "n": 25, "m": 10,
                    "k_nonzeros": 3, "amp_max": 100.0, "data_seed": 1},
        "solvers": [{"name": "spdcae1"}],
        "tolerances": [1e-1],
        "seeds": [0, 1],
        "max_iter": 300,
        "reference_iterations": 1500,
    }
    d.update(over)
    return d


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        RunConfig.from_dict(_logreg_cfg(solver="spdcae1"))


def test_config_reports_missing_keys():
    with pytest.raises(ConfigError, match="missing configuration keys"):
        RunConfig.from_dict({"problem": {"kind": "logreg-synthetic"}})


def test_config_rejects_unknown_solver():
    with pytest.raises(ConfigError, match="unknown solver"):
        RunConfig.from_dict(_logreg_cfg(solvers=[{"name": "gradient"}]))


@pytest.mark.parametrize("over, key", [
    (dict(problem={"kind": "logreg-synthetic", "m": 40, "n": 8, "lamda": 5.0}),
     "lamda"),
    (dict(problem={"kind": "poisson-synthetic", "n": 25, "m": 10, "k": 3}), "k"),
    (dict(problem={"kind": "dataset-json", "path": "d.json", "lambda": 1.0}),
     "lambda"),
    (dict(solvers=[{"name": "spdcae1", "etaa": 3.0, "q": 7}]), "etaa"),
    (dict(solvers=[{"name": "adca", "T1": 2}]), "T1"),
    (dict(solvers=[{"name": "pdcae", "q": 3}]), "q"),
    (dict(solvers=[{"name": "pdcae1", "legacy_restart_divisibility": False}]),
     "legacy_restart_divisibility"),
])
def test_config_rejects_unknown_problem_and_solver_keys(over, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        RunConfig.from_dict(_logreg_cfg(**over))


def test_config_accepts_every_documented_key():
    problem = {"kind": "poisson-synthetic", "n": 25, "m": 10, "k_nonzeros": 3,
               "amp_max": 100.0, "p": 0.9, "bg": 1e-10, "data_seed": 1,
               "lambda": 1e-3}
    solvers = [{"name": "spdcae0", "eta": 1.2, "T1": 5, "rho": 0.5,
                "L_floor": 1e-10, "L_init": 0.1, "max_inner": 200,
                "deflate_when_divisible": False, "beta_family": "plain",
                "delta": 0.99, "T2": 200, "metric": "identity", "epsilon": 1e-6, "clamp_numerator": 1e13},
               {"name": "pdcae", "L": 50.0, "beta_family": "plain", "T2": 10},
               {"name": "adca", "L": 50.0, "q": 2}]
    RunConfig.from_dict(_poisson_cfg(problem=problem, solvers=solvers))


def test_config_rejects_unparsable_and_missing_problem_values():
    with pytest.raises(ConfigError, match="invalid value 'forty' of 'm'"):
        RunConfig.from_dict(_logreg_cfg(problem={"kind": "logreg-synthetic",
                                                 "m": "forty", "n": 8}))
    with pytest.raises(ConfigError, match="missing 'n'"):
        RunConfig.from_dict(_logreg_cfg(problem={"kind": "logreg-synthetic",
                                                 "m": 40}))
    with pytest.raises(ConfigError, match="unknown problem kind"):
        RunConfig.from_dict(_logreg_cfg(problem={"kind": "svm"}))
    # flags take JSON true/false only: "false" or "no" must not switch them on
    for value in ("false", "no", "true", 0, 1, None):
        with pytest.raises(ConfigError,
                           match="invalid value .* of 'deflate_when_divisible'"):
            RunConfig.from_dict(_logreg_cfg(solvers=[{
                "name": "spdcae1", "deflate_when_divisible": value}]))


@pytest.mark.parametrize("over, key", [
    (dict(solvers=[{"name": "spdcae1", "T2": 3.7}]), "T2"),
    (dict(solvers=[{"name": "spdcae1", "max_inner": True}]), "max_inner"),
    (dict(solvers=[{"name": "spdcae1", "eta": "nan"}]), "eta"),
    (dict(solvers=[{"name": "spdcae1", "rho": float("nan")}]), "rho"),
    (dict(solvers=[{"name": "adca", "L": float("inf")}]), "L"),
    (dict(solvers=[{"name": "adca", "q": 2.0}]), "q"),
    (dict(problem={"kind": "logreg-synthetic", "m": 40.9, "n": 8}), "m"),
    (dict(problem={"kind": "logreg-synthetic", "m": 40, "n": 8,
                   "lambda": float("nan")}), "lambda"),
    (dict(problem={"kind": "logreg-synthetic", "m": 40, "n": 8,
                   "noise_rate": False}), "noise_rate"),
    (dict(max_iter=5.5), "max_iter"),
    (dict(reference_iterations=True), "reference_iterations"),
    (dict(reference_seed="0"), "reference_seed"),
    (dict(seeds=[0, 1.5]), "seeds"),
    (dict(tolerances=[float("nan")]), "tolerances"),
])
def test_config_rejects_inexact_numbers(over, key):
    # no truncation, no coercion of flags or strings, no NaN
    with pytest.raises(ConfigError, match=f"invalid value .* of '{key}'"):
        RunConfig.from_dict(_logreg_cfg(**over))


@pytest.mark.parametrize("solver, message", [
    ({"name": "spdcae1", "metric": "bogus"}, "unknown metric"),
    ({"name": "pdcae0", "beta_family": "bogus"}, "unknown beta family"),
    ({"name": "spdcae0", "eta": 0.5}, "eta must exceed 1"),
    ({"name": "pdcae1", "T2": 0}, "restart period"),
    ({"name": "pdcae", "beta_family": "bogus"}, "unknown beta family"),
    ({"name": "pdcae", "L": 0.0}, "L must be positive"),
    ({"name": "adca", "L": -1.0}, "L must be positive"),
    ({"name": "adca", "q": -1}, "q must be nonnegative"),
    ({"name": "spdcae1", "epsilon": -1.0}, "epsilon must be finite and nonnegative"),
    ({"name": "spdcae1", "clamp_numerator": -1e13},
     "clamp_numerator must be finite and nonnegative"),
])
def test_config_rejects_out_of_range_solver_values(solver, message):
    with pytest.raises(ConfigError, match=f"solver '{solver['name']}': .*{message}"):
        RunConfig.from_dict(_logreg_cfg(solvers=[solver]))


# (config, overrides, error): solver entries the problem's family cannot run
_FAMILY_MISMATCHES = [
    pytest.param(_logreg_cfg,
                 dict(solvers=[{"name": "spdcae1", "metric": "split-gradient"}]),
                 "solver 'spdcae1': the split-gradient metric needs a Poisson problem",
                 id="logreg-split-gradient"),
    pytest.param(_logreg_cfg,
                 dict(solvers=[{"name": "spdcae1"},
                               {"name": "pdcae0", "metric": "split-gradient"}]),
                 "solver 'pdcae0': the split-gradient metric",
                 id="logreg-second-entry-split-gradient"),
    pytest.param(_poisson_cfg, dict(solvers=[{"name": "spdcae1"}, {"name": "pdcae"}]),
                 "solver 'pdcae': fixed-step solvers need an explicit 'L'",
                 id="poisson-pdcae-without-L"),
    pytest.param(_poisson_cfg, dict(solvers=[{"name": "adca", "q": 2}]),
                 "solver 'adca': fixed-step solvers need an explicit 'L'",
                 id="poisson-adca-without-L"),
    pytest.param(_poisson_cfg, dict(reference_solver="pdcae"),
                 "reference solver 'pdcae': fixed-step solvers need an explicit 'L'",
                 id="poisson-pdcae-reference"),
]


@pytest.mark.parametrize("make_cfg, over, message", _FAMILY_MISMATCHES)
def test_config_rejects_solvers_the_family_cannot_run(make_cfg, over, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(make_cfg(**over))


@pytest.mark.parametrize("make_cfg, over, message", _FAMILY_MISMATCHES)
def test_dataset_file_checks_solvers_before_first_solve(tmp_path, no_solves,
                                                        make_cfg, over, message):
    # a dataset file names its family only once it is loaded
    base = _build_base(make_cfg()["problem"])
    path = tmp_path / "data.json"
    save_dataset_json(path, "logreg" if base.kind == "logreg" else "poisson-cs",
                      base.data, base.truth)
    problem = {"kind": "dataset-json", "path": str(path)}
    assert bench._setup(RunConfig.from_dict(make_cfg(problem=problem)))[0].kind \
        == base.kind
    cfg = RunConfig.from_dict(make_cfg(problem=problem, out_dir=str(tmp_path / "out"),
                                       **over))
    for run in (run_matrix, solve_reference):
        with pytest.raises(ConfigError, match=message):
            run(cfg)
    assert not (tmp_path / "out").exists()


def test_config_rejects_unsorted_tolerances():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        RunConfig.from_dict(_logreg_cfg(tolerances=[1e-2, 1e-1]))
    with pytest.raises(ConfigError, match="positive"):
        RunConfig.from_dict(_logreg_cfg(tolerances=[1e-1, 0.0]))


def test_config_rejects_empty_seeds():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict(_logreg_cfg(seeds=[]))


def _rec(k, rel_err, F_value=1.0):
    return TraceRecord(k=k, F_value=F_value, rel_error=rel_err, L_accepted=1.0,
                       t=1.0, n_backtracks=0, beta_used=0.0, restarted=False,
                       wall_clock_seconds=0.01 * k)


def _first_hits_by_records(trace, tolerances):
    """The record-by-record definition of ``_first_hits``: one pass, the
    loosest open tolerance first, records without a relative error skipped."""
    hits = {t: None for t in tolerances}
    open_tols = sorted(tolerances, reverse=True)  # loosest first
    i = 0
    for rec in trace:
        if rec.rel_error is None:
            continue
        while i < len(open_tols) and rec.rel_error <= open_tols[i]:
            hits[open_tols[i]] = (rec.k, rec.wall_clock_seconds)
            i += 1
        if i == len(open_tols):
            break
    return hits


def test_first_hits_takes_earliest_crossing():
    trace = Trace.from_records([_rec(1, 0.5), _rec(2, 0.09), _rec(3, 0.2),
                                _rec(4, 0.008)])
    hits = _first_hits(trace, [0.1, 0.01])
    assert hits[0.1] == (2, 0.02)  # later excursion above 0.1 does not undo it
    assert hits[0.01] == (4, 0.04)


def test_first_hits_handles_misses_and_missing_errors():
    trace = Trace.from_records([_rec(1, None), _rec(2, 0.5)])
    hits = _first_hits(trace, [0.1, 0.01])
    assert hits[0.1] is None and hits[0.01] is None


_rel_errors = (st.none() | st.floats(allow_infinity=True)
               | st.sampled_from([0.5, 0.1, 0.05, 0.01, 0.001, 0.0]))
_tolerance_grids = st.lists(st.sampled_from([0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6]),
                            min_size=1, unique=True).map(
                                lambda tols: sorted(tols, reverse=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(_rel_errors, max_size=12), _tolerance_grids)
# a missing error, a NaN objective (and so a NaN error), and an excursion
# above a tolerance already crossed
@example([None, 0.5, float("nan"), 0.09, 0.2, None, 0.008, 0.5], [0.1, 0.01])
def test_first_hits_matches_record_loop(rels, tolerances):
    trace = [_rec(k, rel, F_value=float("nan") if rel != rel else 1.0)
             for k, rel in enumerate(rels, 1)]
    assert _first_hits(Trace.from_records(trace), tolerances) == \
        _first_hits_by_records(trace, tolerances)


_finite = st.floats(allow_nan=False, allow_infinity=False)
# trace counts are int64 columns
_int64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
_records = st.builds(
    TraceRecord, k=_int64, F_value=_finite,
    rel_error=st.none() | _finite, L_accepted=_finite, t=_finite,
    n_backtracks=_int64, beta_used=_finite, restarted=st.booleans(),
    wall_clock_seconds=_finite, descent_slack=st.none() | _finite,
    gate_passed=st.none() | st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(_records, max_size=5))
@example([TraceRecord(k=1, F_value=1.2345678901234567, rel_error=None,
                      L_accepted=0.123, t=1.0 / 0.123, n_backtracks=3,
                      beta_used=0.0, restarted=False, wall_clock_seconds=0.5),
          TraceRecord(k=2, F_value=-7.25, rel_error=1e-16, L_accepted=4.0,
                      t=0.25, n_backtracks=0, beta_used=0.61803, restarted=True,
                      wall_clock_seconds=1.0, descent_slack=-3e-13,
                      gate_passed=False)])
def test_trace_csv_round_trip(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(path, Trace.from_records(trace))
        back = read_trace_csv(path)
    # every field, floats exactly: repr round-trips doubles
    assert [dataclasses.astuple(r) for r in back] == \
        [dataclasses.astuple(r) for r in trace]


@pytest.mark.parametrize("field", ["k", "n_backtracks"])
def test_trace_counts_outside_int64_are_rejected(tmp_path, field):
    # one past the round trip's int64 range; reading such a cell is a
    # ConfigError (tests/test_cli.py)
    rec = dataclasses.replace(_rec(1, None), **{field: 2**63})
    with pytest.raises(OverflowError):
        write_trace_csv(tmp_path / "trace.csv", Trace.from_records([rec]))


def test_run_trace_stays_small():
    """A 10000-iteration Poisson run holds its trace in columns: the run's
    records as objects alone would take about 3 MB."""
    cfg = RunConfig.from_dict(_poisson_cfg())
    problem, x0 = _instance(_build_base(cfg.problem), 0)
    config = _profile("pdcae0", "poisson", {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = spdcae_run(problem, config, StoppingRule(max_iter=10000), x0=x0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.n_iterations == 10000
    assert grown < 2_000_000


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace_csv(path)
    # the nine-column header of the format without slack and gate columns
    path.write_text("k,F,rel_err,L,t,backtracks,beta,restarted,seconds\n"
                    "1,1.0,,1.0,1.0,0,0.0,0,0.1\n")
    with pytest.raises(ConfigError):
        read_trace_csv(path)


def test_matrix_outputs_round_trip(tmp_path):
    cfg = RunConfig.from_dict(_logreg_cfg(out_dir=str(tmp_path)))
    result = run_matrix(cfg)
    summary = read_summary_csv(tmp_path / "summary.csv")
    assert len(summary) == len(result.summary) == 4  # 2 solvers x 2 tols
    for a, b in zip(result.summary, summary):
        assert (a.solver, a.tol) == (b.solver, b.tol)
        assert a.mean_iterations == b.mean_iterations
        assert a.hit_rate == b.hit_rate
        assert a.max_flag == b.max_flag
    trace = read_trace_csv(tmp_path / "trace_spdcae1_0.csv")
    assert [r.k for r in trace] == [r.k for r in result.runs[("spdcae1", 0)].trace]
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["reference_stops"] == {
        str(seed): {"iterations": n, "stop_reason": reason}
        for seed, (n, reason) in result.reference_stops.items()}
    assert set(result.reference_stops) == set(cfg.seeds)


def test_matrix_is_deterministic_modulo_timing():
    cfg = RunConfig.from_dict(_logreg_cfg())
    r1 = run_matrix(cfg)
    r2 = run_matrix(cfg)
    assert r1.references == r2.references
    for key in r1.runs:
        f1 = [rec.F_value for rec in r1.runs[key].trace]
        f2 = [rec.F_value for rec in r2.runs[key].trace]
        assert f1 == f2  # bitwise, not approximately
    for a, b in zip(r1.summary, r2.summary):
        assert a.mean_iterations == b.mean_iterations
        assert a.hit_rate == b.hit_rate


def test_solver_entries_are_parsed_once_per_check_and_per_matrix_run(monkeypatch):
    calls = []
    parse = bench._solver_options

    def counted(scfg, *args):
        calls.append(scfg["name"])
        return parse(scfg, *args)
    monkeypatch.setattr(bench, "_solver_options", counted)
    cfg = RunConfig.from_dict(_logreg_cfg(max_iter=5, reference_iterations=5))
    entries = ["spdcae1", "pdcae1", "pdcae1"]  # the two entries and the reference
    assert calls == entries
    run_matrix(cfg)  # two seeds: the runs are built once and reused
    assert calls == entries * 2


def test_logreg_seeds_share_reference():
    cfg = RunConfig.from_dict(_logreg_cfg())
    result = run_matrix(cfg)
    vals = set(result.references.values())
    assert len(vals) == 1
    assert solve_reference(cfg)[0] == vals.pop()


def test_poisson_seeds_get_their_own_references():
    cfg = RunConfig.from_dict(_poisson_cfg())
    result = run_matrix(cfg)
    assert result.references[0] != result.references[1]


@pytest.mark.parametrize("make_cfg", [_logreg_cfg, _poisson_cfg],
                         ids=["logreg", "poisson"])
def test_reference_stops_on_stall_near_capped_value(make_cfg):
    cfg = RunConfig.from_dict(make_cfg())
    value, n_iter, reason = solve_reference(cfg)
    assert reason == "stalled"
    assert _REFERENCE_STALL_ITERS < n_iter < cfg.reference_iterations
    assert solve_reference(cfg)[0] == value
    # the same profile run to the cap, without the stall clause
    base = _build_base(cfg.problem)
    problem, x0 = _instance(base, cfg.reference_seed)
    capped = spdcae_run(problem, _profile(cfg.reference_solver, base.kind, {}),
                        StoppingRule(max_iter=cfg.reference_iterations), x0=x0)
    assert capped.n_iterations == cfg.reference_iterations
    assert abs(value - capped.F_final) <= 1e-12 * abs(capped.F_final)
    # the matrix records the stop of every seed's reference
    stops = run_matrix(cfg).reference_stops
    assert all(reason == "stalled" and n < cfg.reference_iterations
               for n, reason in stops.values())


def test_zero_iteration_reference_is_start_value():
    cfg = RunConfig.from_dict(_logreg_cfg(reference_iterations=0))
    val = solve_reference(cfg)[0]
    assert np.isfinite(val)
    full = solve_reference(RunConfig.from_dict(_logreg_cfg()))[0]
    assert val > full  # the start point is far from optimal


def test_summary_flags_capped_runs():
    # one iteration cannot reach a 1e-2 relative error from a random start
    cfg = RunConfig.from_dict(_logreg_cfg(max_iter=1, tolerances=[1e-2]))
    result = run_matrix(cfg)
    for row in result.summary:
        assert row.hit_rate == 0.0
        assert row.max_flag is True
        assert row.mean_iterations is None and row.mean_seconds is None
