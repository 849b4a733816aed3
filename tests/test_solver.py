import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from dcprox import bench
from dcprox.accel import BetaSchedule
from dcprox.datasets import gen_logreg, gen_poisson_cs
from dcprox.linesearch import BacktrackConfig
from dcprox.logreg import (LogRegData, build_logreg_problem, l1_proximable,
                           l1_scaled_prox, l2_concave, logistic_lipschitz_bound)
from dcprox.metric import DiagonalMetric, gamma
from dcprox.poisson import build_poisson_problem, l1_nonneg_proximable
from dcprox.problem import (ConcavePartOracle, DcProblem, SmoothOracle,
                            criticality_residual, least_squares_smooth,
                            nonnegative_orthant, objective, quadratic_smooth,
                            whole_space, zero_concave, zero_proximable)
from dcprox.solver import (RunResult, SolverConfig, StoppingRule, adca_run,
                           extrapolation_slacks, pdcae_run, relative_error,
                           sfista_lyapunov, sfista_run, spdcae_run)
from dcprox.trace import Trace, TraceRecord


def _lasso_problem(m=30, n=10, lam=0.1, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    prob = DcProblem(f=least_squares_smooth(A, y), g=l1_proximable(lam),
                     h=zero_concave(), feasible_set=whole_space())
    L = float(np.linalg.eigvalsh(A.T @ A).max())
    return prob, A, y, lam, L


def _one_dim_dc():
    # smooth x^2/2 minus |x|: critical points at +/- 1
    return DcProblem(f=quadratic_smooth(np.zeros(1)), g=zero_proximable(),
                     h=l2_concave(1.0), feasible_set=whole_space())


def test_quadratic_converges_to_center():
    center = np.array([1.0, -2.0, 0.5])
    prob = DcProblem(f=quadratic_smooth(center, curvature=2.0),
                     g=zero_proximable(), h=zero_concave(),
                     feasible_set=whole_space())
    cfg = SolverConfig(beta_family="none")
    res = spdcae_run(prob, cfg, StoppingRule(max_iter=300, crit_tol=1e-12),
                     x0=np.zeros(3))
    assert res.stop_reason == "crit_tol"
    assert np.allclose(res.x, center, atol=1e-10)


def test_one_dim_dc_reaches_critical_point():
    prob = _one_dim_dc()
    res = spdcae_run(prob, SolverConfig(), StoppingRule(max_iter=100),
                     x0=np.array([2.0]), keep_states=True)
    assert criticality_residual(prob, res.x, 1.0) <= 1e-12
    assert res.x == pytest.approx(np.array([1.0]))
    res_neg = spdcae_run(prob, SolverConfig(), StoppingRule(max_iter=100),
                         x0=np.array([-2.0]))
    assert res_neg.x == pytest.approx(np.array([-1.0]))


def test_matches_textbook_accelerated_loop():
    prob, A, yv, lam, L = _lasso_problem()
    x0 = np.zeros(10)
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=L))
    res = sfista_run(prob, cfg, StoppingRule(max_iter=12), x0=x0,
                     keep_states=True)

    t = 1.0 / L
    x = x0.copy()
    x_old = x0.copy()
    th_old, th = 1.0, 1.0
    for snap in res.states:
        beta = (th_old - 1.0) / th
        y = x + beta * (x - x_old)
        x_old = x
        x = l1_scaled_prox(y - t * prob.f.grad(y), t, lam)
        th_old = th
        th = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * th * th))
        assert abs(snap.beta - beta) <= 1e-12
        assert np.max(np.abs(snap.x - x)) <= 1e-12
        assert snap.t == t


def test_reduces_to_proximal_gradient_without_momentum():
    prob, A, yv, lam, L = _lasso_problem(seed=3)
    x0 = np.full(10, 0.3)
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=L),
                       beta_family="none")
    res = spdcae_run(prob, cfg, StoppingRule(max_iter=200), x0=x0,
                     keep_states=True)
    t = 1.0 / L
    x = x0.copy()
    for snap in res.states:
        x = l1_scaled_prox(x - t * prob.f.grad(x), t, lam)
        assert np.max(np.abs(snap.x - x)) <= 1e-12
        assert snap.beta == 0.0


def test_line_search_loop_reduces_to_fixed_step_baseline():
    data, _ = gen_logreg(60, 15, rng=0)
    prob = build_logreg_problem(data)
    L = logistic_lipschitz_bound(data) * 1.000001  # strictly above curvature
    x0 = np.random.default_rng(1).random(15)
    stop = StoppingRule(max_iter=250)
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=L))
    res_ls = spdcae_run(prob, cfg, stop, x0=x0)
    res_fx = pdcae_run(prob, L, stop=stop, x0=x0)
    assert res_ls.n_iterations == res_fx.n_iterations
    for a, b in zip(res_ls.trace, res_fx.trace):
        assert a.n_backtracks == 0
        assert a.L_accepted == b.L_accepted
        assert a.t == b.t
        assert abs(a.beta_used - b.beta_used) <= 1e-15
        assert a.restarted == b.restarted
        assert abs(a.F_value - b.F_value) <= 1e-12 * max(1.0, abs(b.F_value))
    assert np.max(np.abs(res_ls.x - res_fx.x)) <= 1e-12


def test_classical_weights_stay_in_unit_interval():
    data, _ = gen_logreg(50, 12, rng=2)
    prob = build_logreg_problem(data)
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=0.1))
    res = spdcae_run(prob, cfg, StoppingRule(max_iter=150), x0=np.zeros(12))
    betas = [r.beta_used for r in res.trace]
    assert all(0.0 <= b < 1.0 for b in betas)
    assert max(betas) > 0.1  # momentum actually builds up


def test_theta_and_momentum_factor_invariants():
    data, _ = gen_logreg(50, 12, rng=4)
    prob = build_logreg_problem(data)
    cfg = SolverConfig(metric="adagrad")
    res = spdcae_run(prob, cfg, StoppingRule(max_iter=200), x0=np.zeros(12),
                     keep_states=True)
    thetas = [1.0] + [s.theta for s in res.states]
    assert all(th >= 1.0 for th in thetas)
    for prev, cur in zip(thetas, thetas[1:]):
        alpha = (1.0 - 1.0 / cur) * (1.0 - 1.0 / prev) ** 2
        assert 0.0 <= alpha < 1.0


def test_descent_slacks_nonnegative_across_problem_types():
    runs = []
    data, _ = gen_logreg(40, 10, rng=1)
    runs.append((build_logreg_problem(data), SolverConfig(metric="adagrad"),
                 np.zeros(10)))
    pdata, _ = gen_poisson_cs(n=30, m=12, k_nonzeros=3, amp_max=100.0, rng=1)
    runs.append((build_poisson_problem(pdata),
                 SolverConfig(metric="split-gradient",
                              backtrack=BacktrackConfig(L_init=0.1)),
                 np.ones(30)))
    runs.append((_one_dim_dc(), SolverConfig(), np.array([2.0])))
    for prob, cfg, x0 in runs:
        res = spdcae_run(prob, cfg, StoppingRule(max_iter=120), x0=x0,
                         diagnostics=True)
        slacks = res.trace.descent_slack
        F_prev = np.array([objective(prob, res.x0)]
                          + [r.F_value for r in res.trace[:-1]])
        floors = -1e-10 * np.maximum(1.0, np.abs(F_prev))
        assert np.all(slacks >= floors)


def _descent_formula(prob, x_prev, snap, D):
    """(F(x_prev) + (||x_prev - y||_D^2 - ||x_prev - x||_D^2)/(2t)) - F(x)
    for snapshot x, y and t, with F evaluated afresh at both points."""
    rhs = objective(prob, x_prev) + (D.norm_sq(x_prev - snap.y)
                                     - D.norm_sq(x_prev - snap.x)) / (2.0 * snap.t)
    return rhs - objective(prob, snap.x)


def _descent_formulas(prob, res):
    """``_descent_formula`` for every snapshot of ``res``."""
    xs = [res.x0] + [snap.x for snap in res.states]
    return [_descent_formula(prob, x_prev, snap, snap.metric)
            for x_prev, snap in zip(xs, res.states)]


def test_descent_audit_reuses_snapshot_objectives():
    prob, A, yv, lam, L = _lasso_problem()
    counts = {"value_at": 0}

    def counted_value_at(z):
        counts["value_at"] += 1
        return prob.f.value_at(z)

    counting = dataclasses.replace(
        prob, f=dataclasses.replace(prob.f, value_at=counted_value_at))
    calls = []
    for diagnostics in (False, True):
        counts["value_at"] = 0
        res = spdcae_run(counting, SolverConfig(), StoppingRule(max_iter=50),
                         x0=np.zeros(10), keep_states=True, diagnostics=diagnostics)
        calls.append(counts["value_at"])
    assert calls[1] == calls[0] + 1  # F(x_0) alone
    # the values of the per-snapshot formula, bit for bit
    assert res.trace.descent_slack.tolist() == _descent_formulas(prob, res)


def test_extrapolation_bound_holds_under_projection():
    pdata, _ = gen_poisson_cs(n=25, m=10, k_nonzeros=3, amp_max=50.0, rng=3)
    prob = build_poisson_problem(pdata)
    cfg = SolverConfig(metric="split-gradient",
                       backtrack=BacktrackConfig(L_init=0.1))
    res = spdcae_run(prob, cfg, StoppingRule(max_iter=150), x0=np.ones(25),
                     keep_states=True)
    slacks = extrapolation_slacks(res)
    assert np.all(slacks >= -1e-12)


def test_metric_stays_inside_shrinking_band():
    data, _ = gen_logreg(40, 8, rng=6)
    prob = build_logreg_problem(data)
    res = spdcae_run(prob, SolverConfig(metric="adagrad"),
                     StoppingRule(max_iter=100), x0=np.zeros(8),
                     keep_states=True)
    for snap in res.states:
        g = gamma(snap.k, 1e13)
        assert np.all(snap.metric.diag >= 1.0 / g - 1e-15)
        assert np.all(snap.metric.diag <= g * (1.0 + 1e-15))


def test_energy_inequality_on_analytic_instance():
    # argmin of (x-3)^2/2 + |x| is 2 with value 2.5
    prob = DcProblem(f=quadratic_smooth(np.array([3.0])), g=l1_proximable(1.0),
                     h=zero_concave(), feasible_set=whole_space())
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=1.0))
    res = sfista_run(prob, cfg, StoppingRule(max_iter=300), x0=np.zeros(1),
                     keep_states=True)
    slacks = sfista_lyapunov(prob, np.array([2.0]), 2.5, res)
    assert np.all(slacks >= -1e-9)


def test_energy_inequality_with_line_search():
    prob, A, yv, lam, L = _lasso_problem(m=40, n=12, seed=5)
    res = sfista_run(prob, SolverConfig(), StoppingRule(max_iter=400),
                     x0=np.zeros(12), keep_states=True)
    ref = sfista_run(prob, SolverConfig(
        backtrack=BacktrackConfig(mode="monotone", L_init=L)),
        StoppingRule(max_iter=20000), x0=np.zeros(12))
    x_star = ref.x
    phi_star = objective(prob, x_star)
    slacks = sfista_lyapunov(prob, x_star, phi_star, res)
    assert np.all(slacks >= -1e-9 * np.maximum(1.0, np.abs(phi_star)))


def test_gate_keeps_rejected_candidates_out_of_trace():
    data, _ = gen_logreg(60, 15, rng=3)
    prob = build_logreg_problem(data)
    L = logistic_lipschitz_bound(data)
    res = adca_run(prob, L, 3, StoppingRule(max_iter=200),
                   x0=np.random.default_rng(0).random(15))
    gates = [r.gate_passed for r in res.trace]
    assert all(g is not None for g in gates)
    for rec in res.trace:
        if not rec.gate_passed:
            assert rec.beta_used == 0.0
    # objective values of iterates drive the gate; it passes at least once
    assert any(gates)


def test_gate_candidate_is_projected_when_constrained():
    pdata, _ = gen_poisson_cs(n=20, m=8, k_nonzeros=2, amp_max=50.0, rng=4)
    prob = build_poisson_problem(pdata)
    res = adca_run(prob, 50.0, 2, StoppingRule(max_iter=80), x0=np.ones(20))
    assert np.all(res.x >= 0.0)
    assert np.isfinite(res.F_final)


def test_history_window_tracks_last_values():
    # the gate compares F at the candidate with the largest of the last q+1
    # iterate values, F(x_0) included; recomputed here from the snapshots.
    # On the whole space f at the candidate y is taken at A y formed by
    # linearity from the carried A x, as the loop does.
    prob, A, yv, lam, L = _lasso_problem()
    x0 = np.zeros(10)
    q = 2
    res = adca_run(prob, L, q, StoppingRule(max_iter=200), x0=x0,
                   keep_states=True)
    xs = [x0, x0] + [snap.x for snap in res.states]
    zs = [A @ x0, A @ x0] + [snap.z for snap in res.states]
    Fs = [objective(prob, x0)] + [r.F_value for r in res.trace]
    thetas = [1.0] + [snap.theta for snap in res.states]
    gates = []
    for k in range(1, res.n_iterations + 1):
        beta = (thetas[k - 1] - 1.0) / thetas[k]
        y = xs[k] + beta * (xs[k] - xs[k - 1])
        f_y = prob.f.value_at(zs[k] + beta * (zs[k] - zs[k - 1]))
        gates.append(objective(prob, y, f_y) <= max(Fs[max(0, k - 1 - q):k]))
    assert [r.gate_passed for r in res.trace] == gates
    assert any(gates) and not all(gates)
    with pytest.raises(ValueError):
        adca_run(prob, L, -1, x0=x0)


def test_stop_reasons():
    prob = _one_dim_dc()
    res = spdcae_run(prob, SolverConfig(),
                     StoppingRule(max_iter=5), x0=np.array([2.0]))
    assert res.stop_reason == "max_iter"
    res = spdcae_run(prob, SolverConfig(),
                     StoppingRule(max_iter=50, crit_tol=1e-10),
                     x0=np.array([2.0]))
    assert res.stop_reason == "crit_tol"
    res = spdcae_run(prob, SolverConfig(),
                     StoppingRule(max_iter=50, ref_value=-0.5, rel_tol=1e-6),
                     x0=np.array([2.0]))
    assert res.stop_reason == "rel_tol"


def test_relative_error_conventions():
    assert relative_error(2.0, 1.0) == 1.0
    # nonpositive reference switches to the absolute difference
    assert relative_error(2.0, -0.5) == 2.5
    assert relative_error(-0.5, -0.5) == 0.0


# One call shape for the three step policies; spdcae_run ignores L.
RUNNERS = {
    "spdcae": lambda prob, L, stop, **kw: spdcae_run(prob, SolverConfig(), stop, **kw),
    "pdcae": lambda prob, L, stop, **kw: pdcae_run(prob, L, stop=stop, **kw),
    "adca": lambda prob, L, stop, **kw: adca_run(prob, L, 3, stop, **kw),
}


def test_stopping_rule_validation():
    bad = [dict(rel_tol=1e-3), dict(max_iter=-1),
           dict(ref_value=1.0, rel_tol=float("nan")), dict(crit_tol=-1.0),
           dict(ref_value=1.0, rel_tol=-1e-3),
           dict(ref_value=float("inf")), dict(crit_tol=float("inf")),
           dict(stall_iters=0), dict(stall_iters=-1)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            StoppingRule(**kwargs)


@pytest.mark.parametrize("name", ["epsilon", "clamp_numerator"])
def test_solver_config_rejects_negative_or_nonfinite_metric_constants(name):
    for bad in (-1.0, -1e-300, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            SolverConfig(**{name: bad})
    assert getattr(SolverConfig(**{name: 0.0}), name) == 0.0


def _new_lows(trace):
    """Iterations whose objective is strictly below every earlier one."""
    low, ks = math.inf, []
    for rec in trace:
        if rec.F_value < low:
            low = rec.F_value
            ks.append(rec.k)
    return ks


def test_stall_stops_at_exact_fixed_point():
    # started at the minimizer, every iterate is the minimizer itself
    center = np.array([1.0, -2.0, 0.5])
    prob = DcProblem(f=quadratic_smooth(center), g=zero_proximable(),
                     h=zero_concave(), feasible_set=whole_space())
    res = spdcae_run(prob, SolverConfig(), StoppingRule(max_iter=100, stall_iters=7),
                     x0=center)
    assert res.stop_reason == "stalled"
    assert all(r.F_value == res.trace[0].F_value for r in res.trace)
    assert _new_lows(res.trace) == [1]
    assert res.n_iterations == 1 + 7


def _stall_stop(trace, window):
    """First k with F_low(k - W) - F_low(k) <= 1e-12 |F_low(k)|, where F_low
    is the running minimum of the trace and F_low(0) = +inf."""
    lows = [math.inf]
    for rec in trace:
        lows.append(min(lows[-1], rec.F_value))
        if rec.k >= window and \
                lows[rec.k - window] - lows[rec.k] <= 1e-12 * abs(lows[rec.k]):
            return rec.k
    return None


def test_stall_window_measures_fall_of_lowest_objective():
    prob, A, yv, lam, L = _lasso_problem(seed=4)
    stall = 15
    res = sfista_run(prob, SolverConfig(), StoppingRule(max_iter=5000, stall_iters=stall),
                     x0=np.zeros(10))
    assert res.stop_reason == "stalled"
    assert res.n_iterations == _stall_stop(res.trace, stall)
    # the window held round-off new lows, which no longer restart it
    assert _new_lows(res.trace)[-1] > res.n_iterations - stall


def _linear_descent(step: float, window: int, max_iter: int):
    """Fixed steps on F(x) = 1 + x with no extrapolation: F falls by exactly
    ``step`` per iteration, so by about ``window * step`` relative per
    window."""
    f = SmoothOracle(np.eye(1), lambda z: 1.0 + float(z[0]),
                     lambda z: (1.0 + float(z[0]), np.ones(1)),
                     lambda z: np.ones(1))
    prob = DcProblem(f=f, g=zero_proximable(), h=zero_concave(),
                     feasible_set=whole_space())
    return pdcae_run(prob, 1.0 / step, BetaSchedule(family="none"),
                     StoppingRule(max_iter=max_iter, stall_iters=window),
                     x0=np.zeros(1))


def test_stall_spares_a_run_still_improving_past_the_tolerance():
    window = 100
    # about 1e-11 relative per window: still improving, never stopped
    res = _linear_descent(1e-13, window, 10 * window)
    assert res.stop_reason == "max_iter"
    F = [rec.F_value for rec in res.trace]
    falls = [(a - b) / abs(b) for a, b in zip(F, F[window:])]
    assert 0.9e-11 < min(falls) and max(falls) < 1.1e-11
    # about 1e-13 relative per window: stopped as soon as a window closes
    res = _linear_descent(1e-15, window, 10 * window)
    assert res.stop_reason == "stalled"
    assert res.n_iterations == window + 1


@pytest.mark.parametrize("runner", RUNNERS)
def test_unset_or_unreached_stall_leaves_trace_unchanged(runner):
    prob, A, yv, lam, L = _lasso_problem(seed=5)

    def fields(res):
        return [dataclasses.replace(r, wall_clock_seconds=0.0) for r in res.trace]

    plain = RUNNERS[runner](prob, L, StoppingRule(max_iter=300), x0=np.zeros(10))
    wide = RUNNERS[runner](prob, L, StoppingRule(max_iter=300, stall_iters=10**6),
                           x0=np.zeros(10))
    assert plain.stop_reason == wide.stop_reason == "max_iter"
    assert fields(plain) == fields(wide)
    assert np.array_equal(plain.x, wide.x)


@pytest.mark.parametrize("runner", RUNNERS)
def test_zero_iteration_cap_returns_start(runner):
    res = RUNNERS[runner](_one_dim_dc(), 1.0, StoppingRule(max_iter=0),
                          x0=np.array([2.0]))
    assert res.n_iterations == 0
    assert res.stop_reason == "max_iter"
    assert np.array_equal(res.x, [2.0])
    assert np.isnan(res.F_final)


def test_infeasible_start_rejected():
    pdata, _ = gen_poisson_cs(n=10, m=5, k_nonzeros=2, amp_max=10.0, rng=0)
    prob = build_poisson_problem(pdata)
    with pytest.raises(ValueError):
        spdcae_run(prob, SolverConfig(), x0=-np.ones(10))
    # non-finite starts of a whole-space problem, where g and the set accept them
    lasso = _lasso_problem()[0]
    for bad in (np.nan, np.inf):
        x0 = np.zeros(10)
        x0[3] = bad
        with pytest.raises(ValueError):
            spdcae_run(lasso, SolverConfig(), x0=x0)


@pytest.mark.parametrize("runner", ["pdcae", "adca"])
def test_divergent_fixed_step_stops_nonfinite(runner):
    prob, A, yv, lam, L = _lasso_problem(seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = RUNNERS[runner](prob, L / 50.0, StoppingRule(max_iter=2000),
                              x0=np.zeros(10))
    assert res.stop_reason == "nonfinite"
    assert res.n_iterations == {"pdcae": 80, "adca": 92}[runner]
    assert not np.isfinite(res.F_final)
    assert all(np.isfinite(r.F_value) for r in res.trace[:-1])


def test_convex_loop_rejects_concave_part():
    with pytest.raises(ValueError):
        sfista_run(_one_dim_dc(), SolverConfig(), x0=np.array([1.0]))


def test_fixed_step_warns_once_when_constant_too_small():
    prob, A, yv, lam, L = _lasso_problem(seed=7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pdcae_run(prob, L / 50.0, stop=StoppingRule(max_iter=40),
                  x0=np.zeros(10))
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1


def test_audits_require_snapshots():
    prob = _one_dim_dc()
    res = spdcae_run(prob, SolverConfig(), StoppingRule(max_iter=5),
                     x0=np.array([2.0]))
    with pytest.raises(ValueError):
        extrapolation_slacks(res)
    with pytest.raises(ValueError):
        sfista_lyapunov(prob, np.ones(1), -0.5, res)


@pytest.mark.parametrize("runner", RUNNERS)
def test_trace_bookkeeping(runner):
    data, _ = gen_logreg(30, 8, rng=8)
    prob = build_logreg_problem(data)
    res = RUNNERS[runner](prob, logistic_lipschitz_bound(data),
                          StoppingRule(max_iter=60), x0=np.zeros(8),
                          keep_states=True)
    assert res.n_iterations == len(res.trace) == len(res.states) == 60
    assert [s.k for s in res.states] == list(range(1, 61))
    assert np.array_equal(res.x, res.states[-1].x)
    assert all((r.gate_passed is not None) == (runner == "adca") for r in res.trace)
    assert res.F_final == res.trace[-1].F_value
    ks = [r.k for r in res.trace]
    assert ks == list(range(1, 61))
    secs = [r.wall_clock_seconds for r in res.trace]
    assert all(b >= a for a, b in zip(secs, secs[1:]))
    assert all(r.t * r.L_accepted == pytest.approx(1.0, rel=1e-12) for r in res.trace)
    # each snapshot is the record of the same iteration
    for s, r in zip(res.states, res.trace):
        assert (s.k, s.L, s.t, s.n_backtracks, s.beta, s.restarted, s.gate_passed) \
            == (r.k, r.L_accepted, r.t, r.n_backtracks, r.beta_used, r.restarted,
                r.gate_passed)
        assert objective(prob, s.x, s.f) == r.F_value


def _records_from_snapshots(prob, res, ref, slacks):
    """The trace records of ``res``, built from its snapshots one object per
    iteration (as the loop once stored them), its wall-clock seconds taken
    from the trace."""
    records = []
    for s, seconds, slack in zip(res.states, res.trace.wall_clock_seconds.tolist(),
                                 slacks):
        F = objective(prob, s.x, s.f)
        records.append(TraceRecord(
            k=s.k, F_value=F, rel_error=None if ref is None else relative_error(F, ref),
            L_accepted=s.L, t=s.t, n_backtracks=s.n_backtracks, beta_used=s.beta,
            restarted=s.restarted, wall_clock_seconds=seconds,
            descent_slack=slack, gate_passed=s.gate_passed))
    return records


@pytest.mark.parametrize("runner", ["adca", "spdcae-diagnostics"])
def test_trace_reads_as_the_records_of_its_snapshots(runner):
    _, A, y, _, L = _lasso_problem(m=30, n=40)
    prob = DcProblem(f=least_squares_smooth(A, y), g=l1_proximable(0.5),
                     h=l2_concave(0.5), feasible_set=whole_space())
    x0 = np.zeros(40)
    if runner == "adca":
        ref = None
        res = adca_run(prob, L, 0, StoppingRule(max_iter=2500), x0=x0,
                       keep_states=True)
        slacks = [None] * res.n_iterations
    else:
        ref = 1.0
        res = spdcae_run(prob, SolverConfig(T2=10),
                         StoppingRule(max_iter=2500, ref_value=ref), x0=x0,
                         keep_states=True, diagnostics=True)
        slacks = _descent_formulas(prob, res)
    assert isinstance(res.trace, Trace) and res.n_iterations == 2500
    expected = _records_from_snapshots(prob, res, ref, slacks)
    trace = res.trace

    def same(got, want):
        # field by field, with the field types the records always had
        assert [(type(getattr(r, f.name)), getattr(r, f.name))
                for r in got for f in dataclasses.fields(r)] == \
            [(type(getattr(r, f.name)), getattr(r, f.name))
             for r in want for f in dataclasses.fields(r)]

    same(list(trace), expected)  # iteration crosses several row blocks
    same([trace[i] for i in range(len(trace))], expected)
    same([trace[i] for i in range(-len(trace), 0)], expected)
    for part in (slice(None), slice(1000, 1030), slice(-5, None), slice(None, -2400),
                 slice(None, None, 7), slice(2400, 1000, -3), slice(3000, 4000)):
        assert isinstance(trace[part], Trace)
        same(list(trace[part]), expected[part])
    for bad in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            trace[bad]
    assert trace == expected and trace[:10] != expected[:9]
    edited = trace[5]
    edited.beta_used = -1.0
    assert trace[5] == expected[5]  # records are built fresh on each access
    assert res.F_final == expected[-1].F_value
    assert Trace.from_records(expected) == trace


def test_diagnostics_fill_descent_slack():
    data, _ = gen_logreg(30, 8, rng=9)
    prob = build_logreg_problem(data)
    res = spdcae_run(prob, SolverConfig(), StoppingRule(max_iter=30),
                     x0=np.zeros(8), diagnostics=True)
    slacks = [r.descent_slack for r in res.trace]
    assert all(s is not None for s in slacks)
    assert all(s >= -1e-10 for s in slacks)


def test_restarts_recorded_in_trace():
    data, _ = gen_logreg(50, 12, rng=5)
    prob = build_logreg_problem(data)
    cfg = SolverConfig(T2=25, beta_family="fixed-restart")
    res = spdcae_run(prob, cfg, StoppingRule(max_iter=60), x0=np.zeros(12))
    restarts = [r.k for r in res.trace if r.restarted]
    assert 25 in restarts and 50 in restarts
    # the weight right after a fixed restart is zero
    assert res.trace[25].beta_used == 0.0


def test_custom_restart_schedule_for_fixed_step():
    prob, A, yv, lam, L = _lasso_problem(seed=9)
    sched = BetaSchedule(family="none")
    res = pdcae_run(prob, L, sched, StoppingRule(max_iter=100), x0=np.zeros(10))
    assert all(r.beta_used == 0.0 for r in res.trace)


def test_fixed_step_schedule_shared_by_two_runs_starts_fresh_each_time():
    data, _ = gen_logreg(120, 25, rng=7)
    prob = build_logreg_problem(data)
    L = logistic_lipschitz_bound(data)
    sched = BetaSchedule()
    first, second = (pdcae_run(prob, L, sched, StoppingRule(max_iter=50),
                               x0=np.zeros(25)) for _ in range(2))
    assert [r.beta_used for r in first.trace[:2]] == [0.0, 0.0]
    assert _record_reprs(second) == _record_reprs(first)
    assert second.x.tobytes() == first.x.tobytes()
    assert (sched.theta, sched.t_prev) == (1.0, 0.0)  # the caller's is untouched


@pytest.mark.parametrize("runner", ["spdcae-nonmonotone", "spdcae-monotone",
                                    "spdcae-diagnostics", "pdcae", "adca"])
def test_one_smooth_oracle_call_of_each_kind_per_iteration(runner):
    # curvature 4 under a step of 1/8: no trial ever backtracks
    def run(n_iter):
        counts = {"value_at": 0, "value_grad_at": 0, "grad_at": 0}
        f = quadratic_smooth(np.array([1.0, -2.0]), curvature=4.0)

        def counted(name):
            def call(z):
                counts[name] += 1
                return getattr(f, name)(z)
            return call

        prob = DcProblem(f=SmoothOracle(f.A, counted("value_at"),
                                        counted("value_grad_at"), counted("grad_at")),
                         g=zero_proximable(), h=zero_concave(),
                         feasible_set=whole_space())
        stop = StoppingRule(max_iter=n_iter)
        x0 = np.zeros(2)
        if runner.startswith("spdcae"):
            mode = "monotone" if runner == "spdcae-monotone" else "nonmonotone"
            bt = BacktrackConfig(mode=mode, L_init=8.0, L_floor=8.0)
            res = spdcae_run(prob, SolverConfig(backtrack=bt), stop, x0=x0,
                             diagnostics=runner == "spdcae-diagnostics")
        elif runner == "pdcae":
            res = pdcae_run(prob, 8.0, stop=stop, x0=x0)
        else:
            res = adca_run(prob, 8.0, 1, stop, x0=x0)
        return res, counts

    # the calls of iteration 4 alone, net of the setup's
    res, before = run(3)
    res, after = run(4)
    assert res.n_iterations == 4
    assert all(rec.n_backtracks == 0 for rec in res.trace)
    if runner == "adca":
        assert all(rec.gate_passed for rec in res.trace)
        assert res.trace[-1].beta_used > 0.0
    assert ({k: after[k] - before[k] for k in after}
            == {"value_at": 1, "value_grad_at": 1, "grad_at": 0})


def _record_reprs(res):
    """The trace without timings, NaN-safe and exact to the last bit."""
    return [repr(dataclasses.replace(r, wall_clock_seconds=0.0)) for r in res.trace]


def _classical_betas(trace) -> list:
    """beta_k = (theta_{k-1} - 1)/theta_k of the classical recursion
    theta_k = (1 + sqrt(1 + 4 theta_{k-1}^2))/2 with theta_1 = 1, theta
    reset to 1 after every restarted row of ``trace``."""
    betas, theta = [], 1.0
    for k, restarted in enumerate(trace.restarted.tolist(), 1):
        th = 1.0 if k == 1 else 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        betas.append((theta - 1.0) / th)
        theta = 1.0 if restarted else th
    return betas


@pytest.mark.parametrize("divisor", [1.0, 50.0])
def test_fixed_step_classical_weights_match_default_schedule(divisor):
    # at a constant step the coupled theta recursion is the classical one
    prob, A, yv, lam, L = _lasso_problem(seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = pdcae_run(prob, L / divisor, stop=StoppingRule(max_iter=300),
                        x0=np.zeros(10))
    assert res.trace.beta_used.tolist() == _classical_betas(res.trace)


def test_monotone_search_weights_are_the_classical_recursion():
    # the monotone search proposes beta once per iteration, at the first
    # trial, where t = 1/L_{k-1} = t_{k-1}: the coupled ratio is exactly 1
    # even when the step then backtracks
    data, _ = gen_poisson_cs(n=200, m=60, k_nonzeros=3, amp_max=50.0, rng=0)
    res = spdcae_run(build_poisson_problem(data), bench._profile("spdcae0", "poisson", {}),
                     StoppingRule(max_iter=300), x0=np.ones(200))
    assert res.trace.n_backtracks[1:].sum() > 0 and res.trace.restarted.any()
    assert res.trace.beta_used.tolist() == _classical_betas(res.trace)


@pytest.mark.parametrize("runner", ["pdcae", "adca"])
def test_fixed_step_snapshots_carry_identity_metric(runner):
    data, _ = gen_logreg(30, 8, rng=8)
    prob = build_logreg_problem(data)
    res = RUNNERS[runner](prob, logistic_lipschitz_bound(data),
                          StoppingRule(max_iter=60), x0=np.zeros(8),
                          keep_states=True)
    assert all(np.array_equal(snap.metric.diag, np.ones(8)) for snap in res.states)
    D = DiagonalMetric(np.ones(8))
    xs = [res.x0, res.x0] + [snap.x for snap in res.states]
    extrapolation = [snap.beta ** 2 * D.norm_sq(x_prev - x_prev2)
                     - D.norm_sq(x_prev - snap.y)
                     for x_prev2, x_prev, snap in zip(xs, xs[1:], res.states)]
    assert extrapolation_slacks(res).tolist() == extrapolation


@pytest.mark.parametrize("runner", RUNNERS)
def test_start_length_checked_against_linear_form(runner):
    prob, A, yv, lam, L = _lasso_problem()
    with pytest.raises(ValueError, match="one per column of A"):
        RUNNERS[runner](prob, L, StoppingRule(max_iter=5), x0=np.zeros(9))


def test_snapshots_carry_exact_forward_products():
    # acceptance-6 data and profiles: z is A x computed from x, never formed
    # by linearity, so it matches a fresh product bit for bit
    config = bench.RunConfig.from_dict({
        "problem": {"kind": "logreg-synthetic", "m": 2000, "n": 300,
                    "lambda": 1e-3, "data_seed": 0},
        "solvers": [{"name": "spdcae1"}], "tolerances": [1e-4], "seeds": [0]})
    base = bench._build_base(config.problem)
    prob, x0 = bench._instance(base, 0)
    A = base.data.A
    L = logistic_lipschitz_bound(base.data)
    stop = StoppingRule(max_iter=60)
    runs = [spdcae_run(prob, bench._profile(name, "logreg", {}), stop, x0=x0,
                       keep_states=True) for name in ("spdcae1", "pdcae1")]
    runs += [pdcae_run(prob, L, stop=stop, x0=x0, keep_states=True),
             adca_run(prob, L, 3, stop, x0=x0, keep_states=True)]
    for res in runs:
        assert len(res.states) == 60
        assert all(snap.z.tobytes() == (A @ snap.x).tobytes() for snap in res.states)


def test_poisson_start_length_checked():
    pdata, _ = gen_poisson_cs(n=10, m=5, k_nonzeros=2, amp_max=100.0, rng=0)
    prob = build_poisson_problem(pdata)
    with pytest.raises(ValueError, match="start point must have 10 entries"):
        spdcae_run(prob, SolverConfig(), StoppingRule(max_iter=5), x0=np.ones(9))


def _nnls_problem():
    # the first NNLS instance of the convex-crit benchmark workload
    rng = np.random.default_rng([0, 1, 0])
    A = rng.standard_normal((100, 40))
    y = rng.standard_normal(100)
    return DcProblem(f=least_squares_smooth(A, y), g=l1_nonneg_proximable(0.0),
                     h=zero_concave(), feasible_set=nonnegative_orthant()), A


def test_orthant_snapshots_carry_exact_forward_products():
    # on the orthant A y comes by linearity or, after a clip, from a product;
    # either way z is A x computed from x, bit for bit
    config = bench.RunConfig.from_dict({
        "problem": {"kind": "poisson-synthetic", "n": 500, "m": 100,
                    "k_nonzeros": 5, "data_seed": 0},
        "solvers": [{"name": "spdcae1"}], "tolerances": [1e-3], "seeds": [0]})
    base = bench._build_base(config.problem)
    prob, x0 = bench._instance(base, 0)
    poisson = spdcae_run(prob, bench._profile("spdcae1", "poisson", {}),
                         StoppingRule(max_iter=300), x0=x0, keep_states=True)
    nnls, A_nnls = _nnls_problem()
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone"))
    convex = sfista_run(nnls, cfg, StoppingRule(max_iter=5000, crit_tol=1e-8),
                        x0=np.zeros(40), keep_states=True)
    assert convex.stop_reason == "crit_tol"
    for res, A in ((poisson, base.data.A), (convex, A_nnls)):
        assert res.states
        assert all(snap.z.tobytes() == (A @ snap.x).tobytes() for snap in res.states)


class _CountingMatrix(np.ndarray):
    """Dense matrix view that counts the forward (A x) and adjoint (A^T r)
    products it takes part in; ``A.T`` shares the counts."""

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)
        self.stored_strides = getattr(obj, "stored_strides", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            mat = next(x for x in inputs if isinstance(x, _CountingMatrix))
            kind = "forward" if mat.strides == mat.stored_strides else "adjoint"
            mat.counts[kind] += 1
        plain = tuple(x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x
                      for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def _counting(A):
    view = np.asarray(A).view(_CountingMatrix)
    view.counts = {"forward": 0, "adjoint": 0}
    view.stored_strides = view.strides
    return view


def test_logistic_products_per_trial():
    data, _ = gen_logreg(200, 30, rng=3)
    L = logistic_lipschitz_bound(data)
    A = _counting(data.A)
    prob = build_logreg_problem(LogRegData(A=A, b=data.b, lam=data.lam))
    stop = StoppingRule(max_iter=40)
    x0 = np.random.default_rng(0).random(30)

    # nonmonotone search: A y by linearity, so one forward product per trial
    # point and one adjoint per extrapolated point; A x0 once
    res = spdcae_run(prob, SolverConfig(), stop, x0=x0)
    trials = sum(rec.n_backtracks + 1 for rec in res.trace)
    assert trials > res.n_iterations  # some trials were rejected
    assert A.counts == {"forward": 1 + trials, "adjoint": trials}

    A.counts.update(forward=0, adjoint=0)
    res = pdcae_run(prob, L, stop=stop, x0=x0)
    assert A.counts == {"forward": 1 + res.n_iterations, "adjoint": res.n_iterations}


def test_criticality_stop_takes_gradient_from_carried_product():
    prob, A_plain, yv, lam, L = _lasso_problem()
    A = _counting(A_plain)
    prob = dataclasses.replace(prob, f=least_squares_smooth(A, yv))
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=L))
    res = sfista_run(prob, cfg, StoppingRule(max_iter=50, crit_tol=1e-300),
                     x0=np.zeros(10))
    n = res.n_iterations
    assert n == 50 and all(rec.n_backtracks == 0 for rec in res.trace)
    # per iteration: A^T r at y, A x_new in the trial, A^T r at x_new in the
    # stop test (no forward product there); A x0 once
    assert A.counts == {"forward": 1 + n, "adjoint": 2 * n}
    # the public three-argument call is unchanged: f.grad(x) at x
    x = res.x
    assert criticality_residual(prob, x, 0.5) == criticality_residual(
        prob, x, 0.5, prob.f.value_grad(x)[1])


def _counting_h(h):
    """``h`` with each of its callables counting into the returned list."""
    calls = []

    def counted(fn):
        def wrapper(x):
            calls.append(x)
            return fn(x)
        return wrapper
    return dataclasses.replace(h, **{f.name: counted(getattr(h, f.name))
                                     for f in dataclasses.fields(h)
                                     if callable(getattr(h, f.name))}), calls


@pytest.mark.parametrize("runner", ["spdcae", "spdcae-diagnostics", "pdcae"])
@pytest.mark.parametrize("crit_tol", [None, 0.0], ids=["no-crit", "crit"])
def test_h_is_called_once_per_iterate(runner, crit_tol):
    # least squares 30 x 10 with l1 - l2: h is taken at x_0 and once at each
    # accepted iterate, for F(x_k), the stop test and the next step together
    base, _, _, lam, L = _lasso_problem()
    h, calls = _counting_h(l2_concave(lam))
    prob = dataclasses.replace(base, h=h)
    stop = StoppingRule(max_iter=50, crit_tol=crit_tol)
    x0 = np.linspace(-1.0, 1.0, 10)
    if runner == "pdcae":
        res = pdcae_run(prob, L, stop=stop, x0=x0)
    else:
        res = spdcae_run(prob, SolverConfig(), stop, x0=x0,
                         diagnostics=runner.endswith("diagnostics"))
    assert res.n_iterations == 50 and res.stop_reason == "max_iter"
    assert len(calls) == 1 + 50
    assert calls[0] is res.x0 and calls[-1] is res.x


def _bits(value):
    # a float as its 8 bytes, so that -0.0 and 0.0 differ
    return struct.pack("<d", value) if isinstance(value, float) else value


def _record_bits(run: RunResult):
    return [tuple(_bits(getattr(rec, f.name)) for f in dataclasses.fields(rec)
                  if f.name != "wall_clock_seconds") for rec in run.trace]


@pytest.mark.parametrize("make", [lambda: _lasso_problem(200, 50)[0],
                                  lambda: _nnls_problem()[0]],
                         ids=["lasso", "nnls"])
def test_zero_concave_fast_path_matches_general_path_bit_for_bit(make):
    # sfista_run's configuration, run through spdcae_run so that h may be a
    # zero that does not say so
    fast = make()
    general = dataclasses.replace(fast, h=ConcavePartOracle(
        lambda x: (0.0, np.zeros_like(x))))

    def poisoned(x):
        raise AssertionError("a zero h must not be called")

    silent = dataclasses.replace(fast, h=ConcavePartOracle(poisoned, is_zero=True))
    assert fast.h.is_zero and not general.h.is_zero
    config = SolverConfig(backtrack=BacktrackConfig(mode="monotone"),
                          beta_family="plain")
    stop = StoppingRule(max_iter=300, crit_tol=1e-8)
    x0 = np.zeros(fast.f.A.shape[1])
    runs = [spdcae_run(p, config, stop, x0=x0) for p in (fast, general, silent)]
    for run in runs[1:]:
        assert _record_bits(run) == _record_bits(runs[0])
        assert run.stop_reason == runs[0].stop_reason
        assert run.x.tobytes() == runs[0].x.tobytes()
