"""Outer loops: extrapolated proximal DC iterations and their baselines.

One loop drives every runner; each hands it a different step policy.
``spdcae_run`` linearizes the concave part at the previous iterate,
extrapolates, and takes one scaled proximal step sized by a backtracking line
search; ``sfista_run`` is its convex specialization (h = 0) with the coupled
theta schedule.  ``pdcae_run`` takes a fixed step with the identity metric
and restarted weights, and ``adca_run`` a fixed step that gates
extrapolation on recent objective values.  The loop records the trace and
snapshots and stops with reason "nonfinite" (the accepted objective is not
finite), "rel_tol", "crit_tol" or "stalled" (the lowest objective stopped
falling over a set number of iterations), tested in that order, or
"max_iter".  Under ``diagnostics`` the loop records the slack of the
per-iteration descent bound; audit helpers re-check the extrapolation and
energy inequalities from recorded iteration snapshots.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .accel import BetaSchedule
from .linesearch import (BacktrackConfig, IterateState, IterationSnapshot,
                         backtrack_step, extrapolate, prox_trial)
from .metric import (AdaGradMetricProvider, DiagonalMetric,
                     IdentityMetricProvider, SplitGradientMetricProvider,
                     identity_metric)
from .problem import DcProblem, criticality_residual, objective
from .trace import Trace, _TraceBuffers

Array = np.ndarray


@dataclass
class StoppingRule:
    """Disjunction of stopping conditions checked after each iteration.

    Any satisfied clause stops the run: the iteration cap, a relative error
    against a supplied reference value (absolute difference when the
    reference is nonpositive), a threshold on the fixed-point criticality
    residual, or a stall: with ``stall_iters = W``, the lowest objective
    seen so far, F_low, has fallen by at most ``1e-12 |F_low(k)|`` over the
    last W accepted iterations, F_low(k - W) - F_low(k) <= 1e-12 |F_low(k)|.
    F_low(0) is +inf, so a stall stops no run before iteration W + 1.
    """

    max_iter: int = 10000
    ref_value: float | None = None
    rel_tol: float | None = None
    crit_tol: float | None = None
    stall_iters: int | None = None

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("iteration cap must be nonnegative")
        if self.stall_iters is not None and self.stall_iters < 1:
            raise ValueError("stall window must be at least one iteration")
        for name in ("ref_value", "rel_tol", "crit_tol"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if name.endswith("_tol") and value < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.rel_tol is not None and self.ref_value is None:
            raise ValueError("relative tolerance needs a reference value")


def relative_error(F: float, ref: float) -> float:
    """(F - ref)/ref for positive ref, absolute difference otherwise."""
    if ref > 0.0:
        return (F - ref) / ref
    return F - ref


@dataclass
class RunResult:
    """Solver output: final iterate, per-iteration trace, optional snapshots."""

    x: Array
    trace: Trace
    states: Optional[List[IterationSnapshot]]
    stop_reason: str
    x0: Array

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    @property
    def F_final(self) -> float:
        return float(self.trace.F_value[-1]) if len(self.trace) else float("nan")


@dataclass
class SolverConfig:
    """All tunables of the extrapolated proximal DC loop."""

    backtrack: BacktrackConfig = field(default_factory=BacktrackConfig)
    beta_family: str = "fixed-adaptive-restart"
    delta: float = 0.99
    T2: int = 200
    metric: str = "identity"  # identity | adagrad | split-gradient
    epsilon: float = 1e-6
    clamp_numerator: float = 1e13

    def __post_init__(self):
        if self.metric not in ("identity", "adagrad", "split-gradient"):
            raise ValueError(f"unknown metric strategy: {self.metric!r}")
        for name in ("epsilon", "clamp_numerator"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative")
        _make_beta_schedule(self)  # rejects a bad beta_family, delta or T2


def _make_beta_schedule(config: SolverConfig) -> BetaSchedule:
    return BetaSchedule(family=config.beta_family, delta=config.delta, T2=config.T2)


def _make_metric_provider(config: SolverConfig, problem: DcProblem):
    if config.metric == "identity":
        return IdentityMetricProvider()
    if config.metric == "adagrad":
        return AdaGradMetricProvider(epsilon=config.epsilon,
                                     clamp_numerator=config.clamp_numerator)
    if config.metric == "split-gradient":
        if problem.split_denominator is None:
            raise ValueError("split-gradient metric needs problem.split_denominator")
        return SplitGradientMetricProvider(problem.split_denominator,
                                           clamp_numerator=config.clamp_numerator)
    raise ValueError(f"unknown metric strategy: {config.metric!r}")


def _check_start(problem: DcProblem, x0) -> Array:
    x0 = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x0)):
        raise ValueError("start point must be finite")
    n = problem.f.A.shape[1]
    if x0.shape != (n,):
        raise ValueError(f"start point must have {n} entries, one per column of A")
    if problem.g.eval(x0) == float("inf") or not problem.feasible_set.contains(x0):
        raise ValueError("start point is infeasible")
    return x0


# A stall window in which the lowest objective falls by at most this much,
# relative to it, counts as no progress.  Settled objectives wander in a
# floating-point band 1.3-1.7e-12 relative wide, and each one-ulp new low in
# it would otherwise restart the window.  At F_low = 0 the window must bring
# no new low at all.
_STALL_REL_TOL = 1e-12


def _stop_reason(problem: DcProblem, stop: StoppingRule, F: float,
                 rel: float | None, s: IterationSnapshot, h_sub: Array | None,
                 lows: deque | None) -> str | None:
    if not math.isfinite(F):
        return "nonfinite"
    if stop.rel_tol is not None and rel is not None and rel <= stop.rel_tol:
        return "rel_tol"
    if stop.crit_tol is not None and criticality_residual(
            problem, s.x, s.t, problem.f.grad_at(s.z), h_sub) <= stop.crit_tol:
        return "crit_tol"
    # lows holds F_low(k - W) ... F_low(k)
    if lows is not None and lows[0] - lows[-1] <= _STALL_REL_TOL * abs(lows[-1]):
        return "stalled"
    return None


def _drive(problem: DcProblem, stop: StoppingRule | None, x0: Array, step,
           schedule: BetaSchedule, keep_states: bool, diagnostics: bool = False,
           on_value=None) -> RunResult:
    """Outer loop shared by every runner.

    ``step(state)`` returns the ``IterationSnapshot`` taken from ``state``
    at iteration ``state.k``; it is kept as is under ``keep_states``.  The
    loop then applies the restart rule of ``schedule``, the runner's weight
    schedule, and rolls the state over.  A x0 is computed here once and
    each later z comes from the accepted snapshot.

    Per accepted iterate x_k the loop forms, once each: h(x_k) with its
    subgradient (one ``value_subgrad`` call, whose value enters F(x_k) and
    whose subgradient enters the criticality stop test and the next step),
    and the step dx = x_k - x_{k-1} with dz = z_k - z_{k-1} (the restart
    test and the next extrapolation share it).  ``on_value`` receives each
    accepted objective value.  The running minima of the stall window are
    kept only for a stall clause.

    Each accepted iteration's scalars go to ``_TraceBuffers`` through bound
    ``append`` methods held in locals; the iteration counter, a relative
    error without a reference and a descent slack without ``diagnostics``
    are not stored per row.  ``_TraceBuffers.trace`` fills them in and
    makes the buffers the trace's columns without a copy.
    """
    stop = stop or StoppingRule()
    h = problem.h
    z0 = problem.f.A @ x0
    h_x, h_sub = h.value_subgrad_or_none(x0)
    state = IterateState(x0, z0, x0 - x0, z0 - z0, h_sub)
    ref = stop.ref_value
    buffers = _TraceBuffers()
    (add_F, add_rel, add_L, add_t, add_backtracks, add_beta, add_restarted,
     add_seconds, add_slack, add_gate) = (buffers.values[name].append for name in (
         "F_value", "rel_error", "L_accepted", "t", "n_backtracks", "beta_used",
         "restarted", "wall_clock_seconds", "descent_slack", "gate_passed"))
    add_no_gate = buffers.missing["gate_passed"].append
    states: List[IterationSnapshot] = []
    t_start = time.perf_counter()
    stop_reason = "max_iter"
    F_prev = objective(problem, x0, None, h_x) if diagnostics else None
    lows = None
    if stop.stall_iters is not None:
        lows = deque([math.inf], maxlen=stop.stall_iters + 1)  # F_low(0) = +inf

    for k in range(1, stop.max_iter + 1):
        state.k = k
        s = step(state)
        x, z = s.x, s.z
        h_x, h_sub = h.value_subgrad_or_none(x)
        F = objective(problem, x, s.f, h_x)
        dx = x - state.x_prev
        s.restarted = schedule.finish_iteration(k, dx, s.x_minus_y)
        if on_value is not None:
            on_value(F)
        if lows is not None:
            lows.append(F if F < lows[-1] else lows[-1])
        rel = None
        if ref is not None:
            rel = relative_error(F, ref)
            add_rel(rel)
        add_F(F)
        add_L(s.L)
        add_t(s.t)
        add_backtracks(s.n_backtracks)
        add_beta(s.beta)
        add_restarted(s.restarted)
        add_seconds(time.perf_counter() - t_start)
        gate = s.gate_passed
        add_gate(bool(gate))
        add_no_gate(gate is None)
        if diagnostics:
            add_slack(_slack(F_prev, F, state.x_prev, s.y, s.x, s.t, s.metric))
            F_prev = F
        if keep_states:
            states.append(s)

        state.x_prev, state.dx, state.h_prev = x, dx, h_sub
        state.z_prev, state.dz = z, z - state.z_prev
        state.L_prev = s.L

        reason = _stop_reason(problem, stop, F, rel, s, h_sub, lows)
        if reason is not None:
            stop_reason = reason
            break

    return RunResult(x=state.x_prev, trace=buffers.trace(),
                     states=states if keep_states else None,
                     stop_reason=stop_reason, x0=x0)


def spdcae_run(problem: DcProblem, config: SolverConfig,
               stop: StoppingRule | None = None, *, x0,
               keep_states: bool = False, diagnostics: bool = False) -> RunResult:
    """Extrapolated proximal DC loop with line search and variable metric.

    Per iteration: take a subgradient of h at the previous iterate, then let
    the backtracking line search settle the step size; the extrapolation
    weight and the metric are re-evaluated inside each trial (non-monotone
    mode) since both may depend on the trial step.  The restart rule fires
    after the step, using the accepted iterate.

    ``x0`` must lie in dom g and the feasible set.  ``keep_states`` records
    per-iteration snapshots for the audit helpers; ``diagnostics`` fills the
    per-iteration descent slack (``_slack`` at x = x_{k-1}, y_bar = x_k)
    into the trace.
    """
    x0 = _check_start(problem, x0)
    beta_schedule = _make_beta_schedule(config)
    metric_provider = _make_metric_provider(config, problem)

    def step(state: IterateState) -> IterationSnapshot:
        return backtrack_step(problem, config.backtrack, state, beta_schedule,
                              metric_provider)

    return _drive(problem, stop, x0, step, beta_schedule, keep_states, diagnostics)


def sfista_run(problem: DcProblem, config: SolverConfig,
               stop: StoppingRule | None = None, *, x0,
               keep_states: bool = False, diagnostics: bool = False) -> RunResult:
    """Convex specialization: h must be identically zero.

    Runs the same loop with the plain coupled-theta weight (no restart), which
    is what the O(1/k^2) certificate is stated for.
    """
    if not problem.h.is_zero:
        raise ValueError("the convex loop requires h = 0; use spdcae_run instead")
    cfg = dataclasses.replace(config, beta_family="plain")
    return spdcae_run(problem, cfg, stop, x0=x0,
                      keep_states=keep_states, diagnostics=diagnostics)


def _fixed_step(problem: DcProblem, L_fixed: float, x0, where: str):
    """The checked start, t = 1/L_fixed and ``prox_step``: the snapshot of
    ``prox_trial`` at ``base`` in the identity metric, warning once per run
    when the descent bound fails."""
    if L_fixed <= 0.0:
        raise ValueError("fixed curvature constant must be positive")
    x0 = _check_start(problem, x0)
    t = 1.0 / L_fixed
    D = identity_metric(x0.shape[0])
    warned = False

    def prox_step(k: int, base: Array, h: Array | None, f_base: float,
                  grad_base: Array, beta: float, theta: float) -> IterationSnapshot:
        nonlocal warned
        x_new, z_new, f_new, x_minus_y, ok = prox_trial(problem, base, f_base,
                                                        grad_base, h, t, D)
        if not ok and not warned:
            warned = True
            # stack: prox_step < policy step < _drive < public runner < caller
            warnings.warn(f"{where}: fixed step violates the descent bound; "
                          "the supplied curvature constant is likely too small",
                          RuntimeWarning, stacklevel=5)
        # positional, as in backtrack_step
        return IterationSnapshot(k, x_new, f_new, base, t, L_fixed, beta, theta,
                                 D, z_new, x_minus_y)

    return x0, t, prox_step


def pdcae_run(problem: DcProblem, L_fixed: float,
              restart_config: BetaSchedule | None = None,
              stop: StoppingRule | None = None, *, x0,
              keep_states: bool = False) -> RunResult:
    """Fixed-step identity-metric baseline with restarted weights.

    Equivalent to the general loop with a constant step 1/L_fixed and no line
    search; at a constant step the theta recursion is the classical one.
    Every run starts from the settings of ``restart_config`` with fresh
    weight state (theta = 1, t_prev = 0) and leaves the caller's schedule
    unchanged.  Violations of the descent bound at the fixed step are
    reported once as a RuntimeWarning (the constant was under-estimated),
    not errors.
    """
    x0, t, prox_step = _fixed_step(problem, L_fixed, x0, "pdcae_run")
    schedule = dataclasses.replace(restart_config or BetaSchedule(),
                                   theta=1.0, t_prev=0.0)

    def step(state: IterateState) -> IterationSnapshot:
        beta, theta = schedule.propose(t)
        y, f_y, grad_y = extrapolate(problem, state, beta)
        s = prox_step(state.k, y, state.h_prev, f_y, grad_y, beta, theta)
        schedule.commit(theta, t)
        return s

    return _drive(problem, stop, x0, step, schedule, keep_states)


def adca_run(problem: DcProblem, L_fixed: float, q: int,
             stop: StoppingRule | None = None, *, x0,
             keep_states: bool = False) -> RunResult:
    """Fixed-step baseline that gates extrapolation on recent objectives.

    The candidate y = x + beta (x - x_prev), projected onto the feasible
    set, is used as the base of the proximal step only if F(y) does not
    exceed the largest of the last q+1 iterate values (q >= 0); otherwise the
    step is taken from the current iterate, with f from the carried A x.
    Only actual iterates enter the history.  The trace records the gate
    decision, with beta_used = 0 on rejected candidates.
    """
    x0, t, prox_step = _fixed_step(problem, L_fixed, x0, "adca_run")
    if q < 0:
        raise ValueError("history depth q must be nonnegative")
    schedule = BetaSchedule(family="plain")
    history = deque([objective(problem, x0)], maxlen=q + 1)

    def step(state: IterateState) -> IterationSnapshot:
        beta, theta = schedule.propose(t)
        y, f_y, grad_y = extrapolate(problem, state, beta)
        h_y, h_sub_y = problem.h.value_subgrad_or_none(y)
        gate = objective(problem, y, f_y, h_y) <= max(history)
        if gate:
            base, f_base, grad_base, h = y, f_y, grad_y, h_sub_y
        else:
            base, h = state.x_prev, state.h_prev
            f_base, grad_base = problem.f.value_grad_at(state.z_prev)
        s = prox_step(state.k, base, h, f_base, grad_base,
                      beta if gate else 0.0, theta)
        schedule.commit(theta, t)
        s.gate_passed = gate
        return s

    return _drive(problem, stop, x0, step, schedule, keep_states,
                  on_value=history.append)


# --- audits ----------------------------------------------------------------

def _slack(F_x: float, F_y_bar: float, x: Array, y: Array, y_bar: Array,
           t: float, D: DiagonalMetric) -> float:
    """Slack of the one-step comparison bound, nonnegative when exact.

    For y_bar produced by the scaled proximal step at y, with F(x) and
    F(y_bar) known, the bound reads
    F(y_bar) <= F(x) + ||x - y||_D^2/(2t) - ||x - y_bar||_D^2/(2t);
    returned is rhs - lhs.
    """
    rhs = F_x + (D.norm_sq(x - y) - D.norm_sq(x - y_bar)) / (2.0 * t)
    return rhs - F_y_bar


def _iterates(result: RunResult):
    """(x_{k-2}, x_{k-1}, snapshot k) over the recorded iterations, x_{-1} = x_0."""
    if result.states is None:
        raise ValueError("run was made without keep_states=True")
    xs = [result.x0, result.x0] + [snap.x for snap in result.states]
    return zip(xs, xs[1:], result.states)


def extrapolation_slacks(result: RunResult) -> np.ndarray:
    """Per-iteration slack of ||x_{k-1} - y_k||_D^2 <= beta_k^2 ||x_{k-1} - x_{k-2}||_D^2."""
    slacks = []
    for x_prev2, x_prev, snap in _iterates(result):
        D = snap.metric
        slacks.append(snap.beta ** 2 * D.norm_sq(x_prev - x_prev2)
                      - D.norm_sq(x_prev - snap.y))
    return np.asarray(slacks)


def sfista_lyapunov(problem: DcProblem, x_star: Array, phi_star: float,
                    result: RunResult) -> np.ndarray:
    """Per-iteration slacks of the accelerated-rate energy inequality.

    With v_k = x_{k-1} + theta_k (x_k - x_{k-1}) (v_0 = x_0, t_0 = 0), checks

      t_k theta_k^2 (F(x_k) - phi_star) + ||x* - v_k||_{D_k}^2 / 2
        <= t_{k-1} theta_{k-1}^2 (F(x_{k-1}) - phi_star)
           + ||x* - v_{k-1}||_{D_k}^2 / 2,

    both norms in the iteration-k metric.  Returns rhs - lhs per iteration;
    nonnegative when the coupled theta schedule ran unrestarted.
    """
    iterates = _iterates(result)
    x_star = np.asarray(x_star, dtype=float)
    slacks = []
    v_prev = result.x0
    t_prev = 0.0
    theta_prev = 1.0
    F_prev = objective(problem, result.x0)
    for _, x_prev, snap in iterates:
        D = snap.metric
        v_k = x_prev + snap.theta * (snap.x - x_prev)
        F_k = objective(problem, snap.x, snap.f)
        lhs = snap.t * snap.theta ** 2 * (F_k - phi_star) + 0.5 * D.norm_sq(x_star - v_k)
        rhs = t_prev * theta_prev ** 2 * (F_prev - phi_star) + 0.5 * D.norm_sq(x_star - v_prev)
        slacks.append(rhs - lhs)
        v_prev = v_k
        t_prev = snap.t
        theta_prev = snap.theta
        F_prev = F_k
    return np.asarray(slacks)
