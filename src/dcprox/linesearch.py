"""Backtracking line search around the scaled proximal step.

A trial with curvature estimate L (step t = 1/L) is accepted when the smooth
term satisfies the quadratic upper bound at the new point, measured in the
trial metric.  Two warm-start policies are supported: monotone (the estimate
is carried over and only ever inflated) and non-monotone (the carried estimate
is periodically deflated so step sizes can grow again).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import DiagonalMetric, divide_by
from .problem import DcProblem

Array = np.ndarray

# Relative slack absorbing round-off when the bound holds with equality.
_DECREASE_SLACK = 1e-12


class LineSearchError(RuntimeError):
    """The inner loop hit its trial cap without satisfying the decrease test.

    Carries the last trial so the failure can be diagnosed.
    """

    def __init__(self, message: str, k: int, L: float, x: Array, y: Array):
        super().__init__(message)
        self.k = k
        self.L = L
        self.x = x
        self.y = y


@dataclass
class BacktrackConfig:
    """Tunables of the inner loop and its warm-start policy.

    mode
        "monotone" keeps the previous accepted estimate as the next initial
        guess; "nonmonotone" deflates it by rho on scheduled iterations and
        enforces the floor L_floor.
    deflate_when_divisible
        The non-monotone deflation schedule: False (default) deflates when T1
        does not divide k and holds otherwise; True inverts that.
    """

    mode: str = "nonmonotone"
    eta: float = 2.0
    T1: int = 5
    rho: float = 0.5
    L_floor: float = 1e-10
    L_init: float = 1.0
    max_inner: int = 100
    deflate_when_divisible: bool = False

    def __post_init__(self):
        if self.mode not in ("monotone", "nonmonotone"):
            raise ValueError(f"unknown backtracking mode: {self.mode!r}")
        if self.eta <= 1.0:
            raise ValueError("inflation factor eta must exceed 1")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("deflation factor rho must lie in (0, 1)")
        if self.L_floor <= 0.0 or self.L_init <= 0.0:
            raise ValueError("curvature estimates must be positive")
        if self.T1 < 1 or self.max_inner < 1:
            raise ValueError("T1 and max_inner must be >= 1")


@dataclass
class IterateState:
    """Rolling solver state entering outer iteration k.

    Holds the last iterate ``x_prev`` with ``z_prev`` = A x_prev, the last
    step ``dx`` = x_prev - x_prev2 with ``dz`` = z_prev - z_prev2 (zero at
    the start, where x_prev2 = x_prev), the subgradient ``h_prev`` of h at
    x_prev (None for a zero h) and the last accepted curvature estimate.
    The loop forms each once per accepted iterate.
    """

    x_prev: Array
    z_prev: Array
    dx: Array
    dz: Array
    h_prev: Array | None = None
    L_prev: float = 1.0
    k: int = 1


@dataclass
class IterationSnapshot:
    """Accepted iteration k, as every step policy returns it and the loop
    keeps it: x with z = A x and f = f(x), from the prox step of size
    t = 1/L in the metric at y, and ``x_minus_y`` = x - y from its decrease
    test; beta and theta gave y.
    """

    k: int
    x: Array
    f: float
    y: Array
    t: float
    L: float
    beta: float
    theta: float
    metric: DiagonalMetric
    z: Array
    x_minus_y: Array
    n_backtracks: int = 0
    restarted: bool = False
    gate_passed: bool | None = None


def initial_L(config: BacktrackConfig, k: int, L_returned_prev: float) -> float:
    """Warm-start curvature guess for outer iteration k.

    Monotone mode passes the previous accepted estimate through.  Non-monotone
    mode deflates it by rho on scheduled iterations (see
    ``deflate_when_divisible``) and never returns less than L_floor.  At k = 1
    the caller supplies L_init as the previous estimate.
    """
    if k < 1:
        raise ValueError("iteration counter must be >= 1")
    if L_returned_prev <= 0.0:
        raise ValueError("previous curvature estimate must be positive")
    if config.mode == "monotone":
        return L_returned_prev
    if k == 1:
        return max(config.L_floor, L_returned_prev)
    divisible = (k % config.T1 == 0)
    deflate = divisible if config.deflate_when_divisible else not divisible
    guess = config.rho * L_returned_prev if deflate else L_returned_prev
    return max(config.L_floor, guess)


def sufficient_decrease(fx: float, fy: float, grad_y: Array, d: Array,
                        t: float, D: DiagonalMetric) -> bool:
    """Quadratic upper bound test in the metric D, for d = x - y.

    f(x) <= f(y) + <grad_y, d> + ||d||_D^2 / (2 t), with a relative slack of
    1e-12 * max(1, |f(y)|) so exact-curvature steps are accepted.
    """
    if t <= 0.0:
        raise ValueError("step size must be positive")
    bound = fy + float(grad_y.dot(d)) + D.norm_sq(d) / (2.0 * t)
    return fx <= bound + _DECREASE_SLACK * max(1.0, abs(fy))


def extrapolate(problem: DcProblem, state: IterateState,
                beta: float) -> tuple[Array, float, Array]:
    """y = P(x_prev + beta dx) with f(y) and grad f(y).

    When the projection clips nothing (always on the whole space), f is
    taken at A y = z_prev + beta dz without a forward product; otherwise
    the projection breaks linearity and A y is formed.
    """
    f = problem.f
    y_lin = state.x_prev + beta * state.dx
    y = problem.feasible_set.scaled_project(y_lin)
    z = state.z_prev + beta * state.dz if y is y_lin else f.A @ y
    return y, *f.value_grad_at(z)


def prox_trial(problem: DcProblem, y: Array, f_y: float, grad_y: Array,
               h: Array | None, t: float,
               D: DiagonalMetric) -> tuple[Array, Array, float, Array, bool]:
    """x_new = prox of g of size t in the metric D at y - t D^{-1} (grad_y - h),
    z_new = A x_new, f(x_new), x_new - y, and whether the decrease test from
    (f_y, grad_y) at y holds.  ``h`` None stands for a zero subgradient."""
    d = grad_y if h is None else grad_y - h
    x_new = problem.g.scaled_prox(y - divide_by(t * d, D), t, D)
    z_new = problem.f.A @ x_new
    f_new = problem.f.value_at(z_new)
    x_minus_y = x_new - y
    return (x_new, z_new, f_new, x_minus_y,
            sufficient_decrease(f_new, f_y, grad_y, x_minus_y, t, D))


def backtrack_step(problem: DcProblem, config: BacktrackConfig,
                   state: IterateState, beta_provider,
                   metric_provider) -> IterationSnapshot:
    """Run one outer iteration's inner loop and return the accepted trial.

    ``beta_provider.propose(t)`` and ``metric_provider.trial(k, y, grad_y)``
    are re-evaluated inside every trial in non-monotone mode, since the
    coupled weight depends on the trial step size; monotone mode proposes
    beta once, at the first trial, whose step 1/L_{k-1} is t_prev from k = 2
    on (a step ratio of exactly 1), fixes the extrapolated point and only
    re-solves the prox subproblem.  On acceptance the providers are committed,
    ``beta_provider.commit(theta, t)`` then ``metric_provider.accept(k,
    grad_y)``; the restart rule is left to the caller.  The subgradient of h
    at ``state.x_prev`` is ``state.h_prev``.  The smooth term is called once
    per extrapolated point (``extrapolate``) and once per trial point
    (``prox_trial``).
    """
    k, h = state.k, state.h_prev
    L = initial_L(config, k, state.L_prev if k > 1 else config.L_init)
    monotone = config.mode == "monotone"

    for i in range(config.max_inner):
        t = 1.0 / L
        if i == 0 or not monotone:
            beta, theta = beta_provider.propose(t)
            y, f_y, grad_y = extrapolate(problem, state, beta)
            D = metric_provider.trial(k, y, grad_y)
        x_new, z_new, f_new, x_minus_y, ok = prox_trial(problem, y, f_y, grad_y,
                                                        h, t, D)
        if ok:
            beta_provider.commit(theta, t)
            metric_provider.accept(k, grad_y)
            # positional: keyword arguments cost more than building the record
            return IterationSnapshot(k, x_new, f_new, y, t, L, beta, theta, D,
                                     z_new, x_minus_y, i)
        L = config.eta * L

    raise LineSearchError(
        f"line search did not terminate within {config.max_inner} trials "
        f"at iteration {k} (last L = {L:.3e})", k=k, L=L, x=state.x_prev, y=y)
