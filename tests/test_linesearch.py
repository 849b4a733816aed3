import dataclasses

import numpy as np
import pytest

from dcprox.accel import BetaSchedule
from dcprox.datasets import gen_logreg, gen_poisson_cs
from dcprox.linesearch import (BacktrackConfig, IterateState, LineSearchError,
                               backtrack_step, extrapolate, initial_L,
                               prox_trial, sufficient_decrease)
from dcprox.logreg import build_logreg_problem
from dcprox.metric import (DiagonalMetric, IdentityMetricProvider,
                           identity_metric)
from dcprox.poisson import build_poisson_problem
from dcprox.problem import (DcProblem, SmoothOracle, least_squares_smooth,
                            nonnegative_orthant, quadratic_smooth, whole_space,
                            zero_concave, zero_proximable)


def _quad_problem(curvature=4.0):
    return DcProblem(f=quadratic_smooth(np.zeros(1), curvature=curvature),
                     g=zero_proximable(), h=zero_concave(),
                     feasible_set=whole_space())


def _state(prob, x, h=None):
    """The state entering iteration 1 from the one-entry start [x], with
    subgradient h there (None for h = 0)."""
    x0 = np.array([x])
    z0 = prob.f.A @ x0
    return IterateState(x_prev=x0, z_prev=z0, dx=x0 - x0, dz=z0 - z0,
                        h_prev=h, L_prev=1.0, k=1)


def test_config_validation():
    with pytest.raises(ValueError):
        BacktrackConfig(eta=1.0)
    with pytest.raises(ValueError):
        BacktrackConfig(rho=0.0)
    with pytest.raises(ValueError):
        BacktrackConfig(rho=1.0)
    with pytest.raises(ValueError):
        BacktrackConfig(L_floor=0.0)
    with pytest.raises(ValueError):
        BacktrackConfig(T1=0)
    with pytest.raises(ValueError):
        BacktrackConfig(mode="sometimes")


def test_initial_L_monotone_passes_through():
    # the caller supplies L_init as the previous estimate at k = 1
    cfg = BacktrackConfig(mode="monotone", L_init=7.0)
    assert initial_L(cfg, 1, cfg.L_init) == 7.0
    for k in (2, 5, 10):
        assert initial_L(cfg, k, 4.0) == 4.0


def test_initial_L_nonmonotone_default_holds_on_period():
    # deflate between checkpoints, hold on multiples of T1
    cfg = BacktrackConfig(mode="nonmonotone", T1=5, rho=0.5, L_init=1.0)
    assert initial_L(cfg, 1, cfg.L_init) == 1.0
    assert initial_L(cfg, 4, 4.0) == 2.0
    assert initial_L(cfg, 5, 4.0) == 4.0
    assert initial_L(cfg, 6, 4.0) == 2.0


def test_initial_L_nonmonotone_flag_deflates_on_period():
    cfg = BacktrackConfig(mode="nonmonotone", T1=5, rho=0.5, L_init=1.0,
                          deflate_when_divisible=True)
    assert initial_L(cfg, 4, 4.0) == 4.0
    assert initial_L(cfg, 5, 4.0) == 2.0


def test_initial_L_respects_floor():
    cfg = BacktrackConfig(mode="nonmonotone", rho=0.5, L_floor=1e-10)
    assert initial_L(cfg, 2, 1e-12) == 1e-10
    cfg2 = BacktrackConfig(mode="nonmonotone", L_init=1e-12, L_floor=1e-10)
    assert initial_L(cfg2, 1, cfg2.L_init) == 1e-10


def test_sufficient_decrease_quadratic_threshold():
    f = quadratic_smooth(np.zeros(1), curvature=4.0)
    y = np.array([1.0])
    fy, g = f.value_grad(y)
    x_quarter = y - 0.25 * g
    x_half = y - 0.5 * g

    def holds(x, t, D):
        return sufficient_decrease(f.eval(x), fy, g, x - y, t, D)

    assert holds(x_quarter, 0.25, identity_metric(1))
    assert not holds(x_half, 0.5, identity_metric(1))
    # a heavier metric compensates for the longer step: D / t is what counts
    assert holds(x_half, 0.5, DiagonalMetric(np.array([2.0])))
    assert not holds(x_half, 0.5, DiagonalMetric(np.array([1.5])))


def test_backtrack_doubles_until_curvature():
    prob = _quad_problem(curvature=4.0)
    cfg = BacktrackConfig(mode="nonmonotone", eta=2.0, L_init=1.0)
    state = _state(prob, 1.0)
    out = backtrack_step(prob, cfg, state, BetaSchedule(family="none"),
                         IdentityMetricProvider())
    assert out.n_backtracks == 2
    assert out.L == 4.0
    assert out.t == 0.25
    assert np.allclose(out.x, [0.0])
    assert np.allclose(out.y, [1.0])
    assert out.beta == 0.0


def test_backtrack_exhaustion_raises_with_context():
    # a gradient oracle with the wrong sign can never satisfy the bound
    f = SmoothOracle(np.eye(1), value_at=lambda z: 0.5 * float(z @ z),
                     value_grad_at=lambda z: (0.5 * float(z @ z), -10.0 * z),
                     grad_at=lambda z: -10.0 * z)
    prob = DcProblem(f=f, g=zero_proximable(), h=zero_concave(),
                     feasible_set=whole_space())
    cfg = BacktrackConfig(mode="nonmonotone", max_inner=5, L_init=1.0)
    state = _state(prob, 1.0)
    with pytest.raises(LineSearchError) as exc_info:
        backtrack_step(prob, cfg, state, BetaSchedule(family="none"),
                       IdentityMetricProvider())
    err = exc_info.value
    assert isinstance(err, RuntimeError)
    assert err.k == 1
    assert err.L > 1.0
    assert np.allclose(err.y, [1.0])


class _CountingProvider(IdentityMetricProvider):
    def __init__(self):
        self.trials = 0
        self.accepts = 0

    def trial(self, k, y, grad_y):
        self.trials += 1
        return super().trial(k, y, grad_y)

    def accept(self, k, grad_y):
        self.accepts += 1
        super().accept(k, grad_y)


def test_monotone_evaluates_metric_once_per_iteration():
    prob = _quad_problem(curvature=4.0)
    state = _state(prob, 1.0)
    counter = _CountingProvider()
    backtrack_step(prob, BacktrackConfig(mode="monotone", L_init=1.0), state,
                   BetaSchedule(family="none"), counter)
    assert counter.trials == 1


def test_nonmonotone_reevaluates_metric_per_trial():
    prob = _quad_problem(curvature=4.0)
    state = _state(prob, 1.0)
    counter = _CountingProvider()
    backtrack_step(prob, BacktrackConfig(mode="nonmonotone", L_init=1.0), state,
                   BetaSchedule(family="none"), counter)
    assert counter.trials == 3  # L = 1, 2, 4


def test_concave_shift_enters_step():
    # h' acts as a constant shift of the gradient: x = y - t (grad - h')
    prob = _quad_problem(curvature=1.0)  # f = x^2/2, grad = x, L_true = 1
    state = _state(prob, 2.0, h=np.array([1.0]))
    out = backtrack_step(prob, BacktrackConfig(mode="nonmonotone", L_init=1.0),
                         state, BetaSchedule(family="none"),
                         IdentityMetricProvider())
    assert np.allclose(out.x, [1.0])
    assert out.n_backtracks == 0


def test_extrapolation_takes_A_y_by_linearity_unless_clipped():
    rng = np.random.default_rng(1)
    A = rng.uniform(0.0, 1.0, (6, 4))
    f = least_squares_smooth(A, rng.standard_normal(6))
    seen = []
    prob = DcProblem(
        f=dataclasses.replace(f, value_grad_at=lambda z: seen.append(z) or f.value_grad_at(z)),
        g=zero_proximable(), h=zero_concave(), feasible_set=nonnegative_orthant())
    x_prev = np.array([1.0, 2.0, 0.5, 3.0])

    def state(x_prev2):
        return IterateState(x_prev=x_prev, z_prev=A @ x_prev, dx=x_prev - x_prev2,
                            dz=A @ x_prev - A @ x_prev2)

    # nothing clipped: A y = z_prev + beta dz, within rounding
    s = state(np.array([0.5, 1.0, 0.25, 2.0]))
    y, _, _ = extrapolate(prob, s, 0.7)
    Ay = A @ y
    assert np.all(y > 0.0)
    assert seen[-1].tobytes() == (s.z_prev + 0.7 * s.dz).tobytes()
    assert np.linalg.norm(seen[-1] - Ay) <= 1e-12 * np.linalg.norm(Ay)
    # one coordinate clipped: A y is the forward product itself
    y, _, _ = extrapolate(prob, state(np.array([0.5, 1.0, 2.0, 2.0])), 0.7)
    assert y[2] == 0.0
    assert seen[-1].tobytes() == (A @ y).tobytes()


@pytest.mark.parametrize("family", ["logreg", "poisson"])
def test_identity_mark_changes_no_bit_of_a_trial(family):
    # identity_metric skips the divisions by its ones; an unmarked all-ones
    # diagonal takes them
    rng = np.random.default_rng(3)
    if family == "logreg":
        data, _ = gen_logreg(200, 30, rng=0)
        prob = build_logreg_problem(data)
        y = rng.standard_normal(30)
    else:
        data, _ = gen_poisson_cs(n=60, m=20, k_nonzeros=3, amp_max=1e3, rng=0)
        prob = build_poisson_problem(data)
        y = rng.uniform(0.5, 2.0, 60)
    f_y, grad_y = prob.f.value_grad(y)
    h = prob.h.subgrad(y)
    marked, plain = identity_metric(y.shape[0]), DiagonalMetric(np.ones(y.shape[0]))
    accepted = []
    for t in (1e-3, 0.1, 10.0, 1e3, 1e5):
        x_a, z_a, f_a, d_a, ok_a = prox_trial(prob, y, f_y, grad_y, h, t, marked)
        x_b, z_b, f_b, d_b, ok_b = prox_trial(prob, y, f_y, grad_y, h, t, plain)
        assert x_a.tobytes() == x_b.tobytes()
        assert z_a.tobytes() == z_b.tobytes()
        assert d_a.tobytes() == d_b.tobytes() == (x_a - y).tobytes()
        assert np.float64(f_a).tobytes() == np.float64(f_b).tobytes()
        assert ok_a == ok_b
        accepted.append(ok_a)
    assert True in accepted and False in accepted
