import numpy as np
import pytest
from conftest import finite_diff_grad

from dcprox.problem import (DcProblem, EvaluationDomainError,
                            criticality_residual, least_squares_smooth,
                            nonnegative_orthant, objective, quadratic_smooth,
                            whole_space, zero_concave, zero_proximable)
from dcprox.datasets import gen_poisson_cs
from dcprox.logreg import l1_proximable
from dcprox.poisson import build_poisson_problem


def test_whole_space_projection_is_identity():
    Y = whole_space()
    v = np.array([-3.0, 0.0, 7.5])
    assert np.array_equal(Y.scaled_project(v), v)
    assert Y.contains(v)


def test_orthant_projection_clamps():
    Y = nonnegative_orthant()
    v = np.array([-1.0, 2.0])
    assert np.array_equal(Y.scaled_project(v), [0.0, 2.0])
    assert not Y.contains(v)
    assert Y.contains(np.array([0.0, 2.0]))


def test_least_squares_checks_shapes_when_built():
    with pytest.raises(ValueError, match="2-d"):
        least_squares_smooth(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="one per row"):
        least_squares_smooth(np.ones((3, 2)), np.ones(2))
    # np.matrix is taken as a plain 2-d array, as before
    with pytest.warns(PendingDeprecationWarning):
        A = np.matrix(np.eye(3))
    f = least_squares_smooth(A, np.ones(3))
    assert f.value_grad(np.zeros(3))[0] == 1.5


def test_objective_short_circuits_on_infinite_g():
    def poisoned(x):
        raise AssertionError("smooth part must not be evaluated")

    from dcprox.problem import ProximableOracle, SmoothOracle
    f = SmoothOracle(np.eye(2), poisoned, poisoned, poisoned)
    g = ProximableOracle(eval=lambda x: np.inf, scaled_prox=lambda v, t, D: v)
    prob = DcProblem(f=f, g=g, h=zero_concave(), feasible_set=whole_space())
    assert objective(prob, np.zeros(2)) == np.inf


def _one_dim_lasso():
    return DcProblem(f=quadratic_smooth(np.array([2.0])), g=l1_proximable(1.0),
                     h=zero_concave(), feasible_set=whole_space())


def test_criticality_residual_zero_at_solution():
    prob = _one_dim_lasso()
    assert criticality_residual(prob, np.array([1.0]), 0.5) == 0.0


def test_criticality_residual_away_from_solution():
    prob = _one_dim_lasso()
    assert criticality_residual(prob, np.array([0.0]), 0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("family", ["lasso", "poisson"])
def test_criticality_residual_is_numpy_norm_bit_for_bit(family):
    rng = np.random.default_rng(5)
    if family == "lasso":
        A = rng.standard_normal((200, 50))
        prob = DcProblem(f=least_squares_smooth(A, rng.standard_normal(200)),
                         g=l1_proximable(0.1), h=zero_concave(),
                         feasible_set=whole_space())
        x = rng.standard_normal(50)
    else:
        data, _ = gen_poisson_cs(n=60, m=20, k_nonzeros=3, amp_max=1e3, rng=0)
        prob = build_poisson_problem(data)
        x = rng.uniform(0.0, 2.0, 60)
    for t in (1e-3, 0.5):
        step = x - t * (prob.f.grad(x) - prob.h.subgrad(x))
        x_hat = prob.g.scaled_prox(step, t, None)
        assert criticality_residual(prob, x, t) == float(np.linalg.norm(x - x_hat))


def test_criticality_requires_positive_step():
    prob = _one_dim_lasso()
    with pytest.raises(ValueError):
        criticality_residual(prob, np.array([0.0]), 0.0)


def test_zero_oracles():
    h = zero_concave()
    assert h.is_zero
    assert h.eval(np.ones(3)) == 0.0
    assert np.array_equal(h.subgrad(np.ones(3)), np.zeros(3))
    g = zero_proximable()
    v = np.array([1.0, -2.0])
    assert g.eval(v) == 0.0
    assert np.array_equal(g.scaled_prox(v, 0.7, None), v)


def test_quadratic_smooth_gradient():
    f = quadratic_smooth(np.array([1.0, -2.0]), curvature=3.0)
    x = np.array([0.5, 0.5])
    assert f.eval(x) == pytest.approx(1.5 * (0.25 + 6.25))
    fd = finite_diff_grad(f.eval, x)
    assert np.allclose(f.grad(x), fd, rtol=1e-6, atol=1e-8)


def test_least_squares_gradient():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 4))
    y = rng.standard_normal(7)
    f = least_squares_smooth(A, y)
    x = rng.standard_normal(4)
    r = A @ x - y
    assert f.eval(x) == pytest.approx(0.5 * r @ r)
    fd = finite_diff_grad(f.eval, x)
    assert np.allclose(f.grad(x), fd, rtol=1e-6, atol=1e-7)


def test_domain_error_is_value_error():
    assert issubclass(EvaluationDomainError, ValueError)
