import warnings

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from conftest import finite_diff_grad, golden_section

from dcprox.datasets import gen_logreg, gen_poisson_cs
from dcprox.logreg import (LogRegData, build_logreg_problem, l1_proximable,
                           l1_scaled_prox, l2_concave, logistic_lipschitz_bound,
                           logistic_smooth)
from dcprox.metric import DiagonalMetric
from dcprox.poisson import build_poisson_problem
from dcprox.problem import least_squares_smooth, objective, quadratic_smooth


def test_single_point_values():
    f = build_logreg_problem(LogRegData(A=np.array([[1.0]]), b=np.array([1.0]),
                                        lam=1e-3)).f
    v, g = f.value_grad(np.array([10.0]))
    assert v == pytest.approx(4.539889921686465e-05, rel=1e-14)
    v0, g0 = f.value_grad(np.array([0.0]))
    assert v0 == pytest.approx(0.6931471805599453, rel=1e-15)
    assert g0 == pytest.approx(np.array([-0.5]), rel=1e-15)


def test_value_is_mean_over_rows():
    A = np.array([[1.0], [1.0]])
    data = LogRegData(A=A, b=np.array([1.0, -1.0]), lam=1e-3)
    v, _ = build_logreg_problem(data).f.value_grad(np.array([0.0]))
    assert v == pytest.approx(np.log(2.0), rel=1e-15)


def test_no_overflow_at_extreme_margins():
    f = build_logreg_problem(LogRegData(A=np.array([[1.0]]), b=np.array([1.0]),
                                        lam=1e-3)).f
    v, g = f.value_grad(np.array([-1000.0]))
    assert v == pytest.approx(1000.0, rel=1e-12)
    assert np.isfinite(g).all()
    v2, _ = f.value_grad(np.array([1000.0]))
    assert v2 == 0.0


def test_sigmoid_factor_is_accurate_and_calls_agree_bit_for_bit():
    # With A = m I for m a power of two, the adjoint and the division by m
    # are exact, so -b * grad is the sigmoid factor itself, subnormals too.
    m = 4096
    u = np.linspace(-800.0, 800.0, m)
    b = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    f = logistic_smooth(LogRegData(A=sp.diags(np.full(m, float(m)), format="csr"),
                                   b=b, lam=1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigmoid = -b * f.value_grad_at(-b * u)[1]
    with mpmath.workprec(200):
        want = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in u])
    assert np.array_equal(sigmoid == 0.0, want == 0.0)
    err = np.abs(sigmoid - want)
    normal = want >= np.finfo(float).tiny
    assert np.all(err[normal] <= 1e-15 * want[normal])
    # a subnormal carries fewer digits: there the factor is within one ulp
    assert np.all(err[~normal] <= np.spacing(want[~normal]))
    assert np.count_nonzero(~normal & (want > 0.0)) > 50

    # the three calls agree bit for bit, on a dense design and its CSR copy
    data, _ = gen_logreg(400, 30, rng=5)
    z = np.random.default_rng(6).permutation(np.linspace(-800.0, 800.0, 400))
    for A in (data.A, sp.csr_matrix(data.A)):
        f = logistic_smooth(LogRegData(A=A, b=data.b, lam=data.lam))
        for point in (z, 1e-3 * z, z[::-1].copy()):
            value, grad = f.value_grad_at(point)
            assert f.value_at(point) == value
            assert f.grad_at(point).tobytes() == grad.tobytes()


def test_gradient_matches_finite_differences():
    data, _ = gen_logreg(30, 8, rng=7)
    f = build_logreg_problem(data).f
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(8)
        _, g = f.value_grad(x)
        fd = finite_diff_grad(lambda z: f.value_grad(z)[0], x)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_sparse_matches_dense():
    data, _ = gen_logreg(25, 6, rng=1)
    sdata = LogRegData(A=sp.csr_matrix(data.A), b=data.b, lam=data.lam)
    x = np.random.default_rng(2).standard_normal(6)
    v1, g1 = build_logreg_problem(data).f.value_grad(x)
    v2, g2 = build_logreg_problem(sdata).f.value_grad(x)
    assert v1 == pytest.approx(v2, rel=1e-14)
    assert np.allclose(g1, g2, rtol=1e-14)


def test_data_validation():
    with pytest.raises(ValueError):
        LogRegData(A=np.ones((2, 2)), b=np.array([1.0, 0.0]), lam=1e-3)
    with pytest.raises(ValueError):
        LogRegData(A=np.ones((2, 2)), b=np.array([1.0]), lam=1e-3)
    with pytest.raises(ValueError):
        LogRegData(A=np.ones((2, 2)), b=np.array([1.0, -1.0]), lam=0.0)
    for A, b in ((np.ones((0, 2)), np.ones(0)), (np.ones((2, 0)), np.ones(2)),
                 (sp.csr_matrix((0, 0)), np.ones(0))):
        with pytest.raises(ValueError, match="at least one sample and one feature"):
            LogRegData(A=A, b=b, lam=1e-3)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_data_rejects_nonfinite_penalty(lam):
    # a NaN weight used to pass and end in a LineSearchError at k = 1
    with pytest.raises(ValueError, match="lam"):
        LogRegData(A=np.ones((2, 2)), b=np.array([1.0, -1.0]), lam=lam)


@pytest.mark.parametrize("sparse", [False, True])
def test_data_rejects_nonfinite_matrix(sparse):
    A = np.ones((2, 2))
    A[1, 0] = np.nan
    with pytest.raises(ValueError, match="matrix A"):
        LogRegData(A=sp.csr_matrix(A) if sparse else A,
                   b=np.array([1.0, -1.0]), lam=1e-3)


def test_scaled_soft_threshold_frozen():
    D = DiagonalMetric(np.array([2.0, 0.5]))
    out = l1_scaled_prox(np.array([2.0, -0.5]), 1.0, 1.0, D)
    assert np.allclose(out, [1.5, 0.0], rtol=0, atol=0)


def test_soft_threshold_identity_metric():
    v = np.array([3.0, -0.2, 0.0])
    out = l1_scaled_prox(v, 2.0, 0.25)
    assert np.allclose(out, [2.5, 0.0, 0.0])
    assert np.array_equal(l1_scaled_prox(v, 1.0, 0.0), v)
    with pytest.raises(ValueError):
        l1_scaled_prox(v, 0.0, 1.0)
    with pytest.raises(ValueError):
        l1_scaled_prox(v, 1.0, -1.0)


def test_scaled_prox_against_golden_section():
    rng = np.random.default_rng(11)
    n = 400
    v = rng.uniform(-8.0, 8.0, n)
    t = rng.uniform(0.01, 2.0, n)
    lam = rng.uniform(0.0, 2.0, n)
    d = rng.uniform(0.25, 10.0, n)
    got = np.array([l1_scaled_prox(np.array([v[i]]), t[i], lam[i],
                                   DiagonalMetric(np.array([d[i]])))[0]
                    for i in range(n)])
    # extended precision keeps bracket decisions sharp near the flat minimum
    vl, tl = v.astype(np.longdouble), t.astype(np.longdouble)
    ll, dl = lam.astype(np.longdouble), d.astype(np.longdouble)
    obj = lambda z: ll * np.abs(z) + dl * (z - vl) ** 2 / (2.0 * tl)
    want = golden_section(obj, -(np.abs(vl) + 1.0), np.abs(vl) + 1.0)
    assert np.max(np.abs(got - want.astype(float))) <= 1e-8


def test_norm_subgradient():
    h = l2_concave(2.0)
    assert np.array_equal(h.subgrad(np.zeros(3)), np.zeros(3))
    x = np.array([3.0, 4.0])
    g = h.subgrad(x)
    assert np.allclose(g, [1.2, 1.6])
    assert np.linalg.norm(g) == pytest.approx(2.0)


def test_norm_matches_numpy_norm_bit_for_bit():
    # h and its subgradient compute ||x|| as np.linalg.norm does for a 1-d
    # float vector: the square root of x.x
    rng = np.random.default_rng(11)
    h = l2_concave(0.3)
    for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
        for n in (1, 7, 500):
            x = scale * rng.standard_normal(n)
            nrm = np.linalg.norm(x)
            assert np.array_equal(h.subgrad(x), 0.3 * x / nrm)
            assert h.eval(x) == float(0.3 * nrm)


def test_lipschitz_bound_frozen_scalars():
    data = LogRegData(A=np.array([[2.0]]), b=np.array([1.0]), lam=1e-3)
    assert logistic_lipschitz_bound(data) == pytest.approx(1.0, rel=1e-7)
    eye = LogRegData(A=np.eye(5), b=np.ones(5), lam=1e-3)
    assert logistic_lipschitz_bound(eye) == pytest.approx(0.05, rel=1e-7)


def test_lipschitz_bound_matches_eigensolver():
    data, _ = gen_logreg(40, 12, rng=5)
    want = np.linalg.eigvalsh(data.A.T @ data.A).max() / (4.0 * 40)
    assert logistic_lipschitz_bound(data) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("sparse", [False, True])
def test_lipschitz_bound_falls_back_to_frobenius(sparse):
    # integer entries make both sums of squares exact: 23 / (4 m) with m = 4
    A = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    data = LogRegData(A=sp.csr_matrix(A) if sparse else A,
                      b=np.array([1.0, -1.0, 1.0, -1.0]), lam=1e-3)
    with pytest.warns(RuntimeWarning, match="Frobenius") as record:
        bound = logistic_lipschitz_bound(data, max_iter=1)
    assert len(record) == 1
    assert bound == 23.0 / 16.0


def test_descent_bound_never_violated_at_lipschitz_constant():
    data, _ = gen_logreg(30, 10, rng=9)
    L = logistic_lipschitz_bound(data)
    f = build_logreg_problem(data).f
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.standard_normal(10) * rng.uniform(0.1, 5.0)
        y = rng.standard_normal(10) * rng.uniform(0.1, 5.0)
        fx, _ = f.value_grad(x)
        fy, gy = f.value_grad(y)
        bound = fy + gy @ (x - y) + 0.5 * L * np.sum((x - y) ** 2)
        assert fx <= bound + 1e-12 * max(1.0, abs(fy))


def test_problem_assembly():
    data, _ = gen_logreg(20, 6, rng=0)
    prob = build_logreg_problem(data)
    x = np.random.default_rng(1).standard_normal(6)
    v, _ = prob.f.value_grad(x)
    want = v + data.lam * np.abs(x).sum() - data.lam * np.linalg.norm(x)
    assert objective(prob, x) == pytest.approx(want, rel=1e-14)
    assert not prob.h.is_zero


def _smooth_case(kind):
    """(oracle, points, exact gradient or None for finite differences)."""
    rng = np.random.default_rng(8)
    if kind == "quadratic":
        c = rng.standard_normal(4)
        return (quadratic_smooth(c, curvature=3.0),
                [rng.standard_normal(4) for _ in range(4)], lambda x: 3.0 * (x - c))
    if kind == "least-squares":
        A = rng.standard_normal((7, 4))
        y = rng.standard_normal(7)
        return (least_squares_smooth(A, y),
                [rng.standard_normal(4) for _ in range(4)], lambda x: A.T @ (A @ x - y))
    if kind == "logreg":
        data, _ = gen_logreg(15, 4, rng=2)
        return (build_logreg_problem(data).f,
                [rng.standard_normal(4) for _ in range(4)], None)
    data, _ = gen_poisson_cs(n=4, m=6, k_nonzeros=2, amp_max=50.0, rng=4)
    return (build_poisson_problem(data).f,
            [rng.uniform(0.5, 3.0, 4) for _ in range(4)], None)


@pytest.mark.parametrize("kind", ["quadratic", "least-squares", "logreg", "poisson"])
def test_value_grad_matches_eval(kind):
    f, xs, exact = _smooth_case(kind)
    # interleave points: no call may depend on the previous argument
    for x in (xs[0], xs[1], xs[0], xs[2], xs[3], xs[2]):
        value, grad = f.value_grad(x)
        assert value == f.eval(x)
        assert np.array_equal(f.grad(x), grad)
        if exact is not None:
            assert np.allclose(grad, exact(x), rtol=1e-14, atol=1e-14)
        else:
            fd = finite_diff_grad(f.eval, x, step=1e-7)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)
        # the callables at z = A x are the x-space calls, bit for bit
        z = f.A @ x
        value_z, grad_z = f.value_grad_at(z)
        assert f.value_at(z) == value == value_z
        assert grad_z.tobytes() == grad.tobytes()
        assert f.grad_at(z).tobytes() == grad.tobytes()


def test_oracle_factories():
    g = l1_proximable(0.5)
    assert g.eval(np.array([1.0, -2.0])) == pytest.approx(1.5)
    h = l2_concave(0.5)
    assert h.eval(np.array([3.0, 4.0])) == pytest.approx(2.5)
    assert not h.is_zero
