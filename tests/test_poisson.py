import dataclasses

import numpy as np
import pytest
from conftest import finite_diff_grad

from dcprox.datasets import gen_poisson_cs
from dcprox.metric import DiagonalMetric
from dcprox.poisson import (PoissonCsData, build_poisson_problem, kl_smooth,
                            kl_split, l1_nonneg_proximable,
                            l1_nonneg_scaled_prox)
from dcprox.problem import EvaluationDomainError, objective


def test_single_cell_frozen_values():
    data = PoissonCsData(A=np.array([[1.0]]), b=np.array([2.0]), bg=0.5)
    v, g = kl_smooth(data).value_grad(np.array([0.5]))
    assert v == pytest.approx(0.3862943611198906, rel=1e-14)
    assert g == pytest.approx(np.array([-1.0]), rel=1e-14)


def test_zero_count_rows_contribute_intensity_only():
    data = PoissonCsData(A=np.array([[1.0], [2.0]]), b=np.array([0.0, 0.0]),
                         bg=0.25)
    v, g = kl_smooth(data).value_grad(np.array([1.0]))
    assert v == pytest.approx((1.0 + 0.25) + (2.0 + 0.25), rel=1e-14)
    assert g == pytest.approx(np.array([3.0]), rel=1e-14)


def test_gradient_matches_finite_differences():
    data, _ = gen_poisson_cs(n=20, m=8, k_nonzeros=3, amp_max=50.0, rng=4)
    f = kl_smooth(data)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(0.5, 3.0, 20)
        _, g = f.value_grad(x)
        fd = finite_diff_grad(f.eval, x, step=1e-7)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_split_recomposes_negative_gradient():
    data, _ = gen_poisson_cs(n=25, m=10, k_nonzeros=4, amp_max=100.0, rng=2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.0, 2.0, 25)
        g = kl_smooth(data).grad(x)
        U, V = kl_split(data, x)
        scale = np.maximum(1.0, np.abs(g))
        assert np.max(np.abs((U - V) + g) / scale) <= 1e-12
        assert np.all(U >= 0.0)
        assert np.all(V > 0.0)


def test_negative_point_rejected():
    data = PoissonCsData(A=np.array([[1.0]]), b=np.array([1.0]))
    with pytest.raises(EvaluationDomainError):
        kl_split(data, np.array([-0.1]))


def _counts_with_zeros():
    data, _ = gen_poisson_cs(n=30, m=12, k_nonzeros=3, amp_max=50.0, rng=6)
    b = data.b.copy()
    b[::3] = 0.0  # rows with zero counts contribute c_i only
    return PoissonCsData(A=data.A, b=b, bg=data.bg, lam=data.lam)


def _counts_all_positive():
    data, _ = gen_poisson_cs(n=30, m=12, k_nonzeros=3, amp_max=50.0, rng=6)
    return PoissonCsData(A=data.A, b=data.b + 1.0, bg=data.bg, lam=data.lam)


def test_kl_matches_direct_formula_bit_for_bit():
    # the constants built once per record give the values the formula gives,
    # through the mask (some zero counts) and through the slice (none)
    rng = np.random.default_rng(8)
    points = [np.zeros(30), np.ones(30)]
    points += [rng.uniform(0.0, scale, 30) for scale in (1e-3, 1.0, 1e4)
               for _ in range(4)]
    for data in (_counts_with_zeros(), _counts_all_positive()):
        A, b = data.A, data.b
        pos = b > 0.0
        assert pos.any() and isinstance(data.pos, slice) == pos.all()
        f = kl_smooth(data)
        for x in points:
            c = A @ x + data.bg
            want = float(np.sum(c) - np.sum(b)
                         + np.sum(b[pos] * np.log(b[pos] / c[pos])))
            v, g = f.value_grad(x)
            assert v == want
            assert f.eval(x) == want
            assert np.array_equal(g, A.T @ (1.0 - b / c))


def test_constants_follow_the_counts_through_replace():
    data = _counts_with_zeros()
    copy = dataclasses.replace(data)
    assert np.array_equal(copy.pos, data.pos) and copy.b_sum == data.b_sum
    x = np.full(30, 0.5)
    assert kl_smooth(copy).eval(x) == kl_smooth(data).eval(x)
    # a recount with no zero takes the slice, whose counts are a view
    recount = dataclasses.replace(data, b=data.b + 1.0)
    assert recount.b_sum == np.sum(data.b + 1.0) and recount.pos == slice(None)
    assert np.shares_memory(recount.b_pos, recount.b)
    fresh = PoissonCsData(A=data.A, b=data.b + 1.0, bg=data.bg)
    assert kl_smooth(recount).eval(x) == kl_smooth(fresh).eval(x)
    # and one that brings a zero back takes the mask again
    zeroed = recount.b.copy()
    zeroed[5] = 0.0
    rezero = dataclasses.replace(recount, b=zeroed)
    assert np.array_equal(rezero.pos, zeroed > 0.0)
    assert np.array_equal(rezero.b_pos, zeroed[zeroed > 0.0])
    assert rezero.b_sum == np.sum(zeroed)
    want = PoissonCsData(A=data.A, b=zeroed, bg=data.bg)
    assert kl_smooth(rezero).eval(x) == kl_smooth(want).eval(x)


def test_nan_point_gives_nan_value_and_negative_entry_still_rejected():
    data = PoissonCsData(A=np.array([[1.0, 2.0]]), b=np.array([3.0]))
    nan_point = np.array([np.nan, 1.0])
    f = kl_smooth(data)
    assert np.isnan(f.eval(nan_point))
    assert np.isnan(f.value_grad(nan_point)[0])
    # a negative entry is rejected wherever a NaN sits
    for x in (np.array([np.nan, -1.0]), np.array([-1.0, np.nan])):
        with pytest.raises(EvaluationDomainError):
            kl_split(data, x)
    g = l1_nonneg_proximable(0.5)
    assert np.isnan(g.eval(nan_point))
    assert g.eval(np.array([np.nan, -1.0])) == np.inf


def test_data_validation():
    with pytest.raises(ValueError):
        PoissonCsData(A=np.array([[-1.0]]), b=np.array([1.0]))
    with pytest.raises(ValueError):
        PoissonCsData(A=np.array([[1.0]]), b=np.array([-1.0]))
    with pytest.raises(ValueError):
        PoissonCsData(A=np.array([[1.0]]), b=np.array([1.0]), bg=0.0)
    with pytest.raises(ValueError):
        PoissonCsData(A=np.array([[1.0]]), b=np.array([1.0, 2.0]))


@pytest.mark.parametrize("field, kwargs", [
    ("matrix A", {"A": np.array([[1.0, np.nan]])}),
    ("counts b", {"b": np.array([np.nan])}),
    ("bg", {"bg": np.nan}),
    ("bg", {"bg": np.inf}),
    ("lam", {"lam": np.nan}),
])
def test_data_rejects_nonfinite_fields(field, kwargs):
    # each of these used to pass: NaN < 0 and NaN <= 0 are both False
    base = {"A": np.array([[1.0, 2.0]]), "b": np.array([3.0])}
    with pytest.raises(ValueError, match=field):
        PoissonCsData(**{**base, **kwargs})


def test_nonneg_threshold_frozen():
    D = DiagonalMetric(np.array([2.0, 0.5]))
    out = l1_nonneg_scaled_prox(np.array([2.0, -0.5]), 1.0, 1.0, D)
    assert np.allclose(out, [1.5, 0.0], rtol=0, atol=0)
    plain = l1_nonneg_scaled_prox(np.array([2.0, -0.5, 0.3]), 1.0, 0.5)
    assert np.allclose(plain, [1.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        l1_nonneg_scaled_prox(np.array([1.0]), 0.0, 1.0)


def test_nonneg_penalty_eval():
    g = l1_nonneg_proximable(0.5)
    assert g.eval(np.array([1.0, 2.0])) == pytest.approx(1.5)
    assert g.eval(np.array([1.0, -1e-9])) == np.inf


def test_problem_assembly_and_domain_guard():
    data, _ = gen_poisson_cs(n=15, m=6, k_nonzeros=2, amp_max=20.0, rng=0)
    prob = build_poisson_problem(data)
    assert prob.feasible_set.kind == "nonnegative-orthant"
    col_sums = np.asarray(data.A.sum(axis=0)).ravel()
    assert np.allclose(prob.split_denominator, col_sums, rtol=1e-12)
    x = np.random.default_rng(5).uniform(0.0, 1.0, 15)
    v = kl_smooth(data).eval(x)
    want = v + data.lam * x.sum() - data.lam * np.linalg.norm(x)
    assert objective(prob, x) == pytest.approx(want, rel=1e-13)
    # infinite g short-circuits before the smooth part can raise
    assert objective(prob, -x) == np.inf


def test_zero_column_rejected_at_build():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    data = PoissonCsData(A=A, b=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        build_poisson_problem(data)


def test_split_provider_feeds_variable_metric():
    # the V part of the split is what builds the metric denominator
    data, _ = gen_poisson_cs(n=12, m=5, k_nonzeros=2, amp_max=10.0, rng=1)
    x = np.full(12, 0.5)
    U, V = kl_split(data, x)
    col_sums = np.asarray(data.A.sum(axis=0)).ravel()
    assert np.allclose(V, col_sums, rtol=1e-12)
