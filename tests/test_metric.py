import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcprox.metric import (AdaGradMetricProvider, DiagonalMetric,
                           IdentityMetricProvider, SplitGradientMetricProvider,
                           gamma, growth_factor, identity_metric)


def test_gamma_first_band():
    assert gamma(1, 1e13) == pytest.approx(1581138.830084506, rel=1e-14)
    assert gamma(1, 32.0) == 3.0


def test_gamma_shrinks_to_one():
    vals = [gamma(k, 1e13) for k in (1, 10, 10**4, 10**8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)


def test_gamma_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        gamma(0, 1e13)


def test_diagonal_metric_validation():
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([np.nan, -1.0]))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([-np.inf, 1.0]))
    with pytest.raises(ValueError):
        DiagonalMetric(np.ones((2, 2)))


def test_weighted_norm():
    d = DiagonalMetric(np.array([2.0, 0.5]))
    v = np.array([3.0, 4.0])
    assert d.norm_sq(v) == 2.0 * 9.0 + 0.5 * 16.0
    assert identity_metric(2).norm_sq(v) == 25.0


def test_identity_metric():
    assert np.array_equal(identity_metric(3).diag, np.ones(3))
    # only identity_metric marks a metric as the identity
    assert identity_metric(3).is_identity
    assert not DiagonalMetric(np.ones(3)).is_identity
    with pytest.raises(TypeError):
        DiagonalMetric(np.full(3, 2.0), is_identity=True)


def test_adagrad_zero_gradient_floor():
    # sqrt of the epsilon regularizer alone, well inside the first band
    D = AdaGradMetricProvider().trial(1, np.zeros(4), np.zeros(4))
    assert np.allclose(D.diag, 1e-3, rtol=0, atol=1e-18)


def test_adagrad_huge_accumulator_clamps_to_band_top():
    prov = AdaGradMetricProvider()
    prov.accept(1, np.full(3, 1e15))  # accumulator 1e30
    k = 10**8
    D = prov.trial(k, np.zeros(3), np.zeros(3))
    assert np.allclose(D.diag, gamma(k, 1e13), rtol=1e-15)


def test_adagrad_accumulates_squares():
    prov = AdaGradMetricProvider()
    g = np.array([1.0, 2.0])
    prov.accept(1, g)
    # a trial adds its own gradient to the committed [1, 4]
    D = prov.trial(2, np.zeros(2), g)
    assert np.allclose(D.diag, np.sqrt(np.array([2.0, 8.0]) + 1e-6))
    prov.accept(2, g)
    D = prov.trial(3, np.zeros(2), np.zeros(2))
    assert np.allclose(D.diag, np.sqrt(np.array([2.0, 8.0]) + 1e-6))


def test_split_gradient_frozen_example():
    # band [1/3, 3]; ratios (2, 4) clamp to (2, 3); metric is the inverse
    prov = SplitGradientMetricProvider(np.array([1.0, 2.0]), clamp_numerator=32.0)
    D = prov.trial(1, np.array([2.0, 8.0]), np.zeros(2))
    assert np.allclose(D.diag, [0.5, 1.0 / 3.0], rtol=1e-15)


def test_split_gradient_validation():
    with pytest.raises(ValueError):
        SplitGradientMetricProvider(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SplitGradientMetricProvider(np.ones(2)).trial(1, np.ones(3), np.zeros(3))


def test_identity_provider():
    prov = IdentityMetricProvider()
    D = prov.trial(1, np.zeros(3), np.zeros(3))
    assert np.array_equal(D.diag, np.ones(3))
    prov.accept(1, np.zeros(3))  # no state to corrupt


def test_identity_provider_builds_metric_once():
    prov = IdentityMetricProvider()
    D = prov.trial(1, np.zeros(3), np.zeros(3))
    assert prov.trial(2, np.ones(3), np.ones(3)) is D


def test_adagrad_provider_trial_is_pure():
    prov = AdaGradMetricProvider()
    g = np.array([3.0, 4.0])
    d1 = prov.trial(1, np.zeros(2), g).diag
    d2 = prov.trial(1, np.zeros(2), g).diag
    assert np.array_equal(d1, d2)
    prov.accept(1, g)
    d3 = prov.trial(2, np.zeros(2), g).diag
    # second trial sees the committed squares plus its own
    assert np.allclose(d3, np.minimum(np.sqrt(2.0 * g**2 + 1e-6), gamma(2, 1e13)))


def test_split_provider_uses_column_sums():
    V = np.array([1.0, 2.0])
    prov = SplitGradientMetricProvider(V, clamp_numerator=32.0)
    D = prov.trial(1, np.array([2.0, 8.0]), np.zeros(2))
    assert np.allclose(D.diag, [0.5, 1.0 / 3.0])


def test_split_provider_checks_denominator_once_and_shape_per_trial():
    for V in (np.array([1.0, 0.0]), np.array([1.0, -2.0]), np.ones((2, 2))):
        with pytest.raises(ValueError):
            SplitGradientMetricProvider(V)
    prov = SplitGradientMetricProvider(np.array([1.0, 2.0]), clamp_numerator=32.0)
    with pytest.raises(ValueError, match="matching shapes"):
        prov.trial(1, np.ones(3), np.zeros(3))
    # the metric it builds is still validated: the clamp band passes a NaN on
    assert np.isnan(np.maximum(0.5, np.minimum(2.0, np.array([np.nan, 1.0])))[0])
    with pytest.raises(ValueError, match="positive and finite"):
        prov.trial(1, np.array([np.nan, 1.0]), np.zeros(2))
    # a zero coordinate lands exactly on the band top gamma_4 = sqrt(1 + 32/25)
    y = np.array([0.0, 3.0])
    assert prov.trial(4, y, np.zeros(2)).diag[0] == gamma(4, 32.0)


def test_growth_checks():
    D1 = DiagonalMetric(np.array([1.0, 2.0]))
    D2 = DiagonalMetric(np.array([1.5, 2.0]))
    assert growth_factor(D1, D1) == 0.0
    assert growth_factor(D1, D2) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**6),
       st.lists(st.floats(min_value=1e-12, max_value=1e12), min_size=1, max_size=6))
def test_split_metric_always_inside_band(k, vals):
    # whatever the intensity/column-sum ratio, the clamp keeps the metric
    # inside [1/gamma_k, gamma_k]
    y = np.asarray(vals)
    D = SplitGradientMetricProvider(np.ones_like(y)).trial(k, y, np.zeros_like(y))
    g = gamma(k, 1e13)
    assert np.all(D.diag >= 1.0 / g - 1e-15)
    assert np.all(D.diag <= g * (1 + 1e-15))
