"""Diagonal variable metrics and their update schedules.

A metric here is a positive diagonal matrix D that reshapes the norm used by
the proximal step, the projection, and the line-search acceptance test.  Every
schedule confines its diagonals to the shrinking band [1/gamma_k, gamma_k], so
the metrics stay uniformly bounded and their relative growth is summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

DEFAULT_CLAMP_NUMERATOR = 1e13
DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class DiagonalMetric:
    """Positive diagonal matrix stored as its diagonal vector.

    ``is_identity`` is set only by ``identity_metric``; ``divide_by`` then
    skips the division by its all-ones diagonal.
    """

    diag: Array
    is_identity: bool = field(default=False, init=False)

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        if d.ndim != 1:
            raise ValueError("metric diagonal must be a 1-d vector")
        # one reduction per bound; a NaN propagates through both and fails
        if not (np.minimum.reduce(d, initial=math.inf) > 0.0
                and np.maximum.reduce(d, initial=-math.inf) < math.inf):
            raise ValueError("metric diagonal entries must be positive and finite")
        object.__setattr__(self, "diag", d)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def norm_sq(self, v: Array) -> float:
        """Squared weighted norm sum_i diag_i * v_i**2."""
        return float(self.diag.dot(v * v))


def identity_metric(n: int) -> DiagonalMetric:
    D = DiagonalMetric(np.ones(n))
    object.__setattr__(D, "is_identity", True)
    return D


def divide_by(v: Array | float, D: DiagonalMetric | None) -> Array | float:
    """v / D.diag; v itself for the identity, ``None`` or ``identity_metric``,
    whose division by ones would be exact."""
    return v if D is None or D.is_identity else v / D.diag


def gamma(k: int, clamp_numerator: float) -> float:
    """Clamp-band edge sqrt(1 + clamp_numerator/(k+1)^2), decreasing to 1.

    Defined for outer iteration counters k >= 1.
    """
    if k < 1:
        raise ValueError("iteration counter must be >= 1")
    return math.sqrt(1.0 + clamp_numerator / float(k + 1) ** 2)


def _clamp_band(values: Array, k: int, clamp_numerator: float) -> Array:
    # max(lower, min(upper, value)) componentwise; lower = 1/gamma <= 1 <= gamma.
    g = gamma(k, clamp_numerator)
    return np.maximum(1.0 / g, np.minimum(g, values))


def growth_factor(D_prev: DiagonalMetric, D_next: DiagonalMetric) -> float:
    """A-posteriori growth eta_k = max(0, max_i D_next_i/D_prev_i - 1)."""
    if D_prev.n != D_next.n:
        raise ValueError("metric dimensions do not match")
    return max(0.0, float(np.max(D_next.diag / D_prev.diag)) - 1.0)


class IdentityMetricProvider:
    """Constant identity metric, built on the first trial and then reused."""

    _metric: DiagonalMetric | None = None

    def trial(self, k: int, y: Array, grad_y: Array) -> DiagonalMetric:
        if self._metric is None:
            self._metric = identity_metric(y.shape[0])
        return self._metric

    def accept(self, k: int, grad_y: Array) -> None:
        pass


class AdaGradMetricProvider:
    """Accumulated-squared-gradient diagonal with trial/accept semantics.

    ``trial`` prices in the candidate gradient without mutating the state, so
    rejected line-search trials leave no trace; ``accept`` commits the
    gradient of the accepted extrapolated point.
    """

    def __init__(self, epsilon: float = DEFAULT_EPSILON,
                 clamp_numerator: float = DEFAULT_CLAMP_NUMERATOR):
        self.epsilon = float(epsilon)
        self.clamp_numerator = float(clamp_numerator)
        self._acc: Array | None = None

    def trial(self, k: int, y: Array, grad_y: Array) -> DiagonalMetric:
        acc = self._acc if self._acc is not None else 0.0
        d = np.sqrt(acc + grad_y * grad_y + self.epsilon)
        return DiagonalMetric(_clamp_band(d, k, self.clamp_numerator))

    def accept(self, k: int, grad_y: Array) -> None:
        if self._acc is None:
            self._acc = np.zeros_like(grad_y)
        self._acc = self._acc + grad_y * grad_y


class SplitGradientMetricProvider:
    """Diagonal from the positive split of the gradient at the trial point.

    The metric at y is the inverse clamped ratio diag(clamp(y/V))^{-1}: the
    clamp applies to the ratio first and the inversion to the clamped value,
    so zero coordinates of y land exactly on the upper bound gamma_k.  ``V``
    is the strictly positive split denominator; the gradient split
    -grad f = U - V it comes from has a constant V.  ``V`` is checked once,
    here, and each trial checks only the shape of its point; the metric it
    builds is validated as every ``DiagonalMetric`` is (the clamp band
    propagates a NaN, so it does not guarantee finite entries).
    """

    def __init__(self, V: Array, clamp_numerator: float = DEFAULT_CLAMP_NUMERATOR):
        V = np.asarray(V, dtype=float)
        if V.ndim != 1:
            raise ValueError("split denominator must be a 1-d vector")
        if np.any(V <= 0.0):
            raise ValueError("split denominator must be strictly positive")
        self.V = V
        self.clamp_numerator = float(clamp_numerator)

    def trial(self, k: int, y: Array, grad_y: Array) -> DiagonalMetric:
        if y.shape != self.V.shape:
            raise ValueError("y and V must have matching shapes")
        return DiagonalMetric(1.0 / _clamp_band(y / self.V, k, self.clamp_numerator))

    def accept(self, k: int, grad_y: Array) -> None:
        pass
