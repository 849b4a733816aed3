"""Compressed sensing of photon counts under a Kullback-Leibler data term.

Model: minimize KL(b, A x + bg) + lam ||x||_1 - lam ||x||_2 over x >= 0,
where KL(b, c) = sum_i b_i log(b_i / c_i) + c_i - b_i (a zero count
contributes just c_i).  The nonnegativity constraint rides inside the
proximable term, so the prox is a one-sided soft threshold.  The gradient
splits as -grad KL = U - V with U = A^T (b / (A x + bg)) >= 0 and the
constant V = A^T 1 > 0, which the problem carries for the split-gradient metric.

The constants of the KL value that depend on the counts alone (the index of
the positive counts, those counts, and their total) are built once per data
record, so an oracle call pays only for the products, the logarithms and one
``min`` reduction per domain check.  When no count is zero the index is the
whole slice, so the positive entries of an intensity are a view, not a
copy.  The KL term is written at z = A x (``kl_smooth``), so the solvers can
carry z through their loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .logreg import l2_concave
from .metric import DiagonalMetric, divide_by
from .problem import (DcProblem, EvaluationDomainError, ProximableOracle,
                      SmoothOracle, _smallest, nonnegative_orthant)

Array = np.ndarray


@dataclass(frozen=True)
class PoissonCsData:
    """Nonnegative sensing matrix, observed counts, background, penalty.

    ``pos`` (the index of the positive counts: the whole slice when every
    count is positive, else the mask b > 0), ``b_pos`` (= b[pos]) and
    ``b_sum`` (= sum b) are derived from the counts on construction; the
    counts are not to be mutated afterwards.
    """

    A: Array
    b: Array
    bg: float = 1e-10
    lam: float = 1e-3
    pos: Array | slice = field(init=False, repr=False, compare=False)
    b_pos: Array = field(init=False, repr=False, compare=False)
    b_sum: np.float64 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if not np.isfinite(A).all():
            raise ValueError("sensing matrix A has non-finite entries")
        if np.any(A < 0.0):
            raise ValueError("sensing matrix must be componentwise nonnegative")
        if not np.isfinite(b).all():
            raise ValueError("counts b have non-finite entries")
        if np.any(b < 0.0):
            raise ValueError("counts must be nonnegative")
        if A.shape[0] != b.shape[0]:
            raise ValueError("count vector must match the number of rows")
        if not (math.isfinite(self.bg) and self.bg > 0.0):
            raise ValueError("background bg must be positive and finite")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("penalty weight lam must be nonnegative and finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        pos = b > 0.0
        if pos.all():
            pos = slice(None)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "b_pos", b[pos])
        object.__setattr__(self, "b_sum", np.sum(b))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


_NOT_POSITIVE = "model intensity is not strictly positive"


def kl_split(data: PoissonCsData, x: Array) -> tuple[Array, Array]:
    """Split -grad KL(x) = U - V into U = A^T(b/c) >= 0 and V = A^T 1 > 0.

    Raises when some column of A is identically zero, since V must be
    strictly positive for the split-gradient metric.
    """
    if _smallest(x) < 0.0:
        raise EvaluationDomainError("KL term evaluated at a negative point")
    c = data.A @ x + data.bg
    if _smallest(c) <= 0.0:
        raise EvaluationDomainError(_NOT_POSITIVE)
    U = data.A.T @ (data.b / c)
    V = data.A.T @ np.ones(data.m)
    if np.any(V <= 0.0):
        raise ValueError("sensing matrix has a zero column; split undefined")
    return U, V


def kl_smooth(data: PoissonCsData) -> SmoothOracle:
    """The KL term at z = A x, with c = z + bg checked strictly positive;
    x >= 0 is left to the feasible set.

    value = sum_i b_i log(b_i / c_i) + c_i - b_i, where terms with b_i = 0
    contribute c_i; grad = A^T (1 - b / c).  ``np.add.reduce`` is the
    reduction ``ndarray.sum`` makes, without its Python layer.
    """
    A, AT, b, bg = data.A, data.A.T, data.b, data.bg
    pos, b_pos, b_sum = data.pos, data.b_pos, data.b_sum
    add, log = np.add.reduce, np.log

    def value_at(z: Array) -> float:
        c = z + bg
        if _smallest(c) <= 0.0:
            raise EvaluationDomainError(_NOT_POSITIVE)
        return float(add(c) - b_sum + add(b_pos * log(b_pos / c[pos])))

    def value_grad_at(z: Array) -> tuple[float, Array]:
        c = z + bg
        if _smallest(c) <= 0.0:
            raise EvaluationDomainError(_NOT_POSITIVE)
        ratio = b / c  # ratio[pos] is b_pos / c[pos] entry for entry
        return (float(add(c) - b_sum + add(b_pos * log(ratio[pos]))),
                AT @ (1.0 - ratio))

    return SmoothOracle(A, value_at, value_grad_at, lambda z: value_grad_at(z)[1])


def l1_nonneg_scaled_prox(v: Array, t: float, lam: float,
                          D: DiagonalMetric | None = None) -> Array:
    """One-sided soft threshold max(v - t*lam/D, 0).

    Solves argmin_{u >= 0} lam sum(u) + ||u - v||_D^2 / (2 t) coordinatewise.
    """
    if t <= 0.0 or lam < 0.0:
        raise ValueError("need t > 0 and lam >= 0")
    level = divide_by(t * lam, D)
    return np.maximum(v - level, 0.0)


def l1_nonneg_proximable(lam: float) -> ProximableOracle:
    """g(x) = lam ||x||_1 + indicator(x >= 0)."""

    def value(x: Array) -> float:
        if _smallest(x) < 0.0:
            return math.inf
        return float(lam * np.add.reduce(x))

    return ProximableOracle(
        eval=value,
        scaled_prox=lambda v, t, D: l1_nonneg_scaled_prox(v, t, lam, D))


def build_poisson_problem(data: PoissonCsData) -> DcProblem:
    """Assemble the composite problem around the KL oracles, with the split's
    constant V = A^T 1 as the split-gradient metric's denominator."""
    col_sums = data.A.T @ np.ones(data.m)
    if np.any(col_sums <= 0.0):
        raise ValueError("sensing matrix has a zero column")
    return DcProblem(f=kl_smooth(data),
                     g=l1_nonneg_proximable(data.lam),
                     h=l2_concave(data.lam),
                     feasible_set=nonnegative_orthant(),
                     split_denominator=col_sums)
