"""Sparse logistic regression with an l1-minus-l2 penalty.

Model: minimize (1/m) sum_i log(1 + exp(-b_i <a_i, x>)) + lam ||x||_1
               - lam ||x||_2 over the whole space.  The smooth part is the
averaged logistic loss, the proximable part the l1 term, and the subtracted
concave part the l2 norm, so the penalty vanishes on one-sparse vectors.
The smooth part is written at z = A x once (``logistic_smooth``), so the
solvers can carry z through their loop.

With u = -b * z, the loss and the sigmoid share one exp pass,
e = exp(-|u|), which never overflows:
log(1 + exp(u)) = max(u, 0) + log1p(e), and
sigmoid(u) = 1 / (1 + e) for u >= 0 and e / (1 + e) for u < 0.  The
sigmoid is the gradient's factor.  In this form it stays within an ulp of
the true value on the whole line, subnormal results included, and is zero
only where the true value rounds to zero; no scipy is needed.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .metric import DiagonalMetric, divide_by
from .problem import (ConcavePartOracle, DcProblem, ProximableOracle,
                      SmoothOracle, _norm, whole_space)

Array = np.ndarray


def _issparse(A) -> bool:
    """``scipy.sparse.issparse(A)`` without importing scipy: no sparse
    matrix can exist before ``scipy.sparse`` has been imported."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


@dataclass(frozen=True)
class LogRegData:
    """Design matrix (dense or CSR), labels in {-1, +1}, penalty weight."""

    A: object  # (m, n) ndarray or scipy.sparse.csr_matrix
    b: Array
    lam: float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if not np.all(np.isin(b, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if self.A.shape[0] != b.shape[0]:
            raise ValueError("label count must match the number of rows")
        if self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise ValueError("need at least one sample and one feature")
        entries = self.A.data if _issparse(self.A) else self.A  # NaN or inf shows in min or max
        if entries.size and not np.isfinite((entries.min(), entries.max())).all():
            raise ValueError("design matrix A has non-finite entries")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("penalty weight lam must be positive and finite")
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _exp_neg_abs(z: Array, nb: Array) -> tuple[Array, Array]:
    """u = nb * z = -b * z and e = exp(-|u|), the one exp pass of the loss."""
    u = nb * z
    return u, np.exp(-np.abs(u))


def _mean_softplus(u: Array, e: Array, m: int) -> float:
    # mean of log(1 + exp(u)) = max(u, 0) + log1p(exp(-|u|)), summed and divided as np.mean
    return float(np.add.reduce(np.maximum(u, 0.0) + np.log1p(e)) / m)


def logistic_smooth(data: LogRegData) -> SmoothOracle:
    """Averaged logistic loss f(x) = l(A x).

    At z = A x and u = -b * z:
    value = (1/m) sum_i log(1 + exp(u_i)),
    grad  = -(1/m) A^T (b * sigmoid(u)),
    both from the one e = exp(-|u|) (see the module docstring).
    """
    A, nb, m = data.A, -data.b, data.m

    def grad_from(u: Array, e: Array) -> Array:
        sigmoid = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
        return np.asarray(A.T @ (nb * sigmoid) / m)

    def value_grad_at(z: Array) -> tuple[float, Array]:
        u, e = _exp_neg_abs(z, nb)
        return _mean_softplus(u, e, m), grad_from(u, e)

    return SmoothOracle(A, lambda z: _mean_softplus(*_exp_neg_abs(z, nb), m),
                        value_grad_at, lambda z: grad_from(*_exp_neg_abs(z, nb)))


def l1_scaled_prox(v: Array, t: float, lam: float,
                   D: DiagonalMetric | None = None) -> Array:
    """Soft threshold with per-coordinate level t*lam/D_i.

    Solves argmin_u lam ||u||_1 + ||u - v||_D^2 / (2 t) coordinatewise.
    """
    if t <= 0.0 or lam < 0.0:
        raise ValueError("need t > 0 and lam >= 0")
    level = divide_by(t * lam, D)
    return np.sign(v) * np.maximum(np.abs(v) - level, 0.0)


def logistic_lipschitz_bound(data: LogRegData, tol: float = 1e-8,
                             max_iter: int = 1000) -> float:
    """Global curvature bound lambda_max(A^T A) / (4 m) by power iteration.

    The start vector is a fixed pseudo-random direction so ties with the
    deterministic all-ones vector cannot hide the top eigenvalue.  If the
    Rayleigh quotient has not settled to relative tolerance ``tol`` within
    ``max_iter`` rounds, falls back to the coarser Frobenius bound
    ||A||_F^2 / (4 m) with a warning.  A dense A with n <= m iterates on
    G = A^T A, formed once; a sparse A (whose G fills in) and a wide one
    (whose G outgrows A) iterate on the two products.
    """
    A = data.A
    m, n = A.shape
    G = A.T @ A if n <= m and not _issparse(A) else None
    rng = np.random.Generator(np.random.Philox(0))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(max_iter):
        u = np.asarray(A.T @ (A @ v) if G is None else G @ v)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            return 0.0  # A annihilates the iterate; spectrum is 0 on its span
        lam = float(np.dot(v, u))
        v = u / nrm
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam / (4.0 * m)
        lam_prev = lam
    warnings.warn("power iteration stagnated; using the Frobenius bound",
                  RuntimeWarning, stacklevel=2)
    fro_sq = np.dot(A.data, A.data) if _issparse(A) else np.sum(A * A)
    return float(fro_sq) / (4.0 * m)


def l1_proximable(lam: float) -> ProximableOracle:
    """g(x) = lam ||x||_1 with its scaled soft-threshold prox."""
    return ProximableOracle(
        eval=lambda x: float(lam * np.abs(x).sum()),
        scaled_prox=lambda v, t, D: l1_scaled_prox(v, t, lam, D))


def l2_concave(lam: float) -> ConcavePartOracle:
    """h(x) = lam ||x||_2 with the subgradient lam x / ||x|| (zero at the
    origin); the value and the subgradient share one norm."""
    def value_subgrad(x: Array) -> tuple[float, Array]:
        nrm = _norm(x)
        return float(lam * nrm), np.zeros_like(x) if nrm == 0.0 else lam * x / nrm

    return ConcavePartOracle(value_subgrad)


def build_logreg_problem(data: LogRegData) -> DcProblem:
    """Assemble the composite problem around the logistic loss oracles."""
    return DcProblem(f=logistic_smooth(data),
                     g=l1_proximable(data.lam),
                     h=l2_concave(data.lam),
                     feasible_set=whole_space())
