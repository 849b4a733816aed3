"""Composite model F(x) = f(x) + g(x) - h(x) over a feasible set.

f is smooth convex, g is closed convex with an inexpensive (scaled) proximal
map, h is convex and continuous, and dom g is contained in a closed convex set
Y on which f is smooth.  Oracles are plain records of callables so problems
can be assembled from closed-form pieces without subclassing.  The smooth
term is f(x) = l(A x), given by ``A`` and its callables at z = A x, so the
solvers carry z through their loop and form A y by linearity instead of a
matrix product; ``objective`` reuses an f(x) already known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .metric import DiagonalMetric

Array = np.ndarray


class EvaluationDomainError(ValueError):
    """The smooth term was evaluated outside the interior of its domain.

    Feasible iterates never trigger this, so it is raised as a hard error
    rather than reported as an infinite objective value.
    """


_fmin_reduce = np.fmin.reduce


def _smallest(v: Array):
    """Smallest entry ignoring NaNs, +inf for an empty vector, so that
    ``_smallest(v) < a`` is ``np.any(v < a)`` in one reduction: a point with
    a NaN and a negative entry is still rejected, an all-NaN one is not."""
    # a def: a keyword functools.partial merges its keywords on every call
    return _fmin_reduce(v, initial=math.inf)


def _norm(x: Array) -> float:
    # what np.linalg.norm computes for a 1-d float vector, without its dispatch
    return math.sqrt(x.dot(x))


@dataclass(frozen=True)
class SmoothOracle:
    """The smooth convex term f(x) = l(A x), given at z = A x.

    ``A`` is the matrix (dense or sparse); ``value_at(z)`` is f(x),
    ``value_grad_at(z)`` is (f(x), grad f(x)) and ``grad_at(z)`` is
    grad f(x).  The three must agree bit for bit, be finite on the image of
    the feasible set and be deterministic.  The x-space methods make the one
    forward product.
    """

    A: Any
    value_at: Callable[[Array], float]
    value_grad_at: Callable[[Array], Tuple[float, Array]]
    grad_at: Callable[[Array], Array]

    def eval(self, x: Array) -> float:
        return self.value_at(self.A @ x)

    def value_grad(self, x: Array) -> Tuple[float, Array]:
        return self.value_grad_at(self.A @ x)

    def grad(self, x: Array) -> Array:
        return self.grad_at(self.A @ x)


@dataclass(frozen=True)
class ProximableOracle:
    """g together with its scaled proximal map.

    ``scaled_prox(v, t, D)`` returns argmin_u g(u) + ||u - v||_D^2 / (2 t)
    for a positive diagonal D.  ``None`` and a metric marked
    ``is_identity`` both mean the identity, with no division by D.
    ``eval`` may return +inf outside dom g.
    """

    eval: Callable[[Array], float]
    scaled_prox: Callable[[Array, float, Optional[DiagonalMetric]], Array]


@dataclass(frozen=True)
class ConcavePartOracle:
    """The subtracted convex term h with a deterministic subgradient selection.

    ``value_subgrad(x)`` is (h(x), the selected subgradient of h at x), in
    one call, so that what both need is computed once: for h = lam ||x||,
    the norm.  The loop calls it once per accepted iterate x_k; the value
    enters F(x_k), and the subgradient both the criticality stop test at x_k
    and the next step.  ``eval`` and ``subgrad`` take one half of it.
    ``is_zero`` promises that h and its subgradient are identically zero;
    the loop then calls nothing, subtracts nothing and takes h(x) as 0.
    """

    value_subgrad: Callable[[Array], Tuple[float, Array]]
    is_zero: bool = False

    def eval(self, x: Array) -> float:
        return self.value_subgrad(x)[0]

    def subgrad(self, x: Array) -> Array:
        return self.value_subgrad(x)[1]

    def value_subgrad_or_none(self, x: Array) -> Tuple[float, Array | None]:
        """``value_subgrad(x)``, or (0.0, None) for a zero h (nothing to
        subtract)."""
        return (0.0, None) if self.is_zero else self.value_subgrad(x)


@dataclass(frozen=True)
class FeasibleSet:
    """Closed convex constraint set: the whole space or the nonnegative
    orthant.

    Both are componentwise separable, so the projection in any diagonal
    metric is the Euclidean one and ``scaled_project`` takes none.
    """

    kind: str  # whole-space | nonnegative-orthant

    def __post_init__(self):
        if self.kind not in ("whole-space", "nonnegative-orthant"):
            raise ValueError(f"unsupported feasible set kind: {self.kind!r}")

    def scaled_project(self, v: Array) -> Array:
        """The projection of v; v itself when it clips nothing, so callers
        can test ``is``."""
        if self.kind == "whole-space" or _smallest(v) >= 0.0:
            return v
        return np.maximum(v, 0.0)

    def contains(self, v: Array) -> bool:
        return self.kind == "whole-space" or bool(np.all(v >= 0.0))


def whole_space() -> FeasibleSet:
    return FeasibleSet("whole-space")


def nonnegative_orthant() -> FeasibleSet:
    return FeasibleSet("nonnegative-orthant")


@dataclass(frozen=True)
class DcProblem:
    """Problem record bundling the three terms and the feasible set.

    ``split_denominator``, when present, is the strictly positive constant V
    of a gradient split -grad f(x) = U(x) - V with U(x) >= 0; it is the
    denominator of the split-gradient metric.
    """

    f: SmoothOracle
    g: ProximableOracle
    h: ConcavePartOracle
    feasible_set: FeasibleSet
    split_denominator: Array | None = None


def objective(problem: DcProblem, x: Array, f_x: float | None = None,
              h_x: float | None = None) -> float:
    """F(x) = f(x) + g(x) - h(x); +inf when x is outside dom g.

    ``f_x`` and ``h_x``, when given, are taken as f(x) and h(x), and f and h
    are not evaluated.  Domain violations of f raise EvaluationDomainError
    instead of returning +inf, since the solvers never evaluate f at such
    points.
    """
    gx = problem.g.eval(x)
    if gx == math.inf:
        return math.inf
    f_x = problem.f.eval(x) if f_x is None else f_x
    F = float(f_x) + float(gx)
    # F - 0.0 is F bit for bit, so a zero h is not evaluated
    if problem.h.is_zero:
        return F
    return F - float(problem.h.eval(x) if h_x is None else h_x)


def criticality_residual(problem: DcProblem, x: Array, t: float,
                         grad_x: Array | None = None,
                         subgrad_x: Array | None = None) -> float:
    """Norm of the fixed-point displacement of one unscaled proximal step.

    Returns ||x - prox_{t g}(x - t (grad f(x) - h'(x)))|| with the identity
    metric; zero exactly at critical points for any t > 0.  ``grad_x`` and
    ``subgrad_x``, when given, are taken as grad f(x) and h'(x), and f and h
    are not called.
    """
    if t <= 0.0:
        raise ValueError("step size must be positive")
    if grad_x is None:
        grad_x = problem.f.grad(x)
    if not problem.h.is_zero:
        if subgrad_x is None:
            subgrad_x = problem.h.subgrad(x)
        grad_x = grad_x - subgrad_x
    x_hat = problem.g.scaled_prox(x - t * grad_x, t, None)
    return _norm(x - x_hat)


# --- common closed-form pieces -------------------------------------------

def zero_concave() -> ConcavePartOracle:
    return ConcavePartOracle(lambda x: (0.0, np.zeros_like(x)), is_zero=True)


def zero_proximable() -> ProximableOracle:
    return ProximableOracle(eval=lambda x: 0.0, scaled_prox=lambda v, t, D: v)


def quadratic_smooth(center: Array, curvature: float = 1.0) -> SmoothOracle:
    """f(x) = curvature/2 * ||x - center||^2, with A the identity."""
    c = np.asarray(center, dtype=float)
    L = float(curvature)

    def value_grad_at(z: Array) -> Tuple[float, Array]:
        d = z - c
        return 0.5 * L * float(np.dot(d, d)), L * d

    return SmoothOracle(np.eye(c.shape[0]), lambda z: value_grad_at(z)[0],
                        value_grad_at, lambda z: value_grad_at(z)[1])


def least_squares_smooth(A: Array, y: Array) -> SmoothOracle:
    """f(x) = 1/2 ||A x - y||^2.  An ndarray subclass of A is kept as given,
    except np.matrix, whose products are 2-d."""
    A = (np.asarray if isinstance(A, np.matrix) else np.asanyarray)(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError("least-squares matrix A must be 2-d")
    if y.shape != (A.shape[0],):
        raise ValueError(f"least-squares target y must have {A.shape[0]} "
                         "entries, one per row of A")

    def value_at(z: Array) -> float:
        r = z - y
        return 0.5 * float(r.dot(r))

    def value_grad_at(z: Array) -> Tuple[float, Array]:
        r = z - y
        return 0.5 * float(r.dot(r)), A.T @ r

    def grad_at(z: Array) -> Array:
        return A.T @ (z - y)

    return SmoothOracle(A, value_at, value_grad_at, grad_at)
