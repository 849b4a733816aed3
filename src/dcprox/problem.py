"""Composite model F(x) = f(x) + g(x) - h(x) over a feasible set.

f is smooth convex, g is closed convex with an inexpensive (scaled) proximal
map, h is convex and continuous, and dom g is contained in a closed convex set
Y on which f is smooth.  Oracles are plain records of callables so problems
can be assembled from closed-form pieces without subclassing.  The smooth
term answers ``eval(x)`` and the fused ``value_grad(x)``, so each point the
solvers visit costs one call; ``objective`` reuses an f(x) already known.
A smooth term of the form f(x) = l(A x) may also carry ``A`` and its
callables at z = A x, so the solvers can carry z through the loop and form
A y by linearity instead of a matrix product.
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


@dataclass(frozen=True)
class SmoothOracle:
    """Value, and value with gradient, of the smooth convex term.

    Both callables must be finite on the feasible set and deterministic, and
    ``value_grad(x)[0]`` must equal ``eval(x)`` exactly.

    The optional linear form describes f(x) = l(A x): the matrix ``A``
    (dense or sparse) and, at z = A x, ``value_at(z)`` = f(x),
    ``value_grad_at(z)`` = (f(x), grad f(x)) and ``grad_at(z)`` = grad f(x),
    each equal bit for bit to the x-space call at x.  All four are given or
    none is.
    """

    eval: Callable[[Array], float]
    value_grad: Callable[[Array], Tuple[float, Array]]
    A: Any = None
    value_at: Optional[Callable[[Array], float]] = None
    value_grad_at: Optional[Callable[[Array], Tuple[float, Array]]] = None
    grad_at: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        parts = (self.A, self.value_at, self.value_grad_at, self.grad_at)
        if len({part is None for part in parts}) > 1:
            raise ValueError("a linear form needs A, value_at, value_grad_at "
                             "and grad_at together")

    def grad(self, x: Array) -> Array:
        if self.A is None:
            return self.value_grad(x)[1]
        return self.grad_at(self.A @ x)


@dataclass(frozen=True)
class ProximableOracle:
    """g together with its scaled proximal map.

    ``scaled_prox(v, t, D)`` returns argmin_u g(u) + ||u - v||_D^2 / (2 t)
    for a positive diagonal D (``None`` means identity).  ``eval`` may return
    +inf outside dom g.
    """

    eval: Callable[[Array], float]
    scaled_prox: Callable[[Array, float, Optional[DiagonalMetric]], Array]


@dataclass(frozen=True)
class ConcavePartOracle:
    """The subtracted convex term h with a deterministic subgradient selection."""

    eval: Callable[[Array], float]
    subgrad: Callable[[Array], Array]
    is_zero: bool = False


@dataclass(frozen=True)
class FeasibleSet:
    """Closed convex constraint set of a supported separable kind.

    Supported kinds are componentwise separable, so the projection in any
    diagonal metric is the Euclidean one and ``scaled_project`` takes none.
    """

    kind: str  # whole-space | nonnegative-orthant | box
    lo: Array | float | None = None
    hi: Array | float | None = None

    def __post_init__(self):
        if self.kind not in ("whole-space", "nonnegative-orthant", "box"):
            raise ValueError(f"unsupported feasible set kind: {self.kind!r}")
        if self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValueError("box set needs lo and hi")
            lo, hi = np.asarray(self.lo), np.asarray(self.hi)
            if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
                raise ValueError("box set needs lo and hi without NaN")
            if np.any(lo > hi):
                raise ValueError("box set needs lo <= hi")

    def scaled_project(self, v: Array) -> Array:
        if self.kind == "whole-space":
            return v
        if self.kind == "nonnegative-orthant":
            return np.maximum(v, 0.0)
        return np.clip(v, self.lo, self.hi)

    def contains(self, v: Array) -> bool:
        if self.kind == "whole-space":
            return True
        if self.kind == "nonnegative-orthant":
            return bool(np.all(v >= 0.0))
        return bool(np.all(v >= self.lo) and np.all(v <= self.hi))


def whole_space() -> FeasibleSet:
    return FeasibleSet("whole-space")


def nonnegative_orthant() -> FeasibleSet:
    return FeasibleSet("nonnegative-orthant")


def box(lo, hi) -> FeasibleSet:
    return FeasibleSet("box", lo=lo, hi=hi)


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


def objective(problem: DcProblem, x: Array, f_x: float | None = None) -> float:
    """F(x) = f(x) + g(x) - h(x); +inf when x is outside dom g.

    ``f_x``, when given, is taken as f(x) and f is not evaluated.  Domain
    violations of f raise EvaluationDomainError instead of returning +inf,
    since the solvers never evaluate f at such points.
    """
    gx = problem.g.eval(x)
    if gx == math.inf:
        return math.inf
    f_x = problem.f.eval(x) if f_x is None else f_x
    return float(f_x) + float(gx) - float(problem.h.eval(x))


def criticality_residual(problem: DcProblem, x: Array, t: float,
                         grad_x: Array | None = None) -> float:
    """Norm of the fixed-point displacement of one unscaled proximal step.

    Returns ||x - prox_{t g}(x - t (grad f(x) - h'(x)))|| with the identity
    metric; zero exactly at critical points for any t > 0.  ``grad_x``, when
    given, is taken as grad f(x) and f is not called.
    """
    if t <= 0.0:
        raise ValueError("step size must be positive")
    if grad_x is None:
        grad_x = problem.f.grad(x)
    step = x - t * (grad_x - problem.h.subgrad(x))
    x_hat = problem.g.scaled_prox(step, t, None)
    return float(np.linalg.norm(x - x_hat))


# --- common closed-form pieces -------------------------------------------

def zero_concave() -> ConcavePartOracle:
    return ConcavePartOracle(eval=lambda x: 0.0, subgrad=np.zeros_like, is_zero=True)


def zero_proximable() -> ProximableOracle:
    return ProximableOracle(eval=lambda x: 0.0, scaled_prox=lambda v, t, D: v)


def quadratic_smooth(center: Array, curvature: float = 1.0) -> SmoothOracle:
    """f(x) = curvature/2 * ||x - center||^2."""
    c = np.asarray(center, dtype=float)
    L = float(curvature)

    def value_grad(x: Array) -> Tuple[float, Array]:
        d = x - c
        return 0.5 * L * float(np.dot(d, d)), L * d

    return SmoothOracle(eval=lambda x: value_grad(x)[0], value_grad=value_grad)


def linear_composite(A, value_at: Callable[[Array], float],
                     value_grad_at: Callable[[Array], Tuple[float, Array]],
                     grad_at: Callable[[Array], Array]) -> SmoothOracle:
    """The smooth term f(x) = l(A x) from its callables at z = A x; the
    x-space ``eval`` and ``value_grad`` make the one forward product."""
    return SmoothOracle(eval=lambda x: value_at(A @ x),
                        value_grad=lambda x: value_grad_at(A @ x),
                        A=A, value_at=value_at, value_grad_at=value_grad_at,
                        grad_at=grad_at)


def least_squares_smooth(A: Array, y: Array) -> SmoothOracle:
    """f(x) = 1/2 ||A x - y||^2, with its linear form.  An ndarray subclass
    of A is kept as given, except np.matrix, whose products are 2-d."""
    A = (np.asarray if isinstance(A, np.matrix) else np.asanyarray)(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError("least-squares matrix A must be 2-d")
    if y.shape != (A.shape[0],):
        raise ValueError(f"least-squares target y must have {A.shape[0]} "
                         "entries, one per row of A")

    def value_at(z: Array) -> float:
        r = z - y
        return 0.5 * float(np.dot(r, r))

    def value_grad_at(z: Array) -> Tuple[float, Array]:
        r = z - y
        return 0.5 * float(np.dot(r, r)), A.T @ r

    def grad_at(z: Array) -> Array:
        return A.T @ (z - y)

    return linear_composite(A, value_at, value_grad_at, grad_at)
