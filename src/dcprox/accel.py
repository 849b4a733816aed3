"""Extrapolation weight schedules.

The momentum weight beta_k = (theta_{k-1} - 1) / theta_k is driven by a
coupled theta recursion whose ratio term ties consecutive step sizes
together so that theta_k^2 - theta_k equals (t_{k-1}/t_k) * theta_{k-1}^2
exactly.  At an unchanged step the ratio is exactly 1 and the recursion is
the classical one.  Restart variants reset theta on a fixed period or when
the momentum turns against the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def theta_next(theta: float, t_prev: float, t_cur: float) -> float:
    """Positive root of th^2 - th - (t_prev/t_cur) * theta^2 = 0.

    Advances from ``theta``.  t_prev = 0 encodes the start convention and
    yields exactly 1, so the first two emitted weights are zero.  At a
    constant step the ratio is exactly 1 after the first commit, which is
    the classical recursion bit for bit.
    """
    if t_cur <= 0.0:
        raise ValueError("current step size must be positive")
    if t_prev < 0.0:
        raise ValueError("previous step size must be nonnegative")
    ratio = 0.0 if t_prev == 0.0 else t_prev / t_cur
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ratio * theta * theta))


_FAMILIES = ("none", "plain", "contract", "fixed-restart", "fixed-adaptive-restart")


@dataclass
class BetaSchedule:
    """Stateful weight provider with propose/commit semantics.

    ``propose`` evaluates the weight for a trial step size without touching
    state, so a backtracking line search may call it once per trial;
    ``commit`` records the accepted theta and step, and ``finish_iteration``
    applies the restart rule using the accepted iterate.  ``theta`` and
    ``t_prev`` hold the last committed theta_k and t_k; the fresh values
    encode theta_0 = 1 with t_0 = 0, so the first proposed weight is zero.
    """

    family: str = "fixed-adaptive-restart"
    delta: float = 0.99
    T2: int = 200
    theta: float = 1.0
    t_prev: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown beta family: {self.family!r}")
        if self.family == "contract" and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.family in ("fixed-restart", "fixed-adaptive-restart") and self.T2 < 1:
            raise ValueError("restart period must be >= 1")

    def propose(self, t_cur: float) -> tuple[float, float]:
        """Return (beta_k, theta_k) for a trial step size t_cur."""
        if self.family == "none":
            return 0.0, 1.0
        th = theta_next(self.theta, self.t_prev, t_cur)
        beta = (self.theta - 1.0) / th
        if self.family == "contract":
            beta *= self.delta
        return beta, th

    def commit(self, theta_new: float, t_cur: float) -> None:
        self.theta = theta_new
        self.t_prev = t_cur

    def finish_iteration(self, k: int, dx: Array, x_minus_y: Array) -> bool:
        """Apply the restart rule after iteration k, from the step
        dx = x_k - x_{k-1} and x_minus_y = x_k - y_k; True when theta was
        reset."""
        if self.family not in ("fixed-restart", "fixed-adaptive-restart"):
            return False
        restarted = k % self.T2 == 0
        if not restarted and self.family == "fixed-adaptive-restart":
            # Momentum turned against the last step, <dx, y_k - x_k> > 0;
            # negating one factor of a dot product negates it bit for bit.
            restarted = float(dx.dot(x_minus_y)) < 0.0
        if restarted:
            self.theta = 1.0
        return restarted
