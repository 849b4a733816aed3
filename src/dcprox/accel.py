"""Extrapolation weight schedules.

The momentum weight beta_k = (theta_{k-1} - 1) / theta_k is driven by one of
two theta recursions: the classical one, and a coupled one whose ratio term
ties consecutive step sizes together so that theta_k^2 - theta_k equals
(t_{k-1}/t_k) * theta_{k-1}^2 exactly.  Restart variants reset theta on a
fixed period or when the momentum turns against the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


@dataclass
class ThetaState:
    """Most recent pair of the theta recursion plus the committed step size.

    ``theta_prev`` and ``theta`` hold theta_{k-1} and theta_k once iteration k
    has been committed; a fresh state encodes theta_0 = 1 with t_0 = 0 so the
    first proposed weight is exactly zero.
    """

    theta_prev: float = 1.0
    theta: float = 1.0
    t_prev: float = 0.0
    mode: str = "coupled"  # coupled | classical

    def __post_init__(self):
        if self.mode not in ("coupled", "classical"):
            raise ValueError(f"unknown theta mode: {self.mode!r}")


def theta_next(state: ThetaState, t_prev: float, t_cur: float) -> float:
    """Positive root of theta^2 - theta - (t_prev/t_cur) * theta_prev^2 = 0.

    Advances from ``state.theta``; classical mode fixes the ratio at 1.
    In both modes t_prev = 0 encodes the start convention and yields exactly
    1, so the first two emitted weights are zero.  Pure: the state is not
    modified.
    """
    if t_cur <= 0.0:
        raise ValueError("current step size must be positive")
    if t_prev < 0.0:
        raise ValueError("previous step size must be nonnegative")
    if t_prev == 0.0:
        ratio = 0.0
    elif state.mode == "classical":
        ratio = 1.0
    else:
        ratio = t_prev / t_cur
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ratio * state.theta * state.theta))


_FAMILIES = ("none", "plain", "contract", "fixed-restart", "fixed-adaptive-restart")


@dataclass
class BetaSchedule:
    """Stateful weight provider with propose/commit semantics.

    ``propose`` evaluates the weight for a trial step size without touching
    state, so a backtracking line search may call it once per trial;
    ``commit`` records the accepted theta and step, and ``finish_iteration``
    applies the restart rule using the accepted iterate.
    """

    family: str = "fixed-adaptive-restart"
    delta: float = 0.99
    T2: int = 200
    legacy_divisibility: bool = False
    theta_state: ThetaState = field(default_factory=ThetaState)

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
        th = theta_next(self.theta_state, self.theta_state.t_prev, t_cur)
        beta = (self.theta_state.theta - 1.0) / th
        if self.family == "contract":
            beta *= self.delta
        return beta, th

    def commit(self, theta_new: float, t_cur: float) -> None:
        if self.family == "none":
            return
        state = self.theta_state
        state.theta_prev = state.theta
        state.theta = theta_new
        state.t_prev = t_cur

    def finish_iteration(self, k: int, x_k: Array, x_prev: Array, y_k: Array) -> bool:
        """Apply the restart rule after iteration k; True when theta was reset."""
        if self.family not in ("fixed-restart", "fixed-adaptive-restart"):
            return False
        if self.legacy_divisibility:
            # Literal reading: period divisible by the counter.
            restarted = self.T2 % k == 0
        else:
            restarted = k % self.T2 == 0
        if not restarted and self.family == "fixed-adaptive-restart":
            # Momentum turned against the last step: plain inner product test.
            restarted = float(np.dot(x_k - x_prev, y_k - x_k)) > 0.0
        if restarted:
            self.theta_state.theta_prev = 1.0
            self.theta_state.theta = 1.0
        return restarted
