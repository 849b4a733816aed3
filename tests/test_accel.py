import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcprox.accel import BetaSchedule, theta_next

GOLDEN = 1.618033988749895
THETA3 = 2.193527085331054


def test_fresh_state_yields_exactly_one():
    assert theta_next(1.0, 0.0, 0.5) == 1.0
    assert BetaSchedule(family="plain").propose(0.5) == (0.0, 1.0)


def test_coupled_golden_step():
    assert theta_next(1.0, 1.0, 1.0) == pytest.approx(GOLDEN, rel=1e-15)


def test_coupled_identity_holds():
    for t_cur in (0.5, 1.0, 2.0, 8.0):
        th = theta_next(GOLDEN, 2.0, t_cur)
        residual = th * th - th - (2.0 / t_cur) * GOLDEN * GOLDEN
        assert abs(residual) < 1e-12 * max(1.0, th * th)


def test_theta_next_validation():
    with pytest.raises(ValueError):
        theta_next(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        theta_next(1.0, -1.0, 1.0)


def test_beta_contract_frozen_value():
    sched = BetaSchedule(family="contract", delta=0.99, theta=GOLDEN, t_prev=1.0)
    beta, th = sched.propose(1.0)
    assert beta == pytest.approx(0.27893598987406765, rel=1e-14)
    sched.commit(th, 1.0)
    assert sched.theta == pytest.approx(THETA3, rel=1e-15)
    assert sched.t_prev == 1.0


def test_beta_contract_validation():
    with pytest.raises(ValueError):
        BetaSchedule(family="contract", delta=1.0)
    with pytest.raises(ValueError):
        BetaSchedule(family="contract", delta=0.5).propose(0.0)


def _advanced(family, T2):
    """Schedule whose last committed pair is (GOLDEN, THETA3)."""
    return BetaSchedule(family=family, T2=T2, theta=THETA3, t_prev=1.0)


def test_beta_restart_fixed_period():
    sched = BetaSchedule(family="fixed-restart", T2=200, theta=GOLDEN, t_prev=1.0)
    z = np.zeros(2)
    beta, th = sched.propose(1.0)
    assert beta == pytest.approx((GOLDEN - 1.0) / THETA3, rel=1e-15)
    sched.commit(th, 1.0)
    assert not sched.finish_iteration(199, z, z)
    assert sched.theta == th
    assert sched.finish_iteration(200, z, z)
    assert sched.theta == 1.0
    assert sched.propose(1.0)[0] == 0.0


def test_beta_restart_fires_on_every_multiple_of_the_period():
    sched = BetaSchedule(family="fixed-restart", T2=3)
    z = np.zeros(1)
    restarts = []
    for k in range(1, 11):
        _, th = sched.propose(1.0)
        sched.commit(th, 1.0)
        if sched.finish_iteration(k, z, z):
            restarts.append(k)
    assert restarts == [3, 6, 9]


def test_beta_restart_adaptive_trigger():
    x_prev = np.zeros(2)
    x_k = np.array([1.0, 0.0])
    dx = x_k - x_prev
    y_aligned = np.array([0.5, 0.0])   # y behind x: momentum still helping
    sched = _advanced("fixed-adaptive-restart", 1000)
    assert not sched.finish_iteration(7, dx, x_k - y_aligned)
    y_over = np.array([2.0, 0.0])      # overshoot: <dx, y - x> positive
    assert sched.finish_iteration(7, dx, x_k - y_over)
    # the fixed-period family ignores the inner product
    assert not _advanced("fixed-restart", 1000).finish_iteration(7, dx, x_k - y_over)
    # <dx, y - x> = 0 does not restart, also when <dx, x - y> is -0.0
    assert np.signbit(np.array([0.0]).dot(np.array([-1.0])))
    assert not _advanced("fixed-adaptive-restart", 1000).finish_iteration(
        7, np.array([0.0]), np.array([-1.0]))


def test_schedule_none_family():
    sched = BetaSchedule(family="none")
    assert sched.propose(0.3) == (0.0, 1.0)
    sched.commit(1.0, 0.3)
    assert not sched.finish_iteration(1, np.zeros(1), np.zeros(1))
    assert sched.propose(0.001) == (0.0, 1.0)


def test_plain_schedule_first_two_weights_are_zero():
    sched = BetaSchedule(family="plain")
    betas = []
    for _ in range(3):
        beta, th = sched.propose(0.25)
        sched.commit(th, 0.25)
        betas.append(beta)
    assert betas[0] == 0.0
    assert betas[1] == 0.0
    assert betas[2] == pytest.approx(0.28175352512532087, rel=1e-14)


def test_restart_schedule_resets_weight_to_zero():
    sched = BetaSchedule(family="fixed-restart", T2=3)
    z = np.zeros(1)
    betas = []
    for k in range(1, 6):
        beta, th = sched.propose(1.0)
        sched.commit(th, 1.0)
        sched.finish_iteration(k, z, z)
        betas.append(beta)
    # reset at k=3 makes the k=4 weight zero again, then momentum rebuilds
    assert betas[3] == 0.0
    assert betas[2] > 0.0
    assert betas[4] == pytest.approx(0.28175352512532087, rel=1e-14)


def test_schedule_validation():
    with pytest.raises(ValueError):
        BetaSchedule(family="bogus")
    with pytest.raises(ValueError):
        BetaSchedule(family="contract", delta=1.5)
    with pytest.raises(ValueError):
        BetaSchedule(family="fixed-restart", T2=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=12))
def test_momentum_factor_stays_in_unit_interval(steps):
    # even when the step grows and beta itself can exceed one, the combined
    # factor (1 - 1/theta_k) (1 - 1/theta_{k-1})^2 stays inside [0, 1)
    sched = BetaSchedule(family="plain")
    thetas = [1.0]
    for t in steps:
        _, th = sched.propose(t)
        sched.commit(th, t)
        thetas.append(th)
    for prev, cur in zip(thetas, thetas[1:]):
        alpha = (1.0 - 1.0 / cur) * (1.0 - 1.0 / prev) ** 2
        assert 0.0 <= alpha < 1.0
        assert cur >= 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=2, max_size=12))
def test_beta_in_unit_interval_for_nonincreasing_steps(factors):
    # multiplying by factors <= 1 keeps t nonincreasing, the regime where the
    # plain weight is provably inside [0, 1)
    sched = BetaSchedule(family="plain")
    t = 1.0
    for fac in factors:
        t *= fac
        beta, th = sched.propose(t)
        sched.commit(th, t)
        assert 0.0 <= beta < 1.0
