"""Exact metamorphic relations of the solvers.

Column sign flips: negate a set S of columns of A and the same entries of
x0.  Then A x is unchanged, the gradient and the iterates are negated on S,
and the l1 prox, the l2 subgradient and the adagrad metric (which squares
the gradient) follow the sign exactly, so every run must repeat F, L, beta,
the backtracks, the restarts and the gates bit for bit, with x negated on S.

Change of units: A -> cA, x0 -> x0/c, lam -> c lam, with L_init, L_floor
and a fixed L scaled by c^2.  Then A x, f, g, h and F are unchanged, the
gradient and the subgradient of h scale by c, the step t by 1/c^2 and the
iterates by 1/c.  For c a power of two every one of these scalings is
exact, so an identity-metric run must repeat F, beta, the backtracks, the
restarts and the gates bit for bit, with L times c^2 and x divided by c.  (A
non-identity metric depends on the units of A, so only the identity is
covered.)
"""

import dataclasses

import numpy as np
import pytest

from dcprox import bench
from dcprox.accel import BetaSchedule
from dcprox.datasets import gen_logreg, gen_poisson_cs
from dcprox.logreg import LogRegData, build_logreg_problem
from dcprox.poisson import PoissonCsData, build_poisson_problem
from dcprox.solver import StoppingRule, adca_run, pdcae_run, spdcae_run

ITERS = 300
STOP = StoppingRule(max_iter=ITERS)


def _scaled_profile(name: str, family: str, c: float, **overrides):
    config = bench._profile(name, family, overrides)
    bt = config.backtrack
    return dataclasses.replace(config, backtrack=dataclasses.replace(
        bt, L_init=bt.L_init * c * c, L_floor=bt.L_floor * c * c))


def _poisson(name: str):
    data, _ = gen_poisson_cs(n=120, m=40, k_nonzeros=4, amp_max=1e3, rng=3)

    def run(c: float):
        scaled = PoissonCsData(A=c * data.A, b=data.b, bg=data.bg, lam=c * data.lam)
        return spdcae_run(build_poisson_problem(scaled),
                          _scaled_profile(name, "poisson", c), STOP,
                          x0=np.ones(data.n) / c)
    return run


def _logistic_data():
    data, _ = gen_logreg(150, 20, rng=4, lam=1e-2)
    x0 = np.random.default_rng(5).random(data.n)
    return data, x0


def _logistic(c: float) -> tuple:
    data, x0 = _logistic_data()
    scaled = LogRegData(A=c * data.A, b=data.b, lam=c * data.lam)
    return build_logreg_problem(scaled), x0 / c


def _logistic_profile(name: str):
    def run(problem, x0, c: float = 1.0):
        # a start below the curvature, so the monotone search backtracks too
        config = _scaled_profile(name, "logreg", c, L_init=1e-3)
        return spdcae_run(problem, config, STOP, x0=x0)
    return run


L_FIXED = 0.5  # above the curvature bound of the logistic design, 0.22


def _logistic_pdcae(problem, x0, c: float = 1.0):
    return pdcae_run(problem, L_FIXED * c * c, BetaSchedule(T2=50), STOP, x0=x0)


def _logistic_adca(problem, x0, c: float = 1.0):
    return adca_run(problem, L_FIXED * c * c, 3, STOP, x0=x0)


LOGISTIC = {**{name: _logistic_profile(name)
               for name in ("spdcae1", "spdcae0", "pdcae1", "pdcae0")},
            "pdcae_run": _logistic_pdcae, "adca_run": _logistic_adca}


def _in_units(run):
    return lambda c: run(*_logistic(c), c)


RUNS = {"poisson-pdcae0": _poisson("pdcae0"), "poisson-pdcae1": _poisson("pdcae1"),
        **{f"logistic-{name}": _in_units(LOGISTIC[name])
           for name in ("pdcae1", "pdcae0", "pdcae_run", "adca_run")}}


def _bytes(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("c", [0.25, 4.0])
@pytest.mark.parametrize("name", list(RUNS))
def test_change_of_units_gives_the_same_run_bit_for_bit(name, c):
    base, scaled = RUNS[name](1.0), RUNS[name](c)
    tb, ts = base.trace, scaled.trace
    assert base.stop_reason == scaled.stop_reason == "max_iter"
    assert len(tb) == len(ts) == ITERS
    assert _bytes(ts.F_value) == _bytes(tb.F_value)
    assert _bytes(ts.beta_used) == _bytes(tb.beta_used)
    assert np.array_equal(ts.n_backtracks, tb.n_backtracks)
    assert np.array_equal(ts.restarted, tb.restarted)
    assert np.array_equal(ts.gate_passed, tb.gate_passed)
    assert _bytes(ts.L_accepted) == _bytes(tb.L_accepted * (c * c))
    assert _bytes(scaled.x) == _bytes(base.x / c)
    # the runs are not trivial: steps were searched, momentum restarted or
    # the gate rejected a candidate
    if name.endswith("adca_run"):
        assert not tb.gate_passed.all()
    else:
        assert tb.restarted.any()
    if "pdcae0" in name or "pdcae1" in name:
        assert tb.n_backtracks.sum() > 0


def _signed_logistic(signs: np.ndarray) -> tuple:
    data, x0 = _logistic_data()
    flipped = LogRegData(A=data.A * signs, b=data.b, lam=data.lam)
    return build_logreg_problem(flipped), x0 * signs


@pytest.mark.parametrize("name", list(LOGISTIC))
def test_column_sign_flips_give_the_same_run_bit_for_bit(name):
    n = _logistic_data()[0].n
    signs = np.where(np.random.default_rng(6).random(n) < 0.5, -1.0, 1.0)
    assert (signs < 0).any() and (signs > 0).any()
    base, flipped = (LOGISTIC[name](*_signed_logistic(s)) for s in (np.ones(n), signs))
    tb, tf = base.trace, flipped.trace
    assert base.stop_reason == flipped.stop_reason == "max_iter"
    assert len(tb) == len(tf) == ITERS
    for column in ("F_value", "L_accepted", "beta_used"):
        assert _bytes(getattr(tf, column)) == _bytes(getattr(tb, column))
    assert np.array_equal(tf.n_backtracks, tb.n_backtracks)
    assert np.array_equal(tf.restarted, tb.restarted)
    assert np.array_equal(tf.gate_passed, tb.gate_passed)
    assert _bytes(flipped.x) == _bytes(base.x * signs)
    assert np.count_nonzero(base.x) > 1  # both penalty terms act on x
    if name == "adca_run":
        assert not tb.gate_passed.all()
    else:
        assert tb.restarted.any()
    if name in ("spdcae1", "spdcae0", "pdcae1", "pdcae0"):
        assert tb.n_backtracks.sum() > 0
