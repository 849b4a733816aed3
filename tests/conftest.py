# Pin BLAS to one thread before numpy loads so timings and reductions are
# reproducible across machines.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def finite_diff_grad(fn, x, step=1e-6):
    """Central-difference gradient with steps scaled by coordinate magnitude."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def golden_section(fn, lo, hi, tol=1e-10, max_iter=200):
    """Vectorized golden-section minimizer of an elementwise unimodal fn.

    fn maps an array of candidate points to an array of values, one
    coordinate at a time; lo/hi bracket each coordinate's minimizer.  The
    bracket dtype is preserved, so passing longdouble inputs runs the whole
    search in extended precision (comparison noise near a flat minimum limits
    float64 accuracy to about sqrt(eps |f| / curvature)).
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo = np.array(lo, copy=True)
    hi = np.array(hi, copy=True)
    for _ in range(max_iter):
        if np.max(hi - lo) <= tol:
            break
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        move = fn(c) < fn(d)
        hi = np.where(move, d, hi)
        lo = np.where(move, lo, c)
    return 0.5 * (lo + hi)


@pytest.fixture
def no_solves(monkeypatch):
    """Make any solver run that the bench module starts fail the test."""
    from dcprox import bench

    def refuse(*args, **kwargs):
        raise AssertionError("a solve started")
    for name in ("spdcae_run", "pdcae_run", "adca_run"):
        monkeypatch.setattr(bench, name, refuse)
