"""Time the library's Poisson iteration against a bare numpy loop.

    python3 tools/poisson_bare_loop.py [--iters 3000] [--rounds 12]
                                       [--other SRC_DIR] [--seed 0]

On the acceptance-7 instance (n = 500, m = 100, 5 nonzeros, the count
realization of ``--seed``, start at the all-ones vector) this runs the
bench's ``pdcae0`` and ``spdcae0`` profiles twice: through ``spdcae_run``,
and through a bare loop, one flat function that makes the same numpy calls
in the same order with no oracle records, providers, snapshots or trace.
The bare loop's F must equal the library's bit for bit (asserted), so both
do the same arithmetic.

Timing: like the library's trace, the bare loop stamps the time after each
iteration.  A round runs every side once per profile, in alternating order.
A side's time in a round is its median iteration time (the median of the
differences of consecutive stamps, which a preempted iteration does not
move).  Printed per profile and side: the median of its round times and,
against the bare loop, the median and the range of its per-round ratios.

Counting: each side is also run once on counting views of the instance's
arrays, which record every numpy call the iteration makes (ufunc calls and
operators, ufunc reductions, array methods such as ``dot``, matrix products
and indexing) and every indexing by a mask or an index array, which copies.
Printed after the times: numpy calls and mask copies per iteration,
measured over iterations that accept their first trial.

``--other`` names the ``src`` directory of a second checkout; its
``dcprox`` is loaded under another module name and timed and counted in the
same rounds, on the same arrays: where a matrix sits in memory moves its
products' speed by several percent, so instances generated twice would bias
the comparison.  BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dcprox  # noqa: E402
from dcprox.bench import _profile  # noqa: E402

PROFILES = ("pdcae0", "spdcae0")
NUMPY_DIR = str(Path(np.__file__).resolve().parent)


def load_other(src: str):
    """The ``dcprox`` package under ``src``, imported as ``dcprox_other``."""
    root = Path(src).resolve() / "dcprox"
    spec = importlib.util.spec_from_file_location(
        "dcprox_other", root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["dcprox_other"] = module
    spec.loader.exec_module(module)
    return module


def instance(seed: int):
    """The acceptance-7 data at count seed ``seed`` and its start."""
    data, truth = dcprox.gen_poisson_cs(n=500, m=100, k_nonzeros=5, rng=0)
    return dcprox.resample_counts(data, truth, dcprox.make_rng(seed)), np.ones(500)


def library_run(lib, data, x0, profile: str, iters: int):
    """(stamps, F) of ``lib.spdcae_run`` on a problem ``lib`` builds around
    the arrays of ``data``."""
    own = lib.PoissonCsData(A=data.A, b=data.b, bg=data.bg, lam=data.lam)
    assert own.A is data.A and own.b is data.b
    config = lib.bench._profile(profile, "poisson", {})
    run = lib.spdcae_run(lib.build_poisson_problem(own), config,
                         lib.StoppingRule(max_iter=iters), x0=x0)
    return run.trace.wall_clock_seconds, run.trace.F_value


def bare_run(data, x0, profile: str, iters: int):
    """``spdcae_run`` under a bench Poisson profile (monotone search,
    classical weights, adaptive restarts, the identity or the
    split-gradient metric), written out as one loop."""
    config = _profile(profile, "poisson", {})
    bt = config.backtrack
    scaled = config.metric == "split-gradient"
    A, AT, b, bg, lam = data.A, data.A.T, data.b, data.bg, data.lam
    pos = b > 0.0
    pos = slice(None) if pos.all() else pos
    b_pos, b_sum = b[pos], np.sum(b)
    V = AT @ np.ones(data.m)
    add, log, fmin, sqrt = np.add.reduce, np.log, np.fmin.reduce, math.sqrt
    maximum, minimum, inf = np.maximum, np.minimum, math.inf
    diag = np.ones(x0.shape[0])
    L, theta, t_prev = bt.L_init, 1.0, 0.0
    x, z = x0, A @ x0
    dx, dz = x - x, z - z
    nrm = sqrt(x.dot(x))
    h = np.zeros_like(x) if nrm == 0.0 else lam * x / nrm
    F, stamps = np.empty(iters), np.empty(iters)
    clock = time.perf_counter
    t0 = clock()
    for k in range(1, iters + 1):
        for i in range(bt.max_inner):
            t = 1.0 / L
            if i == 0:
                ratio = 0.0 if t_prev == 0.0 else 1.0
                th = 0.5 * (1.0 + sqrt(1.0 + 4.0 * ratio * theta * theta))
                beta = (theta - 1.0) / th
                y = x + beta * dx
                if fmin(y, initial=inf) >= 0.0:
                    zy = z + beta * dz
                else:
                    y = maximum(y, 0.0)
                    zy = A @ y
                c = zy + bg
                if fmin(c, initial=inf) <= 0.0:
                    raise ValueError("intensity not positive")
                r = b / c
                f_y = float(add(c) - b_sum + add(b_pos * log(r[pos])))
                grad_y = AT @ (1.0 - r)
                if scaled:
                    g = sqrt(1.0 + config.clamp_numerator / float(k + 1) ** 2)
                    diag = 1.0 / maximum(1.0 / g, minimum(g, y / V))
                    if not (np.minimum.reduce(diag, initial=inf) > 0.0
                            and np.maximum.reduce(diag, initial=-inf) < inf):
                        raise ValueError("metric not positive and finite")
            if scaled:
                x_new = maximum(y - t * (grad_y - h) / diag - t * lam / diag, 0.0)
            else:
                x_new = maximum(y - t * (grad_y - h) - t * lam, 0.0)
            z_new = A @ x_new
            c = z_new + bg
            if fmin(c, initial=inf) <= 0.0:
                raise ValueError("intensity not positive")
            f_new = float(add(c) - b_sum + add(b_pos * log(b_pos / c[pos])))
            d = x_new - y
            bound = f_y + float(grad_y.dot(d)) + float(diag.dot(d * d)) / (2.0 * t)
            if f_new <= bound + 1e-12 * max(1.0, abs(f_y)):
                theta, t_prev = th, t
                break
            L = bt.eta * L
        else:
            raise RuntimeError(f"no trial accepted at iteration {k}")
        nrm = sqrt(x_new.dot(x_new))
        h_x = float(lam * nrm)
        h = np.zeros_like(x_new) if nrm == 0.0 else lam * x_new / nrm
        if fmin(x_new, initial=inf) < 0.0:
            raise ValueError("iterate left the orthant")
        F[k - 1] = float(f_new) + float(lam * add(x_new)) - h_x
        step = x_new - x
        if k % config.T2 == 0 or float(step.dot(d)) < 0.0:
            theta = 1.0
        x, z, dx, dz = x_new, z_new, step, z_new - z
        stamps[k - 1] = clock() - t0
    return stamps, F


# --- counting ------------------------------------------------------------------

class Counted(np.ndarray):
    """An ndarray view that counts the numpy calls made from outside numpy.

    Ufunc calls, operators and ufunc methods (``reduce``) with a counting
    operand are counted here, and indexing of a counting array;
    ``count_calls`` counts the calls of array methods such as ``dot``.
    Results of counted ufunc calls are counting views again, and while
    counting ``np.asarray`` passes a counting float array through, so an
    iteration that starts from counting arrays counts all of its work.
    """

    tally = {"calls": 0, "mask_copies": 0}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []  # a loop, not a comprehension, whose frame would count
        for v in inputs:
            plain.append(v.view(np.ndarray) if isinstance(v, Counted) else v)
        out = getattr(ufunc, method)(*plain, **kwargs)
        if _outside_numpy(sys._getframe(1)):
            Counted.tally["calls"] += 1
        return out.view(Counted) if type(out) is np.ndarray else out

    def __getitem__(self, index):
        if _outside_numpy(sys._getframe(1)):
            Counted.tally["calls"] += 1
            if isinstance(index, np.ndarray):
                Counted.tally["mask_copies"] += 1
        return super().__getitem__(index)


def _outside_numpy(frame) -> bool:
    return not frame.f_code.co_filename.startswith(NUMPY_DIR)


# the counting methods' own calls (views, the ufunc method) are not counted
_OWN = (Counted.__array_ufunc__.__code__, Counted.__getitem__.__code__)


def _profiler(frame, event, arg):
    if event == "c_call" and frame.f_code not in _OWN and _outside_numpy(frame):
        if isinstance(getattr(arg, "__self__", None), np.ndarray):
            Counted.tally["calls"] += 1


def _keeping(asarray):
    """``asarray`` that returns a counting float array itself, as it returns
    a plain one."""
    def keep(a, dtype=None, *args, **kwargs):
        if isinstance(a, Counted) and dtype in (None, float) and not (args or kwargs):
            return a
        return asarray(a, dtype, *args, **kwargs)
    return keep


def count_calls(run, data, x0, profile: str, iters: int) -> tuple[float, float]:
    """Numpy calls and mask copies per iteration of ``run`` over iterations
    2 .. ``iters`` (every backtrack of these profiles falls at k = 1),
    from the difference of a run of ``iters`` and one of 1 iteration."""
    asarray = np.asarray
    np.asarray = _keeping(asarray)
    tallies = []
    try:
        counted = dcprox.PoissonCsData(A=data.A.view(Counted), b=data.b.view(Counted),
                                       bg=data.bg, lam=data.lam)
        for n in (1, iters):
            Counted.tally.update(calls=0, mask_copies=0)
            sys.setprofile(_profiler)
            try:
                run(counted, x0.view(Counted), profile, n)
            finally:
                sys.setprofile(None)
            tallies.append(dict(Counted.tally))
    finally:
        np.asarray = asarray
    return tuple((tallies[1][key] - tallies[0][key]) / (iters - 1)
                 for key in ("calls", "mask_copies"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0, help="count realization")
    parser.add_argument("--other", help="src directory of a second checkout")
    args = parser.parse_args(argv)
    if args.iters < 3 or args.rounds < 1:
        parser.error("need --iters >= 3 and --rounds >= 1")
    data, x0 = instance(args.seed)
    sides = {"bare": bare_run,
             "library": lambda d, x, p, n: library_run(dcprox, d, x, p, n)}
    if args.other:
        other = load_other(args.other)
        sides["other"] = lambda d, x, p, n: library_run(other, d, x, p, n)

    times: dict = {}
    for r in range(args.rounds):
        for profile in PROFILES:
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            F = {}
            for name in order:
                stamps, F[name] = sides[name](data, x0, profile, args.iters)
                times.setdefault((profile, name), []).append(
                    float(np.median(np.diff(stamps))) * 1e6)
            for name in F:
                assert F[name].tobytes() == F["bare"].tobytes(), (profile, name)
    for profile in PROFILES:
        bare = np.array(times[(profile, "bare")])
        for name, run in sides.items():
            side = np.array(times[(profile, name)])
            ratio = side / bare
            against = "" if name == "bare" else (
                f" {np.median(ratio):.3f}x bare (rounds {ratio.min():.3f}-"
                f"{ratio.max():.3f}),")
            calls, masks = count_calls(run, data, x0, profile, min(args.iters, 50))
            print(f"{profile} {name}: {np.median(side):.2f} us/iter,{against} "
                  f"{calls:g} numpy calls/iter, {masks:g} mask copies/iter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
