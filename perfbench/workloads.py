"""The three benchmark workloads: inputs from a seed, one timed call, checks.

Each workload has a ``setup`` (data generation and problem assembly, what a
user pays before the first solve) and an ``op`` (one timed call followed by
its output checks).  The load is a closed loop with one client: the harness
calls ``op`` again only after the previous call has returned.

Why these three (also in BENCHMARK.json):

* ``logreg-matrix`` -- the acceptance-6 logistic matrix through
  ``run_matrix`` with ``out_dir`` set, as ``dcprox bench --out`` runs it.
  The shared 10000-iteration ``pdcae1`` reference is nearly all of its time,
  and those iterations are bound by the forward and adjoint products.
* ``poisson-matrix`` -- the acceptance-7 Poisson matrix: one reference per
  seed, monotone search, split-gradient metric, nonnegative orthant, capped
  cells that write long trace CSVs.  Products are a small share of each
  iteration, so per-call overhead dominates.
* ``convex-crit`` -- many small lasso and NNLS instances solved by
  ``sfista_run`` to a criticality tolerance: no reference, no ``bench``, no
  h; loop overhead and the stop test's extra gradient and prox dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dcprox
from dcprox import bench as dcbench
from dcprox.cli import main as dcprox_cli

from tracing import traced_problem


@dataclass
class OpResult:
    """What one timed call produced and how its checks went."""

    wall_s: float
    solve_s: float
    lat_us: np.ndarray
    first_hit_iters: float
    attempted: int
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # deterministic, compared across ops
    bytes_written: int = 0


def _latencies_us(trace) -> np.ndarray:
    seconds = np.array([0.0] + [rec.wall_clock_seconds for rec in trace])
    return np.diff(seconds) * 1e6


# --- solver-by-seed matrices ----------------------------------------------------

@dataclass(frozen=True)
class MatrixScale:
    problem: dict
    solvers: tuple
    tolerance: float
    starts: int  # solver seeds per matrix; workload seed s uses s*starts onwards
    max_iter: int = 10000
    reference_iterations: int = 10000


LOGREG_FULL = MatrixScale(
    problem={"kind": "logreg-synthetic", "m": 2000, "n": 300, "lambda": 1e-3,
             "sparsity_of_truth": 0.1, "noise_rate": 0.05, "scale_decades": 2.0},
    solvers=("spdcae1", "pdcae1", "pdcae"), tolerance=1e-4, starts=5)

POISSON_FULL = MatrixScale(
    problem={"kind": "poisson-synthetic", "n": 500, "m": 100, "k_nonzeros": 5,
             "amp_max": 1e5, "p": 0.9, "bg": 1e-10, "lambda": 1e-3},
    solvers=("spdcae1", "spdcae0", "pdcae0"), tolerance=1e-3, starts=1)


class MatrixWorkload:
    """``run_matrix`` on one configuration, with ``out_dir`` set.

    An operation is one solver run with its check: each cell (its trace CSV
    passes ``dcprox check`` and its final iterate is finite), each reference
    (finite), plus one for the matrix summary (the acceptance ordering holds
    and ``dcprox check`` passes ``summary.csv``).
    """

    def __init__(self, scale: MatrixScale, seed: int, out_dir: Path):
        self.scale = scale
        self.seed = seed
        self.out_dir = out_dir
        starts = [scale.starts * seed + i for i in range(scale.starts)]
        self.config = {
            "problem": dict(scale.problem, data_seed=0),
            "solvers": [{"name": name} for name in scale.solvers],
            "tolerances": [scale.tolerance],
            "seeds": starts,
            "max_iter": scale.max_iter,
            "reference_iterations": scale.reference_iterations,
            "reference_seed": starts[0],
            "out_dir": str(out_dir),
        }

    def setup(self):
        """Configuration, data and the problems the first solve needs."""
        config = dcbench.RunConfig.from_dict(self.config)
        p = config.problem
        if p["kind"] == "logreg-synthetic":
            data, _ = dcprox.gen_logreg(
                p["m"], p["n"], sparsity_of_truth=p["sparsity_of_truth"],
                noise_rate=p["noise_rate"], rng=p["data_seed"], lam=p["lambda"],
                scale_decades=p["scale_decades"])
            problem = dcprox.build_logreg_problem(data)
            x0 = dcprox.make_rng(config.seeds[0]).random(p["n"])
        else:
            data, truth = dcprox.gen_poisson_cs(
                n=p["n"], m=p["m"], k_nonzeros=p["k_nonzeros"],
                amp_max=p["amp_max"], p=p["p"], bg=p["bg"], rng=p["data_seed"],
                lam=p["lambda"])
            instance = dcprox.resample_counts(data, truth,
                                              dcprox.make_rng(config.seeds[0]))
            problem = dcprox.build_poisson_problem(instance)
            x0 = np.ones(p["n"])
        return problem, x0

    def op(self, tracer=None) -> OpResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        config = dcbench.RunConfig.from_dict(self.config)
        t0 = time.perf_counter()
        result = dcbench.run_matrix(config)
        wall = time.perf_counter() - t0

        tol = self.scale.tolerance
        failures = []
        solve_s = 0.0
        lat = []
        first_hits = {}
        for (name, seed), run in result.runs.items():
            hit = result.hits[(name, seed)][tol]
            first_hits[(name, seed)] = hit[0] if hit is not None else config.max_iter
            solve_s += hit[1] if hit is not None else run.trace[-1].wall_clock_seconds
            lat.append(_latencies_us(run.trace))
            path = self.out_dir / f"trace_{name}_{seed}.csv"
            if _check(["--trace", str(path)]) != 0 or not np.all(np.isfinite(run.x)):
                failures.append(f"cell {name} seed {seed}: check failed")
        for seed, value in result.references.items():
            if not math.isfinite(value):
                failures.append(f"reference seed {seed} is not finite: {value}")
        summary_ok = (_check(["--summary", str(self.out_dir / "summary.csv")]) == 0
                      and _summary_json_ok(self.out_dir / "summary.json"))
        means = {name: float(np.mean([k for (n, _), k in first_hits.items() if n == name]))
                 for name in self.scale.solvers}
        capped = {name: any(result.hits[(name, s)][tol] is None for s in config.seeds)
                  for name in self.scale.solvers}
        if not (summary_ok and self.ordering_holds(means, capped)):
            failures.append(f"summary check or ordering failed: {means}")

        return OpResult(
            wall_s=wall, solve_s=solve_s, lat_us=np.concatenate(lat),
            first_hit_iters=float(np.mean(list(first_hits.values()))),
            attempted=len(result.runs) + len(result.references) + 1,
            failures=failures,
            counts={"first_hits": sorted(first_hits.items()),
                    "iterations": sorted((k, r.n_iterations) for k, r in result.runs.items()),
                    "backtracks": sorted((k, sum(rec.n_backtracks for rec in r.trace))
                                         for k, r in result.runs.items())},
            bytes_written=sum(f.stat().st_size for f in self.out_dir.iterdir()))

    def ordering_holds(self, means: dict, capped: dict) -> bool:
        a, b, c = self.scale.solvers
        if self.scale.problem["kind"] == "logreg-synthetic":
            # acceptance 6: metric+search < search < fixed step, by 30 % each
            return means[a] * 1.3 <= means[b] and means[b] * 1.3 <= means[c]
        # acceptance 7: nonmonotone < monotone; the fixed step trails or is capped
        return means[a] < means[b] and (means[c] >= means[b] or capped[c])


def _check(args) -> int:
    """Exit code of ``dcprox check`` with its report lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return dcprox_cli(["check", *args])


def _summary_json_ok(path: Path) -> bool:
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    return all(math.isfinite(v) for v in payload["reference_values"].values())


# --- small convex instances to a criticality tolerance --------------------------

@dataclass(frozen=True)
class ConvexScale:
    lasso: tuple = (200, 50)  # (m, n), the acceptance-2 shapes
    nnls: tuple = (100, 40)
    instances: int = 48  # of each kind
    lam: float = 0.1
    crit_tol: float = 1e-8
    max_iter: int = 5000


CONVEX_FULL = ConvexScale()


class ConvexWorkload:
    """``sfista_run`` with ``StoppingRule(crit_tol=...)`` on seeded instances.

    The timed call solves every instance once.  Each solve is one operation;
    it passes when it stopped on ``crit_tol`` and the residual recomputed
    from its final iterate and step meets the tolerance.
    """

    def __init__(self, scale: ConvexScale, seed: int):
        self.scale = scale
        self.seed = seed
        self.config = dcprox.SolverConfig(
            backtrack=dcprox.BacktrackConfig(mode="monotone"))
        self.problems = None

    def setup(self):
        s = self.scale
        kinds = ((s.lasso, lambda: dcprox.l1_proximable(s.lam), dcprox.whole_space),
                 (s.nnls, lambda: dcprox.l1_nonneg_proximable(0.0),
                  dcprox.nonnegative_orthant))
        problems = []
        for kind, (shape, g, feasible_set) in enumerate(kinds):
            for i in range(s.instances):
                rng = np.random.default_rng([self.seed, kind, i])
                A = rng.standard_normal(shape)
                y = rng.standard_normal(shape[0])
                problems.append((dcprox.DcProblem(
                    f=dcprox.least_squares_smooth(A, y), g=g(),
                    h=dcprox.zero_concave(), feasible_set=feasible_set()),
                    np.zeros(shape[1])))
        self.problems = problems
        return problems

    def op(self, tracer=None) -> OpResult:
        problems = self.problems
        if tracer is not None:
            problems = [(traced_problem(tracer, p, "convex"), x0) for p, x0 in problems]
        stop = dcprox.StoppingRule(max_iter=self.scale.max_iter,
                                   crit_tol=self.scale.crit_tol)
        t0 = time.perf_counter()
        runs = [dcprox.sfista_run(p, self.config, stop, x0=x0) for p, x0 in problems]
        wall = time.perf_counter() - t0

        failures = []
        for i, ((p, _), run) in enumerate(zip(self.problems, runs)):
            residual = dcprox.criticality_residual(p, run.x, run.trace[-1].t)
            if run.stop_reason != "crit_tol" or not residual <= self.scale.crit_tol:
                failures.append(f"instance {i}: stop {run.stop_reason}, "
                                f"residual {residual:.3e}")
        return OpResult(
            wall_s=wall,
            solve_s=sum(run.trace[-1].wall_clock_seconds for run in runs),
            lat_us=np.concatenate([_latencies_us(run.trace) for run in runs]),
            first_hit_iters=float(np.mean([run.n_iterations for run in runs])),
            attempted=len(runs), failures=failures,
            counts={"iterations": [run.n_iterations for run in runs],
                    "backtracks": [sum(rec.n_backtracks for rec in run.trace)
                                   for run in runs]})


WORKLOADS = ("logreg-matrix", "poisson-matrix", "convex-crit")
FULL = {"logreg-matrix": LOGREG_FULL, "poisson-matrix": POISSON_FULL,
        "convex-crit": CONVEX_FULL}

# Tiny sizes for the self-test: same code paths, about a second each.
TINY = {
    "logreg-matrix": MatrixScale(
        problem=dict(LOGREG_FULL.problem, m=200, n=30), solvers=LOGREG_FULL.solvers,
        tolerance=1e-4, starts=3, max_iter=2000, reference_iterations=300),
    "poisson-matrix": MatrixScale(
        problem=dict(POISSON_FULL.problem, n=60, m=20, k_nonzeros=3, amp_max=1e3),
        solvers=POISSON_FULL.solvers, tolerance=1e-2, starts=1, max_iter=400,
        reference_iterations=400),
    "convex-crit": ConvexScale(lasso=(40, 10), nnls=(30, 8), instances=3),
}


def make_workload(name: str, seed: int, scale, out_dir: Path):
    if name == "convex-crit":
        return ConvexWorkload(scale, seed)
    return MatrixWorkload(scale, seed, out_dir)
