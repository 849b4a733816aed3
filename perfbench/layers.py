"""Per-layer metrics of one traced operation, from its spans and counts.

A span's layer is its name up to the first dot (``linesearch``, ``metric``,
``accel``, ``solver``, ``problem``, ``bench``, ``datasets``, or the problem
family ``logreg``/``poisson``/``convex`` for oracle callables and matrix
products).  Self time is a span's duration minus the time its child spans
cover.  Unless a name says otherwise, "per iter" divides by the outer
iterations of every solver run in the operation, references included, and
counts only spans inside solver runs; ``linesearch.*`` divides by the
iterations that ran the line search.

Times of layers that some workload never enters are reported as shares
(``*_share``), so no time metric reads a constant 0 there; per-iteration
times are kept for the layers every workload runs.
"""

from __future__ import annotations

import numpy as np

from tracing import SOLVER_RUNS

FAMILIES = ("logreg", "poisson")
ORACLE_FIELDS = ("f", "g", "h", "grad_split")
SOLVER_SPANS = tuple(f"solver.{f}" for f in SOLVER_RUNS)


def _is_oracle(name: str) -> bool:
    parts = name.split(".")
    return len(parts) > 1 and parts[1] in ORACLE_FIELDS


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(tracer, lo: int, hi: int, counts: dict, wall_s: float,
                  bytes_written: int) -> dict:
    """Metrics of the spans ``[lo, hi)`` and the counter deltas ``counts``."""
    spans = tracer.arrays(lo, hi)
    ids = spans["name"]

    def where(pred):
        """Mask of the spans whose name satisfies ``pred``."""
        return np.array([pred(s) for s in tracer.names] + [False])[ids]

    def named(name):
        return where(lambda s: s == name)

    def of_layer(prefix):
        return where(lambda s: s.split(".", 1)[0] == prefix)

    dur = (spans["end"] - spans["start"]).astype(float)
    parent = spans["parent"] - lo
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=hi - lo)
    self_ns = dur - covered
    in_run = spans["run"] > 0
    wall_ns = wall_s * 1e9

    iters = counts.get("solver.outer_iters", 0)
    ls_iters = counts.get("linesearch.iters", 0)
    trials = counts.get("linesearch.trials", 0)
    ls_runs = np.unique(spans["run"][named("linesearch.backtrack_step")])
    in_ls_run = in_run & np.isin(spans["run"], ls_runs)
    outer = where(lambda s: s in SOLVER_SPANS)
    outer &= ~np.isin(parent, np.flatnonzero(outer))  # sfista_run wraps spdcae_run
    solver_ns = dur[outer].sum()
    oracle = in_run & where(_is_oracle)

    def n(mask) -> int:
        return int(np.count_nonzero(mask))

    def us_per_iter(ns, denominator=iters) -> float:
        return _ratio(ns / 1e3, denominator)

    m = {
        "bench.reference_iters": counts.get("bench.reference_iters", 0),
        "bench.reference_share": _ratio(counts.get("bench.reference_ns", 0), wall_ns),
        "bench.write_outputs_share": _ratio(dur[named("bench.write_outputs")].sum(),
                                            wall_ns),
        "bench.bytes_written": bytes_written,
    }
    for fam in FAMILIES:
        fwd = in_run & named(f"{fam}.matvec.forward")
        adj = in_run & named(f"{fam}.matvec.adjoint")
        products = n(fwd) + n(adj)
        m.update({
            f"{fam}.forward_per_iter": _ratio(n(fwd), iters),
            f"{fam}.adjoint_per_iter": _ratio(n(adj), iters),
            f"{fam}.matvec_per_iter": _ratio(products, iters),
            f"{fam}.forward_per_trial": _ratio(n(fwd & in_ls_run), trials),
            f"{fam}.adjoint_per_trial": _ratio(n(adj & in_ls_run), trials),
            f"{fam}.matvec_bytes_per_iter":
                _ratio(products * tracer.matrix_bytes.get(fam, 0), iters),
            f"{fam}.matvec_share": _ratio(dur[fwd | adj].sum(), solver_ns),
            f"{fam}.oracle_share": _ratio(dur[oracle & of_layer(fam)].sum(), solver_ns),
        })
    m.update({
        "poisson.split_calls_per_iter":
            _ratio(n(in_run & named("poisson.grad_split")), iters),
        "oracle.us_per_iter": us_per_iter(dur[oracle].sum()),
        "linesearch.trials_per_iter": _ratio(trials, ls_iters),
        "linesearch.accept_ratio": _ratio(ls_iters, trials),
        "linesearch.self_us_per_iter":
            us_per_iter(self_ns[in_run & of_layer("linesearch")].sum(), ls_iters),
        "problem.f_eval_per_iter":
            _ratio(n(in_run & where(lambda s: s.endswith(".f.eval"))), iters),
        "problem.objective_us_per_iter":
            us_per_iter(dur[in_run & named("problem.objective")].sum()),
        "problem.criticality_share":
            _ratio(dur[in_run & named("problem.criticality_residual")].sum(), solver_ns),
        "metric.trial_calls_per_iter":
            _ratio(n(in_run & of_layer("metric") & where(lambda s: s.endswith(".trial"))),
                   iters),
        "metric.us_per_iter": us_per_iter(self_ns[in_run & of_layer("metric")].sum()),
        "accel.us_per_iter": us_per_iter(self_ns[in_run & of_layer("accel")].sum()),
        "accel.restarts": counts.get("accel.restarts", 0),
        "solver.self_us_per_iter": us_per_iter(self_ns[of_layer("solver")].sum()),
        "solver.outer_iters": iters,
        "datasets.gen_share":
            _ratio(dur[where(lambda s: s.startswith("datasets.gen_"))].sum(), wall_ns),
        "datasets.resample_share":
            _ratio(dur[named("datasets.resample_counts")].sum(), wall_ns),
        "trace.spans": hi - lo,
    })
    return m


# Counts that must repeat exactly between operations on the same inputs.
DETERMINISTIC = tuple(
    [f"{fam}.{k}" for fam in FAMILIES for k in
     ("forward_per_iter", "adjoint_per_iter", "matvec_per_iter",
      "forward_per_trial", "adjoint_per_trial", "matvec_bytes_per_iter")]
    + ["poisson.split_calls_per_iter", "linesearch.trials_per_iter",
       "linesearch.accept_ratio", "problem.f_eval_per_iter",
       "metric.trial_calls_per_iter", "accel.restarts", "solver.outer_iters",
       "bench.reference_iters", "trace.spans"])


def _unit(name: str) -> str:
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith(("bytes_per_iter", "bytes_written")):
        return "bytes"
    if name.endswith(("_share", "_ratio", ".overhead")):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in [
    "bench.reference_iters", "bench.reference_share", "bench.write_outputs_share",
    "bench.bytes_written",
    *[f"{fam}.{k}" for fam in FAMILIES for k in
      ("forward_per_iter", "adjoint_per_iter", "matvec_per_iter",
       "forward_per_trial", "adjoint_per_trial", "matvec_bytes_per_iter",
       "matvec_share", "oracle_share")],
    "poisson.split_calls_per_iter", "oracle.us_per_iter",
    "linesearch.trials_per_iter", "linesearch.accept_ratio",
    "linesearch.self_us_per_iter", "problem.f_eval_per_iter",
    "problem.objective_us_per_iter", "problem.criticality_share",
    "metric.trial_calls_per_iter", "metric.us_per_iter", "accel.us_per_iter",
    "accel.restarts", "solver.self_us_per_iter", "solver.outer_iters",
    "datasets.gen_share", "datasets.resample_share", "trace.spans",
    "trace.overhead"]}
