"""Spans and counts for the traced run, recorded from the benchmark's side.

Nothing here edits the library.  ``instrumented`` substitutes wrappers for
the library's public functions, methods and oracle callables in the
benchmark's own process and puts the originals back on exit.  Each wrapper
records one span: name, start, end, parent span and solver-run id.  Spans
stay in flat in-memory arrays and are written out once, at the end.

Matrix products are counted where they happen: the design matrix handed to
the logistic and Poisson builders is replaced by ``CountingMatrix``, an
ndarray view that records every ``np.matmul`` it takes part in as a span,
forward (``A x``) or adjoint (``A^T r``).  The oracles' own memo rules are
not consulted.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

SOLVER_RUNS = ("spdcae_run", "pdcae_run", "adca_run", "sfista_run")

# (module, attribute) -> span name; the span's layer is the text before the
# first dot.  Missing names are skipped, so a later refactor that removes a
# function loses that span rather than breaking the benchmark.
FUNCTIONS = {
    **{("dcprox.solver", f): f"solver.{f}" for f in SOLVER_RUNS},
    ("dcprox.linesearch", "backtrack_step"): "linesearch.backtrack_step",
    ("dcprox.linesearch", "sufficient_decrease"): "linesearch.sufficient_decrease",
    ("dcprox.problem", "objective"): "problem.objective",
    ("dcprox.problem", "criticality_residual"): "problem.criticality_residual",
    ("dcprox.datasets", "gen_logreg"): "datasets.gen_logreg",
    ("dcprox.datasets", "gen_poisson_cs"): "datasets.gen_poisson_cs",
    ("dcprox.datasets", "resample_counts"): "datasets.resample_counts",
    ("dcprox.bench", "run_matrix"): "bench.run_matrix",
    ("dcprox.bench", "write_outputs"): "bench.write_outputs",
}

METHODS = {
    ("dcprox.accel", "BetaSchedule"): ("propose", "commit", "finish_iteration"),
    ("dcprox.metric", "IdentityMetricProvider"): ("trial", "accept"),
    ("dcprox.metric", "AdaGradMetricProvider"): ("trial", "accept"),
    ("dcprox.metric", "SplitGradientMetricProvider"): ("trial", "accept"),
}

BUILDERS = {("dcprox.logreg", "build_logreg_problem"): "logreg",
            ("dcprox.poisson", "build_poisson_problem"): "poisson"}


class Tracer:
    """Flat span store plus the counters that wrappers read off return values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._solver_depth = 0
        self._matrix_depth = 0
        self._runs = 0
        self.run_id = 0
        self.counts: dict[str, float] = {}
        self.matrix_bytes: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named by ``nid``."""
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(nid, fn, args, kwargs)
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def wrap_solver(self, name: str, fn):
        """Solver entry point: opens a run id and counts its iterations.

        A run is a reference solve when it happens inside ``run_matrix`` and
        its stopping rule carries no reference value (every matrix cell is
        stopped against one).
        """
        nid = self.intern(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._solver_depth == 0
            if outermost:
                self._runs += 1
                self.run_id = self._runs
            self._solver_depth += 1
            t0 = time.perf_counter_ns()
            try:
                out = self.call(nid, fn, args, kwargs)
            finally:
                self._solver_depth -= 1
                if outermost:
                    self.run_id = 0
            if outermost:
                iters = len(out.trace)
                self.add("solver.outer_iters", iters)
                stop = signature.bind(*args, **kwargs).arguments.get("stop")
                if self._matrix_depth and getattr(stop, "ref_value", None) is None:
                    self.add("bench.reference_iters", iters)
                    self.add("bench.reference_ns", time.perf_counter_ns() - t0)
            return out

        return wrapper

    def wrap_matrix_run(self, name: str, fn):
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._matrix_depth += 1
            try:
                return self.call(nid, fn, args, kwargs)
            finally:
                self._matrix_depth -= 1

        return wrapper

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Copies of the span columns for spans ``[lo, hi)``."""
        # copy at once: an array that exports its buffer cannot grow
        return {col: np.frombuffer(getattr(self, col), dtype=dtype)[lo:hi].copy()
                for col, dtype in (("name", np.int32), ("parent", np.int32),
                                   ("run", np.int32), ("start", np.int64),
                                   ("end", np.int64))}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class CountingMatrix(np.ndarray):
    """Dense design matrix that records each product it takes part in.

    A product with the matrix as stored is a forward product; one with its
    transpose (``A.T``, a view with swapped strides) is an adjoint product.
    Results are plain ndarrays.
    """

    def __array_finalize__(self, obj):
        self._probe = getattr(obj, "_probe", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(x.view(np.ndarray) if isinstance(x, CountingMatrix) else x
                      for x in inputs)
        if ufunc is not np.matmul or method != "__call__":
            return getattr(ufunc, method)(*plain, **kwargs)
        mat = next(x for x in inputs if isinstance(x, CountingMatrix))
        tracer, family, strides = mat._probe
        kind = "forward" if mat.strides == strides else "adjoint"
        return tracer.call(tracer.intern(f"{family}.matvec.{kind}"), np.matmul,
                           plain, kwargs)


def counting(A, tracer: Tracer, family: str):
    """``A`` as a CountingMatrix view, or ``A`` itself when it is not dense."""
    if type(A) is not np.ndarray:
        return A
    tracer.matrix_bytes[family] = A.nbytes
    view = A.view(CountingMatrix)
    view._probe = (tracer, family, A.strides)
    return view


def _wrap_callables(tracer: Tracer, obj, prefix: str):
    changes = {f.name: tracer.wrap(f"{prefix}.{f.name}", getattr(obj, f.name))
               for f in dataclasses.fields(obj) if callable(getattr(obj, f.name))}
    return dataclasses.replace(obj, **changes)


def traced_problem(tracer: Tracer, problem, family: str):
    """Copy of a DcProblem whose oracle callables each record a span."""
    changes = {}
    for f in dataclasses.fields(problem):
        value = getattr(problem, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _wrap_callables(tracer, value, f"{family}.{f.name}")
        elif callable(value):
            changes[f.name] = tracer.wrap(f"{family}.{f.name}", value)
    return dataclasses.replace(problem, **changes)


def _traced_builder(tracer: Tracer, build, family: str):
    def builder(data, *args, **kwargs):
        counted = dataclasses.replace(data)
        # the data records coerce A with np.asarray, so set the view after
        object.__setattr__(counted, "A", counting(data.A, tracer, family))
        return traced_problem(tracer, build(counted, *args, **kwargs), family)

    return functools.wraps(build)(builder)


@contextmanager
def instrumented(tracer: Tracer):
    """Substitute traced wrappers into every namespace holding the originals."""
    modules = [m for name, m in sys.modules.items()
               if name == "dcprox" or name.startswith("dcprox.")]
    patches = []

    def substitute(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def count_trials(outcome):
        tracer.add("linesearch.iters", 1)
        tracer.add("linesearch.trials", outcome.n_backtracks + 1)

    hooks = {"linesearch.backtrack_step": count_trials,
             "accel.BetaSchedule.finish_iteration":
                 lambda restarted: tracer.add("accel.restarts", bool(restarted))}
    for (modname, attr), name in FUNCTIONS.items():
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            continue
        if attr in SOLVER_RUNS:
            substitute(fn, tracer.wrap_solver(name, fn))
        elif attr == "run_matrix":
            substitute(fn, tracer.wrap_matrix_run(name, fn))
        else:
            substitute(fn, tracer.wrap(name, fn, hooks.get(name)))
    for (modname, attr), family in BUILDERS.items():
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is not None:
            substitute(fn, _traced_builder(tracer, fn, family))
    for (modname, clsname), methods in METHODS.items():
        cls = getattr(sys.modules.get(modname), clsname, None)
        for meth in methods if cls is not None else ():
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            name = f"{modname.split('.')[1]}.{clsname}.{meth}"
            patches.append((cls, meth, fn))
            setattr(cls, meth, tracer.wrap(name, fn, hooks.get(name)))
    try:
        yield
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
