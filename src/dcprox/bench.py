"""Benchmark harness: problem building, reference values, and run matrices.

A run configuration names one problem, a list of solver profiles, a
decreasing tolerance grid, and a list of seeds.  Each (solver, seed) cell is
one solver run; first-hit iteration counts and times for every tolerance are
read off the run's trace columns in one search, and rows are aggregated over
the seeds that reached each tolerance.  Reference objective values come from a
run of a designated reference solver that stops once its lowest objective
has fallen by at most 1e-12 relative over 100 accepted iterations, capped at
``reference_iterations``.  Runs are sequential and deterministic for a fixed
configuration.
"""

from __future__ import annotations

import contextlib
import fnmatch
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .accel import BetaSchedule
from .datasets import (gen_logreg, gen_poisson_cs, load_dataset_json,
                       make_rng, read_libsvm, resample_counts)
from .linesearch import BacktrackConfig
from .logreg import LogRegData, build_logreg_problem, logistic_lipschitz_bound
from .poisson import build_poisson_problem
from .problem import DcProblem, objective
from .solver import (RunResult, SolverConfig, StoppingRule, adca_run,
                     pdcae_run, spdcae_run)
from .trace import (ConfigError, SummaryRow, Trace, _write_summary_csv,
                    write_trace_csv)

Array = np.ndarray


def _json_bool(value) -> bool:
    """A JSON ``true``/``false``; strings and numbers are not flags."""
    if not isinstance(value, bool):
        raise ValueError(f"not a boolean: {value!r}")
    return value


def _json_int(value) -> int:
    """A JSON integer; booleans and numbers with a fraction are not counts."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer: {value!r}")
    return value


def _json_seed(value) -> int:
    """A nonnegative JSON integer, as the seeded generators take."""
    if _json_int(value) < 0:
        raise ValueError(f"not a nonnegative integer: {value!r}")
    return value


def _json_float(value) -> float:
    """A finite JSON number; booleans, strings and NaN are not values."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return float(value)


def _parsed(value, parse, what: str):
    """``parse(value)``; a value it rejects is a ConfigError naming ``what``."""
    try:
        return parse(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"invalid value {value!r} of {what}") from None


# Problem kind -> {key: (parser, default)}; a default of ... marks a required key.
_PROBLEM_KEYS = {
    "logreg-synthetic": {"m": (_json_int, ...), "n": (_json_int, ...),
                         "sparsity_of_truth": (_json_float, 0.1),
                         "noise_rate": (_json_float, 0.05),
                         "data_seed": (_json_int, 0), "lambda": (_json_float, 1e-3),
                         "scale_decades": (_json_float, 2.0)},
    "poisson-synthetic": {"n": (_json_int, ...), "m": (_json_int, ...),
                          "k_nonzeros": (_json_int, 20),
                          "amp_max": (_json_float, 1e5), "p": (_json_float, 0.9),
                          "bg": (_json_float, 1e-10), "data_seed": (_json_int, 0),
                          "lambda": (_json_float, 1e-3)},
    "logreg-file": {"path": (str, ...), "n_features": (_json_int, None),
                    "lambda": (_json_float, 1e-3)},
    "dataset-json": {"path": (str, ...)},
}

# Problem kind -> problem family; a dataset file names its family only once
# it is loaded.
_KIND_FAMILY = {"logreg-synthetic": "logreg", "poisson-synthetic": "poisson",
                "logreg-file": "logreg", "dataset-json": None}


def _parse_keys(entry: dict, label: str, parsers: dict) -> dict:
    """Every key of ``entry`` but ``label`` (its kind or name), parsed; an
    unknown key or an unparsable value is a ConfigError naming the key."""
    where = f"{label} {entry[label]!r}"
    out = {}
    for key, value in entry.items():
        if key == label:
            continue
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r} for {where}")
        out[key] = _parsed(value, parsers[key], f"{key!r} for {where}")
    return out


def _problem_options(pcfg: dict) -> dict:
    """Every option of the problem's kind, parsed, with defaults filled in."""
    table = _PROBLEM_KEYS.get(pcfg["kind"])
    if table is None:
        raise ConfigError(f"unknown problem kind: {pcfg['kind']!r}")
    out = {key: default for key, (_, default) in table.items()}
    out.update(_parse_keys(pcfg, "kind", {k: p for k, (p, _) in table.items()}))
    missing = [key for key, value in out.items() if value is ...]
    if missing:
        raise ConfigError(f"problem kind {pcfg['kind']!r} is missing {missing[0]!r}")
    return out


# --- solvers ------------------------------------------------------------------
# A builder takes an entry's name, problem family ("logreg", "poisson", or None
# before a dataset file names it) and parsed options, and returns the entry's
# run(base, problem, x0, stop); a value out of range or a setting the family
# cannot run raises ValueError.

_BACKTRACK_KEYS = {"eta": _json_float, "T1": _json_int, "rho": _json_float,
                   "L_floor": _json_float, "L_init": _json_float,
                   "max_inner": _json_int, "deflate_when_divisible": _json_bool}


def _profile(name: str, base_kind: str, overrides: dict) -> SolverConfig:
    """Line-search profile ``name`` for the problem family; ``overrides``
    are parsed and replace the family defaults."""
    scaled = name in ("spdcae1", "spdcae0")
    monotone = name in ("spdcae0", "pdcae0")
    bt = {"mode": "monotone" if monotone else "nonmonotone"}
    if base_kind == "logreg":
        cfg = {"metric": "adagrad" if scaled else "identity"}
        bt.update(eta=2.0, L_init=1.0 if scaled else 0.1, max_inner=100)
    else:
        cfg = {"metric": "split-gradient" if scaled else "identity"}
        # monotone profiles may need ~1e8 inflation on the first iteration
        bt.update(eta=1.2 if monotone else 2.0, L_init=0.1 if scaled else 1e-5,
                  max_inner=200)
    for key, value in overrides.items():
        (bt if key in _BACKTRACK_KEYS else cfg)[key] = value
    return SolverConfig(backtrack=BacktrackConfig(**bt), **cfg)


def _line_search_solver(name: str, family: Optional[str], options: dict):
    # either family's defaults are in range, so a family not known yet is
    # checked with the logistic ones
    config = _profile(name, family or "logreg", options)
    if config.metric == "split-gradient" and family == "logreg":
        # only the Poisson builder provides a gradient split
        raise ValueError("the split-gradient metric needs a Poisson problem")
    return lambda base, problem, x0, stop: spdcae_run(problem, config, stop, x0=x0)


def _fixed_L(family: Optional[str], options: dict) -> Optional[float]:
    """The entry's 'L'; None stands for the logistic curvature bound, which
    the Poisson family has no counterpart of."""
    L = options.get("L")
    if L is None and family == "poisson":
        raise ValueError("fixed-step solvers need an explicit 'L' on a Poisson problem")
    if L is not None and L <= 0.0:
        raise ValueError("fixed curvature constant L must be positive")
    return L


def _pdcae_solver(name: str, family: Optional[str], options: dict):
    L = _fixed_L(family, options)
    schedule = BetaSchedule(family=options.get("beta_family", "fixed-adaptive-restart"),
                            T2=options.get("T2", 200))
    return lambda base, problem, x0, stop: pdcae_run(problem, L or base.L_bound,
                                                     schedule, stop, x0=x0)


def _adca_solver(name: str, family: Optional[str], options: dict):
    L = _fixed_L(family, options)
    q = options.get("q", 3)
    if q < 0:
        raise ValueError("history depth q must be nonnegative")
    return lambda base, problem, x0, stop: adca_run(problem, L or base.L_bound,
                                                    q, stop, x0=x0)


# Solver name -> ({key: parser}, builder); a line-search profile takes the
# BacktrackConfig fields in _BACKTRACK_KEYS and the SolverConfig fields.
_SOLVERS = {
    **dict.fromkeys(("spdcae1", "spdcae0", "pdcae1", "pdcae0"), ({
        **_BACKTRACK_KEYS, "beta_family": str, "delta": _json_float,
        "T2": _json_int, "metric": str, "epsilon": _json_float,
        "clamp_numerator": _json_float}, _line_search_solver)),
    "pdcae": ({"L": _json_float, "beta_family": str, "T2": _json_int},
              _pdcae_solver),
    "adca": ({"L": _json_float, "q": _json_int}, _adca_solver),
}


def _solver_options(scfg: dict, role: str = "solver") -> dict:
    if scfg["name"] not in _SOLVERS:
        raise ConfigError(f"unknown {role}: {scfg['name']!r}")
    return _parse_keys(scfg, "name", _SOLVERS[scfg["name"]][0])


def _build_solver(scfg: dict, family: Optional[str], role: str = "solver"):
    """The run of solver entry ``scfg`` on a problem of ``family``; any
    setting the builder rejects is a ConfigError naming the solver."""
    options = _solver_options(scfg, role)
    name = scfg["name"]
    try:
        return _SOLVERS[name][1](name, family, options)
    except ValueError as exc:
        raise ConfigError(f"{role} {name!r}: {exc}") from None


def _build_solvers(config: "RunConfig", family: Optional[str]):
    """(name, run) of every solver entry, and the run of the reference
    solver (which runs with its defaults), on a problem of ``family``."""
    runs = [(s["name"], _build_solver(s, family)) for s in config.solvers]
    return runs, _build_solver({"name": config.reference_solver}, family,
                               "reference solver")


def _reject_repeat(items: list, what: str) -> None:
    """A ConfigError naming the first item of ``items`` listed twice."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{what} {item!r} is listed more than once")


@dataclass
class RunConfig:
    """Validated benchmark configuration."""

    problem: dict
    solvers: List[dict]
    tolerances: List[float]
    seeds: List[int]
    max_iter: int = 10000
    reference_solver: str = "pdcae1"
    reference_iterations: int = 10000
    reference_seed: int = 0
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.problem, dict) or "kind" not in self.problem:
            raise ConfigError("problem must be a mapping with a 'kind'")
        _problem_options(self.problem)
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        for s in self.solvers:
            if not isinstance(s, dict) or "name" not in s:
                raise ConfigError("each solver entry needs a 'name'")
        # a name keys its runs, trace files and summary rows
        _reject_repeat([s["name"] for s in self.solvers], "solver")
        _build_solvers(self, _KIND_FAMILY[self.problem["kind"]])
        for name in ("max_iter", "reference_iterations"):
            _parsed(getattr(self, name), _json_int, repr(name))
        _parsed(self.reference_seed, _json_seed, "'reference_seed'")
        for seed in self.seeds:
            _parsed(seed, _json_seed, "'seeds'")
        _reject_repeat(self.seeds, "seed")
        for tol in self.tolerances:
            _parsed(tol, _json_float, "'tolerances'")
        if not self.tolerances or any(t <= 0.0 for t in self.tolerances):
            raise ConfigError("tolerances must be positive")
        if any(a <= b for a, b in zip(self.tolerances, self.tolerances[1:])):
            raise ConfigError("tolerances must be strictly decreasing")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.max_iter < 1 or self.reference_iterations < 0:
            raise ConfigError("iteration budgets must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ConfigError(f"missing configuration keys: {sorted(missing)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


# --- problem construction ----------------------------------------------------

@dataclass
class _Base:
    """Problem family shared across seeds."""

    kind: str  # logreg | poisson
    data: object
    truth: Optional[Array]
    problem: Optional[DcProblem]  # shared instance when seeds share the data

    @cached_property
    def L_bound(self) -> float:
        """Logistic curvature bound, the fixed-step solvers' default 'L'."""
        return logistic_lipschitz_bound(self.data)


def _setup(config: RunConfig):
    """The configured problem family, the (name, run) of every solver entry
    and the reference run, all built before any solve (a dataset file's
    family is known only once the file is loaded)."""
    base = _build_base(config.problem)
    return (base, *_build_solvers(config, base.kind))


def _build_base(pcfg: dict) -> _Base:
    """The problem family of ``pcfg``.  A value its generator or reader
    rejects, a file it cannot read and a dataset file without a field it
    needs are each a ConfigError naming the kind."""
    kind = pcfg["kind"]
    p = _problem_options(pcfg)
    try:
        if kind == "logreg-synthetic":
            data, w = gen_logreg(p["m"], p["n"],
                                 sparsity_of_truth=p["sparsity_of_truth"],
                                 noise_rate=p["noise_rate"], rng=p["data_seed"],
                                 lam=p["lambda"], scale_decades=p["scale_decades"])
            return _Base("logreg", data, w, build_logreg_problem(data))
        if kind == "poisson-synthetic":
            data, x_true = gen_poisson_cs(n=p["n"], m=p["m"],
                                          k_nonzeros=p["k_nonzeros"],
                                          amp_max=p["amp_max"], p=p["p"], bg=p["bg"],
                                          rng=p["data_seed"], lam=p["lambda"])
            return _Base("poisson", data, x_true, None)
        if kind == "logreg-file":
            A, labels = read_libsvm(p["path"], n_features=p["n_features"])
            data = LogRegData(A=A, b=labels, lam=p["lambda"])
            return _Base("logreg", data, None, build_logreg_problem(data))
        stored_kind, data, truth, _ = load_dataset_json(p["path"])
        if stored_kind == "logreg":
            return _Base("logreg", data, truth, build_logreg_problem(data))
        return _Base("poisson", data, truth, None)
    except KeyError as exc:
        raise ConfigError(f"problem kind {kind!r}: missing field {exc}") from None
    except (ValueError, OSError) as exc:
        raise ConfigError(f"problem kind {kind!r}: {exc}") from None


def _instance(base: _Base, seed: int) -> Tuple[DcProblem, Array]:
    """Problem and start point for one seed.

    Logistic seeds share the dataset and vary the uniform start point;
    Poisson seeds redraw the count realization (each seed is its own
    instance) and always start from the all-ones vector.
    """
    if base.kind == "logreg":
        x0 = make_rng(seed).random(base.data.n)
        return base.problem, x0
    data_s = resample_counts(base.data, base.truth, make_rng(seed))
    return build_poisson_problem(data_s), np.ones(base.data.n)


# --- reference values and the matrix -----------------------------------------

# The reference stops once its lowest objective has fallen by at most 1e-12
# relative over this many accepted iterations (``StoppingRule.stall_iters``).
# Logistic and Poisson references settle to that level within a few hundred
# iterations; a longer window only adds iterations spent in round-off.
_REFERENCE_STALL_ITERS = 100


def _reference_value(config: RunConfig, reference, base: _Base,
                     problem: DcProblem, x0: Array) -> Tuple[float, int, str]:
    """(value, iterations, stop reason) of the ``reference`` run from
    ``x0``; the value is the objective of its last accepted iterate."""
    stop = StoppingRule(max_iter=config.reference_iterations,
                        stall_iters=_REFERENCE_STALL_ITERS)
    result = reference(base, problem, x0, stop)
    value = result.F_final if result.trace else objective(problem, x0)
    return value, result.n_iterations, result.stop_reason


def solve_reference(config: RunConfig, out: Optional[str] = None
                    ) -> Tuple[float, int, str]:
    """Objective, iteration count and stop reason of the reference solver
    on the canonical instance.

    Logistic references share the dataset and use the start drawn from the
    reference seed; Poisson references use the reference seed's count
    realization.  Deterministic for a fixed configuration.  When ``out`` is
    set, the file is opened before the solve and receives the three as JSON
    (``reference``, ``iterations``, ``stop_reason``).
    """
    base, _, reference = _setup(config)
    with open(out, "w", encoding="ascii") if out else contextlib.nullcontext() as fh:
        value, iterations, stop_reason = _reference_value(
            config, reference, base, *_instance(base, config.reference_seed))
        if fh is not None:
            json.dump({"reference": value, "iterations": iterations,
                       "stop_reason": stop_reason}, fh)
    return value, iterations, stop_reason


def _first_hits(trace: Trace, tolerances: List[float]):
    """First (iteration, seconds) meeting each tolerance, found by one
    search of the running minimum of the relative error; a missing or NaN
    error meets none."""
    rel = trace.rel_error
    rel = np.where(trace.missing["rel_error"] | np.isnan(rel), np.inf, rel)
    # the running minimum is nonincreasing, so its negation is sorted
    lowest = -np.minimum.accumulate(rel)
    first = np.searchsorted(lowest, -np.asarray(tolerances, dtype=float), side="left")
    return {tol: (int(trace.k[i]), float(trace.wall_clock_seconds[i]))
            if i < len(trace) else None
            for tol, i in zip(tolerances, first.tolist())}


@dataclass
class BenchResult:
    """Everything a matrix run produced."""

    summary: List[SummaryRow]
    runs: Dict[Tuple[str, int], RunResult]
    references: Dict[int, float]
    hits: Dict[Tuple[str, int], dict] = field(default_factory=dict)
    # seed -> (iterations, stop reason) of the run behind its reference
    reference_stops: Dict[int, Tuple[int, str]] = field(default_factory=dict)


def _trace_file(name: str, seed: int) -> str:
    return f"trace_{name}_{seed}.csv"


def _prepare_out_dir(config: RunConfig) -> None:
    """Create ``config.out_dir``; a trace CSV in it that this configuration
    does not write is a ConfigError naming it, since the summary would not
    describe it.  Nothing is deleted."""
    os.makedirs(config.out_dir, exist_ok=True)
    written = {_trace_file(s["name"], seed)
               for s in config.solvers for seed in config.seeds}
    stale = sorted(f for f in os.listdir(config.out_dir)
                   if fnmatch.fnmatch(f, "trace_*.csv") and f not in written)
    if stale:
        raise ConfigError(f"output directory {config.out_dir} holds trace files "
                          f"this run does not write: {', '.join(stale)}")


def run_matrix(config: RunConfig) -> BenchResult:
    """Run every (solver, seed) cell and aggregate first-hit statistics.

    When ``config.out_dir`` is set, creates it before the first solve and
    writes one trace CSV per cell plus ``summary.csv`` and ``summary.json``,
    replacing files of the same names; an earlier run's trace CSV that this
    run would not replace is a ConfigError, raised before the first solve.
    """
    base, solvers, reference = _setup(config)
    if config.out_dir:
        _prepare_out_dir(config)
    shared_ref: Optional[Tuple[float, int, str]] = None
    if base.kind == "logreg":
        shared_ref = _reference_value(config, reference, base,
                                      *_instance(base, config.reference_seed))

    runs: Dict[Tuple[str, int], RunResult] = {}
    references: Dict[int, float] = {}
    reference_stops: Dict[int, Tuple[int, str]] = {}
    hits: Dict[Tuple[str, int], dict] = {}
    tightest = min(config.tolerances)

    for seed in config.seeds:
        problem, x0 = _instance(base, seed)
        if shared_ref is not None:
            f_star, n_ref, ref_stop = shared_ref
        else:
            # each count realization is its own instance; reference per seed
            f_star, n_ref, ref_stop = _reference_value(config, reference, base,
                                                       problem, np.ones(base.data.n))
        references[seed] = f_star
        reference_stops[seed] = (n_ref, ref_stop)
        stop = StoppingRule(max_iter=config.max_iter, ref_value=f_star,
                            rel_tol=tightest)
        for name, run in solvers:
            result = run(base, problem, x0, stop)
            runs[(name, seed)] = result
            hits[(name, seed)] = _first_hits(result.trace, config.tolerances)

    summary: List[SummaryRow] = []
    for scfg in config.solvers:
        name = scfg["name"]
        for tol in config.tolerances:
            cell_hits = [hits[(name, seed)][tol] for seed in config.seeds]
            reached = [h for h in cell_hits if h is not None]
            rate = len(reached) / len(config.seeds)
            summary.append(SummaryRow(
                solver=name, tol=tol,
                mean_iterations=(float(np.mean([h[0] for h in reached]))
                                 if reached else None),
                mean_seconds=(float(np.mean([h[1] for h in reached]))
                              if reached else None),
                hit_rate=rate,
                max_flag=rate < 1.0))

    result = BenchResult(summary=summary, runs=runs, references=references,
                         hits=hits, reference_stops=reference_stops)
    if config.out_dir:
        write_outputs(config, result)
    return result


def write_outputs(config: RunConfig, result: BenchResult) -> None:
    """The trace and summary files of ``result`` in the existing directory
    ``config.out_dir``."""
    for (name, seed), run in result.runs.items():
        write_trace_csv(os.path.join(config.out_dir, _trace_file(name, seed)), run.trace)
    rows = result.summary
    _write_summary_csv(os.path.join(config.out_dir, "summary.csv"), rows)
    payload = {"reference_values": {str(k): v for k, v in result.references.items()},
               "reference_stops": {str(k): {"iterations": n, "stop_reason": r}
                                   for k, (n, r) in result.reference_stops.items()},
               "summary": [asdict(r) for r in rows]}
    with open(os.path.join(config.out_dir, "summary.json"), "w",
              encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
