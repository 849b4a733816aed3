"""Regenerate or diff the golden trajectories that ``test_golden.py`` checks.

    python tests/golden/regen.py                  # rewrite every golden file
    python tests/golden/regen.py poisson.json     # rewrite only the files named
    python tests/golden/regen.py --diff [FILE..]  # print the largest deviations only

Each file holds the records of one or more ``run_matrix`` configs: per seed
the reference value, iterations and stop reason, and per cell its
iterations, stop reason, first hits, final x, and per iteration F, L, beta,
backtracks, restart and gate flags.  Floats are stored as their repr, so
they read back bit for bit.

- ``logistic.json``: the acceptance-6 matrix with ``spdcae0`` and ``adca``
  cells added (seeds 0-4, tolerances 1e-2 to 1e-8).
- ``poisson.json``: the acceptance-7 matrix at seeds 0-1 capped at 2000
  iterations, and a low-flux matrix whose counts are mostly zero (44 and 42
  of 60 at seeds 0 and 1), so both the all-positive and the masked KL paths
  are held.

Rewriting a file changes test data: say which file and the largest
deviation it absorbed (``--diff`` prints it).  A file that is not named is
not rewritten, so its stored trajectories keep their bytes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# BLAS on one thread before numpy loads, as tests/conftest.py pins it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from dcprox import RunConfig, run_matrix  # noqa: E402

LOGISTIC = HERE / "logistic.json"
POISSON = HERE / "poisson.json"
LOGISTIC_CONFIG = {
    "problem": {"kind": "logreg-synthetic", "m": 2000, "n": 300,
                "lambda": 1e-3, "data_seed": 0},
    "solvers": [{"name": "spdcae1"}, {"name": "pdcae1"}, {"name": "pdcae"},
                {"name": "spdcae0"}, {"name": "adca"}],
    "tolerances": [1e-2, 1e-4, 1e-6, 1e-8],
    "seeds": [0, 1, 2, 3, 4],
    "max_iter": 10000,
}
ACCEPTANCE7_CONFIG = {
    "problem": {"kind": "poisson-synthetic", "n": 500, "m": 100,
                "k_nonzeros": 5, "data_seed": 0},
    "solvers": [{"name": "spdcae1"}, {"name": "spdcae0"}, {"name": "pdcae0"}],
    "tolerances": [1e-3],
    "seeds": [0, 1],
    "max_iter": 2000,
}
LOW_FLUX_CONFIG = {
    "problem": {"kind": "poisson-synthetic", "n": 200, "m": 60,
                "k_nonzeros": 3, "amp_max": 50.0, "p": 0.3, "data_seed": 0},
    "solvers": [{"name": "spdcae1"}, {"name": "spdcae0"}, {"name": "pdcae0"},
                {"name": "pdcae1"}],
    "tolerances": [1e-2, 1e-4, 1e-6, 1e-8],
    "seeds": [0, 1],
    "max_iter": 2000,
}

# File -> the configs it holds, in order.
GOLDEN = {LOGISTIC: [LOGISTIC_CONFIG],
          POISSON: [ACCEPTANCE7_CONFIG, LOW_FLUX_CONFIG]}

# Fields compared exactly, and fields compared within RTOL relative.
EXACT = ("iterations", "stop_reason", "first_hits", "n_backtracks",
         "restarted", "gate_passed")
CLOSE = ("F", "L", "beta", "x")
RTOL = 1e-12


def record(config: dict) -> dict:
    """The golden record of one ``run_matrix`` of ``config``."""
    result = run_matrix(RunConfig.from_dict(config))
    cells = []
    for (solver, seed), run in result.runs.items():
        tr = run.trace
        cells.append({
            "solver": solver, "seed": seed, "iterations": run.n_iterations,
            "stop_reason": run.stop_reason,
            "first_hits": [None if hit is None else hit[0]
                           for hit in result.hits[(solver, seed)].values()],
            "F": tr.F_value.tolist(), "L": tr.L_accepted.tolist(),
            "beta": tr.beta_used.tolist(),
            "n_backtracks": tr.n_backtracks.tolist(),
            "restarted": tr.restarted.tolist(),
            "gate_passed": [None if missing else bool(passed) for passed, missing
                            in zip(tr.gate_passed, tr.missing["gate_passed"])],
            "x": run.x.tolist()})
    return {"config": config,
            "references": [{"seed": seed, "value": value,
                            "iterations": result.reference_stops[seed][0],
                            "stop_reason": result.reference_stops[seed][1]}
                           for seed, value in result.references.items()],
            "cells": cells}


def _text(rec: dict) -> str:
    """``rec`` as JSON with one line per reference and per cell."""
    def lines(items):
        return ",\n".join("  " + json.dumps(item) for item in items)
    return ('{"config": %s,\n"references": [\n%s],\n"cells": [\n%s]}'
            % (json.dumps(rec["config"]), lines(rec["references"]),
               lines(rec["cells"])))


def write(path: Path, recs: list) -> None:
    """One record as a JSON object, several as a JSON list of them."""
    text = _text(recs[0]) if len(recs) == 1 else \
        "[\n%s]" % ",\n".join(_text(rec) for rec in recs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def load(path: Path) -> list:
    """The records of a golden file, in the order of its configs."""
    with open(path, encoding="ascii") as fh:
        recs = json.load(fh)
    return recs if isinstance(recs, list) else [recs]


def relative_deviation(new, old) -> float:
    """Largest |new - old| / |old| over entries; an entry that is zero in
    ``old`` must be zero in ``new``."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    if new.shape != old.shape:
        return np.inf
    if new.size == 0:
        return 0.0
    diff, scale = np.abs(new - old), np.abs(old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0.0, diff / scale, np.where(diff > 0.0, np.inf, 0.0))
    return float(rel.max())


def deviations(new: dict, old: dict) -> dict:
    """Per field, the largest relative deviation of ``new`` from ``old``
    (``CLOSE`` fields and reference values) or the number of cells that
    differ (``EXACT`` fields and reference stops)."""
    out = {"reference": relative_deviation(
        [r["value"] for r in new["references"]], [r["value"] for r in old["references"]]),
        "reference_stops": sum(
            (a["iterations"], a["stop_reason"]) != (b["iterations"], b["stop_reason"])
            for a, b in zip(new["references"], old["references"]))}
    pairs = list(zip(new["cells"], old["cells"]))
    for key in CLOSE:
        out[key] = max(close_deviation(key, a[key], b[key]) for a, b in pairs)
    for key in EXACT:
        out[key] = sum(a[key] != b[key] for a, b in pairs)
    return out


def close_deviation(key: str, new, old) -> float:
    """The relative deviation of a ``CLOSE`` field: entrywise, but by norm
    for the final x."""
    if key != "x":
        return relative_deviation(new, old)
    new, old = np.asarray(new), np.asarray(old)
    if new.shape != old.shape:
        return np.inf
    return float(np.linalg.norm(new - old) / np.linalg.norm(old))


def main(argv=None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    diff_only = "--diff" in args
    names = [a for a in args if a != "--diff"]
    known = {path.name: path for path in GOLDEN}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown golden file(s) {unknown}; known: {sorted(known)}")
        return 2
    for path in [known[name] for name in names] or list(GOLDEN):
        recs = [record(config) for config in GOLDEN[path]]
        if path.exists():
            for i, (new, old) in enumerate(zip(recs, load(path))):
                for key, value in deviations(new, old).items():
                    print(f"{path.name}[{i}] {key}: {value}")
        if not diff_only:
            write(path, recs)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
