"""Regenerate or diff the golden trajectories that ``test_golden.py`` checks.

    python tests/golden/regen.py          # rewrite tests/golden/logistic.json
    python tests/golden/regen.py --diff   # print the largest deviations only

The logistic file holds the acceptance-6 matrix with ``spdcae0`` and
``adca`` cells added (seeds 0-4, tolerances 1e-2 to 1e-8): per seed the
reference value, iterations and stop reason, and per cell its iterations,
stop reason, first hits, final x, and per iteration F, L, beta,
backtracks, restart and gate flags.  Floats are stored as their repr, so
they read back bit for bit.  Rewriting the file changes test data: say
which file and the largest deviation it absorbed (``--diff`` prints it).
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
LOGISTIC_CONFIG = {
    "problem": {"kind": "logreg-synthetic", "m": 2000, "n": 300,
                "lambda": 1e-3, "data_seed": 0},
    "solvers": [{"name": "spdcae1"}, {"name": "pdcae1"}, {"name": "pdcae"},
                {"name": "spdcae0"}, {"name": "adca"}],
    "tolerances": [1e-2, 1e-4, 1e-6, 1e-8],
    "seeds": [0, 1, 2, 3, 4],
    "max_iter": 10000,
}

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


def write(path: Path, rec: dict) -> None:
    """``rec`` as JSON with one line per reference and per cell."""
    def lines(items):
        return ",\n".join("  " + json.dumps(item) for item in items)
    with open(path, "w", encoding="ascii") as fh:
        fh.write('{"config": %s,\n"references": [\n%s],\n"cells": [\n%s]}\n'
                 % (json.dumps(rec["config"]), lines(rec["references"]),
                    lines(rec["cells"])))


def load(path: Path) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


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
    diff_only = "--diff" in (argv if argv is not None else sys.argv[1:])
    rec = record(LOGISTIC_CONFIG)
    if LOGISTIC.exists():
        for key, value in deviations(rec, load(LOGISTIC)).items():
            print(f"{LOGISTIC.name} {key}: {value}")
    if not diff_only:
        write(LOGISTIC, rec)
        print(f"wrote {LOGISTIC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
