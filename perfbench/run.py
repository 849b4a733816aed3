"""dcprox benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload logreg-matrix --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Human-readable lines (every metric with its unit and sample
count, the failure base and the run environment) come first; the last line
of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The full record, and the spans of a traced run, are written under
``perfbench/out/<workload>/``.  Exit code 2 means the benchmark could not
run (no sources, bad arguments); failed output checks are reported in the
result, not by the exit code.
"""

import os

# BLAS pinned to one thread before numpy loads, as the test suite does.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_library() -> float:
    """Put ``src/`` first on the path, import dcprox and return the time taken."""
    if not (SRC / "dcprox" / "__init__.py").is_file():
        raise ImportError(f"no dcprox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dcprox
    elapsed = time.perf_counter() - t0
    if Path(dcprox.__file__).resolve().parent != SRC / "dcprox":
        raise ImportError(f"dcprox resolved to {dcprox.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def _metric_lines(metrics: dict, units: dict) -> list:
    lines = []
    for name, (value, n) in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g} {units[name]:<6} (n={n})")
    return lines


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the JSON result."""
    from harness import E2E_UNITS
    from layers import UNITS

    e2e = record["end_to_end"]
    attempted = record["operations"]
    failed = min(len(record["failures"]), attempted)
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(trace)}")
    print("end to end (untraced operations):")
    for line in _metric_lines(e2e, E2E_UNITS):
        print(line)
    print(f"  {'fail_rate':<34} {failed / attempted:>16.6g} {'ratio':<6} "
          f"({failed}/{attempted} operations)")
    if trace:
        per_layer, n_ops = record["per_layer"]
        print("per layer (traced operations):")
        for line in _metric_lines({k: (v, n_ops) for k, v in per_layer.items()}, UNITS):
            print(line)
    print("environment " + json.dumps(environment(), sort_keys=True))
    for line in record["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("logreg-matrix", "poisson-matrix", "convex-crit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code at toy sizes (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness
    import workloads

    scale = (workloads.FULL if args.scale == "full" else workloads.TINY)[args.workload]
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         scale, SRC, import_s, out_dir)
    result = report(record, bool(args.trace))
    with open(out_dir / f"record_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "environment": environment(), "result": result}, fh,
                  indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
