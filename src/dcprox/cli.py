"""Command line front end.

Subcommands: ``gen`` writes a synthetic dataset to JSON, ``ref`` computes a
reference objective value for a run configuration (with the iteration
count and stop reason of the run behind it), ``bench`` runs the full
(solver, seed) matrix and writes trace/summary files, ``check`` audits trace
and summary CSVs.  Exit codes: 0 success, 2 configuration error or an output
path that cannot be written, 3 solver or audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (ConfigError, RunConfig, _build_base, _problem_options,
                    run_matrix, solve_reference)
from .datasets import save_dataset_json
from .linesearch import LineSearchError
from .trace import _audit_summary, audit_trace, read_summary_csv, read_trace_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcprox",
                                     description="difference-of-convex proximal solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag's dest is its problem key; a flag not given is absent, so the key
    # takes its default from bench._PROBLEM_KEYS
    gen = sub.add_parser("gen", help="generate a synthetic dataset",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--kind", required=True,
                     choices=["logreg-synthetic", "poisson-synthetic"])
    gen.add_argument("--out", required=True)
    gen.add_argument("--m", type=int, help="number of rows")
    gen.add_argument("--n", type=int, help="number of columns")
    gen.add_argument("--seed", dest="data_seed", type=int)
    gen.add_argument("--lambda", type=float)
    gen.add_argument("--sparsity", dest="sparsity_of_truth", type=float,
                     help="support fraction of the planted vector")
    gen.add_argument("--noise-rate", type=float,
                     help="label flip probability (logistic only)")
    gen.add_argument("--scale-decades", type=float,
                     help="column scale spread in decades (logistic only)")
    gen.add_argument("--k-nonzeros", type=int, help="spike count (poisson only)")
    gen.add_argument("--amp-max", type=float)
    gen.add_argument("--p", type=float, help="sensing matrix density (poisson only)")
    gen.add_argument("--bg", type=float)
    gen.set_defaults(func=_cmd_gen)

    ref = sub.add_parser("ref", help="compute the reference objective value")
    ref.add_argument("--config", required=True)
    ref.add_argument("--out", default=None, help="optional JSON output path")
    ref.set_defaults(func=_cmd_ref)

    bench = sub.add_parser("bench", help="run the solver-by-seed matrix")
    bench.add_argument("--config", required=True)
    bench.add_argument("--seed", type=int, action="append", default=None,
                       help="replace the configured seed list (repeatable)")
    bench.add_argument("--out", default=None, help="output directory")
    bench.add_argument("--max-iter", type=int, default=None)
    bench.add_argument("--tol", type=float, action="append", default=None,
                       help="replace the configured tolerance grid (repeatable)")
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser("check", help="audit trace and summary CSVs")
    check.add_argument("--trace", action="append", default=[],
                       help="trace CSV to audit (repeatable)")
    check.add_argument("--summary", action="append", default=[],
                       help="summary CSV to audit (repeatable)")
    check.set_defaults(func=_cmd_check)
    return parser


def _load_config(path, args=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if args is not None:
        # a flag given replaces its key, even with a value RunConfig rejects
        overrides = {"seeds": args.seed, "out_dir": args.out, "max_iter": args.max_iter,
                     "tolerances": args.tol and sorted(set(args.tol), reverse=True)}
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    return RunConfig.from_dict(raw)


def _cmd_gen(args) -> int:
    pcfg = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    base = _build_base(pcfg)
    p = _problem_options(pcfg)
    # the file keeps lambda and bg in the data record and the data seed as "seed"
    params = {"m": p["m"], "n": p["n"], "seed": p["data_seed"],
              **{k: v for k, v in p.items()
                 if k not in ("m", "n", "data_seed", "lambda", "bg")}}
    save_dataset_json(args.out, "logreg" if base.kind == "logreg" else "poisson-cs",
                      base.data, base.truth, params)
    print(f"wrote {args.kind} dataset to {args.out}")
    return 0


def _cmd_ref(args) -> int:
    value, _, _ = solve_reference(_load_config(args.config), args.out)
    print(repr(value))
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args.config, args)
    result = run_matrix(config)
    for row in result.summary:
        iters = "Max" if row.mean_iterations is None else f"{row.mean_iterations:.1f}"
        secs = "-" if row.mean_seconds is None else f"{row.mean_seconds:.3f}"
        flag = " (some seeds capped)" if row.max_flag and row.mean_iterations is not None else ""
        print(f"{row.solver:>8}  tol={row.tol:g}  iters={iters}  "
              f"seconds={secs}  hit_rate={row.hit_rate:.2f}{flag}")
    return 0


def _cmd_check(args) -> int:
    if not args.trace and not args.summary:
        raise ConfigError("check needs at least one --trace or --summary")
    failures = []
    for what, read, audit, paths in (
            ("trace", read_trace_csv, audit_trace, args.trace),
            ("summary", read_summary_csv, _audit_summary, args.summary)):
        for path in paths:
            try:
                results = audit(read(path))
            except (OSError, ValueError) as exc:
                results = [(what, False, f"unreadable {what} ({exc})")]
            for name, passed, problem in results:
                if passed:
                    print(f"check {path}: {name} ok")
                else:
                    failures.append(f"{path}: {problem}")
    for line in failures:
        print(f"check FAIL {line}", file=sys.stderr)
    return 3 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LineSearchError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
