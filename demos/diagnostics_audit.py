"""Auditing a finished run: descent bounds, extrapolation, energy decay.

Every accepted iteration is supposed to satisfy a sufficient-decrease bound
(the quantity the line search enforces at the extrapolated point), and the
extrapolated point itself must not overshoot the metric ball that makes
momentum safe.  A run with ``diagnostics=True`` records the descent slack in
its trace, the extrapolation slack is checkable after the fact from stored
snapshots, and the convex mode additionally carries a per-iteration energy
certificate.
A run that violates any of these has a bug, a bad metric, or a broken
oracle; this demo shows all three audits coming back clean, plus the trace
CSV round trip (descent slacks included) the command line tools consume.

Run:  python3 demos/diagnostics_audit.py
"""

import tempfile
from pathlib import Path

import numpy as np

from dcprox import (BacktrackConfig, DcProblem, SolverConfig, StoppingRule,
                    build_logreg_problem, extrapolation_slacks, gen_logreg,
                    l1_proximable, least_squares_smooth, objective,
                    read_trace_csv, sfista_lyapunov, sfista_run, spdcae_run,
                    whole_space, write_trace_csv, zero_concave)

data, _ = gen_logreg(200, 40, rng=1)
problem = build_logreg_problem(data)
res = spdcae_run(problem, SolverConfig(metric="adagrad"),
                 StoppingRule(max_iter=400), x0=np.zeros(40),
                 keep_states=True, diagnostics=True)

descent = res.trace.descent_slack
extrap = extrapolation_slacks(res)
print(f"DC run, {res.n_iterations} iterations")
print(f"  descent slack:        min {descent.min():+.3e}  (>= 0 up to roundoff)")
print(f"  extrapolation slack:  min {extrap.min():+.3e}  (>= 0 up to roundoff)")

# convex mode has an energy function that must decrease every iteration
rng = np.random.default_rng(2)
A = rng.standard_normal((150, 30))
y = rng.standard_normal(150)
lasso = DcProblem(f=least_squares_smooth(A, y), g=l1_proximable(0.2),
                  h=zero_concave(), feasible_set=whole_space())
conv = sfista_run(lasso, SolverConfig(
    backtrack=BacktrackConfig(mode="monotone")),
    StoppingRule(max_iter=500), x0=np.zeros(30), keep_states=True)
ref = sfista_run(lasso, SolverConfig(
    backtrack=BacktrackConfig(mode="monotone")),
    StoppingRule(max_iter=50000), x0=np.zeros(30))
energy = sfista_lyapunov(lasso, ref.x, objective(lasso, ref.x), conv)
print(f"  energy slack:         min {energy.min():+.3e}  (>= 0 up to roundoff)")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trace.csv"
    write_trace_csv(path, res.trace)
    back = read_trace_csv(path)
    exact = back == res.trace  # every field, floats bit for bit
    print(f"\ntrace CSV round trip: {len(back)} rows, every field exact: {exact}")
    print("the same file passes `dcprox check --trace ...`")
