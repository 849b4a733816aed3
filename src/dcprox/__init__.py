"""Proximal solvers for difference-of-convex composite objectives.

Minimizes F(x) = f(x) + g(x) - h(x) with f smooth convex, g proximable
convex, and h convex continuous, via extrapolated proximal steps under a
variable diagonal metric with a non-monotone backtracking line search.
Includes fixed-step and objective-gated baselines, certificate audits, and a
benchmark harness for synthetic logistic and Poisson inverse problems.
"""

from .accel import BetaSchedule, theta_next
from .bench import BenchResult, RunConfig, run_matrix
from .datasets import (ParseError, gen_logreg, gen_poisson_cs,
                       load_dataset_json, make_rng, poisson_sample,
                       read_libsvm, resample_counts, save_dataset_json,
                       write_libsvm)
from .linesearch import (BacktrackConfig, IterateState, LineSearchError,
                         backtrack_step, initial_L, sufficient_decrease)
from .logreg import (LogRegData, build_logreg_problem, l1_proximable,
                     l1_scaled_prox, l2_concave, logistic_lipschitz_bound)
from .metric import (AdaGradMetricProvider, DiagonalMetric,
                     IdentityMetricProvider, SplitGradientMetricProvider,
                     gamma, growth_factor, identity_metric)
from .poisson import (PoissonCsData, build_poisson_problem, kl_split,
                      l1_nonneg_proximable, l1_nonneg_scaled_prox)
from .problem import (ConcavePartOracle, DcProblem, EvaluationDomainError,
                      FeasibleSet, ProximableOracle, SmoothOracle,
                      criticality_residual, least_squares_smooth,
                      nonnegative_orthant, objective, quadratic_smooth,
                      whole_space, zero_concave, zero_proximable)
from .solver import (RunResult, SolverConfig, StoppingRule, adca_run,
                     extrapolation_slacks, pdcae_run, relative_error,
                     sfista_lyapunov, sfista_run, spdcae_run)
from .trace import (ConfigError, SummaryRow, Trace, TraceRecord, audit_trace,
                    read_summary_csv, read_trace_csv, write_trace_csv)

__version__ = "0.1.0"

__all__ = [
    "AdaGradMetricProvider", "BacktrackConfig", "BenchResult", "BetaSchedule",
    "ConcavePartOracle", "ConfigError", "DcProblem", "DiagonalMetric",
    "EvaluationDomainError", "FeasibleSet", "IdentityMetricProvider",
    "IterateState", "LineSearchError", "LogRegData", "ParseError",
    "PoissonCsData", "ProximableOracle", "RunConfig", "RunResult",
    "SmoothOracle", "SolverConfig", "SplitGradientMetricProvider",
    "StoppingRule", "SummaryRow", "Trace", "TraceRecord", "adca_run",
    "audit_trace", "backtrack_step", "build_logreg_problem",
    "build_poisson_problem", "criticality_residual", "extrapolation_slacks",
    "gamma", "gen_logreg", "gen_poisson_cs", "growth_factor",
    "identity_metric", "initial_L", "kl_split",
    "l1_nonneg_proximable", "l1_nonneg_scaled_prox", "l1_proximable",
    "l1_scaled_prox", "l2_concave", "least_squares_smooth",
    "load_dataset_json", "logistic_lipschitz_bound",
    "make_rng", "nonnegative_orthant", "objective", "pdcae_run",
    "poisson_sample", "quadratic_smooth", "read_libsvm", "read_summary_csv",
    "read_trace_csv", "relative_error", "resample_counts", "run_matrix",
    "save_dataset_json", "sfista_lyapunov", "sfista_run",
    "spdcae_run", "sufficient_decrease", "theta_next",
    "whole_space", "write_libsvm", "write_trace_csv", "zero_concave",
    "zero_proximable",
]
