"""scipy loads only where it is used: the Poisson, least-squares, audit and
dense logistic paths run on numpy alone, and only sparse inputs (a libsvm
file, a CSR design) load ``scipy.sparse``.  Module loading is process-wide,
so the whole sequence runs in one fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import sys
from pathlib import Path

import numpy as np


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import dcprox
import dcprox.cli
from dcprox import (DcProblem, LogRegData, RunConfig, SolverConfig, StoppingRule,
                    build_logreg_problem, gen_logreg, l1_proximable,
                    least_squares_smooth, read_libsvm, run_matrix, sfista_run,
                    spdcae_run, whole_space, zero_concave)

assert scipy_modules() == [], scipy_modules()

out = Path(sys.argv[1])
run_matrix(RunConfig.from_dict({
    "problem": {"kind": "poisson-synthetic", "n": 25, "m": 10, "k_nonzeros": 3,
                "amp_max": 100.0, "data_seed": 1},
    "solvers": [{"name": "spdcae1"}], "tolerances": [1e-1], "seeds": [0],
    "max_iter": 50, "reference_iterations": 200, "out_dir": str(out)}))
assert dcprox.cli.main(["check", "--trace", str(out / "trace_spdcae1_0.csv")]) == 0

rng = np.random.default_rng(0)
lasso = DcProblem(f=least_squares_smooth(rng.standard_normal((20, 6)),
                                         rng.standard_normal(20)),
                  g=l1_proximable(0.1), h=zero_concave(), feasible_set=whole_space())
sfista_run(lasso, SolverConfig(), StoppingRule(max_iter=20), x0=np.zeros(6))
assert scipy_modules() == [], scipy_modules()

data, _ = gen_logreg(20, 5, rng=0)
res = spdcae_run(build_logreg_problem(data), SolverConfig(),
                 StoppingRule(max_iter=5), x0=np.zeros(5))
assert np.isfinite(res.F_final)
run_matrix(RunConfig.from_dict({
    "problem": {"kind": "logreg-synthetic", "m": 40, "n": 8, "data_seed": 2},
    "solvers": [{"name": "spdcae1"}, {"name": "pdcae"}, {"name": "adca"}],
    "tolerances": [1e-2], "seeds": [0], "max_iter": 50,
    "reference_iterations": 200}))
assert scipy_modules() == [], scipy_modules()

path = out / "small.svm"
path.write_text("+1 1:0.5 3:1.0\n-1 2:2.0\n+1 1:-1.0 2:0.25\n-1 3:0.75\n")
A, labels = read_libsvm(path)
sparse = LogRegData(A=A, b=labels, lam=0.01)
res = spdcae_run(build_logreg_problem(sparse), SolverConfig(),
                 StoppingRule(max_iter=5), x0=np.zeros(3))
assert "scipy.sparse" in sys.modules
assert np.isfinite(res.F_final)
print("ok")
"""


def test_scipy_loads_only_where_it_is_used(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ok"
