"""Release gate: end-to-end checks of the advertised guarantees.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line so a log scrape gives a
per-criterion verdict.  Numbering:

  1  per-iteration descent bound holds on a mixed pool of random instances
  2  convex mode shows the quadratic rate (bounded (k+1)^2-weighted gap)
  3  energy certificate is nonnegative with the identity metric
  4  scaled proximal maps match an extended-precision search
  5  specializations reproduce their fixed-step / unaccelerated baselines
  6  logistic first-hit ordering: metric+search < search < fixed step
  7  Poisson first-hit ordering: nonmonotone < monotone; fixed step trails
  8  DC runs settle at critical points with shrinking steps
  9  oracle gradients, split consistency, flux audits, data round trips

The pools are random but fully seeded; everything here is deterministic.
"""

import time

import numpy as np
import pytest

from conftest import finite_diff_grad, golden_section

from dcprox.bench import RunConfig, run_matrix
from dcprox.datasets import (gen_logreg, gen_poisson_cs, make_rng,
                             poisson_sample, read_libsvm, write_libsvm)
from dcprox.linesearch import BacktrackConfig
from dcprox.logreg import (build_logreg_problem, l1_proximable,
                           l1_scaled_prox, l2_concave,
                           logistic_lipschitz_bound)
from dcprox.metric import DiagonalMetric
from dcprox.poisson import (build_poisson_problem, kl_split,
                            l1_nonneg_proximable, l1_nonneg_scaled_prox)
from dcprox.problem import (DcProblem, criticality_residual,
                            least_squares_smooth, nonnegative_orthant,
                            objective, quadratic_smooth, whole_space,
                            zero_concave, zero_proximable)
from dcprox.solver import (SolverConfig, StoppingRule, pdcae_run, sfista_run,
                           sfista_lyapunov, spdcae_run)


@pytest.fixture
def report(capsys):
    def _emit(num, ok, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"acceptance {num} failed: {detail}"
    return _emit


def _lasso_instance(m, n, lam, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    prob = DcProblem(f=least_squares_smooth(A, y), g=l1_proximable(lam),
                     h=zero_concave(), feasible_set=whole_space())
    return prob, np.zeros(n)


def _descent_floor_ok(prob, res):
    """Slack of every accepted iteration vs the audited descent bound."""
    slacks = res.trace.descent_slack
    F_prev = np.array([objective(prob, res.x0)]
                      + [r.F_value for r in res.trace[:-1]])
    floors = -1e-10 * np.maximum(1.0, np.abs(F_prev))
    margin = float(np.min(slacks - floors))
    return bool(np.all(slacks >= floors)), margin


def test_descent_bound_audit_on_mixed_instances(report):
    start = time.perf_counter()
    pool = []

    for i, (m, n) in enumerate([(30, 6), (50, 10), (80, 12), (40, 8),
                                (60, 9), (35, 7)]):
        data, _ = gen_logreg(m, n, rng=i)
        metric = "adagrad" if i % 2 == 0 else "identity"
        mode = "nonmonotone" if i % 3 else "monotone"
        cfg = SolverConfig(metric=metric,
                           backtrack=BacktrackConfig(mode=mode, L_init=0.5))
        pool.append((build_logreg_problem(data), cfg, np.zeros(n)))

    for i, (n, m, k, amp) in enumerate([(30, 12, 3, 1e2), (40, 15, 3, 1e3),
                                        (25, 10, 2, 1e2), (50, 20, 4, 1e3),
                                        (35, 14, 3, 1e2), (45, 18, 4, 1e2)]):
        data, _ = gen_poisson_cs(n=n, m=m, k_nonzeros=k, amp_max=amp, rng=i)
        metric = "split-gradient" if i % 2 == 0 else "identity"
        cfg = SolverConfig(metric=metric,
                           backtrack=BacktrackConfig(L_init=0.1, max_inner=200))
        pool.append((build_poisson_problem(data), cfg, np.ones(n)))

    for i in range(8):
        rng = np.random.default_rng(100 + i)
        m, n = 20 + 5 * i, 8 + i
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        if i % 2 == 0:
            # l1-minus-l2 regularized least squares on the whole space
            prob = DcProblem(f=least_squares_smooth(A, y),
                             g=l1_proximable(0.3), h=l2_concave(0.1),
                             feasible_set=whole_space())
            x0 = np.zeros(n)
        else:
            # nonnegative variant with the constraint inside g
            prob = DcProblem(f=least_squares_smooth(A, y),
                             g=l1_nonneg_proximable(0.2), h=l2_concave(0.05),
                             feasible_set=nonnegative_orthant())
            x0 = np.abs(rng.standard_normal(n))
        cfg = SolverConfig(metric="adagrad" if i % 3 == 0 else "identity")
        pool.append((prob, cfg, x0))

    assert len(pool) == 20
    worst = np.inf
    for prob, cfg, x0 in pool:
        res = spdcae_run(prob, cfg, StoppingRule(max_iter=60), x0=x0,
                         diagnostics=True)
        ok, margin = _descent_floor_ok(prob, res)
        worst = min(worst, margin)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 60.0,
           f"20 instances, worst slack margin {worst:.3e}, {elapsed:.1f}s")


def test_quadratic_rate_in_convex_mode(report):
    start = time.perf_counter()

    def nnls_instance(m, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        prob = DcProblem(f=least_squares_smooth(A, y),
                         g=l1_nonneg_proximable(0.0), h=zero_concave(),
                         feasible_set=nonnegative_orthant())
        return prob, np.zeros(n)

    one_dim = DcProblem(f=quadratic_smooth(np.array([3.0])),
                        g=l1_proximable(1.0), h=zero_concave(),
                        feasible_set=whole_space())
    # Each reference stops once its lowest objective has settled; the
    # underdetermined lasso keeps a gap above round-off through k = 2000, so
    # its ratio tests the rate (a loop without extrapolation reads about 2.6
    # there) and its reference needs a longer stall window.
    cases = [
        ("lasso-0", *_lasso_instance(200, 50, 0.1, 0), None, 200),
        ("lasso-1", *_lasso_instance(200, 50, 0.1, 1), None, 200),
        ("nnls-0", *nnls_instance(100, 40, 0), None, 200),
        ("nnls-1", *nnls_instance(100, 40, 1), None, 200),
        ("one-dim", one_dim, np.zeros(1), 2.5, None),  # argmin at 2, value 2.5
        ("lasso-50x200", *_lasso_instance(50, 200, 0.01, 0), None, 2000),
    ]
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone"))
    ratios = {}
    ok = True
    for name, prob, x0, phi_star, window in cases:
        res = sfista_run(prob, cfg, StoppingRule(max_iter=2000), x0=x0)
        if phi_star is None:
            ref = sfista_run(prob, cfg, StoppingRule(max_iter=100000, stall_iters=window),
                             x0=x0)
            phi_star = objective(prob, ref.x)
        gaps = np.maximum(
            np.array([r.F_value for r in res.trace]) - phi_star, 0.0)
        weighted = (np.arange(1, 2001) + 1.0) ** 2 * gaps
        left = weighted[1:1000].max()
        right = weighted[999:].max()
        ratios[name] = right / max(left, 1e-300)
        if right > 2.0 * left:
            ok = False
            break
    elapsed = time.perf_counter() - start
    detail = (f"weighted gap bounded on {len(cases)} instances, late/early ratio "
              f"{ratios['lasso-50x200']:.2f} on lasso-50x200, {elapsed:.1f}s" if ok
              else f"{name}: late/early ratio {ratios[name]:.2f}")
    report(2, ok and elapsed < 120.0, detail)


def test_energy_certificate_identity_metric(report):
    prob = DcProblem(f=quadratic_smooth(np.array([3.0])), g=l1_proximable(1.0),
                     h=zero_concave(), feasible_set=whole_space())
    cfg = SolverConfig(backtrack=BacktrackConfig(mode="monotone", L_init=1.0))
    res = sfista_run(prob, cfg, StoppingRule(max_iter=300), x0=np.zeros(1),
                     keep_states=True)
    slacks = sfista_lyapunov(prob, np.array([2.0]), 2.5, res)
    ok = bool(np.all(slacks >= -1e-9))
    report(3, ok, f"300 iterations, min energy slack {slacks.min():.3e}")


def test_scaled_prox_matches_extended_precision_search(report):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    N = 5000  # per family; 1e4 tuples total
    v = np.asarray(rng.uniform(-8.0, 8.0, N), dtype=np.longdouble)
    t = np.asarray(rng.uniform(0.01, 2.0, N), dtype=np.longdouble)
    lam = np.asarray(rng.uniform(0.0, 2.0, N), dtype=np.longdouble)
    d = np.asarray(rng.uniform(0.25, 10.0, N), dtype=np.longdouble)

    def weighted_l1(u):
        return lam * np.abs(u) + d / (2.0 * t) * (u - v) ** 2

    def weighted_l1_nonneg(u):
        return np.where(u >= 0.0, lam * u + d / (2.0 * t) * (u - v) ** 2,
                        np.inf)

    ref_l1 = golden_section(weighted_l1,
                            np.full(N, -12.0, dtype=np.longdouble),
                            np.full(N, 12.0, dtype=np.longdouble), tol=1e-10)
    ref_nn = golden_section(weighted_l1_nonneg,
                            np.zeros(N, dtype=np.longdouble),
                            np.full(N, 12.0, dtype=np.longdouble), tol=1e-10)
    err = 0.0
    for i in range(N):
        D = DiagonalMetric(d[i:i + 1].astype(np.float64))
        vi = v[i:i + 1].astype(np.float64)
        got_l1 = l1_scaled_prox(vi, float(t[i]), float(lam[i]), D)
        got_nn = l1_nonneg_scaled_prox(vi, float(t[i]), float(lam[i]), D)
        err = max(err, abs(float(got_l1[0]) - float(ref_l1[i])),
                  abs(float(got_nn[0]) - float(ref_nn[i])))
    elapsed = time.perf_counter() - start
    report(4, err <= 1e-8, f"10000 tuples, max abs error {err:.3e}, {elapsed:.1f}s")


def test_specializations_match_baselines(report):
    # (a) with a fixed valid curvature constant the search-based loop must
    # reproduce the fixed-step loop record for record
    data, _ = gen_logreg(120, 25, rng=7)
    prob = build_logreg_problem(data)
    L = logistic_lipschitz_bound(data)
    x0 = np.random.default_rng(3).random(25)
    stop = StoppingRule(max_iter=300)
    res_ls = spdcae_run(prob, SolverConfig(
        backtrack=BacktrackConfig(mode="monotone", L_init=L)), stop, x0=x0)
    res_fx = pdcae_run(prob, L, stop=stop, x0=x0)
    dev_a = float(np.max(np.abs(res_ls.x - res_fx.x)))
    ok_a = res_ls.n_iterations == res_fx.n_iterations
    for a, b in zip(res_ls.trace, res_fx.trace):
        ok_a = (ok_a and a.n_backtracks == 0 and a.L_accepted == b.L_accepted
                and a.t == b.t and a.restarted == b.restarted
                and abs(a.beta_used - b.beta_used) <= 1e-12)
        dev_a = max(dev_a, abs(a.F_value - b.F_value)
                    / max(1.0, abs(b.F_value)))
    ok_a = ok_a and dev_a <= 1e-12

    # (b) without momentum and without a concave part the loop must be a
    # plain proximal gradient iteration
    rng = np.random.default_rng(11)
    A = rng.standard_normal((30, 10))
    y = rng.standard_normal(30)
    prob_b = DcProblem(f=least_squares_smooth(A, y), g=l1_proximable(0.1),
                       h=zero_concave(), feasible_set=whole_space())
    Lb = float(np.linalg.eigvalsh(A.T @ A).max())
    res_b = spdcae_run(prob_b, SolverConfig(
        beta_family="none",
        backtrack=BacktrackConfig(mode="monotone", L_init=Lb)),
        StoppingRule(max_iter=150), x0=np.zeros(10), keep_states=True)
    tb = 1.0 / Lb
    x = np.zeros(10)
    dev_b = 0.0
    for snap in res_b.states:
        x = l1_scaled_prox(x - tb * prob_b.f.grad(x), tb, 0.1)
        dev_b = max(dev_b, float(np.max(np.abs(snap.x - x))))
    ok_b = dev_b <= 1e-12

    report(5, ok_a and ok_b,
           f"fixed-step deviation {dev_a:.2e}, plain-prox deviation {dev_b:.2e}")


def _capped_mean_hits(result, names, seeds, tol, cap):
    means = {}
    for name in names:
        ks = []
        for seed in seeds:
            hit = result.hits[(name, seed)][tol]
            ks.append(hit[0] if hit is not None else cap)
        means[name] = float(np.mean(ks))
    return means


def test_logistic_first_hit_ordering(report):
    start = time.perf_counter()
    cfg = RunConfig.from_dict({
        "problem": {"kind": "logreg-synthetic", "m": 2000, "n": 300,
                    "lambda": 1e-3, "data_seed": 0},
        "solvers": [{"name": "spdcae1"}, {"name": "pdcae1"},
                    {"name": "pdcae"}],
        "tolerances": [1e-4],
        "seeds": [0, 1, 2, 3, 4],
        "max_iter": 10000,
    })
    result = run_matrix(cfg)
    means = _capped_mean_hits(result, ("spdcae1", "pdcae1", "pdcae"),
                              cfg.seeds, 1e-4, cfg.max_iter)
    elapsed = time.perf_counter() - start
    ok = (means["spdcae1"] * 1.3 <= means["pdcae1"]
          and means["pdcae1"] * 1.3 <= means["pdcae"])
    report(6, ok and elapsed < 180.0,
           f"mean first-hit iters spdcae1={means['spdcae1']:.1f} "
           f"pdcae1={means['pdcae1']:.1f} pdcae={means['pdcae']:.1f}, "
           f"{elapsed:.1f}s")


def test_poisson_first_hit_ordering(report):
    start = time.perf_counter()
    cfg = RunConfig.from_dict({
        "problem": {"kind": "poisson-synthetic", "n": 500, "m": 100,
                    "k_nonzeros": 5, "data_seed": 0},
        "solvers": [{"name": "spdcae1"}, {"name": "spdcae0"},
                    {"name": "pdcae0"}],
        "tolerances": [1e-3],
        "seeds": [0, 1, 2, 3, 4],
        "max_iter": 10000,
    })
    result = run_matrix(cfg)
    means = _capped_mean_hits(result, ("spdcae1", "spdcae0", "pdcae0"),
                              cfg.seeds, 1e-3, cfg.max_iter)
    fixed_missed = any(result.hits[("pdcae0", s)][1e-3] is None
                       for s in cfg.seeds)
    elapsed = time.perf_counter() - start
    ok = (means["spdcae1"] < means["spdcae0"]
          and (means["pdcae0"] >= means["spdcae0"] or fixed_missed))
    report(7, ok and elapsed < 180.0,
           f"mean first-hit iters spdcae1={means['spdcae1']:.1f} "
           f"spdcae0={means['spdcae0']:.1f} pdcae0={means['pdcae0']:.1f}"
           f"{' (fixed step capped)' if fixed_missed else ''}, {elapsed:.1f}s")


def test_dc_runs_settle_at_critical_points(report):
    one_dim = DcProblem(f=quadratic_smooth(np.zeros(1)), g=zero_proximable(),
                        h=l2_concave(1.0), feasible_set=whole_space())
    ldata, _ = gen_logreg(100, 8, noise_rate=0.1, rng=0)
    pdata, _ = gen_poisson_cs(n=40, m=15, k_nonzeros=3, amp_max=1e3, rng=0)
    runs = [
        ("one-dim", one_dim, SolverConfig(), StoppingRule(max_iter=100),
         np.array([2.0])),
        ("logistic", build_logreg_problem(ldata), SolverConfig(metric="adagrad"),
         StoppingRule(max_iter=5000, crit_tol=1e-6), np.zeros(8)),
        ("poisson", build_poisson_problem(pdata),
         SolverConfig(metric="split-gradient",
                      backtrack=BacktrackConfig(L_init=0.1, max_inner=200)),
         StoppingRule(max_iter=5000, crit_tol=1e-6), np.ones(40)),
    ]
    ok = True
    details = []
    for name, prob, cfg, stop, x0 in runs:
        res = spdcae_run(prob, cfg, stop, x0=x0, keep_states=True,
                         diagnostics=True)
        crit = criticality_residual(prob, res.x, res.trace[-1].t)
        slack_ok, _ = _descent_floor_ok(prob, res)
        xs = [res.x0] + [s.x for s in res.states]
        steps = np.array([np.linalg.norm(b - a) for a, b in zip(xs, xs[1:])])
        dec = max(1, len(steps) // 10)
        shrink = steps[-dec:].mean() < steps[:dec].mean()
        ok = ok and crit <= 1e-6 and slack_ok and shrink
        details.append(f"{name} crit={crit:.1e} k={res.n_iterations}")
    report(8, ok, "; ".join(details))


def test_oracle_and_data_pipeline_audits(report, tmp_path):
    start = time.perf_counter()
    ok = True
    notes = []

    # gradient oracles vs central differences, 50 points per family
    ldata, _ = gen_logreg(25, 8, rng=5)
    lprob = build_logreg_problem(ldata)
    rng = np.random.default_rng(17)
    worst_fd = 0.0
    for _ in range(50):
        x = rng.standard_normal(8)
        g = lprob.f.grad(x)
        fd = finite_diff_grad(lprob.f.eval, x)
        worst_fd = max(worst_fd, float(np.linalg.norm(fd - g)
                                       / max(1.0, np.linalg.norm(g))))
    pdata, _ = gen_poisson_cs(n=20, m=8, k_nonzeros=2, amp_max=1e2, rng=5)
    pprob = build_poisson_problem(pdata)
    for _ in range(50):
        x = rng.uniform(0.5, 3.0, 20)
        g = pprob.f.grad(x)
        fd = finite_diff_grad(pprob.f.eval, x)
        worst_fd = max(worst_fd, float(np.linalg.norm(fd - g)
                                       / max(1.0, np.linalg.norm(g))))
    ok = ok and worst_fd <= 1e-5
    notes.append(f"fd {worst_fd:.1e}")

    # the two-term gradient split must recompose to the exact gradient
    worst_split = 0.0
    for _ in range(20):
        x = rng.uniform(0.1, 5.0, 20)
        U, V = kl_split(pdata, x)
        g = pprob.f.grad(x)
        worst_split = max(worst_split, float(
            np.max(np.abs(U - V + g)) / max(1.0, np.max(np.abs(g)))))
        ok = ok and np.all(U >= 0.0) and np.all(V > 0.0)
        ok = ok and np.array_equal(V, pprob.split_denominator)
    ok = ok and worst_split <= 1e-12
    notes.append(f"split {worst_split:.1e}")

    # sensing matrices conserve flux: unit column sums, entries in [0, 1]
    A = pdata.A
    colsums = np.asarray(A.sum(axis=0)).ravel()
    ok = ok and np.all(np.abs(colsums - 1.0) <= 1e-12)
    dense = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    ok = ok and np.all(dense >= 0.0) and np.all(dense <= 1.0)
    z = rng.uniform(0.0, 2.0, 20)
    flux_in, flux_out = float(np.sum(z)), float(np.sum(A @ z))
    ok = ok and abs(flux_in - flux_out) <= 1e-9 * max(1.0, flux_in)
    ok = ok and np.all(A @ z <= flux_in + 1e-12)
    notes.append(f"flux {abs(flux_in - flux_out):.1e}")

    # sparse text round trip
    path = tmp_path / "tiny.svm"
    Araw = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, -3.25]])
    labels = np.array([1.0, -1.0])
    write_libsvm(path, Araw, labels)
    A2, l2 = read_libsvm(path, n_features=3)
    back = A2.toarray() if hasattr(A2, "toarray") else np.asarray(A2)
    ok = ok and np.array_equal(back, Araw) and np.array_equal(l2, labels)

    # count sampler moments, frozen seeds
    g = make_rng(0)
    mean_small = np.mean([poisson_sample(4.0, g) for _ in range(1_000_000)])
    ok = ok and abs(mean_small - 4.0) <= 0.006
    g = make_rng(100)
    big = np.array([poisson_sample(1e5, g) for _ in range(100_000)])
    dispersion = float(big.var() / big.mean())
    ok = ok and 0.99 <= dispersion <= 1.01
    notes.append(f"sampler mean {mean_small:.4f} dispersion {dispersion:.4f}")

    elapsed = time.perf_counter() - start
    report(9, ok and elapsed < 60.0, ", ".join(notes) + f", {elapsed:.1f}s")
