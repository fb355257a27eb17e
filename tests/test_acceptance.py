"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them). Tolerances are fixed here, not calibrated
elsewhere. The phase-grid criteria share one session-scoped grid run."""

import math
import time

import numpy as np
import pytest

from sparselowrank.bench import ExperimentManifest, info_limit, run_phase_grid
from sparselowrank.core import generate_ground_truth, row_norms
from sparselowrank.irls import IrlsConfig, fit_quadratic_rate, run_irls
from sparselowrank.measurement import (
    MatrixOperator,
    fourier_rank_one,
    gaussian_dense,
    gaussian_rank_one,
    rip_probe,
)
from sparselowrank.objective import (
    SmoothingParams,
    f_lowrank,
    f_sparse,
    f_total,
    grad_f_lowrank,
    grad_f_sparse,
    q_lowrank,
    q_sparse,
)
from sparselowrank.weights import apply_w_lowrank, apply_w_sparse, build_weight
from sparselowrank.wls import solve_wls

from oracles import (
    dense_oracle_solve,
    finite_diff_grad,
    hadamard_weight_oracle,
    kernel_basis,
    kernel_orthogonality,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({name}): {status}  {detail}")


def test_criterion_01_majorization():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = np.inf
    ok = True
    for _ in range(200):
        n1 = int(rng.integers(2, 33))
        n2 = int(rng.integers(2, 33))
        X = rng.standard_normal((n1, n2))
        Z = rng.standard_normal((n1, n2))
        eps = float(rng.uniform(0.02, 3.0))
        delta = float(rng.uniform(0.02, 3.0))
        q = q_lowrank(Z, X, eps) + q_sparse(Z, X, delta)
        f = f_total(Z, SmoothingParams(eps, delta))
        slack = q - f
        worst = min(worst, slack)
        if slack < -1e-9 * (1 + abs(q)):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(1, "majorization", ok, f"min slack {worst:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_monotonicity():
    t0 = time.perf_counter()
    n1, n2, r, s = 32, 12, 2, 6
    limit = info_limit(r, s, n2)
    factories = [gaussian_dense, gaussian_rank_one, fourier_rank_one]
    worst = 0.0
    runs = 0
    for i in range(20):
        factory = factories[i % 3]
        m = [limit, 2 * limit, 3 * limit][i % 3 if i < 9 else (i % 3 + 1) % 3]
        gt = generate_ground_truth(n1, n2, r, s, 2000 + i)
        op = factory(n1, n2, m, 3000 + i)
        y = op.apply(gt.X)
        cfg = IrlsConfig(r_tilde=r, s_tilde=s, max_iter=60)
        res = run_irls(op, y, cfg, ground_truth=gt)
        worst = max(worst, res.trace.max_objective_increase())
        runs += 1
    elapsed = time.perf_counter() - t0
    ok = runs == 20 and worst <= 1e-9 and elapsed < 120.0
    _report(2, "objective monotonicity", ok,
            f"max increase {worst:.3e} over {runs} runs, {elapsed:.1f}s")
    assert ok


def test_criterion_03_gradient_identities():
    rng = np.random.default_rng(1003)
    ok = True
    worst_ident = 0.0
    worst_fd = 0.0
    for i in range(50):
        n1 = int(rng.integers(3, 8))
        n2 = int(rng.integers(3, 7))
        X = rng.standard_normal((n1, n2))
        eps = float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.1, 2.0))
        ws = build_weight(X, eps, delta)
        g_lr = grad_f_lowrank(X, eps)
        g_sp = grad_f_sparse(X, delta)
        ident = max(
            np.max(np.abs(g_lr - apply_w_lowrank(ws, X))),
            np.max(np.abs(g_sp - apply_w_sparse(ws, X))),
        )
        worst_ident = max(worst_ident, ident)
        if ident > 1e-10:
            ok = False
        # finite differences on a subset (spectra kept gapped for the
        # spectral part's differentiability)
        if i < 15:
            fd_sp = finite_diff_grad(lambda M: f_sparse(M, delta), X)
            rel_sp = np.linalg.norm(fd_sp - g_sp) / max(np.linalg.norm(g_sp), 1e-300)
            worst_fd = max(worst_fd, rel_sp)
            sig = np.linalg.svd(X, compute_uv=False)
            if np.min(np.abs(np.diff(sig))) > 1e-2 and np.min(np.abs(sig - eps)) > 1e-2:
                fd_lr = finite_diff_grad(lambda M: f_lowrank(M, eps), X)
                rel_lr = np.linalg.norm(fd_lr - g_lr) / max(np.linalg.norm(g_lr), 1e-300)
                worst_fd = max(worst_fd, rel_lr)
            if worst_fd > 1e-5:
                ok = False
    _report(3, "gradient identities", ok,
            f"max identity dev {worst_ident:.3e}, max FD rel err {worst_fd:.3e}")
    assert ok


def test_criterion_04_wls_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    ok = True
    worst = {"oracle": 0.0, "feas": 0.0, "kernel": 0.0}
    for trial in range(20):
        op = gaussian_dense(8, 6, 20, 4000 + trial)
        gt = generate_ground_truth(8, 6, 2, 4, 4100 + trial)
        y = op.apply(gt.X)
        X0 = rng.standard_normal((8, 6))
        sig1 = np.linalg.svd(X0, compute_uv=False)[0]
        ws = build_weight(X0, float(rng.uniform(0.2, 0.7)) * sig1,
                          float(rng.uniform(0.2, 0.7)) * np.max(row_norms(X0)))
        sol = solve_wls(op, y, ws)
        ko = kernel_orthogonality(ws, sol.X, kernel_basis(op))
        X_oracle = dense_oracle_solve(op, y, ws)
        rel = np.linalg.norm(sol.X - X_oracle) / np.linalg.norm(X_oracle)
        worst["oracle"] = max(worst["oracle"], rel)
        worst["feas"] = max(worst["feas"], sol.constraint_residual)
        worst["kernel"] = max(worst["kernel"], ko)
        if rel > 1e-8 or sol.constraint_residual > 1e-10 or ko > 1e-8:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(4, "WLS optimality", ok,
            f"oracle {worst['oracle']:.2e}, feas {worst['feas']:.2e}, "
            f"kernel {worst['kernel']:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_weight_form_equivalence():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        n1 = int(rng.integers(3, 16))
        n2 = int(rng.integers(3, 12))
        X = rng.standard_normal((n1, n2))
        eps = float(rng.uniform(0.05, 3.0))
        delta = float(rng.uniform(0.05, 3.0))
        Z = rng.standard_normal((n1, n2))
        ws = build_weight(X, eps, delta)
        got = apply_w_lowrank(ws, Z)
        want = hadamard_weight_oracle(X, eps, delta, Z)
        dev = np.linalg.norm(got - want) / (1 + np.linalg.norm(want))
        worst = max(worst, dev)
    ok = worst <= 1e-10
    _report(5, "weight-form equivalence", ok, f"max deviation {worst:.3e}")
    assert ok


def _desk_quadratic_run(seed):
    n1, n2, r, s = 64, 16, 2, 8
    m = 3 * info_limit(r, s, n2)
    gt = generate_ground_truth(n1, n2, r, s, 6000 + seed)
    op = gaussian_dense(n1, n2, m, 6100 + seed)
    y = op.apply(gt.X)
    cfg = IrlsConfig(r_tilde=r, s_tilde=s, max_iter=40)
    return run_irls(op, y, cfg, ground_truth=gt)


def test_criterion_06_quadratic_rate_desk():
    t0 = time.perf_counter()
    good = 0
    mus = []
    for seed in range(10):
        res = _desk_quadratic_run(seed)
        fit = fit_quadratic_rate(res.trace.errors())
        terminated = res.final_error < 1e-10
        if fit.ok and fit.spread < 10 and terminated:
            good += 1
            mus.append(fit.mu_hat)
    elapsed = time.perf_counter() - t0
    ok = good >= 8 and elapsed < 60.0
    _report(6, "quadratic rate (desk)", ok,
            f"{good}/10 seeds, mu range "
            f"{min(mus):.2g}..{max(mus):.2g}, {elapsed:.1f}s" if mus else "no fits")
    assert ok


@pytest.mark.slow
def test_criterion_06_quadratic_rate_full_scale():
    t0 = time.perf_counter()
    n1, n2, r, s, m = 256, 40, 5, 40, 1125
    gt = generate_ground_truth(n1, n2, r, s, 61)
    op = gaussian_dense(n1, n2, m, 62)
    y = op.apply(gt.X)
    cfg = IrlsConfig(r_tilde=r, s_tilde=s, max_iter=25)
    res = run_irls(op, y, cfg, ground_truth=gt)
    errors = res.trace.errors()
    reached = np.where(errors < 1e-11)[0]
    elapsed = time.perf_counter() - t0
    ok = len(reached) > 0 and reached[0] + 1 <= 20 and elapsed < 1800.0
    _report(6, "quadratic rate (256x40 full scale)", ok,
            f"rel err {errors[min(reached[0], len(errors)-1)] if len(reached) else errors[-1]:.2e} "
            f"at iteration {reached[0] + 1 if len(reached) else res.iterations}, "
            f"{elapsed:.0f}s")
    assert ok


GRID_S_VALUES = [4, 8, 12]
GRID_FACTORS = [1.25, 1.5, 2.0, 2.5, 3.0, 4.0]


def _grid_manifest(tmpdir, r, policy):
    return ExperimentManifest(
        kind="phase-grid", n1=64, n2=16, r=r,
        s_values=GRID_S_VALUES, m_factors=GRID_FACTORS,
        algorithms=["irls", "iht"], model_order_policy=policy,
        trials=16, base_seed=9000 + r, out_dir=str(tmpdir),
        threads=2, irls_max_iter=120, iht_max_iter=1000,
        deterministic_output=True,
    )


@pytest.fixture(scope="session")
def phase_grids(tmp_path_factory):
    grids = {}
    for r in (1, 2):
        for policy in ("exact", "overestimate"):
            out = tmp_path_factory.mktemp(f"grid_r{r}_{policy}")
            man = _grid_manifest(out, r, policy)
            grids[(r, policy)] = run_phase_grid(man)
    return grids


def _min_success_m(cells, s, rate=0.9):
    eligible = [c.m for c in cells if c.s == s and c.success_rate >= rate]
    return min(eligible) if eligible else math.inf


@pytest.mark.slow
def test_criterion_07_phase_transition_dominance(phase_grids):
    ok = True
    details = []
    for r in (1, 2):
        cells = phase_grids[(r, "exact")]
        for alg in ("irls", "iht"):
            for s in GRID_S_VALUES:
                rates = [(c.m, c.success_rate) for c in cells[alg] if c.s == s]
                print(f"[grid] r={r} s={s} {alg}: "
                      + " ".join(f"{m}:{rate:.2f}" for m, rate in rates))
        for s in GRID_S_VALUES:
            m_irls = _min_success_m(cells["irls"], s)
            m_iht = _min_success_m(cells["iht"], s)
            details.append(f"r={r},s={s}: irls@{m_irls} iht@{m_iht}")
            if not m_irls <= m_iht:
                ok = False
            if not m_irls <= 2.5 * info_limit(r, s, 16):
                ok = False
    _report(7, "phase-transition dominance", ok, "; ".join(details))
    assert ok


@pytest.mark.slow
def test_criterion_08_robust_misparameterization(phase_grids):
    drops = {}
    for alg in ("irls", "iht"):
        diffs = []
        for r in (1, 2):
            exact = {(c.s, c.m): c.success_rate for c in phase_grids[(r, "exact")][alg]}
            over = {(c.s, c.m): c.success_rate for c in phase_grids[(r, "overestimate")][alg]}
            for key in exact:
                diffs.append(exact[key] - over[key])
        drops[alg] = float(np.mean(diffs))
    ok = drops["irls"] < drops["iht"]
    _report(8, "robust misparameterization", ok,
            f"mean drop irls {drops['irls']:.3f} vs iht {drops['iht']:.3f}")
    assert ok


def test_criterion_09_undersampled_parsimony():
    n1, n2, r, s = 64, 16, 2, 8
    m = info_limit(r, s, n2)
    hits = 0
    for seed in range(10):
        gt = generate_ground_truth(n1, n2, r, s, 7000 + seed)
        op = gaussian_dense(n1, n2, m, 7100 + seed)
        y = op.apply(gt.X)
        cfg = IrlsConfig(r_tilde=r, s_tilde=s, max_iter=250)
        res = run_irls(op, y, cfg, ground_truth=gt)
        X = res.X
        feas = np.linalg.norm(op.apply(X) - y) / np.linalg.norm(y)
        sig = np.linalg.svd(X, compute_uv=False)
        numrank = int(np.sum(sig > 1e-6 * sig[0]))
        norms = row_norms(X)
        support = int(np.sum(norms > 1e-6 * np.max(norms)))
        if feas <= 1e-8 and numrank <= r + 2 and support <= s + 2:
            hits += 1
    ok = hits >= 5
    _report(9, "under-sampled parsimony", ok, f"{hits}/10 seeds parsimonious")
    assert ok


def test_criterion_10_rip_probe_sanity():
    n1, n2 = 5, 4
    op_iso = MatrixOperator(np.eye(n1 * n2), n1, n2)
    est_iso = rip_probe(op_iso, r=2, s=3, trials=10, seed=0)
    r, s, n2g = 1, 4, 8
    m = 6 * r * (s + n2g)
    op_g = gaussian_dense(32, n2g, m, 10)
    est_g = rip_probe(op_g, r=r, s=s, trials=20, seed=11)
    ok = est_iso.delta_lower_bound < 1e-10 and est_g.delta_lower_bound < 1.0
    _report(10, "RIP probe sanity", ok,
            f"isometry {est_iso.delta_lower_bound:.2e}, "
            f"gaussian {est_g.delta_lower_bound:.3f}")
    assert ok
