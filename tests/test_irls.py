import csv
import io
import math

import numpy as np
import pytest
import scipy.linalg as sla

from sparselowrank.bench import info_limit
from sparselowrank.core import generate_ground_truth, rel_frobenius_error
from sparselowrank.iht import IhtConfig, run_iht
from sparselowrank.irls import (
    IrlsConfig,
    TRACE_COLUMNS,
    check_mm_step,
    fit_quadratic_rate,
    run_irls,
    update_smoothing,
)
from sparselowrank.measurement import fourier_rank_one, gaussian_dense, gaussian_rank_one


def desk_instance(seed, n1=64, n2=16, r=2, s=8, oversampling=3.0):
    m = int(round(oversampling * info_limit(r, s, n2)))
    gt = generate_ground_truth(n1, n2, r, s, seed)
    op = gaussian_dense(n1, n2, m, 1000 + seed)
    return gt, op, op.apply(gt.X)


class TestUpdateSmoothing:
    def test_exact_rank_hits_floor_and_flags(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))  # rank 2
        params, eps_fl, delta_fl = update_smoothing(X, 2, 3, np.inf, np.inf)
        assert eps_fl
        assert params.eps == 1e-14

    def test_first_finite_update(self):
        X = np.diag([1.0, 0.5, 0.3])
        params, eps_fl, _ = update_smoothing(X, 1, 2, np.inf, np.inf)
        assert not eps_fl
        assert np.isclose(params.eps, 0.5)

    def test_monotone_along_random_sequences(self):
        rng = np.random.default_rng(1)
        eps, delta = np.inf, np.inf
        for _ in range(30):
            X = rng.standard_normal((8, 5))
            params, *_ = update_smoothing(X, 2, 3, eps, delta)
            assert params.eps <= eps
            assert params.delta <= delta
            eps, delta = params.eps, params.delta

    def test_row_statistic_used(self):
        X = np.zeros((4, 3))
        X[0, 0] = 4.0
        X[1, 1] = 2.0
        X[2, 2] = 1.0
        params, _, fl = update_smoothing(X, 1, 1, np.inf, np.inf)
        assert np.isclose(params.delta, 2.0)  # second-largest row norm
        assert not fl


class TestDriver:
    def test_first_iterate_is_min_norm_solution(self):
        gt, op, y = desk_instance(0, n1=16, n2=8, r=1, s=4)
        cfg = IrlsConfig(r_tilde=1, s_tilde=4, max_iter=1, keep_iterates=True)
        res = run_irls(op, y, cfg, ground_truth=gt)
        Amat = op.as_matrix()
        expected = Amat.T @ sla.solve(Amat @ Amat.T, y, assume_a="pos")
        assert np.linalg.norm(res.iterates[0].ravel() - expected) <= 1e-9

    def test_desk_recovery_rate(self):
        successes = 0
        for seed in range(20):
            gt, op, y = desk_instance(seed)
            cfg = IrlsConfig(r_tilde=2, s_tilde=8, max_iter=30)
            res = run_irls(op, y, cfg, ground_truth=gt)
            if res.final_error < 1e-6 and res.iterations <= 30:
                successes += 1
        assert successes >= 18  # >= 90% of 20 seeds

    def test_trace_smoothing_monotone_and_objective_nonincreasing(self):
        gt, op, y = desk_instance(3)
        cfg = IrlsConfig(r_tilde=2, s_tilde=8)
        res = run_irls(op, y, cfg, ground_truth=gt)
        recs = res.trace.records
        for a, b in zip(recs, recs[1:]):
            assert b.eps <= a.eps * (1 + 1e-15)
            assert b.delta <= a.delta * (1 + 1e-15)
        assert res.trace.max_objective_increase() <= 1e-9

    def test_iterate_feasibility_throughout(self):
        gt, op, y = desk_instance(4)
        cfg = IrlsConfig(r_tilde=2, s_tilde=8, keep_iterates=True)
        res = run_irls(op, y, cfg, ground_truth=gt)
        for X in res.iterates:
            assert np.linalg.norm(op.apply(X) - y) <= 1e-9 * np.linalg.norm(y)

    def test_exact_orders_drive_smoothing_to_floor(self):
        gt, op, y = desk_instance(5)
        cfg = IrlsConfig(r_tilde=2, s_tilde=8, max_iter=60, tol_rel_change=0.0)
        res = run_irls(op, y, cfg, ground_truth=gt)
        assert res.termination == "smoothing_floor"
        last = res.trace.records[-1]
        assert last.eps == 1e-14 and last.delta == 1e-14
        assert last.r_k == 2 and last.s_k == 8

    def test_termination_reason_consistent_with_trace(self):
        gt, op, y = desk_instance(12)
        cfg = IrlsConfig(r_tilde=2, s_tilde=8)
        res = run_irls(op, y, cfg, ground_truth=gt)
        last = res.trace.records[-1]
        if res.termination == "tolerance":
            assert last.rel_change < cfg.tol_rel_change
        elif res.termination == "smoothing_floor":
            assert last.eps_floored and last.delta_floored
        else:
            assert res.iterations == cfg.max_iter

    def test_determinism(self):
        gt, op, y = desk_instance(6)
        cfg = IrlsConfig(r_tilde=2, s_tilde=8)
        a = run_irls(op, y, cfg, ground_truth=gt)
        b = run_irls(op, y, cfg, ground_truth=gt)
        assert len(a.trace.records) == len(b.trace.records)
        for ra, rb in zip(a.trace.records, b.trace.records):
            assert ra.eps == rb.eps and ra.delta == rb.delta
            assert ra.rel_error == rb.rel_error
        assert np.array_equal(a.X, b.X)

    def test_runs_on_all_three_ensembles(self):
        n1, n2, r, s = 24, 10, 1, 5
        gt = generate_ground_truth(n1, n2, r, s, 9)
        m = 3 * info_limit(r, s, n2)
        for factory in (gaussian_dense, gaussian_rank_one):
            op = factory(n1, n2, m, 77)
            res = run_irls(op, op.apply(gt.X), IrlsConfig(r_tilde=r, s_tilde=s),
                           ground_truth=gt)
            assert res.final_error < 1e-6
        op = fourier_rank_one(n1, n2, m, 77)  # 2m real rows, rank about m
        res = run_irls(op, op.apply(gt.X), IrlsConfig(r_tilde=r, s_tilde=s),
                       ground_truth=gt)
        assert res.final_error < 1e-6

    def test_config_validation(self):
        op = gaussian_dense(8, 4, 10, 0)
        with pytest.raises(ValueError):
            run_irls(op, np.zeros(10), IrlsConfig(r_tilde=5, s_tilde=4))
        with pytest.raises(ValueError):
            run_irls(op, np.zeros(10), IrlsConfig(r_tilde=1, s_tilde=9))

    def test_non_finite_data_is_named(self):
        gt, op, y = desk_instance(0)
        y = y.copy()
        y[3] = np.nan
        for run, cfg in ((run_irls, IrlsConfig(r_tilde=2, s_tilde=8)),
                         (run_iht, IhtConfig(r=2, s=8))):
            with pytest.raises(ValueError, match=r"\by\b"):
                run(op, y, cfg)


class TestMmStep:
    def test_equal_iterates_collapse(self):
        X = np.random.default_rng(0).standard_normal((5, 4))
        rep = check_mm_step(X, X, 0.5, 0.5)
        assert np.isclose(rep.f_next, rep.q_total, rtol=1e-12)
        assert np.isclose(rep.q_total, rep.f_prev, rtol=1e-12)

    def test_along_seeded_run(self):
        gt, op, y = desk_instance(7, n1=32, n2=12, r=2, s=6)
        cfg = IrlsConfig(r_tilde=2, s_tilde=6, keep_iterates=True)
        res = run_irls(op, y, cfg, ground_truth=gt)
        recs = res.trace.records
        for i in range(len(res.iterates) - 1):
            # the model is anchored at iterate i with the smoothing active
            # when iterate i+1 was computed
            rep = check_mm_step(res.iterates[i], res.iterates[i + 1],
                                recs[i].eps, recs[i].delta)
            assert rep.majorization_slack >= -1e-9 * (1 + abs(rep.q_total))
            assert rep.descent_slack >= -1e-9 * (1 + abs(rep.f_prev))

    def test_majorization_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            X = rng.standard_normal((6, 4))
            Z = rng.standard_normal((6, 4))
            rep = check_mm_step(X, Z, float(rng.uniform(0.1, 1.5)),
                                float(rng.uniform(0.1, 1.5)))
            assert rep.majorization_slack >= -1e-9 * (1 + abs(rep.q_total))


class TestTraceCsv:
    def test_header_and_roundtrip(self):
        gt, op, y = desk_instance(10, n1=16, n2=8, r=1, s=4)
        res = run_irls(op, y, IrlsConfig(r_tilde=1, s_tilde=4), ground_truth=gt)
        text = res.trace.to_csv_string()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == TRACE_COLUMNS
        assert len(rows) == len(res.trace.records) + 1
        k_col = [int(r[0]) for r in rows[1:]]
        assert k_col == list(range(1, len(res.trace.records) + 1))
        # floats round-trip at full precision
        assert float(rows[1][5]) == res.trace.records[0].rel_change

    def test_write_to_path(self, tmp_path):
        gt, op, y = desk_instance(11, n1=16, n2=8, r=1, s=4)
        res = run_irls(op, y, IrlsConfig(r_tilde=1, s_tilde=4), ground_truth=gt)
        path = tmp_path / "trace.csv"
        res.trace.write_csv(path)
        assert path.read_text().startswith(",".join(TRACE_COLUMNS))


class TestQuadraticRateFit:
    def test_pure_quadratic_sequence(self):
        mu = 5.0
        errs = [0.1]  # mu * e0 < 1 so the sequence contracts
        for _ in range(6):
            errs.append(mu * errs[-1] ** 2)
        fit = fit_quadratic_rate(errs)
        assert fit.ok
        assert fit.window_len >= 3
        assert np.isclose(fit.mu_hat, mu, rtol=1e-9)
        assert fit.spread < 10

    def test_floor_stall_is_excluded(self):
        errs = [0.2, 0.08, 1e-2, 2e-4, 1e-7, 3e-13, 2e-13, 2e-13]
        fit = fit_quadratic_rate(errs)
        assert fit.ok

    def test_too_short_fails(self):
        assert not fit_quadratic_rate([0.1, 0.01]).ok

    def test_no_contraction_fails(self):
        errs = [0.5, 0.6, 0.55, 0.62, 0.57]
        fit = fit_quadratic_rate(errs)
        # ratios hover near err/err^2 = 1/err, stable, but the sequence never
        # leaves the ceiling region toward termination; window may exist, so
        # only assert the fit reports its window honestly
        if fit.ok:
            assert fit.window_len >= 3

    def test_unstable_ratios_fail(self):
        errs = [0.5, 0.25 * 0.9, 0.1, 1e-3, 0.05, 0.04]
        fit = fit_quadratic_rate(errs, max_spread=1.5)
        assert not fit.ok
