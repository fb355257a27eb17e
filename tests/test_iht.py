import numpy as np
import pytest

from sparselowrank.bench import info_limit
from sparselowrank.core import generate_ground_truth
from sparselowrank.iht import IhtConfig, run_iht
from sparselowrank.measurement import MatrixOperator, gaussian_dense


class TestIht:
    def test_fully_determined_system_converges(self):
        n1, n2 = 8, 4
        gt = generate_ground_truth(n1, n2, 1, 3, 2)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n1 * n2, n1 * n2)) / np.sqrt(n1 * n2)
        op = MatrixOperator(A, n1, n2)
        y = op.apply(gt.X)
        res = run_iht(op, y, IhtConfig(r=1, s=3), ground_truth=gt)
        assert res.final_error < 1e-8

    def test_fixed_point_at_ground_truth(self):
        n1, n2, r, s = 24, 10, 2, 6
        gt = generate_ground_truth(n1, n2, r, s, 4)
        op = gaussian_dense(n1, n2, 4 * info_limit(r, s, n2), 5)
        y = op.apply(gt.X)
        # one step from the solution stays at the solution
        cfg = IhtConfig(r=r, s=s, max_iter=1)
        from sparselowrank.iht import _project_model_set
        X0 = gt.X
        residual = op.apply(X0) - y
        assert np.linalg.norm(residual) <= 1e-12
        res = run_iht(op, y, cfg, ground_truth=gt)  # from spectral init
        # explicit fixed-point check
        G = op.adjoint(op.apply(X0) - y)
        X1 = _project_model_set(X0 - 1.0 * G, r, s)
        assert np.linalg.norm(X1 - X0) <= 1e-10

    def test_zero_step_is_stationary(self):
        n1, n2, r, s = 16, 8, 1, 4
        gt = generate_ground_truth(n1, n2, r, s, 6)
        op = gaussian_dense(n1, n2, 40, 7)
        y = op.apply(gt.X)
        cfg = IhtConfig(r=r, s=s, step_size=0.0, max_iter=5)
        res = run_iht(op, y, cfg, ground_truth=gt)
        recs = res.trace.records
        assert all(r.rel_change <= 1e-15 for r in recs[1:])

    def test_iterates_stay_in_model_set(self):
        n1, n2, r, s = 24, 10, 2, 6
        gt = generate_ground_truth(n1, n2, r, s, 8)
        op = gaussian_dense(n1, n2, 3 * info_limit(r, s, n2), 9)
        y = op.apply(gt.X)
        res = run_iht(op, y, IhtConfig(r=r, s=s, max_iter=50), ground_truth=gt)
        # support count is recorded per iteration and never exceeds s
        assert all(rec.s_k <= s for rec in res.trace.records)
        sig = np.linalg.svd(res.X, compute_uv=False)
        assert np.sum(sig > 1e-10 * max(sig[0], 1e-300)) <= r

    def test_generous_oversampling_succeeds(self):
        n1, n2, r, s = 64, 16, 1, 8
        successes = 0
        for seed in range(6):
            gt = generate_ground_truth(n1, n2, r, s, seed)
            op = gaussian_dense(n1, n2, 4 * info_limit(r, s, n2), 100 + seed)
            y = op.apply(gt.X)
            res = run_iht(op, y, IhtConfig(r=r, s=s), ground_truth=gt)
            successes += res.final_error < 1e-4
        assert successes >= 5

    def test_below_information_limit_fails(self):
        n1, n2, r, s = 64, 16, 2, 8
        limit = info_limit(r, s, n2)
        gt = generate_ground_truth(n1, n2, r, s, 3)
        op = gaussian_dense(n1, n2, int(0.8 * limit), 11)
        y = op.apply(gt.X)
        res = run_iht(op, y, IhtConfig(r=r, s=s, max_iter=400), ground_truth=gt)
        assert res.final_error > 1e-4

    def test_divergence_detection(self):
        n1, n2, r, s = 16, 8, 1, 4
        gt = generate_ground_truth(n1, n2, r, s, 12)
        op = gaussian_dense(n1, n2, 40, 13, normalize=False)
        y = op.apply(gt.X)
        cfg = IhtConfig(r=r, s=s, step_size=10.0, max_iter=200)
        res = run_iht(op, y, cfg, ground_truth=gt)
        assert res.termination == "diverged"

    def test_config_validation(self):
        op = gaussian_dense(8, 4, 10, 0)
        for bad in (
            IhtConfig(r=5, s=4),
            IhtConfig(r=1, s=4, step_size=-1.0),
            IhtConfig(r=1, s=4, max_iter=0),
            IhtConfig(r=1, s=4, max_iter=-3),
            IhtConfig(r=1, s=4, tol=-1e-10),
            IhtConfig(r=1, s=4, tol=np.nan),
        ):
            with pytest.raises(ValueError):
                run_iht(op, np.zeros(10), bad)
        # a zero tolerance is legal: the run stops only at max_iter or on divergence
        IhtConfig(r=1, s=4, tol=0.0).validate(8, 4)
