import math

import numpy as np
import pytest

from sparselowrank.core import as_spectrum
from sparselowrank.objective import (
    SmoothingParams,
    f_lowrank,
    f_sparse,
    f_tau,
    f_total,
    grad_f_lowrank,
    grad_f_sparse,
    q_lowrank,
    q_sparse,
)
from sparselowrank.weights import apply_w_lowrank, apply_w_sparse, build_weight

from oracles import finite_diff_grad


class TestScalarKernel:
    def test_quadratic_branch(self):
        assert f_tau(0.5, 1.0) == 0.125

    def test_boundary_continuity(self):
        quad = 0.5 * 1.0**2
        log_branch = 0.5 * 1.0 * (1.0 + 2.0 * math.log(1.0))
        assert f_tau(1.0, 1.0) == 0.5
        assert abs(quad - log_branch) < 1e-15
        # approach from both sides
        assert abs(f_tau(1.0 - 1e-9, 1.0) - 0.5) < 1e-8
        assert abs(f_tau(1.0 + 1e-9, 1.0) - 0.5) < 1e-8

    def test_log_branch_closed_form(self):
        # tau=1, t=2: (1/2) log(e * 4) = 1/2 + ln 2
        assert abs(f_tau(2.0, 1.0) - (0.5 + math.log(2.0))) < 1e-15

    def test_even(self):
        assert f_tau(-2.0, 1.0) == f_tau(2.0, 1.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            f_tau(1.0, 0.0)
        with pytest.raises(ValueError):
            f_tau(1.0, -1.0)

    def test_vectorised_matches_loop(self):
        def loop(values, tau):
            return [0.5 * v * v if abs(v) <= tau
                    else 0.5 * tau * tau * (1.0 + 2.0 * math.log(abs(v) / tau))
                    for v in values]

        t = np.array([-3.0, -0.5, 0.0, 0.25, 1.0, 1.5, 40.0])
        for tau in (0.3, 1.0, np.inf):
            vals = f_tau(t, tau)
            assert vals.shape == t.shape
            assert np.allclose(vals, loop(t, tau), rtol=4 * np.finfo(float).eps, atol=0)


class TestObjectives:
    def test_zero_matrix(self):
        X = np.zeros((4, 3))
        assert f_lowrank(X, 1.0) == 0.0
        assert f_sparse(X, 1.0) == 0.0
        assert f_total(X, SmoothingParams(1.0, 1.0)) == 0.0

    def test_fully_quadratic_regime_equals_frobenius(self):
        rng = np.random.default_rng(1)
        X = 0.01 * rng.standard_normal((5, 4))
        params = SmoothingParams(eps=10.0, delta=10.0)
        assert np.isclose(f_total(X, params), np.linalg.norm(X) ** 2, rtol=1e-12)
        assert np.isclose(f_lowrank(X, 10.0), 0.5 * np.linalg.norm(X) ** 2, rtol=1e-12)
        assert np.isclose(f_sparse(X, 10.0), 0.5 * np.linalg.norm(X) ** 2, rtol=1e-12)

    def test_per_term_summation_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 4))
        eps, delta = 0.7, 0.4
        sig = np.linalg.svd(X, compute_uv=False)
        expected_lr = sum(f_tau(v, eps) for v in sig)
        expected_sp = sum(f_tau(np.linalg.norm(row), delta) for row in X)
        assert np.isclose(f_lowrank(X, eps), expected_lr, rtol=1e-12)
        assert np.isclose(f_sparse(X, delta), expected_sp, rtol=1e-12)

    def test_spectrum_gives_the_same_values(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 4))
        spec = as_spectrum(X)
        eps, delta = 0.7, 0.4
        assert f_lowrank(spec, eps) == f_lowrank(X, eps)
        assert f_sparse(spec, delta) == f_sparse(X, delta)
        assert np.array_equal(grad_f_lowrank(spec, eps), grad_f_lowrank(X, eps))
        assert np.array_equal(grad_f_sparse(spec, delta), grad_f_sparse(X, delta))
        Z = rng.standard_normal((6, 4))
        assert q_lowrank(Z, spec, eps) == q_lowrank(Z, X, eps)
        assert q_sparse(Z, spec, delta) == q_sparse(Z, X, delta)

    def test_infinite_params_allowed(self):
        X = np.random.default_rng(3).standard_normal((4, 4))
        params = SmoothingParams(eps=np.inf, delta=np.inf)
        assert np.isclose(f_total(X, params), np.linalg.norm(X) ** 2, rtol=1e-12)

    def test_monotone_in_smoothing_parameters(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            X = rng.standard_normal((6, 5))
            grid = np.geomspace(1e-3, 10, 20)
            lr_vals = [f_lowrank(X, eps) for eps in grid]
            sp_vals = [f_sparse(X, d) for d in grid]
            assert all(a <= b + 1e-12 for a, b in zip(lr_vals, lr_vals[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(sp_vals, sp_vals[1:]))

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            SmoothingParams(eps=0.0, delta=1.0)


class TestGradients:
    def test_sparse_quadratic_regime(self):
        X = 0.1 * np.random.default_rng(5).standard_normal((5, 3))
        assert np.allclose(grad_f_sparse(X, 10.0), X, atol=1e-14)

    def test_lowrank_quadratic_regime(self):
        X = 0.1 * np.random.default_rng(6).standard_normal((5, 3))
        assert np.allclose(grad_f_lowrank(X, 10.0), X, atol=1e-12)

    def test_zero(self):
        Z = np.zeros((4, 3))
        assert np.all(grad_f_sparse(Z, 1.0) == 0)
        assert np.all(grad_f_lowrank(Z, 1.0) == 0)

    def test_sparse_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 4))
        delta = 0.6
        fd = finite_diff_grad(lambda M: f_sparse(M, delta), X)
        exact = grad_f_sparse(X, delta)
        assert np.linalg.norm(fd - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))

    def test_lowrank_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            X = rng.standard_normal((5, 4))
            sig = np.linalg.svd(X, compute_uv=False)
            if np.min(np.abs(np.diff(sig))) < 1e-2:  # keep the spectrum gapped
                continue
            eps = float(0.8 * sig[1])
            fd = finite_diff_grad(lambda M: f_lowrank(M, eps), X)
            exact = grad_f_lowrank(X, eps)
            assert np.linalg.norm(fd - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))

    def test_gradients_equal_weighted_iterate(self):
        # the gradients coincide with the weight operator applied to the
        # anchor point itself, which is what makes the quadratic models tangent
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = rng.standard_normal((6, 4))
            eps = float(rng.uniform(0.1, 2.0))
            delta = float(rng.uniform(0.1, 2.0))
            ws = build_weight(X, eps, delta)
            assert np.allclose(grad_f_lowrank(X, eps), apply_w_lowrank(ws, X),
                               atol=1e-10)
            assert np.allclose(grad_f_sparse(X, delta), apply_w_sparse(ws, X),
                               atol=1e-10)


class TestQuadraticModels:
    def test_anchoring(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((5, 4))
        eps, delta = 0.5, 0.8
        assert np.isclose(q_lowrank(X, X, eps), f_lowrank(X, eps), rtol=1e-12)
        assert np.isclose(q_sparse(X, X, delta), f_sparse(X, delta), rtol=1e-12)

    def test_majorization_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n1 = int(rng.integers(2, 9))
            n2 = int(rng.integers(2, 7))
            X = rng.standard_normal((n1, n2))
            Z = rng.standard_normal((n1, n2))
            eps = float(rng.uniform(0.05, 2.0))
            delta = float(rng.uniform(0.05, 2.0))
            q = q_lowrank(Z, X, eps) + q_sparse(Z, X, delta)
            f = f_total(Z, SmoothingParams(eps, delta))
            assert f <= q + 1e-9 * (1 + abs(q))

    def test_pure_quadratic_form_identity(self):
        # with the gradient identity, the model collapses to
        # f(X) + (<Z, W Z> - <X, W X>) / 2
        rng = np.random.default_rng(12)
        for _ in range(10):
            X = rng.standard_normal((5, 4))
            Z = rng.standard_normal((5, 4))
            eps = float(rng.uniform(0.1, 1.5))
            ws = build_weight(X, eps, np.inf)
            expected = f_lowrank(X, eps) + 0.5 * (
                np.sum(Z * apply_w_lowrank(ws, Z)) - np.sum(X * apply_w_lowrank(ws, X))
            )
            assert np.isclose(q_lowrank(Z, X, eps), expected, rtol=1e-10, atol=1e-10)
