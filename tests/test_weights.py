import numpy as np
import pytest
import scipy.linalg as sla

from sparselowrank.weights import (
    IterationLimitError,
    apply_w,
    apply_w_inv,
    apply_w_lowrank,
    apply_w_sparse,
    build_weight,
    identity_weight,
)

from oracles import dense_weight_matrix, hadamard_weight_oracle


def random_state(rng, n1=8, n2=6, eps_range=(0.1, 1.5), delta_range=(0.1, 1.5)):
    X = rng.standard_normal((n1, n2))
    eps = float(rng.uniform(*eps_range))
    delta = float(rng.uniform(*delta_range))
    return X, build_weight(X, eps, delta)


class TestBuildWeight:
    def test_infinite_params_give_doubled_identity(self):
        ws = build_weight(np.random.default_rng(0).standard_normal((5, 4)),
                          np.inf, np.inf)
        assert ws.r_k == 0 and ws.s_k == 0
        rng = np.random.default_rng(1)
        for _ in range(5):
            Z = rng.standard_normal((5, 4))
            assert np.allclose(apply_w(ws, Z), 2 * Z, atol=1e-14)

    def test_identity_weight_matches(self):
        ws = identity_weight(5, 4)
        Z = np.random.default_rng(2).standard_normal((5, 4))
        assert np.allclose(apply_w(ws, Z), 2 * Z, atol=1e-14)
        assert np.allclose(apply_w_inv(ws, Z), Z / 2, atol=1e-14)

    def test_diagonal_hand_case(self):
        # X = diag(4, 1), eps = 2: one retained triplet, spectral coefficient
        # on the (1,1) position scaled by (eps / sigma_1)^2 = 1/4
        X = np.diag([4.0, 1.0])
        ws = build_weight(X, 2.0, np.inf)
        assert ws.r_k == 1
        assert np.allclose(ws.sigma, [4.0])
        E11 = np.zeros((2, 2))
        E11[0, 0] = 1.0
        out = apply_w_lowrank(ws, E11)
        assert np.isclose(out[0, 0], 0.25, atol=1e-14)

    def test_sparsity_diagonal_closed_form(self):
        delta = 0.5
        X = np.zeros((2, 3))
        X[0, 0] = 3 * delta
        X[1, 0] = delta / 2
        ws = build_weight(X, np.inf, delta)
        assert np.allclose(ws.sp_diag, [1.0 / 9.0, 1.0], atol=1e-14)
        assert ws.s_k == 1

    def test_rank_count_strict_at_eps(self):
        X = np.diag([2.0, 1.0, 0.5])
        assert build_weight(X, 1.0, np.inf).r_k == 1  # sigma == eps counts as <=
        assert build_weight(X, 0.99, np.inf).r_k == 2

    def test_row_count_strict_at_delta(self):
        X = np.zeros((3, 2))
        X[0, 0] = 1.0
        X[1, 0] = 0.5
        ws = build_weight(X, np.inf, 0.5)
        assert ws.s_k == 1

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            build_weight(np.eye(3), 0.0, 1.0)


class TestApply:
    def test_rk_zero_spectral_identity(self):
        X = 0.1 * np.random.default_rng(3).standard_normal((5, 4))
        ws = build_weight(X, 10.0, 0.5)
        Z = np.random.default_rng(4).standard_normal((5, 4))
        assert np.allclose(apply_w_lowrank(ws, Z), Z, atol=1e-14)

    def test_sparse_identity_when_rows_small(self):
        X = 0.1 * np.random.default_rng(5).standard_normal((5, 4))
        ws = build_weight(X, 0.5, 10.0)
        Z = np.random.default_rng(6).standard_normal((5, 4))
        assert np.allclose(apply_w_sparse(ws, Z), Z, atol=1e-14)

    def test_tangent_space_invariance(self):
        rng = np.random.default_rng(7)
        X, ws = random_state(rng, eps_range=(0.3, 0.6))
        if ws.r_k == 0:
            pytest.skip("degenerate draw")
        U, V = ws.U, ws.V
        Z_t = U @ rng.standard_normal((ws.n2, ws.r_k)).T \
            + rng.standard_normal((ws.n1, ws.r_k)) @ V.T
        out = apply_w_lowrank(ws, Z_t)
        # stays in the tangent space: projection onto it is the identity there
        proj = U @ (U.T @ out) + (out @ V) @ V.T - U @ (U.T @ out @ V) @ V.T
        assert np.allclose(out, proj, atol=1e-10)
        # orthogonal complement stays orthogonal
        Z_p = rng.standard_normal((ws.n1, ws.n2))
        Z_p -= U @ (U.T @ Z_p) + (Z_p @ V) @ V.T - U @ (U.T @ Z_p @ V) @ V.T
        out_p = apply_w_lowrank(ws, Z_p)
        assert np.max(np.abs(U.T @ out_p)) <= 1e-10
        assert np.max(np.abs(out_p @ V)) <= 1e-10

    def test_matches_hadamard_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n1 = int(rng.integers(3, 10))
            n2 = int(rng.integers(3, 8))
            X = rng.standard_normal((n1, n2))
            eps = float(rng.uniform(0.05, 3.0))
            delta = float(rng.uniform(0.05, 3.0))
            Z = rng.standard_normal((n1, n2))
            ws = build_weight(X, eps, delta)
            got = apply_w_lowrank(ws, Z)
            want = hadamard_weight_oracle(X, eps, delta, Z)
            assert np.linalg.norm(got - want) <= 1e-10 * (1 + np.linalg.norm(want))

    def test_oracle_identity_when_eps_large(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 4))
        Z = rng.standard_normal((5, 4))
        eps = 10.0 * np.linalg.svd(X, compute_uv=False)[0]
        assert np.allclose(hadamard_weight_oracle(X, eps, 1.0, Z), Z, atol=1e-12)

    def test_self_adjoint_and_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X, ws = random_state(rng)
            Z = rng.standard_normal((8, 6))
            Zp = rng.standard_normal((8, 6))
            lhs = np.sum(Zp * apply_w(ws, Z))
            rhs = np.sum(apply_w(ws, Zp) * Z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
            quad = np.sum(Z * apply_w(ws, Z))
            assert quad > 0

    def test_spectral_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X, ws = random_state(rng)
            sigma1 = np.linalg.svd(X, compute_uv=False)[0]
            bound = ws.delta**2 / np.max(ws.row_norms) ** 2 + ws.eps**2 / sigma1**2
            Z = rng.standard_normal((8, 6))
            rayleigh = np.sum(Z * apply_w(ws, Z)) / np.sum(Z * Z)
            assert rayleigh >= bound - 1e-12


class TestInverse:
    def test_round_trip_smw(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            X, ws = random_state(rng)
            Z = rng.standard_normal((8, 6))
            out = apply_w_inv(ws, Z, tol=1e-10)
            assert np.linalg.norm(apply_w(ws, out) - Z) <= 1e-10 * np.linalg.norm(Z)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            X, ws = random_state(rng, n1=7, n2=5)
            Wmat = dense_weight_matrix(ws, apply_w)
            Z = rng.standard_normal((7, 5))
            expected = sla.solve(Wmat, Z.ravel(), assume_a="pos").reshape(7, 5)
            got = apply_w_inv(ws, Z, tol=1e-12)
            assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_iteration_limit_surfaces(self):
        # no float64 round trip reaches a target this far below round-off;
        # the miss is raised with the residual achieved
        rng = np.random.default_rng(16)
        gt_like = rng.standard_normal((12, 8))
        ws = build_weight(gt_like, 1e-9, 1e-9)
        Z = rng.standard_normal((12, 8))
        with pytest.raises(IterationLimitError) as err:
            apply_w_inv(ws, Z, tol=1e-20)
        assert err.value.residual > 1e-20

    def test_dimension_guard(self):
        ws = identity_weight(4, 3)
        with pytest.raises(ValueError):
            apply_w_inv(ws, np.ones((3, 4)))


class TestScalingInvariance:
    def test_wls_minimizer_unchanged_by_weight_scaling(self):
        # KKT solutions with W and c W coincide; this is why the identity
        # initialization and the doubled-identity infinite state agree
        rng = np.random.default_rng(17)
        X, ws = random_state(rng, n1=5, n2=4)
        Wmat = dense_weight_matrix(ws, apply_w)
        A = rng.standard_normal((7, 20))
        y = rng.standard_normal(7)
        for c in (1.0, 2.0, 17.5):
            K = np.zeros((27, 27))
            K[:20, :20] = c * Wmat
            K[:20, 20:] = A.T
            K[20:, :20] = A
            sol = sla.solve(K, np.concatenate([np.zeros(20), y]))
            if c == 1.0:
                base = sol[:20]
            else:
                assert np.linalg.norm(sol[:20] - base) <= 1e-9 * np.linalg.norm(base)
