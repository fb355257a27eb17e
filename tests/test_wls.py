import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselowrank.core import generate_ground_truth
from sparselowrank.measurement import MatrixOperator, fourier_rank_one, gaussian_dense
from sparselowrank.weights import apply_w, build_weight, identity_weight
from sparselowrank.wls import solve_wls

from oracles import dense_oracle_solve, kernel_basis, kernel_orthogonality


def moderate_state(rng, n1, n2):
    X = rng.standard_normal((n1, n2))
    sig = np.linalg.svd(X, compute_uv=False)
    eps = float(rng.uniform(0.2, 0.8)) * sig[0]
    delta = float(rng.uniform(0.2, 0.8)) * np.max(np.linalg.norm(X, axis=1))
    return build_weight(X, eps, delta)


class TestUnweightedCase:
    def test_identity_state_gives_min_norm_interpolant(self):
        rng = np.random.default_rng(0)
        op = gaussian_dense(6, 5, 12, 3)
        y = rng.standard_normal(12)
        ws = identity_weight(6, 5)
        sol = solve_wls(op, y, ws)
        Amat = op.as_matrix()
        expected = (Amat.T @ sla.solve(Amat @ Amat.T, y, assume_a="pos"))
        assert np.linalg.norm(sol.X.ravel() - expected) <= 1e-9
        assert sol.constraint_residual <= 1e-10


class TestAgainstDenseOracle:
    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            op = gaussian_dense(8, 6, 20, 100 + trial)
            gt = generate_ground_truth(8, 6, 2, 4, trial)
            y = op.apply(gt.X)
            ws = moderate_state(rng, 8, 6)
            sol = solve_wls(op, y, ws)
            X_oracle = dense_oracle_solve(op, y, ws)
            rel = np.linalg.norm(sol.X - X_oracle) / np.linalg.norm(X_oracle)
            assert rel <= 1e-8
            assert sol.constraint_residual <= 1e-10

    def test_oracle_identity_weight_is_pseudoinverse(self):
        rng = np.random.default_rng(2)
        op = gaussian_dense(5, 4, 9, 7)
        y = rng.standard_normal(9)
        X = dense_oracle_solve(op, y, identity_weight(5, 4))
        Amat = op.as_matrix()
        expected = sla.pinv(Amat) @ y
        assert np.linalg.norm(X.ravel() - expected) <= 1e-10

    def test_oracle_objective_optimality(self):
        # the oracle minimizer beats any feasible perturbation along the kernel
        rng = np.random.default_rng(3)
        op = gaussian_dense(6, 4, 10, 11)
        y = rng.standard_normal(10)
        ws = moderate_state(rng, 6, 4)
        X = dense_oracle_solve(op, y, ws)
        base = np.sum(X * apply_w(ws, X))
        for Xi in kernel_basis(op)[:5]:
            Xt = X + 0.3 * Xi
            assert np.sum(Xt * apply_w(ws, Xt)) >= base - 1e-10

    def test_oracle_size_guard(self):
        op = gaussian_dense(60, 50, 10, 0)
        with pytest.raises(ValueError):
            dense_oracle_solve(op, np.zeros(10), identity_weight(60, 50))


@st.composite
def weighted_instance(draw, regime):
    """A small dense WLS instance whose weight state has active rows only
    (r_k = 0), retained triplets only (s_k = 0), or both."""
    n1 = draw(st.integers(3, 8))
    n2 = draw(st.integers(2, 6))
    m = draw(st.integers(1, n1 * n2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n1, n2))
    eps = draw(st.floats(0.2, 0.9)) * np.linalg.norm(X, 2)
    delta = draw(st.floats(0.2, 0.9)) * np.max(np.linalg.norm(X, axis=1))
    ws = build_weight(X, np.inf if regime == "rows" else eps,
                      np.inf if regime == "spectrum" else delta)
    op = gaussian_dense(n1, n2, m, rng.integers(2**32))
    return op, rng.standard_normal(m), ws


class TestSmwCoreProperty:
    # each regime takes its own branch: the r_k = 0 SMW core, no SMW block
    # at all, and the full core with its cross term
    @pytest.mark.parametrize("regime", ["rows", "spectrum", "both"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, regime, data):
        op, y, ws = data.draw(weighted_instance(regime))
        assert (ws.r_k > 0) == (regime != "rows")
        assert (ws.s_k > 0) == (regime != "spectrum")
        sol = solve_wls(op, y, ws)
        X_oracle = dense_oracle_solve(op, y, ws)
        assert np.linalg.norm(sol.X - X_oracle) <= 1e-8 * np.linalg.norm(X_oracle)


class TestOptimalityConditions:
    def test_feasibility_and_kernel_orthogonality(self):
        rng = np.random.default_rng(4)
        op = gaussian_dense(8, 6, 20, 21)
        gt = generate_ground_truth(8, 6, 2, 4, 5)
        y = op.apply(gt.X)
        ws = moderate_state(rng, 8, 6)
        sol = solve_wls(op, y, ws)
        assert sol.constraint_residual <= 1e-10
        assert kernel_orthogonality(ws, sol.X, kernel_basis(op)) <= 1e-8

    def test_scaling_invariance_through_identity_states(self):
        # identity initialization and the doubled-identity infinite state
        # produce the same minimizer (weights matter only up to scale)
        op = gaussian_dense(6, 5, 10, 51)
        y = np.random.default_rng(7).standard_normal(10)
        ws = identity_weight(6, 5)  # applies 2 * Id
        sol = solve_wls(op, y, ws)
        Amat = op.as_matrix()
        min_norm = (Amat.T @ sla.solve(Amat @ Amat.T, y, assume_a="pos"))
        assert np.linalg.norm(sol.X.ravel() - min_norm) <= 1e-9


class TestRankDeficiency:
    def test_fourier_redundant_rows_are_handled(self):
        gt = generate_ground_truth(10, 6, 1, 4, 3)
        op = fourier_rank_one(10, 6, 20, 9)  # 40 real rows, rank about 20
        y = op.apply(gt.X)
        ws = identity_weight(10, 6)
        sol = solve_wls(op, y, ws)
        assert sol.constraint_residual <= 1e-8

    def test_severely_weighted_state_stays_accurate(self):
        # direct method keeps full accuracy when the weights are extreme
        gt = generate_ground_truth(12, 6, 2, 5, 13)
        op = gaussian_dense(12, 6, 40, 17)
        y = op.apply(gt.X)
        ws = build_weight(gt.X + 1e-9 * np.ones((12, 6)), 1e-8, 1e-8)
        sol = solve_wls(op, y, ws)
        assert sol.constraint_residual <= 1e-9

    def test_injected_singular_operator(self):
        A = np.zeros((4, 12))
        A[0, 0] = 1.0
        A[1, 1] = 1.0
        A[2, :2] = 1.0  # dependent row
        A[3, 3] = 1.0
        op = MatrixOperator(A, 3, 4)
        y = A @ np.arange(12.0)
        sol = solve_wls(op, y, identity_weight(3, 4))
        assert sol.constraint_residual <= 1e-8
        assert sol.regularized
