"""Self-checks for the test oracles themselves (they validate everything
else, so their own basic behavior is pinned here)."""

import numpy as np

from sparselowrank.measurement import MatrixOperator, fourier_rank_one, gaussian_dense

from oracles import finite_diff_grad, hadamard_weight_oracle, kernel_basis


class TestFiniteDiff:
    def test_frobenius_energy_gradient(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3))
        G = finite_diff_grad(lambda M: 0.5 * np.linalg.norm(M) ** 2, X)
        assert np.linalg.norm(G - X) <= 1e-8 * max(1.0, np.linalg.norm(X))

    def test_linear_functional(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((3, 5))
        X = rng.standard_normal((3, 5))
        G = finite_diff_grad(lambda M: float(np.sum(C * M)), X)
        assert np.allclose(G, C, atol=1e-7)


class TestKernelBasis:
    def test_invertible_square_operator_has_empty_kernel(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((12, 12))
        op = MatrixOperator(A, 4, 3)
        assert kernel_basis(op).shape[0] == 0

    def test_dimension_matches_rank(self):
        op = gaussian_dense(5, 4, 7, 3)
        assert kernel_basis(op).shape[0] == 20 - 7
        # rank-deficient real flattening: kernel dimension reflects the rank
        opf = fourier_rank_one(5, 4, 6, 3)
        rank = np.linalg.matrix_rank(opf.as_matrix())
        assert kernel_basis(opf).shape[0] == 20 - rank

    def test_span_membership(self):
        op = gaussian_dense(6, 4, 9, 5)
        basis = kernel_basis(op)
        rng = np.random.default_rng(4)
        combo = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
        assert np.linalg.norm(op.apply(combo)) <= 1e-10 * max(1, np.linalg.norm(combo))


class TestHadamardOracle:
    def test_diagonal_case_is_entrywise_scaling(self):
        sig = np.array([3.0, 1.5, 0.4])
        X = np.diag(sig)
        eps = 1.0
        h = np.minimum(eps / sig, 1.0)
        Z = np.random.default_rng(5).standard_normal((3, 3))
        got = hadamard_weight_oracle(X, eps, 1.0, Z)
        assert np.allclose(got, np.outer(h, h) * Z, atol=1e-12)

    def test_identity_when_eps_dominates(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 3))
        Z = rng.standard_normal((4, 3))
        eps = 2 * np.linalg.svd(X, compute_uv=False)[0]
        assert np.allclose(hadamard_weight_oracle(X, eps, 1.0, Z), Z, atol=1e-12)

