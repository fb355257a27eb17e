import numpy as np
import pytest

from sparselowrank.measurement import (
    FourierRankOneOperator,
    MatrixOperator,
    RankOneGaussianOperator,
    fourier_rank_one,
    gaussian_dense,
    gaussian_rank_one,
    rip_probe,
)

from oracles import kernel_basis


def all_ops(n1=12, n2=7, m=15, seed=5):
    return [
        gaussian_dense(n1, n2, m, seed),
        gaussian_rank_one(n1, n2, m, seed),
        fourier_rank_one(n1, n2, m, seed),
    ]


class TestAdjointAndLinearity:
    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_adjoint_identity(self, op_index):
        op = all_ops()[op_index]
        rng = np.random.default_rng(17)
        for _ in range(50):
            Z = rng.standard_normal((op.n1, op.n2))
            w = rng.standard_normal(op.m)
            lhs = float(op.apply(Z) @ w)
            rhs = float(np.sum(Z * op.adjoint(w)))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_linearity(self, op_index):
        op = all_ops()[op_index]
        rng = np.random.default_rng(21)
        for _ in range(10):
            X = rng.standard_normal((op.n1, op.n2))
            Z = rng.standard_normal((op.n1, op.n2))
            a, b = rng.standard_normal(2)
            lhs = op.apply(a * X + b * Z)
            rhs = a * op.apply(X) + b * op.apply(Z)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(lhs))

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_zero_maps_to_zero(self, op_index):
        op = all_ops()[op_index]
        assert np.all(op.apply(np.zeros((op.n1, op.n2))) == 0)

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_materialization_agrees(self, op_index):
        op = all_ops()[op_index]
        Amat = op.as_matrix()
        rng = np.random.default_rng(3)
        for _ in range(5):
            X = rng.standard_normal((op.n1, op.n2))
            assert np.allclose(op.apply(X), Amat @ X.ravel(), atol=1e-12)

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_determinism(self, op_index):
        a = all_ops(seed=9)[op_index]
        b = all_ops(seed=9)[op_index]
        X = np.random.default_rng(0).standard_normal((a.n1, a.n2))
        assert np.array_equal(a.apply(X), b.apply(X))

    def test_dimension_mismatch(self):
        op = gaussian_dense(6, 4, 10, 0)
        with pytest.raises(ValueError):
            op.apply(np.ones((4, 6)))
        with pytest.raises(ValueError):
            op.adjoint(np.ones(11))


class TestDenseGaussian:
    def test_trace_semantics_with_injected_identity(self):
        n = 4
        op = MatrixOperator(np.eye(n).ravel()[None, :], n, n)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((n, n))
        assert np.isclose(op.apply(X)[0], np.trace(X), atol=1e-12)

    def test_large_ensemble_dimensions(self):
        op = gaussian_dense(256, 40, 64, 0)
        assert op.as_matrix().shape == (64, 256 * 40)

    def test_unnormalized_entries_are_standard_normal(self):
        op = gaussian_dense(50, 40, 30, 12, normalize=False)
        entries = op.as_matrix().ravel()
        assert abs(np.mean(entries)) < 0.02
        assert abs(np.std(entries) - 1.0) < 0.02

    def test_kernel_directions_annihilated(self):
        op = gaussian_dense(6, 5, 12, 4)
        basis = kernel_basis(op)
        assert basis.shape[0] == 6 * 5 - 12
        for Xi in basis:
            assert np.linalg.norm(op.apply(Xi)) <= 1e-10


class TestRankOne:
    def test_bilinearity_on_outer_products(self):
        op = gaussian_rank_one(9, 6, 11, 2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(9)
        yv = rng.standard_normal(6)
        got = op.apply(np.outer(x, yv))
        expected = op.scale * (op.a @ x) * (op.b @ yv)
        assert np.allclose(got, expected, atol=1e-12)

    def test_factored_storage_never_materializes(self):
        # apply works out of the factored vectors; the dense m x (n1 n2)
        # representation is only built on explicit request
        op = gaussian_rank_one(64, 64, 50, 3)
        X = np.random.default_rng(0).standard_normal((64, 64))
        for _ in range(5):
            op.apply(X)
            op.adjoint(np.ones(50))
        assert op._matrix is None
        stored = op.a.nbytes + op.b.nbytes
        assert stored < 0.1 * (50 * 64 * 64 * 8)
        dense = op.as_matrix()
        assert np.allclose(op.apply(X), dense @ X.ravel(), atol=1e-12)

    def test_injected_factors(self):
        a = np.eye(3, 4)
        b = np.eye(3, 5)
        op = RankOneGaussianOperator.from_factors(a, b, normalize=False)
        X = np.arange(20.0).reshape(4, 5)
        assert np.allclose(op.apply(X), np.diag(X)[:3], atol=1e-14)


class TestFourier:
    def test_matches_direct_complex_oracle(self):
        op = fourier_rank_one(8, 5, 12, 7)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 5))
        got = op.apply(X)
        assert got.shape == (24,)
        direct = np.array([
            op.scale * (op.fa[j] @ X @ op.fb[j]) for j in range(12)
        ])
        reassembled = got[:12] + 1j * got[12:]
        assert np.allclose(reassembled, direct, atol=1e-10)

    def test_degenerate_injection_reduces_to_dft(self):
        # single nonzero column in both factors: measurements are X[0, 0]
        # times the product of the two transformed impulse sequences
        m = 8
        A = np.zeros((m, 3))
        B = np.zeros((m, 4))
        A[2, 0] = 1.0  # impulse at time index 2
        B[5, 0] = 1.0
        op = FourierRankOneOperator.from_factors(A, B, normalize=False)
        X = np.zeros((3, 4))
        X[0, 0] = 2.5
        got = op.apply(X)
        fa = np.fft.fft(A[:, 0], norm="ortho")
        fb = np.fft.fft(B[:, 0], norm="ortho")
        expected = 2.5 * fa * fb
        assert np.allclose(got[:m] + 1j * got[m:], expected, atol=1e-12)

    def test_hermitian_redundancy_rank(self):
        op = fourier_rank_one(6, 4, 10, 3)
        rank = np.linalg.matrix_rank(op.as_matrix())
        assert rank <= 11  # about m_complex, never the full 2m rows


class TestRipProbe:
    def test_identity_embedding_is_isometry(self):
        n1, n2 = 5, 4
        op = MatrixOperator(np.eye(n1 * n2), n1, n2)
        est = rip_probe(op, r=2, s=3, trials=10, seed=0)
        assert est.delta_lower_bound <= 1e-10

    def test_single_measurement_is_far_from_isometry(self):
        op = gaussian_dense(10, 6, 1, 5)
        est = rip_probe(op, r=2, s=4, trials=20, seed=1)
        assert est.delta_lower_bound > 0.8

    def test_well_sampled_gaussian_below_one(self):
        r, s, n2 = 1, 4, 8
        m = 6 * r * (s + n2)
        op = gaussian_dense(32, n2, m, 3)
        est = rip_probe(op, r=r, s=s, trials=20, seed=2)
        assert est.delta_lower_bound < 1.0

    def test_requires_positive_trials(self):
        op = gaussian_dense(6, 4, 5, 0)
        with pytest.raises(ValueError):
            rip_probe(op, 1, 2, 0, 0)
