import numpy as np
import pytest

from sparselowrank.core import (
    GroundTruth,
    InvalidDimensionError,
    Spectrum,
    as_spectrum,
    generate_ground_truth,
    hard_threshold_rows,
    project_tangent,
    rel_frobenius_error,
    rho,
    truncate_rank,
)

from oracles import sorted_row_norms


class TestGroundTruth:
    def test_large_instance_dimensions(self):
        gt = generate_ground_truth(256, 40, 5, 20, seed=7)
        assert gt.support.shape == (20,)
        assert gt.rank == 5
        assert abs(np.linalg.norm(gt.X) - 1.0) < 1e-12
        sig = np.linalg.svd(gt.X, compute_uv=False)
        assert np.sum(sig > 1e-12 * sig[0]) == 5
        nz = np.where(np.linalg.norm(gt.X, axis=1) > 0)[0]
        assert np.array_equal(nz, gt.support)

    def test_minimal_case(self):
        gt = generate_ground_truth(4, 4, 1, 1, seed=123)
        assert len(gt.support) == 1
        sig = np.linalg.svd(gt.X, compute_uv=False)
        assert np.sum(sig > 1e-12 * sig[0]) == 1

    def test_determinism(self):
        a = generate_ground_truth(32, 8, 2, 6, seed=42)
        b = generate_ground_truth(32, 8, 2, 6, seed=42)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.support, b.support)

    def test_seed_changes_draw(self):
        a = generate_ground_truth(32, 8, 2, 6, seed=1)
        b = generate_ground_truth(32, 8, 2, 6, seed=2)
        assert not np.allclose(a.X, b.X)

    @pytest.mark.parametrize("n1,n2,r,s", [(8, 4, 0, 2), (8, 4, 3, 2), (8, 4, 2, 9),
                                           (8, 4, 5, 6)])
    def test_invalid_orders(self, n1, n2, r, s):
        with pytest.raises(InvalidDimensionError):
            generate_ground_truth(n1, n2, r, s, seed=0)

    def test_validation_rejects_wrong_support(self):
        gt = generate_ground_truth(10, 4, 1, 3, seed=5)
        with pytest.raises(ValueError):
            GroundTruth(X=gt.X, support=np.array([0, 1, 2]), rank=1, row_sparsity=3)


class TestSpectrum:
    def test_passes_through_and_validates(self):
        spec = as_spectrum(np.eye(3))
        assert isinstance(spec, Spectrum)
        assert as_spectrum(spec) is spec
        with pytest.raises(ValueError):
            as_spectrum(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidDimensionError):
            as_spectrum(np.ones(3))

    def test_each_part_computed_once(self, monkeypatch):
        X = np.random.default_rng(1).standard_normal((5, 3))
        spec = as_spectrum(X)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        U, sig, Vt = spec.svd
        assert spec.sigma is sig and spec.svd[0] is U
        assert spec.row_norms is spec.row_norms
        assert len(calls) == 1
        assert np.allclose((U * sig) @ Vt, X, atol=1e-12)
        assert np.allclose(spec.row_norms, np.linalg.norm(X, axis=1), rtol=0, atol=0)

    def test_rho_reads_the_spectrum(self):
        X = np.random.default_rng(2).standard_normal((6, 3))
        spec = as_spectrum(X)
        assert [rho(spec, i) for i in range(1, 7)] == [rho(X, i) for i in range(1, 7)]


class TestRho:
    def test_identity_rows(self):
        X = np.eye(3)
        assert rho(X, 1) == 1.0
        assert rho(X, 3) == 1.0

    def test_sorting(self):
        X = np.zeros((3, 2))
        X[0, 0] = 3.0
        X[1, 0] = 1.0
        X[2, 0] = 2.0
        assert rho(X, 1) == 3.0
        assert rho(X, 2) == 2.0
        assert rho(X, 3) == 1.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        expected = sorted_row_norms(X)
        got = [rho(X, i) for i in range(1, 6)]
        assert np.allclose(got, expected, rtol=0, atol=0)

    def test_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.standard_normal((12, 5))
            vals = [rho(X, i) for i in range(1, 13)]
            assert all(vals[i] >= vals[i + 1] for i in range(11))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rho(np.eye(3), 0)
        with pytest.raises(IndexError):
            rho(np.eye(3), 4)


class TestHardThresholdRows:
    def test_identity_when_s_full(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 4))
        assert np.array_equal(hard_threshold_rows(X, 6), X)

    def test_zero_when_s_zero(self):
        X = np.ones((4, 3))
        assert np.all(hard_threshold_rows(X, 0) == 0)

    def test_tie_keeps_smallest_index(self):
        X = np.zeros((4, 2))
        X[1] = [1.0, 0.0]   # rows 2 and 3 (1-based) with equal norm
        X[2] = [0.0, 1.0]
        out = hard_threshold_rows(X, 1)
        assert np.array_equal(out[1], X[1])
        assert np.all(out[2] == 0)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = rng.standard_normal((10, 6))
            s = int(rng.integers(0, 11))
            H = hard_threshold_rows(X, s)
            assert np.linalg.norm(hard_threshold_rows(H, s) - H) <= 1e-10
            assert np.linalg.norm(H) <= np.linalg.norm(X) + 1e-10

    def test_support_identification_under_perturbation(self):
        # perturbations below half the smallest kept row norm keep the support
        rng = np.random.default_rng(7)
        gt = generate_ground_truth(20, 6, 2, 5, seed=0)
        rho_s = rho(gt.X, 5)
        for _ in range(100):
            E = rng.standard_normal((20, 6))
            E *= 0.49 * rho_s / max(np.linalg.norm(E, axis=1).max(), 1e-300)
            Z = gt.X + E
            kept = np.where(np.linalg.norm(hard_threshold_rows(Z, 5), axis=1) > 0)[0]
            assert np.array_equal(kept, gt.support)


class TestTruncateRank:
    def test_full_rank_identity(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 4))
        assert np.linalg.norm(truncate_rank(X, 4) - X) <= 1e-10

    def test_diagonal(self):
        X = np.diag([3.0, 2.0, 1.0])
        assert np.allclose(truncate_rank(X, 2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 4))
        sig = np.linalg.svd(X, compute_uv=False)
        T = truncate_rank(X, 2)
        assert np.isclose(np.linalg.norm(X - T) ** 2, sig[2] ** 2 + sig[3] ** 2,
                          rtol=1e-10)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X = rng.standard_normal((7, 5))
            r = int(rng.integers(0, 6))
            T = truncate_rank(X, r)
            assert np.linalg.norm(truncate_rank(T, r) - T) <= 1e-10
            assert np.linalg.norm(T) <= np.linalg.norm(X) + 1e-10


def _random_orthonormal(rng, n, k):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


class TestProjectTangent:
    def test_fixes_its_range(self):
        rng = np.random.default_rng(8)
        U = _random_orthonormal(rng, 8, 2)
        V = _random_orthonormal(rng, 5, 2)
        Z = U @ rng.standard_normal((5, 2)).T + rng.standard_normal((8, 2)) @ V.T
        P = project_tangent(Z, U, V)
        assert np.linalg.norm(P - Z) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        U = _random_orthonormal(rng, 8, 3)
        V = _random_orthonormal(rng, 6, 3)
        Z = rng.standard_normal((8, 6))
        P1 = project_tangent(Z, U, V)
        P2 = project_tangent(P1, U, V)
        assert np.linalg.norm(P2 - P1) <= 1e-10

    def test_self_adjoint(self):
        rng = np.random.default_rng(10)
        U = _random_orthonormal(rng, 8, 2)
        V = _random_orthonormal(rng, 6, 2)
        for _ in range(10):
            Z = rng.standard_normal((8, 6))
            Zp = rng.standard_normal((8, 6))
            lhs = np.sum(Zp * project_tangent(Z, U, V))
            rhs = np.sum(project_tangent(Zp, U, V) * Z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_support_restricted_variant(self):
        rng = np.random.default_rng(11)
        S = np.array([0, 2, 3])
        U = np.zeros((8, 2))
        U[S] = rng.standard_normal((3, 2))
        U, _ = np.linalg.qr(U)
        U = U[:, :2]
        V = _random_orthonormal(rng, 6, 2)
        # Z supported on S: restricted projection equals plain projection
        Z = np.zeros((8, 6))
        Z[S] = rng.standard_normal((3, 6))
        P_plain = project_tangent(Z, U, V)
        P_restr = project_tangent(Z, U, V, S)
        restricted = np.zeros_like(P_plain)
        restricted[S] = P_plain[S]
        assert np.allclose(P_restr, restricted, atol=1e-10)

    def test_restricted_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(12)
        S = np.array([1, 4, 5, 6])
        U = np.zeros((9, 2))
        U[S] = rng.standard_normal((4, 2))
        U, _ = np.linalg.qr(U)
        U = U[:, :2]
        V = _random_orthonormal(rng, 5, 2)
        Z = rng.standard_normal((9, 5))
        P1 = project_tangent(Z, U, V, S)
        P2 = project_tangent(P1, U, V, S)
        assert np.linalg.norm(P2 - P1) <= 1e-10
        Zp = rng.standard_normal((9, 5))
        lhs = np.sum(Zp * P1)
        rhs = np.sum(project_tangent(Zp, U, V, S) * Z)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_rejects_non_orthonormal(self):
        rng = np.random.default_rng(13)
        U = rng.standard_normal((8, 2))
        V = _random_orthonormal(rng, 6, 2)
        with pytest.raises(ValueError):
            project_tangent(rng.standard_normal((8, 6)), U, V)

    def test_rejects_support_violation(self):
        rng = np.random.default_rng(14)
        U = _random_orthonormal(rng, 8, 2)  # dense U, empty support mismatch
        V = _random_orthonormal(rng, 6, 2)
        with pytest.raises(ValueError):
            project_tangent(rng.standard_normal((8, 6)), U, V, S=np.array([0, 1]))


class TestRelFrobeniusError:
    def test_exact(self):
        X = np.ones((3, 2))
        assert rel_frobenius_error(X, X) == 0.0

    def test_double(self):
        X = np.random.default_rng(0).standard_normal((4, 3))
        assert np.isclose(rel_frobenius_error(2 * X, X), 1.0)

    def test_zero_estimate(self):
        X = np.random.default_rng(1).standard_normal((4, 3))
        assert np.isclose(rel_frobenius_error(np.zeros_like(X), X), 1.0)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroDivisionError):
            rel_frobenius_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            rel_frobenius_error(np.ones((2, 2)), np.ones((3, 2)))
