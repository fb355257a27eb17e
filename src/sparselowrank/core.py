"""Matrix containers, ground-truth generation, row/singular order statistics,
and the projection operators used throughout the package.

Matrices are plain 2-D float64 numpy arrays. All functions here are pure and
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroundTruth",
    "generate_ground_truth",
    "rho",
    "row_norms",
    "hard_threshold_rows",
    "truncate_rank",
    "project_tangent",
    "rel_frobenius_error",
    "as_matrix",
]

#: relative threshold below which a singular value counts as numerically zero
NUMERIC_RANK_RTOL = 1e-12


class InvalidDimensionError(ValueError):
    """Raised when matrix/model-order preconditions are violated."""


def as_matrix(X) -> np.ndarray:
    """Validate and return ``X`` as a finite 2-D float64 array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InvalidDimensionError(f"expected a 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite entries")
    return X


@dataclass(frozen=True)
class GroundTruth:
    """Unit-Frobenius-norm rank-r matrix with exactly s nonzero rows."""

    X: np.ndarray
    support: np.ndarray  # sorted row indices of the nonzero rows
    rank: int
    row_sparsity: int

    def __post_init__(self):
        nrm = np.linalg.norm(self.X)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"ground truth not unit-normalized: |X|_F = {nrm}")
        sig = np.linalg.svd(self.X, compute_uv=False)
        numrank = int(np.sum(sig > NUMERIC_RANK_RTOL * sig[0]))
        if numrank != self.rank:
            raise ValueError(f"numeric rank {numrank} != declared rank {self.rank}")
        nz = np.where(np.linalg.norm(self.X, axis=1) > 0)[0]
        if len(nz) != self.row_sparsity or not np.array_equal(nz, self.support):
            raise ValueError("support does not match the nonzero rows")


def generate_ground_truth(n1: int, n2: int, r: int, s: int, seed) -> GroundTruth:
    """Draw a random rank-r, s-row-sparse ground truth of unit Frobenius norm.

    The matrix is built as ``U diag(d) V.T`` where U has s uniformly-chosen
    nonzero rows with i.i.d. standard normal entries, and d, V are i.i.d.
    standard normal; the result is normalized to unit Frobenius norm.
    Deterministic given ``seed`` (anything accepted by
    ``numpy.random.default_rng``, whose PCG64/ziggurat streams are stable
    across platforms).
    """
    if not (1 <= r <= min(s, n2) and r <= s <= n1):
        raise InvalidDimensionError(
            f"need 1 <= r <= min(s, n2) and r <= s <= n1, got r={r}, s={s}, "
            f"n1={n1}, n2={n2}"
        )
    rng = np.random.default_rng(seed)
    # degenerate draws (zero rows, rank collapse) have probability zero but
    # are regenerated rather than propagated
    for _ in range(100):
        support = np.sort(rng.choice(n1, size=s, replace=False))
        U = np.zeros((n1, r))
        U[support] = rng.standard_normal((s, r))
        d = rng.standard_normal(r)
        V = rng.standard_normal((n2, r))
        X = (U * d) @ V.T
        nrm = np.linalg.norm(X)
        if nrm == 0.0:
            continue
        X = X / nrm
        sig = np.linalg.svd(X, compute_uv=False)
        if int(np.sum(sig > NUMERIC_RANK_RTOL * sig[0])) != r:
            continue
        if np.any(np.linalg.norm(X[support], axis=1) == 0.0):
            continue
        return GroundTruth(X=X, support=support, rank=r, row_sparsity=s)
    raise RuntimeError("could not draw a non-degenerate ground truth")


def row_norms(X: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms of X."""
    return np.linalg.norm(X, axis=1)


def _row_order(norms: np.ndarray) -> np.ndarray:
    # nonincreasing by norm; ties keep the smaller row index first
    return np.argsort(-norms, kind="stable")


def rho(X: np.ndarray, i: int) -> float:
    """i-th largest row l2-norm of X (1-based rank, ties by smaller index)."""
    X = as_matrix(X)
    if not 1 <= i <= X.shape[0]:
        raise IndexError(f"rank index {i} outside [1, {X.shape[0]}]")
    norms = row_norms(X)
    return float(norms[_row_order(norms)[i - 1]])


def hard_threshold_rows(X: np.ndarray, s: int) -> np.ndarray:
    """Zero all but the s largest-in-l2-norm rows of X.

    Ties are resolved toward the smallest row index.
    """
    X = as_matrix(X)
    if not 0 <= s <= X.shape[0]:
        raise InvalidDimensionError(f"s={s} outside [0, {X.shape[0]}]")
    out = np.zeros_like(X)
    if s:
        keep = _row_order(row_norms(X))[:s]
        out[keep] = X[keep]
    return out


def truncate_rank(X: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r Frobenius approximation of X (keep r dominant triplets)."""
    X = as_matrix(X)
    if not 0 <= r <= min(X.shape):
        raise InvalidDimensionError(f"r={r} outside [0, {min(X.shape)}]")
    if r == 0:
        return np.zeros_like(X)
    if r == min(X.shape):
        return X.copy()
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    return (U[:, :r] * sig[:r]) @ Vt[:r]


def _check_orthonormal(M: np.ndarray, name: str, tol: float = 1e-8):
    k = M.shape[1]
    if k and np.max(np.abs(M.T @ M - np.eye(k))) > tol:
        raise ValueError(f"{name} does not have orthonormal columns")


def project_tangent(Z, U, V, S=None) -> np.ndarray:
    """Orthogonal projection of Z onto the rank manifold's tangent space at
    (U, V), optionally restricted to the row support S.

    Without S: ``U U' Z + Z V V' - U U' Z V V'``. With S the middle term is
    restricted to the rows in S; U's rows must then be supported inside S.
    """
    Z = as_matrix(Z)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    _check_orthonormal(U, "U")
    _check_orthonormal(V, "V")
    UtZ = U.T @ Z
    core = U @ (UtZ @ V) @ V.T
    if S is None:
        return U @ UtZ + (Z @ V) @ V.T - core
    S = np.asarray(S, dtype=int)
    outside = np.setdiff1d(np.arange(Z.shape[0]), S)
    if U.size and np.any(np.linalg.norm(U[outside], axis=1) > 1e-10):
        raise ValueError("supp(U) must be contained in S")
    ZVVt = (Z @ V) @ V.T
    restricted = np.zeros_like(Z)
    restricted[S] = ZVVt[S]
    return U @ UtZ + restricted - core


def rel_frobenius_error(X: np.ndarray, X_ref: np.ndarray) -> float:
    """Relative Frobenius error |X - X_ref|_F / |X_ref|_F."""
    X = as_matrix(X)
    X_ref = as_matrix(X_ref)
    if X.shape != X_ref.shape:
        raise InvalidDimensionError("shape mismatch")
    ref = np.linalg.norm(X_ref)
    if ref == 0.0:
        raise ZeroDivisionError("reference matrix has zero norm")
    return float(np.linalg.norm(X - X_ref) / ref)
