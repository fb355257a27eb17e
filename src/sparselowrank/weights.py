"""The per-iteration weight operator: a low-rank-promoting spectral part plus
a diagonal row-scaling part, built from the current iterate and the smoothing
thresholds.

The spectral part is applied in the implicit two-sided form
``(I + U(D-I)U') Z (I + V(D-I)V')`` so the orthogonal complements of U and V
are never materialized. The inverse is available in closed form through a
Sherman-Morrison-Woodbury factorization that splits the operator into
``(spectral part + Id)`` (invertible entry-wise in the singular bases) plus a
row-diagonal correction supported on the s_k heavy rows; the small SMW system
has size s_k * n2 and is factored once per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .core import as_matrix, row_norms

__all__ = [
    "WeightState",
    "build_weight",
    "identity_weight",
    "apply_w_lowrank",
    "apply_w_sparse",
    "apply_w",
    "apply_w_inv",
    "IterationLimitError",
]

#: relative slack for "sigma_i numerically equal to eps counts as <= eps"
_EPS_TIE_RTOL = 1e-12


class IterationLimitError(RuntimeError):
    """An inverse application missed its residual target; carries the
    residual achieved."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class WeightState:
    """Frozen per-iteration weight data.

    U, V hold the r_k leading singular vectors of the iterate (only triplets
    with sigma_i strictly above eps are retained); ``sp_diag`` is the
    row-scaling diagonal with entries in (0, 1].
    """

    n1: int
    n2: int
    U: np.ndarray        # n1 x r_k
    V: np.ndarray        # n2 x r_k
    sigma: np.ndarray    # r_k leading singular values, all > eps
    eps: float
    delta: float
    r_k: int
    s_k: int
    row_norms: np.ndarray  # n1
    sp_diag: np.ndarray    # n1, entries in (0, 1]

    def __post_init__(self):
        if self.r_k != self.sigma.shape[0]:
            raise ValueError("r_k disagrees with the number of stored triplets")
        if self.r_k and not np.all(self.sigma > self.eps):
            raise ValueError("stored singular values must exceed eps")
        if np.any(self.sp_diag <= 0) or np.any(self.sp_diag > 1):
            raise ValueError("sparsity diagonal must lie in (0, 1]")
        for M, n in ((self.U, self.n1), (self.V, self.n2)):
            if M.shape != (n, self.r_k):
                raise ValueError("factor shapes disagree with dimensions")
            if self.r_k and np.max(np.abs(M.T @ M - np.eye(self.r_k))) > 1e-10:
                raise ValueError("singular vector blocks are not orthonormal")

    # -- derived quantities ------------------------------------------------

    @cached_property
    def d(self) -> np.ndarray:
        """min(eps / sigma_i, 1) on the retained triplets (all < 1)."""
        if self.r_k == 0:
            return np.zeros(0)
        return self.eps / self.sigma

    @cached_property
    def active_rows(self) -> np.ndarray:
        """Rows whose scaling is strictly below one (norm above delta)."""
        return np.where(self.sp_diag < 1.0)[0]

    @cached_property
    def _b2_coeffs(self):
        # Hadamard coefficients of (W_lr + Id)^{-1} in the singular bases:
        # blocks 1/(1 + d_i d_j), 1/(1 + d_i), and 1/2 on the complement
        d = self.d
        return 1.0 / (1.0 + np.outer(d, d)), 1.0 / (1.0 + d)

    @cached_property
    def _smw_factor(self):
        """LU factorization of the small SMW system over the active rows."""
        if len(self.active_rows) == 0:
            return None
        return sla.lu_factor(smw_core_matrix(self))


def build_weight(X: np.ndarray, eps: float, delta: float) -> WeightState:
    """Construct the weight state from an iterate and smoothing thresholds.

    eps and delta must be positive; infinity selects the identity behavior of
    the corresponding part (the applied operator is then 2 * Id overall).
    Singular values within relative 1e-12 of eps count as <= eps.
    """
    if not (eps > 0 and delta > 0):
        raise ValueError("smoothing parameters must be positive")
    X = as_matrix(X)
    n1, n2 = X.shape
    norms = row_norms(X)
    if math.isinf(delta):
        sp_diag = np.ones(n1)
        s_k = 0
    else:
        sp_diag = np.minimum(delta**2 / np.maximum(norms**2, 1e-300), 1.0)
        s_k = int(np.sum(norms > delta))
    if math.isinf(eps):
        U = np.zeros((n1, 0))
        V = np.zeros((n2, 0))
        sigma = np.zeros(0)
        r_k = 0
    else:
        Uf, sig, Vt = np.linalg.svd(X, full_matrices=False)
        r_k = int(np.sum(sig > eps * (1.0 + _EPS_TIE_RTOL)))
        U = Uf[:, :r_k]
        V = Vt[:r_k].T
        sigma = sig[:r_k]
    return WeightState(
        n1=n1, n2=n2, U=U, V=V, sigma=sigma, eps=eps, delta=delta,
        r_k=r_k, s_k=s_k, row_norms=norms, sp_diag=sp_diag,
    )


def smw_core_matrix(ws: WeightState) -> np.ndarray:
    """Dense SMW core C^{-1} + E' (W_lr + Id)^{-1} E over the active rows.

    E embeds the active rows into matrix space; C is the diagonal row
    correction (sp_diag - 1) there. All blocks are assembled in closed form
    from U, V and the Hadamard coefficients; size is s_k * n2.
    """
    act = ws.active_rows
    n2 = ws.n2
    sa = len(act)
    q = sa * n2
    if ws.r_k == 0:
        core = np.zeros((q, q))
        np.fill_diagonal(core, 0.5)
    else:
        K11, k1 = ws._b2_coeffs
        Ua = ws.U[act]
        V = ws.V
        pu_perp = np.eye(sa) - Ua @ Ua.T
        pv_perp = np.eye(n2) - V @ V.T
        core = (
            0.5 * np.kron(pu_perp, pv_perp)
            + np.kron(Ua @ (k1[:, None] * Ua.T), pv_perp)
            + np.kron(pu_perp, V @ (k1[:, None] * V.T))
        )
        cross = (Ua[:, None, :, None] * V[None, :, None, :]).reshape(q, ws.r_k**2)
        core += cross @ (K11.ravel()[:, None] * cross.T)
    core[np.arange(q), np.arange(q)] += np.repeat(1.0 / (ws.sp_diag[act] - 1.0), n2)
    return core


def identity_weight(n1: int, n2: int) -> WeightState:
    """Weight state with infinite smoothing (applied operator is 2 * Id)."""
    return WeightState(
        n1=n1, n2=n2, U=np.zeros((n1, 0)), V=np.zeros((n2, 0)),
        sigma=np.zeros(0), eps=np.inf, delta=np.inf, r_k=0, s_k=0,
        row_norms=np.zeros(n1), sp_diag=np.ones(n1),
    )


def _left_apply(ws: WeightState, Z: np.ndarray) -> np.ndarray:
    # (I + U(D-I)U') Z, broadcast over leading stack axes
    if ws.r_k == 0:
        return Z
    shift = ws.d - 1.0
    return Z + ws.U @ (shift[:, None] * (ws.U.T @ Z))


def _right_apply(ws: WeightState, Z: np.ndarray) -> np.ndarray:
    if ws.r_k == 0:
        return Z
    shift = ws.d - 1.0
    return Z + ((Z @ ws.V) * shift) @ ws.V.T


def apply_w_lowrank(ws: WeightState, Z: np.ndarray) -> np.ndarray:
    """Spectral part: (I + U(D-I)U') Z (I + V(D-I)V'), D = diag(min(eps/sigma, 1))."""
    Z = np.asarray(Z, dtype=float)
    return _right_apply(ws, _left_apply(ws, Z))


def apply_w_sparse(ws: WeightState, Z: np.ndarray) -> np.ndarray:
    """Row-scaling part: row i multiplied by min(delta^2 / |X_i|^2, 1)."""
    Z = np.asarray(Z, dtype=float)
    return ws.sp_diag[..., :, None] * Z


def apply_w(ws: WeightState, Z: np.ndarray) -> np.ndarray:
    """Full weight operator, spectral part plus row-scaling part."""
    return apply_w_lowrank(ws, Z) + apply_w_sparse(ws, Z)


def apply_b2_inv(ws: WeightState, Z: np.ndarray) -> np.ndarray:
    """Closed-form inverse of (spectral part + Id) applied to Z.

    Z may be a single matrix or a stack (..., n1, n2). All Hadamard
    coefficients lie in [1/2, 1), so this application is unconditionally
    stable.
    """
    Z = np.asarray(Z, dtype=float)
    if ws.r_k == 0:
        return Z / 2.0
    U, V = ws.U, ws.V
    K11, k1 = ws._b2_coeffs
    UtZ = np.swapaxes(np.swapaxes(Z, -1, -2) @ U, -1, -2)  # U' Z, stack-safe
    ZV = Z @ V
    M11 = UtZ @ V
    t_core = U @ (K11 * M11) @ np.swapaxes(V, 0, 1)
    t_left = U @ (k1[:, None] * (UtZ - M11 @ V.T))
    t_right = ((ZV - U @ M11) * k1) @ V.T
    t_perp = 0.5 * (Z - U @ UtZ - ZV @ V.T + U @ M11 @ V.T)
    return t_core + t_left + t_right + t_perp


def _smw_correction(ws: WeightState, Z0: np.ndarray) -> np.ndarray:
    """Given Z0 = B2^{-1}(Z), return the SMW-corrected W^{-1}(Z)."""
    act = ws.active_rows
    if len(act) == 0:
        return Z0
    rhs = Z0[act].ravel()
    mu = -sla.lu_solve(ws._smw_factor, rhs)
    E_mu = np.zeros((ws.n1, ws.n2))
    E_mu[act] = mu.reshape(len(act), ws.n2)
    return Z0 + apply_b2_inv(ws, E_mu)


def apply_w_inv(ws: WeightState, Z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Apply the inverse weight operator so that |W(W^{-1}Z) - Z|_F <= tol |Z|_F.

    Uses the closed-form SMW factorization and raises ``IterationLimitError``
    when the round-trip residual misses the target.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    Z = as_matrix(Z)
    if Z.shape != (ws.n1, ws.n2):
        raise ValueError("dimension mismatch")
    z_norm = np.linalg.norm(Z)
    if z_norm == 0.0:
        return np.zeros_like(Z)

    out = _smw_correction(ws, apply_b2_inv(ws, Z))
    res = np.linalg.norm(apply_w(ws, out) - Z) / z_norm
    if res > tol:
        raise IterationLimitError("SMW inverse missed the residual target", res)
    return out
