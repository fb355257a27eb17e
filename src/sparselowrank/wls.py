"""Linearly constrained weighted least squares: minimize <X, W(X)> subject to
A(X) = y.

The minimizer is characterized by feasibility together with W(X) being
orthogonal to the kernel of A, and can be written through the dual system
(A W^{-1} A*) lambda = y with X = W^{-1}(A*(lambda)).

The solve eliminates W^{-1} through its Sherman-Morrison-Woodbury split
W = B2 + (row correction), B2 = (spectral part) + Id, and solves one
symmetric dense system of size m + s_k n2 built from well-scaled blocks.
This stays accurate as the smoothing parameters (and with them the
smallest eigenvalues of W) approach zero, where the dual system itself
becomes too ill-conditioned to solve in floating point.

The blocks are assembled in the tangent space of the rank-r_k iterate. With
k1 = 1/(1+d) and K11 = 1/(1+d d'), both in (1/2, 1),

    B2^{-1}Z = Z/2 + U diag(k1-1/2) U'Z P_V_perp + P_U_perp Z V diag(k1-1/2) V'
               + U ((K11-1/2) o U'ZV) V',

so the Gram block A B2^{-1}(A)' is A A'/2 plus the Grams of the blocks
U'A_j P_V_perp, P_U_perp A_j V and U'A_j V, scaled by the square roots of
those coefficients, and the cross block is the active rows of the same
expression. A A' is cached on the operator (m^2 floats), so an iteration
costs O(m^2 r_k (n1 + n2 + r_k)) instead of O(m^2 n1 n2).

The system uses only the rows ``op.independent_rows()`` names (all of them
by default). For the Fourier ensemble these are m_c of its 2 m_c real rows,
which determine the others for every real X, so its Gram block is not
singular. The feasibility residual is always measured with the full
operator against the full data, so data that the dropped rows contradict
shows there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .measurement import MeasurementOperator
from .weights import WeightState, apply_b2_inv, smw_core_matrix

__all__ = ["WlsSolution", "solve_wls"]


@dataclass(frozen=True)
class WlsSolution:
    """Solution of the constrained weighted least squares problem."""

    X: np.ndarray
    constraint_residual: float       # |A(X) - y|_2 / |y|_2
    regularized: bool                # a rank-deficiency shift was applied


def _assemble(A, gram, ws: WeightState, n1, n2):
    """Gram block G0 = A B2^{-1}(A)' and cross block N2 (the active rows of
    each B2^{-1}(A_j)), from the tangent-space blocks of the rows A_j."""
    m = A.shape[0]
    A3 = A.reshape(m, n1, n2)
    act = ws.active_rows
    G0 = gram / 2.0
    N2 = A3[:, act, :] / 2.0
    if ws.r_k:
        U, V = ws.U, ws.V
        K11, k1 = ws._b2_coeffs
        c, C = k1 - 0.5, K11 - 0.5
        AV = (A.reshape(m * n1, n2) @ V).reshape(m, n1, ws.r_k)
        M = U.T @ AV                            # U'A_j V
        L = U.T @ A3 - M @ V.T                  # U'A_j P_V_perp
        R = AV - U @ M                          # P_U_perp A_j V
        sc = np.sqrt(c)
        W = np.concatenate([
            (L * sc[:, None]).reshape(m, -1),
            (R * sc).reshape(m, -1),
            (M * np.sqrt(C)).reshape(m, -1),
        ], axis=1)
        G0 += W @ W.T
        if len(act):
            N2 += U[act] @ (c[:, None] * L + (C * M) @ V.T) + (R[:, act] * c) @ V.T
    return G0, N2.reshape(m, -1)


def _solve_direct(A, gram, y, ws: WeightState, n1, n2):
    """Augmented SMW solve; returns (X, regularized_flag)."""
    m = A.shape[0]
    act = ws.active_rows
    G0, N2 = _assemble(A, gram, ws, n1, n2)
    if len(act):
        q = len(act) * n2
        K = np.empty((m + q, m + q))
        K[:m, :m] = G0
        K[:m, m:] = N2
        K[m:, :m] = N2.T
        K[m:, m:] = smw_core_matrix(ws)
        rhs = np.concatenate([y, np.zeros(q)])
    else:
        K = G0
        rhs = y

    def attempt(mat):
        # classical condition estimates are meaningless here: the system is
        # intentionally stiff once the smoothing is small, and the solution
        # is validated through the feasibility residual instead
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                sol = sla.solve(mat, rhs, assume_a="sym")
        except (sla.LinAlgError, ValueError):
            return None
        return sol if np.all(np.isfinite(sol)) else None

    sol = attempt(K)
    regularized = False
    if sol is None:
        # guard for operators whose rows are dependent (an injected matrix):
        # shift the Gram block
        tau = 1e-12 * np.trace(G0) / m
        K = K.copy()
        K[np.arange(m), np.arange(m)] += tau
        sol = attempt(K)
        regularized = True
        if sol is None:
            raise sla.LinAlgError("weighted least squares system is singular")
    lam = sol[:m]
    M = (A.T @ lam).reshape(n1, n2)
    if len(act):
        M[act] += sol[m:].reshape(len(act), n2)
    return apply_b2_inv(ws, M), regularized


def solve_wls(op: MeasurementOperator, y: np.ndarray, ws: WeightState) -> WlsSolution:
    """Minimize <X, W(X)> over A(X) = y; the feasibility residual of the
    result is reported, not enforced."""
    y = op.check_data(y)
    n1, n2 = op.dims
    if (ws.n1, ws.n2) != (n1, n2):
        raise ValueError("weight state dimensions disagree with the operator")

    A, gram = op.system_matrix()
    rows = op.independent_rows()
    X, regularized = _solve_direct(A, gram, y if rows is None else y[rows], ws, n1, n2)
    y_norm = np.linalg.norm(y)
    res = np.linalg.norm(op.apply(X) - y) / y_norm if y_norm > 0 else 0.0
    return WlsSolution(X=X, constraint_residual=float(res), regularized=regularized)
