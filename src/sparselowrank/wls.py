"""Linearly constrained weighted least squares: minimize <X, W(X)> subject to
A(X) = y.

The minimizer is characterized by feasibility together with W(X) being
orthogonal to the kernel of A, and can be written through the dual system
(A W^{-1} A*) lambda = y with X = W^{-1}(A*(lambda)).

The solve eliminates W^{-1} through its Sherman-Morrison-Woodbury split and
solves one symmetric dense system of size m + s_k n2 built from well-scaled
blocks. This stays accurate as the smoothing parameters (and with them the
smallest eigenvalues of W) approach zero, where the dual system itself
becomes too ill-conditioned to solve in floating point.
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


def _solve_direct(Amat, y, ws: WeightState, n1, n2):
    """Augmented SMW solve; returns (X, regularized_flag)."""
    m = Amat.shape[0]
    act = ws.active_rows
    B2iA = apply_b2_inv(ws, Amat.reshape(m, n1, n2)).reshape(m, n1 * n2)
    G0 = Amat @ B2iA.T
    if len(act):
        q = len(act) * n2
        N2 = B2iA.reshape(m, n1, n2)[:, act, :].reshape(m, q)
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
        # consistent but rank-deficient ensemble (e.g. the Hermitian
        # redundancy of Fourier measurements): shift the Gram block
        tau = 1e-12 * np.trace(G0) / m
        K = K.copy()
        K[np.arange(m), np.arange(m)] += tau
        sol = attempt(K)
        regularized = True
        if sol is None:
            raise sla.LinAlgError("weighted least squares system is singular")
    lam = sol[:m]
    M = (Amat.T @ lam).reshape(n1, n2)
    if len(act):
        M = M.copy()
        M[act] += sol[m:].reshape(len(act), n2)
    return apply_b2_inv(ws, M), regularized


def solve_wls(op: MeasurementOperator, y: np.ndarray, ws: WeightState) -> WlsSolution:
    """Minimize <X, W(X)> over A(X) = y; the feasibility residual of the
    result is reported, not enforced."""
    y = op.check_data(y)
    n1, n2 = op.dims
    if (ws.n1, ws.n2) != (n1, n2):
        raise ValueError("weight state dimensions disagree with the operator")

    X, regularized = _solve_direct(op.as_matrix(), y, ws, n1, n2)
    y_norm = np.linalg.norm(y)
    res = np.linalg.norm(op.apply(X) - y) / y_norm if y_norm > 0 else 0.0
    return WlsSolution(X=X, constraint_residual=float(res), regularized=regularized)
