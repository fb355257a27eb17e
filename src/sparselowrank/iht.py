"""Projection-based iterative hard thresholding baseline.

Iterates X <- T_r(H_s(X - mu_k A*(A(X) - y))) from the spectral
initialization T_r(H_s(A*(y))), where H_s keeps the s heaviest rows and T_r
truncates to rank r. The adaptive step is an exact line search along the
gradient restricted to the tangent estimate at the current iterate. This is
a stand-in comparison baseline assembled from the same projection machinery
as the main algorithm, not a reproduction of any published competitor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    GroundTruth,
    hard_threshold_rows,
    project_tangent,
    rel_frobenius_error,
    truncate_rank,
)
from .irls import IterateRecord, IterateTrace, RecoveryResult
from .measurement import MeasurementOperator

__all__ = ["IhtConfig", "run_iht"]


@dataclass(frozen=True)
class IhtConfig:
    """Model orders and stepping policy for the hard-thresholding baseline."""

    r: int
    s: int
    step_size: float | str = "adaptive"
    max_iter: int = 2000
    tol: float = 1e-10          # on the restricted-gradient norm
    divergence_factor: float = 1e3

    def validate(self, n1, n2):
        if not 1 <= self.r <= min(n1, n2):
            raise ValueError(f"r={self.r} outside [1, {min(n1, n2)}]")
        if not 1 <= self.s <= n1:
            raise ValueError(f"s={self.s} outside [1, {n1}]")
        if self.step_size != "adaptive" and not float(self.step_size) >= 0:
            raise ValueError("step_size must be nonnegative or 'adaptive'")


def _project_model_set(Z, r, s):
    H = hard_threshold_rows(Z, s)
    out = truncate_rank(H, r)
    # rank truncation of a row-sparse matrix keeps its support; scrub the
    # roundoff the SVD reconstruction leaves in the zeroed rows
    out[np.linalg.norm(H, axis=1) == 0] = 0.0
    return out


def _restricted_gradient(X, G, r, s):
    """Project G onto the tangent estimate at X (rank-r factors, row support).

    Only triplets above the numeric rank are used: trailing singular vectors
    of a rank-deficient iterate are arbitrary and need not respect its row
    support.
    """
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    # triplets near the noise level have inaccurate vectors; they contribute
    # nothing to the tangent estimate
    k = min(r, int(np.sum(sig > 1e-8 * max(sig[0], 1e-300))))
    if k == 0:
        return G
    U, V = U[:, :k], Vt[:k].T
    support = np.where(np.linalg.norm(X, axis=1) > 0)[0]
    if len(support) == 0 or len(support) > s:
        return project_tangent(G, U, V)
    # U vanishes off the support of X up to SVD roundoff; scrub it exactly
    mask = np.zeros(X.shape[0], dtype=bool)
    mask[support] = True
    U = np.where(mask[:, None], U, 0.0)
    return project_tangent(G, U, V, support)


def run_iht(
    op: MeasurementOperator,
    y: np.ndarray,
    config: IhtConfig,
    ground_truth: GroundTruth | np.ndarray | None = None,
) -> RecoveryResult:
    n1, n2 = op.dims
    config.validate(n1, n2)
    y = op.check_data(y)
    X_ref = ground_truth.X if isinstance(ground_truth, GroundTruth) else ground_truth

    X = _project_model_set(op.adjoint(y), config.r, config.s)
    trace = IterateTrace()
    termination = "max_iter"
    t0 = time.perf_counter()
    baseline = None  # divergence reference: initial error or data norm

    for k in range(1, config.max_iter + 1):
        residual = op.apply(X) - y
        G = op.adjoint(residual)
        Gt = _restricted_gradient(X, G, config.r, config.s)
        gt_norm = np.linalg.norm(Gt)

        if config.step_size == "adaptive":
            AGt = op.apply(Gt)
            denom = float(AGt @ AGt)
            mu = gt_norm**2 / denom if denom > 0 else 0.0
        else:
            mu = float(config.step_size)

        X_new = _project_model_set(X - mu * G, config.r, config.s)
        gap = np.linalg.norm(X_new - X)
        X = X_new

        err = rel_frobenius_error(X, X_ref) if X_ref is not None else math.nan
        gauge = err if X_ref is not None else float(np.linalg.norm(residual))
        if baseline is None:
            baseline = max(gauge, 1e-300)
        support_size = int(np.sum(np.linalg.norm(X, axis=1) > 0))
        trace.append(IterateRecord(
            k=k, eps=math.nan, delta=math.nan, r_k=config.r, s_k=support_size,
            rel_change=float(gap / max(np.linalg.norm(X), 1e-300)),
            f_lowrank=math.nan, f_sparse=math.nan, f_total=math.nan,
            rel_error=err, wall_time_s=time.perf_counter() - t0,
            eps_floored=False, delta_floored=False,
        ))

        if gauge > config.divergence_factor * baseline:
            termination = "diverged"
            break
        if gt_norm < config.tol:
            termination = "tolerance"
            break

    return RecoveryResult(
        X=X, iterations=len(trace), termination=termination, trace=trace,
        algorithm="iht",
    )
