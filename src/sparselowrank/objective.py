"""Smoothed logarithmic surrogate objective: a scalar kernel that is quadratic
below a threshold and logarithmic above it, summed over singular values
(spectral part) and over row l2-norms (sparsity part), plus the exact
gradients and the quadratic models built around a reference point.

Every function of an iterate takes a matrix or a ``core.Spectrum``; given a
spectrum, it reads the singular values, singular vectors and row norms
computed there instead of taking its own SVD. Infinite smoothing parameters
select the pure quadratic branch everywhere, which makes the algorithm's
initial state well-defined without special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_spectrum
from .weights import apply_w_lowrank, apply_w_sparse, build_weight

__all__ = [
    "SmoothingParams",
    "f_tau",
    "f_lowrank",
    "f_sparse",
    "f_total",
    "grad_f_sparse",
    "grad_f_lowrank",
    "q_lowrank",
    "q_sparse",
]

#: singular values below this fraction of sigma_1 are treated as exact zeros
#: before the scalar kernel is applied (f(0) = 0, so this only suppresses
#: log-of-roundoff noise)
_SV_CLAMP_RTOL = 1e-14


@dataclass(frozen=True)
class SmoothingParams:
    """Spectral (eps) and row (delta) smoothing thresholds; both > 0,
    infinity meaning the fully quadratic regime."""

    eps: float
    delta: float

    def __post_init__(self):
        if not (self.eps > 0 and self.delta > 0):
            raise ValueError(f"smoothing parameters must be positive, got {self}")


def f_tau(t, tau: float):
    """Kernel, elementwise over t: t^2/2 for |t| <= tau, else
    (tau^2/2) log(e t^2/tau^2). A scalar t gives a float."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    t = np.abs(np.asarray(t, dtype=float))
    # min(|t|, tau)^2 / 2 scaled by 1 + log((|t|/tau)^2) above the threshold;
    # an infinite tau leaves the quadratic branch everywhere
    out = 0.5 * np.minimum(t, tau) ** 2 * (1.0 + 2.0 * np.log(np.maximum(t / tau, 1.0)))
    return float(out) if out.ndim == 0 else out


def f_lowrank(X, eps: float) -> float:
    """Spectral part: sum of the kernel over the singular values of X."""
    sig = as_spectrum(X).sigma
    if sig[0] > 0:
        sig = np.where(sig < _SV_CLAMP_RTOL * sig[0], 0.0, sig)
    return float(np.sum(f_tau(sig, eps)))


def f_sparse(X, delta: float) -> float:
    """Sparsity part: sum of the kernel over the row l2-norms of X."""
    return float(np.sum(f_tau(as_spectrum(X).row_norms, delta)))


def f_total(X, params: SmoothingParams) -> float:
    """Full surrogate objective, spectral plus sparsity part."""
    X = as_spectrum(X)
    return f_lowrank(X, params.eps) + f_sparse(X, params.delta)


def grad_f_sparse(X, delta: float) -> np.ndarray:
    """Gradient of the sparsity part: row i is delta^2 X_i / max(|X_i|^2, delta^2)."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    spec = as_spectrum(X)
    if math.isinf(delta):
        return spec.X.copy()
    scale = delta**2 / np.maximum(spec.row_norms**2, delta**2)
    return scale[:, None] * spec.X


def grad_f_lowrank(X, eps: float) -> np.ndarray:
    """Gradient of the spectral part: U diag(sigma_i min(eps^2/sigma_i^2, 1)) V'."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    spec = as_spectrum(X)
    if math.isinf(eps):
        return spec.X.copy()
    U, sig, Vt = spec.svd
    scaled = np.where(sig > eps, eps**2 / np.maximum(sig, eps), sig)
    return (U * scaled) @ Vt


def q_lowrank(Z, X, eps: float) -> float:
    """Quadratic model of the spectral part anchored at X.

    ``f_lowrank(X) + <grad, Z - X> + 0.5 <Z - X, W_lr (Z - X)>`` with the
    spectral weight built from (X, eps). Majorizes ``f_lowrank`` globally.
    The anchor's SVD is taken once and shared by all three terms.
    """
    X = as_spectrum(X)
    ws = build_weight(X, eps, np.inf)
    D = as_spectrum(Z).X - X.X
    return (
        f_lowrank(X, eps)
        + float(np.sum(grad_f_lowrank(X, eps) * D))
        + 0.5 * float(np.sum(D * apply_w_lowrank(ws, D)))
    )


def q_sparse(Z, X, delta: float) -> float:
    """Quadratic model of the sparsity part anchored at X (see ``q_lowrank``)."""
    X = as_spectrum(X)
    ws = build_weight(X, np.inf, delta)
    D = as_spectrum(Z).X - X.X
    return (
        f_sparse(X, delta)
        + float(np.sum(grad_f_sparse(X, delta) * D))
        + 0.5 * float(np.sum(D * apply_w_sparse(ws, D)))
    )
