"""Outer loop of the iteratively reweighted least squares method for
simultaneously row-sparse and low-rank recovery: weighted least squares step,
smoothing update, weight rebuild, stopping, and full iterate traces.

The first iteration runs with the identity-scaled weight (infinite smoothing),
which makes it the plain minimum-Frobenius-norm interpolant of the data. The
smoothing thresholds then track the (r~+1)-st singular value and the
(s~+1)-st largest row norm, never increasing.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import GroundTruth, rel_frobenius_error, rho
from .measurement import MeasurementOperator
from .objective import SmoothingParams, f_lowrank, f_sparse, f_total, q_lowrank, q_sparse
from .weights import build_weight, identity_weight
from .wls import solve_wls

__all__ = [
    "IrlsConfig",
    "IterateRecord",
    "IterateTrace",
    "RecoveryResult",
    "run_irls",
    "update_smoothing",
    "check_mm_step",
    "MmStepReport",
    "fit_quadratic_rate",
    "QuadraticRateFit",
    "TRACE_COLUMNS",
]


@dataclass(frozen=True)
class IrlsConfig:
    """Driver configuration.

    r_tilde and s_tilde are the rank and row-sparsity estimates handed to the
    smoothing schedule; the floors keep the weight operator finite when a run
    reaches exact recovery before the relative-change test fires.
    """

    r_tilde: int
    s_tilde: int
    max_iter: int = 250
    tol_rel_change: float = 1e-10
    eps_floor: float = 1e-14
    delta_floor: float = 1e-14
    trace_objective: bool = True
    keep_iterates: bool = False  # retain every iterate on the result (diagnostics)

    def validate(self, n1: int, n2: int):
        if not 1 <= self.r_tilde <= min(n1, n2):
            raise ValueError(f"r_tilde={self.r_tilde} outside [1, {min(n1, n2)}]")
        if not 1 <= self.s_tilde <= n1:
            raise ValueError(f"s_tilde={self.s_tilde} outside [1, {n1}]")
        if self.eps_floor <= 0 or self.delta_floor <= 0:
            raise ValueError("smoothing floors must be positive")


@dataclass(frozen=True)
class IterateRecord:
    k: int
    eps: float
    delta: float
    r_k: int
    s_k: int
    rel_change: float
    f_lowrank: float
    f_sparse: float
    f_total: float
    rel_error: float          # nan when no ground truth was supplied
    wall_time_s: float
    eps_floored: bool
    delta_floored: bool


TRACE_COLUMNS = [
    "k", "eps", "delta", "r_k", "s_k", "rel_change",
    "f_lowrank", "f_sparse", "f_total", "rel_error", "wall_time_s",
    "eps_floored", "delta_floored",
]


@dataclass
class IterateTrace:
    """Per-iteration log; one record per outer iteration."""

    records: list[IterateRecord] = field(default_factory=list)

    def append(self, rec: IterateRecord):
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def errors(self) -> np.ndarray:
        return np.array([r.rel_error for r in self.records])

    def objectives(self) -> np.ndarray:
        return np.array([r.f_total for r in self.records])

    def max_objective_increase(self) -> float:
        """Largest one-step increase of the traced objective (0 if monotone)."""
        f = self.objectives()
        if len(f) < 2:
            return 0.0
        return float(max(0.0, np.max(f[1:] - f[:-1])))

    def write_csv(self, target):
        """Write the trace to a path or file object (17 significant digits)."""
        if hasattr(target, "write"):
            self._write(target)
        else:
            with open(target, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in self.records:
            writer.writerow([
                r.k,
                _fmt(r.eps), _fmt(r.delta), r.r_k, r.s_k, _fmt(r.rel_change),
                _fmt(r.f_lowrank), _fmt(r.f_sparse), _fmt(r.f_total),
                _fmt(r.rel_error), _fmt(r.wall_time_s),
                int(r.eps_floored), int(r.delta_floored),
            ])

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class RecoveryResult:
    X: np.ndarray
    iterations: int
    termination: str            # "tolerance" | "max_iter" | "smoothing_floor" | "diverged"
    trace: IterateTrace
    algorithm: str = "irls"
    iterates: list | None = None  # populated only when keep_iterates is set

    @property
    def final_error(self) -> float:
        return self.trace.records[-1].rel_error if self.trace.records else math.nan


def update_smoothing(
    X: np.ndarray,
    r_tilde: int,
    s_tilde: int,
    eps_prev: float,
    delta_prev: float,
    eps_floor: float = 1e-14,
    delta_floor: float = 1e-14,
):
    """One smoothing update: eps = min(eps_prev, sigma_{r~+1}(X)) and
    delta = min(delta_prev, rho_{s~+1}(X)), both clamped below at their
    floors.

    Returns (SmoothingParams, eps_floored, delta_floored).
    """
    n1, n2 = X.shape
    sig = np.linalg.svd(X, compute_uv=False)
    sig_next = float(sig[r_tilde]) if r_tilde < len(sig) else 0.0
    rho_next = rho(X, s_tilde + 1) if s_tilde + 1 <= n1 else 0.0
    eps = min(eps_prev, sig_next)
    delta = min(delta_prev, rho_next)
    eps_floored = eps < eps_floor
    delta_floored = delta < delta_floor
    return (
        SmoothingParams(eps=max(eps, eps_floor), delta=max(delta, delta_floor)),
        eps_floored,
        delta_floored,
    )


def run_irls(
    op: MeasurementOperator,
    y: np.ndarray,
    config: IrlsConfig,
    ground_truth: GroundTruth | np.ndarray | None = None,
) -> RecoveryResult:
    """Run the full reweighted scheme until the relative iterate change drops
    below tolerance, the iteration budget is reached, or both smoothing
    parameters sit at their floors."""
    n1, n2 = op.dims
    config.validate(n1, n2)
    y = op.check_data(y)
    X_ref = ground_truth.X if isinstance(ground_truth, GroundTruth) else ground_truth

    ws = identity_weight(n1, n2)
    eps_prev, delta_prev = math.inf, math.inf
    X = None
    trace = IterateTrace()
    termination = "max_iter"
    t0 = time.perf_counter()
    iterates = [] if config.keep_iterates else None

    for k in range(1, config.max_iter + 1):
        try:
            sol = solve_wls(op, y, ws)
        except Exception as exc:
            raise RuntimeError(f"WLS solve failed at iteration {k}") from exc
        if sol.constraint_residual > 1e-6:
            raise RuntimeError(
                f"WLS solve lost feasibility at iteration {k} "
                f"(residual {sol.constraint_residual:.3e})"
            )
        X_new = sol.X
        if X is None:
            rel_change = math.inf
        else:
            denom = np.linalg.norm(X_new)
            rel_change = float(np.linalg.norm(X_new - X) / denom) if denom > 0 else 0.0
        X = X_new
        if iterates is not None:
            iterates.append(X.copy())

        params, eps_fl, delta_fl = update_smoothing(
            X, config.r_tilde, config.s_tilde, eps_prev, delta_prev,
            config.eps_floor, config.delta_floor,
        )
        eps_prev, delta_prev = params.eps, params.delta
        ws = build_weight(X, params.eps, params.delta)

        if config.trace_objective:
            flr = f_lowrank(X, params.eps)
            fsp = f_sparse(X, params.delta)
        else:
            flr = fsp = math.nan
        err = rel_frobenius_error(X, X_ref) if X_ref is not None else math.nan
        trace.append(IterateRecord(
            k=k, eps=params.eps, delta=params.delta, r_k=ws.r_k, s_k=ws.s_k,
            rel_change=rel_change, f_lowrank=flr, f_sparse=fsp,
            f_total=flr + fsp, rel_error=err,
            wall_time_s=time.perf_counter() - t0,
            eps_floored=eps_fl, delta_floored=delta_fl,
        ))

        if rel_change < config.tol_rel_change:
            termination = "tolerance"
            break
        if eps_fl and delta_fl:
            termination = "smoothing_floor"
            break

    return RecoveryResult(
        X=X, iterations=len(trace), termination=termination, trace=trace,
        iterates=iterates,
    )


@dataclass(frozen=True)
class MmStepReport:
    """Slacks of the two majorize-minimize inequalities across one step:
    surrogate(next) <= quadratic model(next | prev) <= surrogate(prev)."""

    f_next: float
    q_total: float
    f_prev: float

    @property
    def majorization_slack(self) -> float:
        return self.q_total - self.f_next

    @property
    def descent_slack(self) -> float:
        return self.f_prev - self.q_total

    def ok(self, tol: float = 1e-9) -> bool:
        return self.majorization_slack >= -tol and self.descent_slack >= -tol


def check_mm_step(X_prev, X_next, eps: float, delta: float) -> MmStepReport:
    """Evaluate both majorize-minimize inequalities for consecutive iterates.

    Violations are reported through the slacks, never raised; the first
    inequality holds for arbitrary matrix pairs, the second only along
    trajectories of the algorithm.
    """
    params = SmoothingParams(eps=eps, delta=delta)
    q = q_lowrank(X_next, X_prev, eps) + q_sparse(X_next, X_prev, delta)
    return MmStepReport(
        f_next=f_total(X_next, params),
        q_total=q,
        f_prev=f_total(X_prev, params),
    )


@dataclass(frozen=True)
class QuadraticRateFit:
    """Fitted local quadratic contraction err_{k+1} <= mu_hat err_k^2."""

    ok: bool
    mu_hat: float
    window_start: int       # index into the error sequence (0-based pair index)
    window_len: int
    ratios: np.ndarray

    @property
    def spread(self) -> float:
        if self.window_len == 0:
            return math.inf
        w = self.ratios[self.window_start:self.window_start + self.window_len]
        return float(np.max(w) / np.min(w))


def fit_quadratic_rate(
    errors,
    min_window: int = 3,
    max_spread: float = 10.0,
    ceiling: float = 0.9,
    floor: float = 5e-13,
) -> QuadraticRateFit:
    """Scan an error trace for a quadratic-contraction window.

    Considers consecutive pairs with err_k <= ceiling (inside the contraction
    region) and err_{k+1} >= floor (above the numerical noise floor), forms
    the ratios err_{k+1} / err_k^2, and looks for >= min_window consecutive
    ratios whose spread stays below max_spread. mu_hat is the largest ratio
    in the best window, so the contraction inequality holds throughout it.
    """
    e = np.asarray(list(errors), dtype=float)
    ratios = np.full(max(len(e) - 1, 0), np.nan)
    for i in range(len(e) - 1):
        if floor <= e[i + 1] and 0 < e[i] <= ceiling:
            ratios[i] = e[i + 1] / e[i] ** 2
    best = (0, 0)  # (length, start)
    for i in range(len(ratios)):
        if not np.isfinite(ratios[i]):
            continue
        lo = hi = ratios[i]
        for j in range(i, len(ratios)):
            if not np.isfinite(ratios[j]):
                break
            lo, hi = min(lo, ratios[j]), max(hi, ratios[j])
            if hi / lo >= max_spread:
                break
            if j - i + 1 > best[0]:
                best = (j - i + 1, i)
    length, start = best
    if length >= min_window:
        mu = float(np.max(ratios[start:start + length]))
        return QuadraticRateFit(True, mu, start, length, ratios)
    return QuadraticRateFit(False, math.nan, start, length, ratios)
