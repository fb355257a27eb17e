"""Benchmark harness: phase-transition grids, convergence traces, objective
evolution, and near-isometry probes, with CSV/JSON outputs for offline
plotting.

Per-trial randomness derives from ``numpy.random.SeedSequence(base_seed,
spawn_key=(s, m, trial, stream))`` so any cell can run on any worker in any
order and still produce identical results. All floats are serialized with 17
significant digits; wall-clock fields can be zeroed through
``deterministic_output`` when byte-identical reruns are required.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy

from .core import generate_ground_truth, rel_frobenius_error
from .iht import IhtConfig, run_iht
from .irls import IrlsConfig, IterateTrace, _fmt, fit_quadratic_rate, run_irls
from .measurement import OPERATOR_FACTORIES

__all__ = [
    "ManifestError",
    "ExperimentManifest",
    "CellResult",
    "info_limit",
    "run_phase_grid",
    "run_convergence",
    "run_objective_evolution",
    "run_rip_probe",
    "run_experiment",
]

KINDS = ("phase-grid", "convergence", "objective-evolution", "rip-probe")
ALGORITHMS = ("irls", "iht")
POLICIES = ("exact", "overestimate")


class ManifestError(ValueError):
    """Invalid or inconsistent experiment manifest."""


def info_limit(r: int, s: int, n2: int) -> int:
    """Degrees of freedom of a rank-r, s-row-sparse matrix: r (s + n2 - r)."""
    return r * (s + n2 - r)


@dataclass(frozen=True)
class ExperimentManifest:
    kind: str
    n1: int
    n2: int
    r: int
    s_values: list
    measurement: str = "gaussian-dense"
    algorithms: list = field(default_factory=lambda: ["irls", "iht"])
    m_values: list | None = None        # explicit measurement counts
    m_factors: list | None = None       # multiples of the information limit
    model_order_policy: str = "exact"
    trials: int = 64
    base_seed: int = 0
    success_threshold: float = 1e-4
    out_dir: str = "bench_out"
    threads: int = 1
    irls_max_iter: int = 250
    iht_max_iter: int = 2000
    tol: float = 1e-10
    deterministic_output: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ManifestError(f"unknown experiment kind {self.kind!r}")
        if self.measurement not in OPERATOR_FACTORIES:
            raise ManifestError(f"unknown measurement kind {self.measurement!r}")
        if self.model_order_policy not in POLICIES:
            raise ManifestError(f"unknown model-order policy {self.model_order_policy!r}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ManifestError(f"unknown algorithm {alg!r}")
        for name in ("trials", "threads", "irls_max_iter", "iht_max_iter"):
            if getattr(self, name) < 1:
                raise ManifestError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.tol >= 0:
            raise ManifestError(f"tol must be >= 0, got {self.tol}")
        if not self.s_values:
            raise ManifestError("s_values must be non-empty")
        if (self.m_values is None) == (self.m_factors is None):
            raise ManifestError("exactly one of m_values / m_factors is required")
        if self.m_values is not None and not all(m >= 1 for m in self.m_values):
            raise ManifestError(f"m_values entries must be >= 1, got {self.m_values}")
        if self.m_factors is not None and not all(f > 0 for f in self.m_factors):
            raise ManifestError(f"m_factors entries must be > 0, got {self.m_factors}")
        for s in self.s_values:
            if not self.r <= s <= self.n1 or self.r > self.n2:
                raise ManifestError(f"grid value s={s} incompatible with r={self.r} "
                                    f"and dims ({self.n1}, {self.n2})")
            r_t, s_t = self.model_orders(s)
            r_max = min(self.n1, self.n2)
            if not (1 <= r_t <= r_max and 1 <= s_t <= self.n1):
                raise ManifestError(
                    f"{self.model_order_policy!r} model-order policy gives orders "
                    f"r={r_t}, s={s_t} at s={s}, outside [1, {r_max}] x [1, {self.n1}]"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentManifest":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ManifestError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "ExperimentManifest":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"malformed JSON manifest: {exc}") from None
        if not isinstance(data, dict):
            raise ManifestError("manifest must be a JSON object")
        return cls.from_dict(data)

    def resolve_m(self, s: int) -> list:
        if self.m_values is not None:
            return sorted(set(int(m) for m in self.m_values))
        limit = info_limit(self.r, s, self.n2)
        # floor keeps each resolved count within its stated multiple
        return sorted(set(max(1, math.floor(f * limit)) for f in self.m_factors))

    def model_orders(self, s: int) -> tuple:
        if self.model_order_policy == "exact":
            return self.r, s
        return 2 * self.r, int(math.floor(1.5 * s))


@dataclass(frozen=True)
class CellResult:
    s: int
    m: int
    success_count: int
    trials: int
    mean_error: float
    median_error: float
    mean_iters: float
    mean_time_ms: float
    failure_reasons: tuple = ()

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials


def _trial_seeds(base_seed, s, m, t):
    gt = np.random.SeedSequence(entropy=base_seed, spawn_key=(s, m, t, 0))
    op = np.random.SeedSequence(entropy=base_seed, spawn_key=(s, m, t, 1))
    return gt, op


def _build_instance(manifest: ExperimentManifest, s, m, t):
    gt_seed, op_seed = _trial_seeds(manifest.base_seed, s, m, t)
    gt = generate_ground_truth(manifest.n1, manifest.n2, manifest.r, s, gt_seed)
    op = OPERATOR_FACTORIES[manifest.measurement](manifest.n1, manifest.n2, m, op_seed)
    return gt, op, op.apply(gt.X)


def _solver_config(manifest: ExperimentManifest, alg: str, s: int):
    """Solver configuration for one algorithm at row sparsity s."""
    r_t, s_t = manifest.model_orders(s)
    if alg == "irls":
        return IrlsConfig(
            r_tilde=r_t, s_tilde=s_t, max_iter=manifest.irls_max_iter,
            tol_rel_change=manifest.tol,
        )
    return IhtConfig(r=r_t, s=s_t, max_iter=manifest.iht_max_iter, tol=manifest.tol)


def _solve(alg: str, op, y, cfg, gt):
    solver = run_irls if alg == "irls" else run_iht
    return solver(op, y, cfg, ground_truth=gt)


def _run_trial(manifest: ExperimentManifest, alg: str, s: int, m: int, t: int) -> dict:
    """One (algorithm, cell, trial) run; never raises, failures are recorded."""
    t0 = time.perf_counter()
    try:
        gt, op, y = _build_instance(manifest, s, m, t)
        result = _solve(alg, op, y, _solver_config(manifest, alg, s), gt)
        err = rel_frobenius_error(result.X, gt.X)
        return {
            "alg": alg, "s": s, "m": m, "trial": t,
            "error": err, "iterations": result.iterations,
            "time_ms": 1e3 * (time.perf_counter() - t0),
            "success": err < manifest.success_threshold,
            "reason": result.termination,
        }
    except Exception as exc:  # per-trial failures never abort the grid
        return {
            "alg": alg, "s": s, "m": m, "trial": t,
            "error": math.inf, "iterations": 0,
            "time_ms": 1e3 * (time.perf_counter() - t0),
            "success": False, "reason": f"error: {exc}",
        }


#: BLAS thread settings of pool workers: with one BLAS thread each, ``threads``
#: workers use ``threads`` cores instead of oversubscribing them, and a pooled
#: grid's results do not depend on the machine's core count
WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@contextlib.contextmanager
def _environ(overrides: dict):
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k)
            else:
                os.environ[k] = v


def _run_tasks(manifest: ExperimentManifest, tasks: list) -> list:
    if manifest.threads > 1:
        # BLAS reads its thread count once, at load, so workers are spawned
        # (not forked) with the setting in their environment
        spawn = multiprocessing.get_context("spawn")
        with _environ(WORKER_BLAS_ENV), \
                ProcessPoolExecutor(max_workers=manifest.threads, mp_context=spawn) as pool:
            records = list(pool.map(_trial_worker, [(manifest, *t) for t in tasks]))
    else:
        records = [_run_trial(manifest, *t) for t in tasks]
    records.sort(key=lambda rec: (rec["alg"], rec["s"], rec["m"], rec["trial"]))
    return records


def _trial_worker(packed):
    return _run_trial(*packed)


def _environment() -> dict:
    """Versions, BLAS library and thread settings of the running process."""
    from . import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "sparselowrank": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _write_manifest_echo(manifest: ExperimentManifest):
    os.makedirs(manifest.out_dir, exist_ok=True)
    path = os.path.join(manifest.out_dir, "manifest_echo.json")
    echo = asdict(manifest)
    # what produced the outputs: trajectories depend on the BLAS setting
    echo["environment"] = _environment()
    echo["environment"]["worker_env"] = WORKER_BLAS_ENV if manifest.threads > 1 else None
    # how per-trial ensembles/ground truths derive from the base seed
    echo["seed_scheme"] = (
        "numpy.random.SeedSequence(entropy=base_seed, spawn_key=(s, m, trial, "
        "stream)) with stream 0 for the ground truth and 1 for the operator"
    )
    with open(path, "w") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_phase_grid(manifest: ExperimentManifest):
    """Sweep the (s, m) grid; one CSV per algorithm plus a manifest echo.

    Returns {algorithm: [CellResult, ...]} with cells in (s, m) order.
    """
    tasks = [
        (alg, s, m, t)
        for alg in manifest.algorithms
        for s in manifest.s_values
        for m in manifest.resolve_m(s)
        for t in range(manifest.trials)
    ]
    records = _run_tasks(manifest, tasks)

    results = {alg: [] for alg in manifest.algorithms}
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec["alg"], rec["s"], rec["m"]), []).append(rec)
    for (alg, s, m), recs in sorted(by_cell.items()):
        errors = np.array([r["error"] for r in recs])
        finite = errors[np.isfinite(errors)]
        results[alg].append(CellResult(
            s=s, m=m,
            success_count=int(sum(r["success"] for r in recs)),
            trials=len(recs),
            mean_error=float(np.mean(finite)) if len(finite) else math.inf,
            median_error=float(np.median(finite)) if len(finite) else math.inf,
            mean_iters=float(np.mean([r["iterations"] for r in recs])),
            mean_time_ms=float(np.mean([r["time_ms"] for r in recs])),
            failure_reasons=tuple(
                r["reason"] for r in recs if r["reason"].startswith("error:")
            ),
        ))

    _write_manifest_echo(manifest)
    for alg, cells in results.items():
        path = os.path.join(manifest.out_dir, f"phase_grid_{alg}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "s", "m", "success_rate", "trials", "mean_error",
                "mean_iters", "mean_time_ms",
            ])
            for c in cells:
                t_ms = 0.0 if manifest.deterministic_output else c.mean_time_ms
                writer.writerow([
                    c.s, c.m, _fmt(c.success_rate), c.trials,
                    _fmt(c.mean_error), _fmt(c.mean_iters), _fmt(t_ms),
                ])
    return results


def _single_cell(manifest: ExperimentManifest):
    if len(manifest.s_values) != 1:
        raise ManifestError("this experiment uses exactly one s value")
    s = manifest.s_values[0]
    m_list = manifest.resolve_m(s)
    if len(m_list) != 1:
        raise ManifestError("this experiment uses exactly one m value")
    return s, m_list[0]


def run_convergence(manifest: ExperimentManifest):
    """Per-iteration error traces on one fixed (s, m) instance per trial,
    plus a rate-fit report (quadratic coefficient for the reweighted scheme,
    log-linear slope for the baseline)."""
    s, m = _single_cell(manifest)
    _write_manifest_echo(manifest)
    report = {"s": s, "m": m, "algorithms": {}}
    for alg in manifest.algorithms:
        fits = []
        for t in range(manifest.trials):
            gt, op, y = _build_instance(manifest, s, m, t)
            result = _solve(alg, op, y, _solver_config(manifest, alg, s), gt)
            if manifest.deterministic_output:
                recs = [replace(r, wall_time_s=0.0) for r in result.trace.records]
                result = replace(result, trace=IterateTrace(recs))
            path = os.path.join(manifest.out_dir, f"trace_{alg}_t{t:03d}.csv")
            result.trace.write_csv(path)
            errors = result.trace.errors()
            entry = {
                "trial": t,
                "iterations": result.iterations,
                "final_error": float(errors[-1]),
                "termination": result.termination,
            }
            if alg == "irls":
                fit = fit_quadratic_rate(errors)
                entry["quadratic_fit"] = {
                    "ok": fit.ok,
                    "mu_hat": None if math.isnan(fit.mu_hat) else fit.mu_hat,
                    "window_len": fit.window_len,
                }
            else:
                entry["linear_slope"] = _linear_slope(errors)
            fits.append(entry)
        report["algorithms"][alg] = fits
    with open(os.path.join(manifest.out_dir, "rate_fit.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _linear_slope(errors) -> float | None:
    e = np.asarray(errors)
    mask = (e > 0) & np.isfinite(e)
    if mask.sum() < 2:
        return None
    k = np.arange(len(e))[mask]
    coeffs = np.polyfit(k, np.log(e[mask]), 1)
    return float(coeffs[0])


def run_objective_evolution(manifest: ExperimentManifest):
    """Objective decomposition along reweighted runs on one (s, m) instance
    per trial: CSV of iteration, sqrt of each objective part, and error."""
    s, m = _single_cell(manifest)
    _write_manifest_echo(manifest)
    outputs = []
    for t in range(manifest.trials):
        gt, op, y = _build_instance(manifest, s, m, t)
        result = run_irls(op, y, _solver_config(manifest, "irls", s), ground_truth=gt)
        path = os.path.join(manifest.out_dir, f"objective_t{t:03d}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "sqrt_f_lowrank", "sqrt_f_sparse", "sqrt_f_total",
                             "rel_error"])
            for rec in result.trace.records:
                writer.writerow([
                    rec.k,
                    _fmt(math.sqrt(max(rec.f_lowrank, 0.0))),
                    _fmt(math.sqrt(max(rec.f_sparse, 0.0))),
                    _fmt(math.sqrt(max(rec.f_total, 0.0))),
                    _fmt(rec.rel_error),
                ])
        outputs.append(result)
    return outputs


def run_rip_probe(manifest: ExperimentManifest):
    """Empirical near-isometry estimates across the m grid."""
    from .measurement import rip_probe

    _write_manifest_echo(manifest)
    rows = []
    for s in manifest.s_values:
        for m in manifest.resolve_m(s):
            op_seed = np.random.SeedSequence(
                entropy=manifest.base_seed, spawn_key=(s, m, 0, 1)
            )
            op = OPERATOR_FACTORIES[manifest.measurement](
                manifest.n1, manifest.n2, m, op_seed
            )
            est = rip_probe(op, manifest.r, s, manifest.trials, manifest.base_seed)
            rows.append((s, m, est))
    path = os.path.join(manifest.out_dir, "rip_probe.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "m", "delta_lower_bound", "ratio_min", "ratio_max",
                         "trials"])
        for s, m, est in rows:
            writer.writerow([
                s, m, _fmt(est.delta_lower_bound), _fmt(est.ratio_min),
                _fmt(est.ratio_max), est.trials,
            ])
    return rows


RUNNERS = {
    "phase-grid": run_phase_grid,
    "convergence": run_convergence,
    "objective-evolution": run_objective_evolution,
    "rip-probe": run_rip_probe,
}


def run_experiment(manifest: ExperimentManifest):
    return RUNNERS[manifest.kind](manifest)
