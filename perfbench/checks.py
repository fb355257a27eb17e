"""Correctness checks on solver outputs, from properties of the method.

Each check returns a list of problems (empty when the output passes). The
thresholds are the benchmark's claims, not copies of today's output:
recovery to 1e-8 relative error with the ground truth's rank and row
support, a nonincreasing traced objective, an ordinary termination reason,
and, on the phase grid, no failed trials, full recovery at the largest m and
IRLS at least as good as IHT in every cell.
"""

from __future__ import annotations

import numpy as np

RECOVERY_TOL = 1e-8
#: singular values and row norms below this share of the largest count as zero
STRUCTURE_RTOL = 1e-6
#: largest one-step increase of the traced objective (acceptance criterion 02)
MONOTONE_TOL = 1e-9
IRLS_ENDINGS = ("tolerance", "smoothing_floor")


def numerical_rank(X) -> int:
    sig = np.linalg.svd(X, compute_uv=False)
    return int(np.sum(sig > STRUCTURE_RTOL * sig[0])) if sig[0] > 0 else 0


def row_support(X) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    return np.flatnonzero(norms > STRUCTURE_RTOL * norms.max()) if norms.max() > 0 else norms[:0]


def check_recovery(X, X_true, rank: int, support) -> list:
    """X matches the ground truth to RECOVERY_TOL, with its rank and rows."""
    problems = []
    err = np.linalg.norm(X - X_true) / np.linalg.norm(X_true)
    if not err <= RECOVERY_TOL:
        problems.append(f"relative error {err:.3e} above {RECOVERY_TOL:.0e}")
    if numerical_rank(X) != rank:
        problems.append(f"numerical rank {numerical_rank(X)}, expected {rank}")
    found = row_support(X)
    if not np.array_equal(found, np.sort(support)):
        problems.append(f"row support of size {len(found)} differs from the "
                        f"ground truth's {len(support)} rows")
    return problems


def check_objective(f_values) -> list:
    """The traced objective never increases by more than MONOTONE_TOL."""
    f = np.asarray(f_values, dtype=float)
    if not np.all(np.isfinite(f)):
        return ["objective trace has non-finite values"]
    rise = float(np.max(np.diff(f), initial=0.0))
    return [f"objective rose by {rise:.3e}"] if rise > MONOTONE_TOL else []


def check_irls_ending(termination: str) -> list:
    if termination in IRLS_ENDINGS:
        return []
    return [f"IRLS ended by {termination!r}"]


def check_model_set(X, rank: int, s: int) -> list:
    """IHT output lies in the model set: rank <= r, at most s nonzero rows."""
    problems = []
    if numerical_rank(X) > rank:
        problems.append(f"IHT output has rank {numerical_rank(X)} > {rank}")
    if np.count_nonzero(np.linalg.norm(X, axis=1)) > s:
        problems.append(f"IHT output has more than {s} nonzero rows")
    return problems


def check_grid(cells: dict) -> list:
    """Phase-grid claims over {alg: [CellResult]} from run_phase_grid."""
    problems = []
    for alg, rows in cells.items():
        for c in rows:
            for reason in c.failure_reasons:
                problems.append(f"{alg} s={c.s} m={c.m}: {reason}")
    irls = {(c.s, c.m): c for c in cells["irls"]}
    iht = {(c.s, c.m): c for c in cells["iht"]}
    for s in sorted({s for s, _ in irls}):
        top = irls[(s, max(m for s2, m in irls if s2 == s))]
        if top.success_count != top.trials:
            problems.append(f"IRLS recovered {top.success_count}/{top.trials} at "
                            f"the largest m={top.m} for s={s}")
    for key, c in sorted(irls.items()):
        if c.success_count < iht[key].success_count:
            problems.append(f"IHT beat IRLS at s={key[0]} m={key[1]}: "
                            f"{iht[key].success_count} > {c.success_count}")
    return problems
