"""In-memory span tracer installed from outside the package.

The tracer replaces names that the package's modules look up at call time
(``sparselowrank.irls.solve_wls``, ``sparselowrank.wls.apply_b2_inv``, the
``sla.solve`` that ``wls`` calls, ...) with wrappers that record one span per
call: name, start, end, parent span, whether the call raised, and optional
per-call facts such as the KKT dimension. Nothing under ``src/`` is edited.

A layer's self time is its duration minus the time covered by its children;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at top level
    ok: bool              # False when the call raised
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ModuleProxy:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def wrap(self, name, fn, info=None):
        """Return fn wrapped to record a span.

        info(args, result) -> dict adds per-call facts; result is None when
        the call raised.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, False)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if info is not None:
                    span.info = info(args, result)

        return traced

    def patch(self, target, attr, name, info=None):
        """Replace target.attr by its traced wrapper (undone by unpatch)."""
        original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        self._patched.append((target, attr, original))
        setattr(target, attr, self.wrap(name, original, info))

    def patch_module_attr(self, target, module_attr, fn_name, name, info=None):
        """Trace target.module_attr.fn_name for target alone: target sees a
        proxy of the module, and other importers keep the module itself."""
        module = getattr(target, module_attr)
        self._patched.append((target, module_attr, module))
        wrapped = self.wrap(name, getattr(module, fn_name), info)
        setattr(target, module_attr, _ModuleProxy(module, **{fn_name: wrapped}))

    def unpatch(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "ok", "info"])
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                                 s.parent, int(s.ok), _csv_info(s.info)])


def _csv_info(info) -> str:
    """A span's facts for the CSV, without the per-iteration clock."""
    return str({k: v for k, v in info.items() if k != "wall"}) if info else ""


def layer_totals(spans) -> dict:
    """Per span name: total duration, self time and calls."""
    child_time = np.zeros(len(spans))
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    out = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child_time[i]
        row["calls"] += 1
    return out


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that the span wrapper adds to one call: a wrapped empty call
    against a bare one, median over repeats."""
    def empty():
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("empty", empty)
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(costs))


def install_entry_points(tracer: Tracer):
    """Wrap the solver entry points: run_irls and run_iht at the package level
    (the benchmark's calls) and where the phase grid looks them up, and
    run_phase_grid."""
    import sparselowrank
    from sparselowrank import bench

    def iterations(args, result):
        # the end of each iteration, from the solver's own clock
        wall = [r.wall_time_s for r in result.trace.records] if result is not None else []
        return {"iterations": len(wall), "kind": args[0].kind, "wall": np.array(wall)}

    for target in (sparselowrank, bench):
        tracer.patch(target, "run_irls", "irls.run_irls", iterations)
        tracer.patch(target, "run_iht", "iht.run_iht", iterations)
    tracer.patch(sparselowrank, "run_phase_grid", "bench.run_phase_grid")


def install_layers(tracer: Tracer):
    """Wrap the entry points and every layer below them that the benchmark
    reports, at the names the package's modules use."""
    from sparselowrank import iht, irls, measurement, wls

    install_entry_points(tracer)

    def kkt(args, result):
        finite = result is not None and bool(np.all(np.isfinite(result)))
        return {"dim": args[0].shape[0], "finite": finite}

    def materialized(args, result):
        return {"bytes": result.nbytes if result is not None else 0}

    tracer.patch(irls, "solve_wls", "wls.solve_wls")
    tracer.patch(irls, "update_smoothing", "irls.update_smoothing")
    tracer.patch(irls, "build_weight", "weights.build_weight")
    tracer.patch(irls, "f_lowrank", "objective.f_lowrank")
    tracer.patch(irls, "f_sparse", "objective.f_sparse")
    tracer.patch(wls, "apply_b2_inv", "weights.apply_b2_inv")
    tracer.patch(wls, "smw_core_matrix", "weights.smw_core_matrix")
    tracer.patch_module_attr(wls, "sla", "solve", "wls.kkt_solve", kkt)
    tracer.patch(iht, "truncate_rank", "core.truncate_rank")
    tracer.patch(iht, "hard_threshold_rows", "core.hard_threshold_rows")
    tracer.patch(iht, "project_tangent", "core.project_tangent")

    base = measurement.MeasurementOperator
    tracer.patch(base, "apply", "measurement.apply")
    tracer.patch(base, "adjoint", "measurement.adjoint")
    tracer.patch(base, "as_matrix", "measurement.as_matrix")
    for cls in (base, measurement.RankOneGaussianOperator, measurement.FourierRankOneOperator):
        tracer.patch(cls, "_materialize", "measurement.materialize", materialized)


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics per traced pass (totals divided by passes)."""
    tot = layer_totals(spans)

    def get(name, key="total_s"):
        return tot.get(name, {}).get(key, 0)

    kkt = [s for s in spans if s.name == "wls.kkt_solve"]
    dims = np.array([s.info["dim"] for s in kkt], dtype=float)
    # a solve that raises or returns non-finite values is retried by wls
    kkt_failed = sum(1 for s in kkt if not s.info["finite"])
    solves_per_call = Counter(s.parent for s in kkt)
    regularized = sum(1 for i, s in enumerate(spans)
                      if s.name == "wls.solve_wls" and solves_per_call[i] > 1)
    irls_runs = [s.info for s in spans if s.name == "irls.run_irls"]
    iht_runs = [s.info for s in spans if s.name == "iht.run_iht"]
    materialized = sum(s.info["bytes"] for s in spans if s.name == "measurement.materialize")

    raw = {
        "measurement.as_matrix_s": get("measurement.as_matrix"),
        "measurement.materialized_mb": materialized / 2**20,
        "measurement.apply_s": get("measurement.apply"),
        "measurement.adjoint_s": get("measurement.adjoint"),
        "measurement.calls": get("measurement.apply", "calls") + get("measurement.adjoint", "calls"),
        "weights.apply_b2_inv_s": get("weights.apply_b2_inv"),
        "weights.smw_core_matrix_s": get("weights.smw_core_matrix"),
        "weights.build_weight_s": get("weights.build_weight"),
        "wls.solve_wls_s": get("wls.solve_wls"),
        "wls.solve_wls_self_s": get("wls.solve_wls", "self_s"),
        "wls.kkt_solve_s": get("wls.kkt_solve"),
        "wls.kkt_solves": len(kkt),
        "wls.kkt_failed_factorizations": kkt_failed,
        "wls.regularized": regularized,
        "wls.kkt_gflop": float(np.sum(dims**3 / 3.0)) / 1e9,
        "objective.f_lowrank_s": get("objective.f_lowrank"),
        "objective.f_sparse_s": get("objective.f_sparse"),
        "irls.update_smoothing_s": get("irls.update_smoothing"),
        "irls.run_irls_self_s": get("irls.run_irls", "self_s"),
        "irls.iterations": sum(r["iterations"] for r in irls_runs),
        "irls.fourier_iterations": sum(r["iterations"] for r in irls_runs if r["kind"] == "fourier"),
        "iht.run_iht_s": get("iht.run_iht"),
        "iht.iterations": sum(r["iterations"] for r in iht_runs),
        "core.truncate_rank_s": get("core.truncate_rank"),
        "core.hard_threshold_rows_s": get("core.hard_threshold_rows"),
        "core.project_tangent_s": get("core.project_tangent"),
    }
    out = {k: v / passes for k, v in raw.items()}
    # a mean, not a per-pass total
    out["wls.kkt_dim_mean"] = float(np.mean(dims)) if kkt else 0.0
    return out
