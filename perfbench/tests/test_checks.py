"""Tests of the benchmark's own checks and tracer: each correctness check
accepts a good output and rejects a bad one.

    python3 -m pytest -q perfbench/tests
"""

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from sparselowrank import CellResult, generate_ground_truth  # noqa: E402

from checks import (  # noqa: E402
    check_grid,
    check_irls_ending,
    check_model_set,
    check_objective,
    check_recovery,
)
from tracer import Tracer, layer_totals  # noqa: E402


@pytest.fixture
def gt():
    return generate_ground_truth(40, 10, 3, 8, 5)


def test_recovery_accepts_ground_truth_to_roundoff(gt):
    X = gt.X.copy()
    X[gt.support] += 1e-13 * np.random.default_rng(0).standard_normal((8, 10))
    assert check_recovery(X, gt.X, 3, gt.support) == []


def test_recovery_rejects_perturbed_solution(gt):
    X = gt.X + 1e-6 * np.random.default_rng(1).standard_normal(gt.X.shape)
    problems = check_recovery(X, gt.X, 3, gt.support)
    assert any("relative error" in p for p in problems)
    assert any("row support" in p for p in problems)


def test_recovery_rejects_wrong_support(gt):
    X = gt.X.copy()
    off = np.setdiff1d(np.arange(40), gt.support)[0]
    X[[gt.support[0], off]] = X[[off, gt.support[0]]]
    assert any("row support" in p for p in check_recovery(X, gt.X, 3, gt.support))


def test_recovery_rejects_wrong_rank(gt):
    X = gt.X.copy()
    X[gt.support[1], 0] += 1e-3
    problems = check_recovery(X, gt.X, 3, gt.support)
    assert any("numerical rank 4" in p for p in problems)


def test_objective_accepts_nonincreasing_trace():
    assert check_objective([5.0, 3.0, 3.0 + 1e-10, 1.0]) == []


def test_objective_rejects_increase():
    assert check_objective([5.0, 3.0, 3.1, 1.0]) != []
    assert check_objective([5.0, np.nan]) != []


def test_irls_ending():
    assert check_irls_ending("tolerance") == []
    assert check_irls_ending("smoothing_floor") == []
    assert check_irls_ending("max_iter") != []


def test_model_set(gt):
    assert check_model_set(gt.X, 3, 8) == []
    assert check_model_set(gt.X, 2, 8) != []
    assert check_model_set(gt.X, 3, 7) != []


def _cell(s, m, successes, trials=4, reasons=()):
    return CellResult(s=s, m=m, success_count=successes, trials=trials, mean_error=0.0,
                      median_error=0.0, mean_iters=1.0, mean_time_ms=1.0,
                      failure_reasons=tuple(reasons))


def _grid(**changes):
    cells = {
        "irls": [_cell(4, 54, 3), _cell(4, 144, 4), _cell(8, 66, 2), _cell(8, 176, 4)],
        "iht": [_cell(4, 54, 1), _cell(4, 144, 4), _cell(8, 66, 0), _cell(8, 176, 4)],
    }
    for alg, (i, cell) in changes.items():
        cells[alg][i] = cell
    return cells


def test_grid_accepts_dominating_irls():
    assert check_grid(_grid()) == []


def test_grid_rejects_error_record():
    bad = _grid(iht=(2, _cell(8, 66, 0, reasons=["error: WLS solve failed at iteration 8"])))
    assert any("error: WLS" in p for p in check_grid(bad))


def test_grid_rejects_iht_beating_irls():
    assert any("IHT beat IRLS" in p for p in check_grid(_grid(iht=(0, _cell(4, 54, 4)))))


def test_grid_rejects_incomplete_recovery_at_largest_m():
    problems = check_grid(_grid(irls=(3, _cell(8, 176, 3)), iht=(3, _cell(8, 176, 3))))
    assert any("largest m=176" in p for p in problems)


def test_tracer_self_time_and_failures():
    tracer = Tracer()

    def child(fail=False):
        time.sleep(0.01)
        if fail:
            raise ValueError("boom")

    child_t = tracer.wrap("child", child)

    def parent():
        child_t()
        with pytest.raises(ValueError):
            child_t(fail=True)
        time.sleep(0.01)

    tracer.wrap("parent", parent)()
    names = [s.name for s in tracer.spans]
    assert names == ["parent", "child", "child"]
    assert [s.ok for s in tracer.spans] == [True, True, False]
    assert tracer.spans[1].parent == 0 and tracer.spans[0].parent == -1
    tot = layer_totals(tracer.spans)
    assert tot["child"]["calls"] == 2
    assert tot["parent"]["self_s"] == pytest.approx(
        tot["parent"]["total_s"] - tot["child"]["total_s"])
    assert 0.005 < tot["parent"]["self_s"] < tot["parent"]["total_s"]


def test_tracer_unpatch_restores_module_names():
    import sparselowrank
    from sparselowrank import wls
    from tracer import install_layers

    before = (sparselowrank.run_irls, wls.sla, wls.apply_b2_inv)
    tracer = Tracer()
    install_layers(tracer)
    assert sparselowrank.run_irls is not before[0]
    tracer.unpatch()
    assert (sparselowrank.run_irls, wls.sla, wls.apply_b2_inv) == before


def test_run_refuses_without_package_source(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("tests", "out", "traces",
                                                                 "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "irls-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metric_names_match_benchmark_json():
    import json

    from tracer import layer_metrics

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer_names = set(layer_metrics([], 1)) | {"harness.self_s", "trace.pass_s",
                                                "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def test_solver_call_that_raises_fails_the_run(monkeypatch, gt):
    import workloads

    class Broken:
        def __getattr__(self, name):
            raise RuntimeError("operator is broken")

    monkeypatch.setitem(workloads.FACTORIES, "broken", lambda *args: Broken())
    shape = workloads.Shape(40, 10, 3, 8)
    wl = workloads.SolverWorkload(0, shape, [("broken", 60)])
    wl.instances = [workloads.Instance("broken", 60, gt, np.random.SeedSequence(0),
                                       np.zeros(60))]
    outcome = wl.run_pass()
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert len(outcome.problems) == 2
    assert all("raised RuntimeError('operator is broken')" in p for p in outcome.problems)


def _call(name, start, steps, outside=0.001):
    """A solver-call span whose iterations took the given times."""
    from tracer import Span

    wall = np.cumsum(steps)
    return Span(name, start, start + outside + wall[-1], -1, True,
                {"iterations": len(steps), "kind": "gaussian-dense", "wall": wall})


def test_quiet_figures_takes_each_step_at_its_fastest():
    from run import quiet_figures
    from workloads import PassOutcome

    outcome = PassOutcome(attempted=2, failed=0, problems=[], irls_successes=1)
    fast, slow = [0.1, 0.1, 0.1], [0.1, 0.5, 0.1]
    passes = [
        (outcome, 1.0, [_call("irls.run_irls", 0.0, slow), _call("iht.run_iht", 1.0, [0.02] * 4)]),
        (outcome, 1.0, [_call("irls.run_irls", 2.0, fast), _call("iht.run_iht", 3.0, [0.03] * 4)]),
    ]
    figures, problems = quiet_figures(passes)
    assert problems == []
    assert figures["solve_s"] == pytest.approx(0.301)
    assert figures["iterations"] == 3
    assert figures["iter_ms"] == pytest.approx(1e3 * 0.301 / 3)
    assert figures["iht_trial_ms"] == pytest.approx(81.0)


def test_quiet_figures_rejects_a_pass_that_does_not_repeat():
    from run import quiet_figures
    from workloads import PassOutcome

    outcome = PassOutcome(attempted=1, failed=0, problems=[], irls_successes=1)
    passes = [
        (outcome, 1.0, [_call("irls.run_irls", 0.0, [0.1] * 3), _call("iht.run_iht", 1.0, [0.1])]),
        (outcome, 1.0, [_call("irls.run_irls", 2.0, [0.1] * 4), _call("iht.run_iht", 3.0, [0.1])]),
    ]
    _, problems = quiet_figures(passes)
    assert problems == ["pass 1 made other solver calls or iterations than pass 0"]
