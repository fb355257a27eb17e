"""Benchmark of IRLS recovery: end-to-end metrics, or per-layer metrics from
a traced run.

    python3 perfbench/run.py --workload irls-dense --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One process runs one workload on one BLAS thread. After
set-up it runs whole passes over the workload's fixed instances until the
next pass would end after ``--seconds``. Every pass makes the same solver
calls, and the reported times rebuild one pass from the fastest time of each
solver iteration over the passes (see ``quiet_figures``).
With ``--trace 1`` it runs traced passes, reports per-layer metrics per
traced pass with the estimated tracing overhead, and writes the spans to
``perfbench/traces/``. The last line of standard output is one JSON object:
correct, attempted, failed, metrics; the metrics and their units are the
ones ``BENCHMARK.json`` lists.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# before numpy loads: one BLAS thread keeps trajectories and timings repeatable
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_spec() -> dict:
    """BENCHMARK.json at the checkout's root, or exit non-zero."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read BENCHMARK.json: {exc}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import sparselowrank from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "sparselowrank", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import sparselowrank

    if os.path.dirname(os.path.dirname(os.path.abspath(sparselowrank.__file__))) != SRC:
        sys.exit(f"error: sparselowrank was imported from {sparselowrank.__file__}")


SOLVERS = ("irls.run_irls", "iht.run_iht")


def run_one_pass(workload, tracer):
    """Run one pass; return its outcome, its wall time and the spans of its
    solver calls, in call order."""
    first = len(tracer.spans)
    t0 = time.perf_counter()
    outcome = workload.run_pass()
    wall = time.perf_counter() - t0
    calls = [s for s in tracer.spans[first:] if s.name in SOLVERS]
    return outcome, wall, calls


def call_steps(span) -> np.ndarray:
    """One solver call's time split at the ends of its iterations (from the
    solver's own per-iteration clock): the time outside the iterations
    first, then one entry per iteration."""
    wall = span.info["wall"]
    outside = span.duration - (wall[-1] if len(wall) else 0.0)
    return np.concatenate(([outside], np.diff(wall, prepend=0.0)))


def quiet_figures(passes):
    """End-to-end figures of one pass, each step timed at its fastest.

    Every pass makes the same solver calls with the same iterations. Load
    on a shared host slows a run down in bursts of a few seconds (by up to
    about 1.5x on a 2-vCPU guest), which fall on different steps in each
    pass, so a pass is rebuilt
    from the fastest time of each step (one iteration of one call, or the
    time a call spends outside its iterations) over the passes. Returns the
    figures and the problems found: a pass whose calls or iteration counts
    differ from the first pass's.
    """
    outcome, _, first = passes[0]
    counts = [s.info["iterations"] for s in first]
    problems, steps = [], [[call_steps(s)] for s in first]
    for p, (_, _, calls) in enumerate(passes[1:], 1):
        if [s.name for s in calls] != [s.name for s in first] or \
                [s.info["iterations"] for s in calls] != counts:
            problems.append(f"pass {p} made other solver calls or iterations than pass 0")
            continue
        for j, s in enumerate(calls):
            steps[j].append(call_steps(s))
    fastest = [float(np.min(st, axis=0).sum()) for st in steps]
    irls = [t for t, s in zip(fastest, first) if s.name == "irls.run_irls"]
    iht = [t for t, s in zip(fastest, first) if s.name == "iht.run_iht"]
    solve, iht_s = sum(irls), sum(iht)
    iterations = sum(n for n, s in zip(counts, first) if s.name == "irls.run_irls")
    if outcome.trials is not None:   # the phase grid: trials per second of run_phase_grid
        harness = min(wall - sum(s.duration for s in calls) for _, wall, calls in passes)
        trials_per_s = outcome.trials / (solve + iht_s + harness)
    else:
        trials_per_s = (len(irls) + len(iht)) / (solve + iht_s)
    figures = {
        "solve_s": solve,
        "iter_ms": 1e3 * solve / iterations,
        "iterations": iterations,
        "trials_per_s": trials_per_s,
        "irls_trial_ms": 1e3 * solve / len(irls),
        "iht_trial_ms": 1e3 * iht_s / len(iht),
        "irls_successes": outcome.irls_successes,
    }
    return figures, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    import_package()
    sys.path.insert(0, HERE)
    from tracer import (Tracer, install_entry_points, install_layers, layer_metrics,
                        wrapper_cost_s)
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - START
    warm_up()

    attempted = failed = 0
    problems = []
    passes = []
    tracer = Tracer()
    (install_layers if args.trace else install_entry_points)(tracer)
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            outcome, wall, calls = run_one_pass(workload, tracer)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            passes.append((outcome, wall, calls))
            if time.perf_counter() + wall > deadline:
                break
    finally:
        tracer.unpatch()
        workload.teardown()

    walls = [wall for _, wall, _ in passes]
    in_solvers = [sum(s.duration for s in calls) for _, _, calls in passes]
    for i, (_, wall, calls) in enumerate(passes):
        line = [f"pass {i}: wall_s={wall:.6g}"]
        for name in SOLVERS:
            mine = [s for s in calls if s.name == name]
            line.append(f"{name}: {len(mine)} calls, {sum(s.info['iterations'] for s in mine)} "
                        f"iterations, {sum(s.duration for s in mine):.6g} s")
        print(", ".join(line), flush=True)
    figures, repeat_problems = quiet_figures(passes)
    problems += repeat_problems
    for p in problems:
        print(f"check failed: {p}", flush=True)

    if args.trace:
        metrics = layer_metrics(tracer.spans, len(passes))
        traced_wall = median(walls)
        metrics["harness.self_s"] = median(w - b for w, b in zip(walls, in_solvers))
        metrics["trace.pass_s"] = traced_wall
        # the wrappers' own cost: spans per pass times the measured cost of
        # one wrapped empty call, against the pass time without it
        overhead_s = len(tracer.spans) / len(passes) * wrapper_cost_s()
        metrics["trace.overhead_pct"] = 100.0 * overhead_s / (traced_wall - overhead_s)
        traces = os.path.join(HERE, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.write_csv(os.path.join(traces, f"{args.workload}-seed{args.seed}.csv"))
    else:
        metrics = figures
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
