import csv
import json
import os

import numpy as np
import pytest

from sparselowrank.bench import (
    CellResult,
    ExperimentManifest,
    ManifestError,
    info_limit,
    run_convergence,
    run_objective_evolution,
    run_phase_grid,
    run_rip_probe,
)
from sparselowrank.cli import main


def tiny_manifest(out_dir, **overrides):
    base = dict(
        kind="phase-grid",
        n1=16, n2=6, r=1,
        s_values=[3],
        m_factors=[2.0, 4.0],
        algorithms=["irls", "iht"],
        trials=2,
        base_seed=11,
        out_dir=str(out_dir),
        irls_max_iter=40,
        iht_max_iter=300,
        deterministic_output=True,
    )
    base.update(overrides)
    return ExperimentManifest.from_dict(base)


class TestManifest:
    def test_info_limit(self):
        assert info_limit(2, 8, 16) == 2 * (8 + 16 - 2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ManifestError):
            tiny_manifest("x", kind="nonsense")

    def test_rejects_both_m_specs(self):
        with pytest.raises(ManifestError):
            tiny_manifest("x", m_values=[5], m_factors=[1.0])

    def test_rejects_missing_m_specs(self):
        with pytest.raises(ManifestError):
            tiny_manifest("x", m_factors=None)

    def test_rejects_bad_grid(self):
        with pytest.raises(ManifestError):
            tiny_manifest("x", s_values=[17])  # s > n1

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ManifestError):
            tiny_manifest("x", algorithms=["spf"])

    def test_rejects_unknown_keys(self):
        with pytest.raises(ManifestError):
            ExperimentManifest.from_dict({"kind": "phase-grid", "bogus": 1})
        # options that were removed are unknown keys too
        with pytest.raises(ManifestError):
            tiny_manifest("x", trace_objective=False)

    def test_rejects_model_orders_outside_dims(self):
        # overestimated orders r~ = 2r = 8 > n2 = 6 and s~ = floor(1.5 s) = 18 > n1
        with pytest.raises(ManifestError, match="overestimate"):
            tiny_manifest("x", r=4, s_values=[12], model_order_policy="overestimate")

    @pytest.mark.parametrize("overrides", [
        {"m_values": [0], "m_factors": None},
        {"m_values": [-5], "m_factors": None},
        {"m_values": [40, 0], "m_factors": None},
        {"m_factors": [0.0]},
        {"m_factors": [2.0, -1.0]},
        {"threads": 0},
        {"threads": -2},
        {"irls_max_iter": 0},
        {"iht_max_iter": 0},
        {"tol": -1e-10},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items() if v is not None))
    def test_rejects_out_of_range_values(self, overrides):
        # each would otherwise reach the trials: as an error in every trial,
        # a silent m=1 or serial run, or a failed first iterate
        with pytest.raises(ManifestError):
            tiny_manifest("x", **overrides)

    def test_model_orders(self):
        man = tiny_manifest("x", r=2)
        assert man.model_orders(8) == (2, 8)
        over = tiny_manifest("x", r=2, model_order_policy="overestimate")
        assert over.model_orders(8) == (4, 12)

    def test_resolve_m_factors(self):
        man = tiny_manifest("x")
        limit = info_limit(1, 3, 6)
        assert man.resolve_m(3) == [2 * limit, 4 * limit]


class TestPhaseGrid:
    def test_end_to_end(self, tmp_path):
        man = tiny_manifest(tmp_path)
        results = run_phase_grid(man)
        assert set(results) == {"irls", "iht"}
        for alg, cells in results.items():
            assert len(cells) == 2  # one s, two m values
            for c in cells:
                assert 0 <= c.success_count <= c.trials == 2
            path = tmp_path / f"phase_grid_{alg}.csv"
            rows = list(csv.reader(path.open()))
            assert rows[0] == ["s", "m", "success_rate", "trials", "mean_error",
                               "mean_iters", "mean_time_ms"]
            # grid completeness: every (s, m) cell exactly once
            keys = [(r[0], r[1]) for r in rows[1:]]
            assert len(keys) == len(set(keys)) == 2
        echo = json.loads((tmp_path / "manifest_echo.json").read_text())
        assert echo["base_seed"] == 11
        env = echo["environment"]
        assert set(env) == {"sparselowrank", "python", "numpy", "scipy", "blas",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpu_count",
                            "worker_env"}
        assert env["numpy"] == np.__version__
        assert env["blas"]["name"] and env["blas"]["version"]
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert env["cpu_count"] == os.cpu_count()
        assert env["worker_env"] is None  # serial run: the caller's BLAS setting

    def test_irls_succeeds_at_generous_oversampling(self, tmp_path):
        man = tiny_manifest(tmp_path, m_factors=[4.0], trials=3)
        results = run_phase_grid(man)
        cell = results["irls"][0]
        assert cell.success_rate == 1.0

    def test_fully_determined_system_always_succeeds(self, tmp_path):
        man = tiny_manifest(tmp_path, m_values=[16 * 6], m_factors=None, trials=2)
        results = run_phase_grid(man)
        for alg in ("irls", "iht"):
            assert results[alg][0].success_rate == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        man_a = tiny_manifest(tmp_path / "a")
        man_b = tiny_manifest(tmp_path / "b")
        run_phase_grid(man_a)
        run_phase_grid(man_b)
        for name in ("phase_grid_irls.csv", "phase_grid_iht.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_thread_count_does_not_change_results(self, tmp_path):
        environ = dict(os.environ)
        seq = run_phase_grid(tiny_manifest(tmp_path / "seq", threads=1))
        par = run_phase_grid(tiny_manifest(tmp_path / "par", threads=2))
        # workers get one BLAS thread each; the caller's environment is restored
        assert dict(os.environ) == environ
        echo = json.loads((tmp_path / "par" / "manifest_echo.json").read_text())
        assert echo["environment"]["worker_env"]["OPENBLAS_NUM_THREADS"] == "1"
        for alg in seq:
            for a, b in zip(seq[alg], par[alg]):
                assert (a.s, a.m, a.success_count, a.trials) == \
                       (b.s, b.m, b.success_count, b.trials)
                assert a.mean_error == b.mean_error
                assert a.mean_iters == b.mean_iters

    def test_seventeen_digit_serialization(self, tmp_path):
        man = tiny_manifest(tmp_path)
        run_phase_grid(man)
        rows = list(csv.reader((tmp_path / "phase_grid_irls.csv").open()))
        err = rows[1][4]
        # round-trips through float exactly
        assert f"{float(err):.17g}" == err


class TestConvergenceAndObjective:
    def test_convergence_traces_and_rate_fit(self, tmp_path):
        man = tiny_manifest(
            tmp_path, kind="convergence", m_factors=[3.0], trials=2,
        )
        report = run_convergence(man)
        assert set(report["algorithms"]) == {"irls", "iht"}
        for t in range(2):
            assert (tmp_path / f"trace_irls_t{t:03d}.csv").exists()
            assert (tmp_path / f"trace_iht_t{t:03d}.csv").exists()
        fit = json.loads((tmp_path / "rate_fit.json").read_text())
        assert fit["algorithms"]["irls"][0]["final_error"] < 1e-6
        assert "quadratic_fit" in fit["algorithms"]["irls"][0]
        assert "linear_slope" in fit["algorithms"]["iht"][0]

    def test_objective_evolution_csv(self, tmp_path):
        man = tiny_manifest(
            tmp_path, kind="objective-evolution", m_factors=[3.0], trials=1,
            algorithms=["irls"],
        )
        run_objective_evolution(man)
        rows = list(csv.reader((tmp_path / "objective_t000.csv").open()))
        assert rows[0] == ["k", "sqrt_f_lowrank", "sqrt_f_sparse", "sqrt_f_total",
                           "rel_error"]
        f_vals = [float(r[3]) for r in rows[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(f_vals, f_vals[1:]))

    def test_single_cell_required(self, tmp_path):
        man = tiny_manifest(tmp_path, kind="convergence")  # two m values
        with pytest.raises(ManifestError):
            run_convergence(man)


class TestRipProbeRunner:
    def test_probe_csv(self, tmp_path):
        man = tiny_manifest(tmp_path, kind="rip-probe", m_values=[60],
                            m_factors=None, trials=5, algorithms=["irls"])
        rows = run_rip_probe(man)
        assert len(rows) == 1
        text = (tmp_path / "rip_probe.csv").read_text()
        assert text.startswith("s,m,delta_lower_bound")


class TestCli:
    def write_manifest(self, tmp_path, **overrides):
        man = tiny_manifest(tmp_path / "out", **overrides)
        from dataclasses import asdict
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(asdict(man)))
        return path

    def test_phase_grid_exit_zero(self, tmp_path):
        path = self.write_manifest(tmp_path, m_factors=[4.0], trials=1)
        code = main(["phase-grid", "--manifest", str(path)])
        assert code == 0
        assert (tmp_path / "out" / "phase_grid_irls.csv").exists()

    def test_out_and_algorithms_overrides(self, tmp_path):
        path = self.write_manifest(tmp_path, m_factors=[4.0], trials=1)
        out = tmp_path / "elsewhere"
        code = main(["phase-grid", "--manifest", str(path), "--out", str(out),
                     "--algorithms", "irls"])
        assert code == 0
        assert (out / "phase_grid_irls.csv").exists()
        assert not (out / "phase_grid_iht.csv").exists()

    def test_missing_manifest_is_exit_two(self, tmp_path):
        assert main(["phase-grid", "--manifest", str(tmp_path / "nope.json")]) == 2

    def test_malformed_manifest_is_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["phase-grid", "--manifest", str(path)]) == 2

    def test_kind_mismatch_is_exit_two(self, tmp_path):
        path = self.write_manifest(tmp_path)
        assert main(["convergence", "--manifest", str(path)]) == 2

    def test_internal_failure_is_exit_three(self, tmp_path, monkeypatch):
        path = self.write_manifest(tmp_path, m_factors=[4.0], trials=1)
        import sparselowrank.cli as cli_mod

        def boom(_):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        assert main(["phase-grid", "--manifest", str(path)]) == 3
