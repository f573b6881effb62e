"""CLI contract: config merge/overrides, exit codes, reproducible outputs."""

import csv
import json
from dataclasses import replace

import pytest

from ccflab import ensemble, instability
from ccflab.cli import (
    apply_overrides,
    build_grid,
    build_noise,
    build_sim,
    load_config,
    main,
)
from ccflab.diagnostics import blowup_quantity
from ccflab.integrate import blowup_bump
from ccflab.noise import GeneralH, LinearB, StrongAlpha, ZeroNoise


class TestConfig:
    def test_defaults_build(self):
        cfg = load_config(None, [])
        sim = build_sim(cfg)
        assert sim.s == 3.1
        assert isinstance(sim.noise, ZeroNoise)

    def test_override_typed(self):
        cfg = load_config(None, ["sim.dt=0.005", "noise.family=linear",
                                 "grid.n_modes=128"])
        assert cfg["sim"]["dt"] == 0.005
        assert isinstance(build_noise(cfg), LinearB)
        assert build_sim(cfg).grid.n_modes == 128

    def test_override_unknown_key(self):
        for pair in ("sim.notakey=1", "sim.drift_scheme=euler"):
            with pytest.raises(KeyError):
                apply_overrides(load_config(None, []), [pair])

    def test_override_type_checked(self):
        with pytest.raises(TypeError):
            apply_overrides(load_config(None, []), ["sim.dt=\"fast\""])

    def test_noise_families(self):
        for fam, typ in (("zero", ZeroNoise), ("general", GeneralH),
                         ("strong", StrongAlpha), ("linear", LinearB)):
            cfg = load_config(None, [f"noise.family={fam}"])
            assert isinstance(build_noise(cfg), typ)

    def test_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sim": {"dt": 0.002}}))
        cfg = load_config(str(p), [])
        assert cfg["sim"]["dt"] == 0.002

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nonsense": {}}))
        with pytest.raises(KeyError):
            load_config(str(p), [])


class TestExitCodes:
    def test_missing_config_file(self):
        assert main(["simulate", "--config", "/nonexistent/x.json"]) == 3

    def test_blowup_without_mc_paths_is_a_usage_error(self, capsys):
        assert main(["blowup", "--paths", "0", "--set", "study.mc_paths=0"]) == 3
        assert "num_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--paths", "0"],
        ["simulate", "--paths", "-3"],
        ["global", "--paths", "0"],
        ["global", "--paths", "2"],
        ["converge", "--paths", "0"],
        ["blowup", "--paths", "-1", "--set", "study.mc_paths=64"],
        ["instability", "--paths", "-1", "--set", "study.n_list=[64]"],
    ], ids=["simulate-0", "simulate-neg3", "global-0", "global-2", "converge-0",
            "blowup-neg1", "instability-neg1"])
    def test_paths_below_minimum_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 3
        assert "paths must be >=" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 3
        assert "subcommand" in capsys.readouterr().out or True

    def test_identities_pass(self, tmp_path, capsys):
        rep = tmp_path / "ids.csv"
        code = main(["identities", "--set", "study.fields=10",
                     "--report", str(rep)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out
        assert rep.exists() and "cotlar" in rep.read_text()

    def test_identities_zero_tolerance_fails(self):
        assert main(["identities", "--set", "study.fields=5",
                     "--set", "study.tolerance=0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["blowup", "--bogus"],
        ["bogus"],
        ["girsanov", "--out", "x.csv"],
        ["identities", "--paths", "3"],
        ["simulate", "--report", "r.csv"],
    ], ids=["bogus-flag", "bogus-subcommand", "girsanov-out", "identities-paths",
            "simulate-report"])
    def test_usage_error_exits_3(self, argv, capsys):
        # argparse alone exits 2, the code of a failed check
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["girsanov", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_global_too_few_completed_paths_fails(self, capsys):
        # a threshold just above the initial monitored quantity flags paths as
        # blown up at once, so fewer than 8 complete: FAIL with a nan slope
        grid = build_grid(load_config(None, ["grid.n_modes=64"]))
        q0 = blowup_quantity(blowup_bump(grid, 1.0))
        code = main(["global", "--set", "grid.n_modes=64", "--set", "sim.horizon=0.005",
                     "--set", "study.f0=1.0", "--set", "study.q_hat=0.1",
                     "--set", "study.k1=1.0", "--set", "sim.blowup_doublings=0",
                     "--set", f"sim.blowup_threshold={q0 * (1.0 + 1e-9)!r}"])
        out = capsys.readouterr().out
        assert code == 2
        assert "lyapunov slope nan" in out and "(FAIL)" in out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_global_reports_diverged_paths(self, tmp_path, capsys):
        # strong noise at the default f0=10 on 64 modes: one of the 8 paths
        # overflows at t=0.001, and the verdict line says so
        rep = tmp_path / "global.csv"
        code = main(["global", "--set", "grid.n_modes=64", "--set", "sim.horizon=0.005",
                     "--set", "study.q_hat=0.1", "--set", "study.k1=1.0",
                     "--report", str(rep)])
        out = capsys.readouterr().out
        assert code == 2
        assert "paths 8: completed 7, blewup 0, diverged 1; lyapunov slope nan" in out
        (row,) = csv.DictReader(rep.read_text().splitlines())
        assert (row["completed"], row["blowups"], row["diverged"]) == ("7", "0", "1")

    def test_converge_zero_gap_fails(self, capsys):
        # the two smallest widths leave every retained mode of a 64-mode grid
        # unchanged, so their gap is exactly 0 and has no log-log rate
        code = main(["converge", "--paths", "2", "--set", "grid.n_modes=64",
                     "--set", "sim.horizon=0.05", "--set", "noise.family=linear",
                     "--set", "sim.cutoff_radius=50.0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.count("E sup gap^2") == 4
        assert "FAIL: gap exactly 0 at eps = 0.03125, 0.015625; no rate fit" in captured.out
        assert captured.err == ""

    def test_converge_deterministic_noise_runs_one_path(self, monkeypatch, capsys):
        # without noise every path is identical: one path is run and said so
        seen = []
        study = ensemble.convergence_study

        def record(sim, eps_list, num_paths, **kw):
            seen.append(num_paths)
            return study(sim, eps_list, num_paths, **kw)

        monkeypatch.setattr(ensemble, "convergence_study", record)
        code = main(["converge", "--paths", "2", "--set", "grid.n_modes=64",
                     "--set", "sim.horizon=0.05"])
        out = capsys.readouterr().out
        assert seen == [1]
        assert "noise is deterministic: 1 path run, not 2" in out
        assert out.count("E sup gap^2") == 4
        # the zero-gap rule still applies to the one path
        assert code == 2
        assert "FAIL: gap exactly 0 at eps = 0.03125, 0.015625; no rate fit" in out

    def test_simulate_single_path(self, tmp_path, capsys):
        out = tmp_path / "path.jsonl"
        code = main(["simulate", "--paths", "1", "--out", str(out),
                     "--set", "sim.horizon=0.01",
                     "--set", "grid.n_modes=64",
                     "--set", "study.amplitude=0.1"])
        assert code == 0
        assert "status=completed" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert json.loads(lines[0])["kind"] == "header"

    def test_simulate_ensemble_reproducible(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["simulate", "--paths", "3", "--set", "sim.horizon=0.01",
                "--set", "grid.n_modes=64", "--set", "noise.family=linear",
                "--set", "study.amplitude=0.1", "--set", "sim.record_every=2"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_girsanov_smoke(self, capsys):
        code = main(["girsanov", "--set", "grid.n_modes=64",
                     "--set", "sim.horizon=0.05",
                     "--set", "study.dt_list=[0.004,0.001]",
                     "--set", "study.amplitude=0.2"])
        assert code in (0, 2)  # ordering can be noisy at this tiny scale
        assert "refinement ratios" in capsys.readouterr().out

    @pytest.mark.parametrize("dt_list", ["[0.001]", "[0.001,0.001]"])
    def test_girsanov_one_step_size_is_a_usage_error(self, dt_list, capsys):
        # one step size has no refinement ratio to check
        code = main(["girsanov", "--set", f"study.dt_list={dt_list}",
                     "--set", "grid.n_modes=64", "--set", "sim.horizon=0.05"])
        captured = capsys.readouterr()
        assert code == 3
        assert "two distinct step sizes" in captured.err
        assert "coupled residual" not in captured.out

    def test_girsanov_stopped_paths_fail(self, capsys):
        # a threshold just above the initial monitored quantity stops every
        # linear-noise path after one step: no residual is scored on that prefix
        code = main(["girsanov", "--set", "grid.n_modes=128", "--set", "sim.horizon=0.2",
                     "--set", "sim.blowup_doublings=0",
                     "--set", "sim.blowup_threshold=1.3817"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("coupled residual nan  (path blewup)") == 3

    def test_girsanov_zero_residual_fails(self, tmp_path, capsys):
        # zero initial data stays zero on both sides of the coupling, so every
        # residual is exactly 0 and has no refinement ratio
        rep = tmp_path / "girsanov.csv"
        code = main(["girsanov", "--set", "study.amplitude=0", "--set", "grid.n_modes=64",
                     "--set", "sim.horizon=0.01", "--report", str(rep)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.count("coupled residual 0.000000e+00") == 3
        assert ("FAIL: residual exactly 0 at dt = 0.004, 0.001, 0.00025; "
                "no refinement ratios") in captured.out
        assert "refinement ratios:" not in captured.out
        assert captured.err == ""
        assert len(rep.read_text().splitlines()) == 4

    def test_instability_reads_sim_horizon(self, monkeypatch, capsys):
        # sim.horizon is the defect horizon; there is no study.horizon
        seen = []

        def record(p, noise, num_paths, horizon, dt, seed=0):
            seen.append(horizon)
            raise ValueError("horizon recorded")

        monkeypatch.setattr(instability, "error_functional_ensemble", record)
        assert main(["instability", "--paths", "0", "--set", "sim.horizon=0.3"]) == 3
        assert seen == [0.3]
        assert "horizon recorded" in capsys.readouterr().err
        assert main(["instability", "--set", "study.horizon=0.3"]) == 3
        assert "unknown config key: study.horizon" in capsys.readouterr().err

    def test_instability_stopped_separation_fails(self, monkeypatch, capsys):
        # an exit radius below the packet norm stops both separation paths
        # after one step: their statuses are printed and the curve, which is
        # not padded, ends before pi/2
        run = instability.separation_experiment
        monkeypatch.setattr(instability, "separation_experiment",
                            lambda p, **kw: run(replace(p, exit_radius=1e-300), **kw))
        code = main(["instability", "--paths", "0", "--set", "study.n_list=[64,128]",
                     "--set", "sim.dt=0.005", "--set", "study.separation_n=64"])
        out = capsys.readouterr().out
        assert code == 2
        assert "separation path 0 m=+1: exited at t=0.005" in out
        assert "separation path 0 m=-1: exited at t=0.005" in out
        assert "curve ends at t=0 (FAIL)" in out
