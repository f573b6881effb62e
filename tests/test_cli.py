"""CLI contract: config merge/overrides, exit codes, reproducible outputs."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from ccflab import cli, ensemble, girsanov, instability, integrate
from ccflab.cli import (
    apply_overrides,
    build_grid,
    build_noise,
    build_sim,
    load_config,
    main,
)
from ccflab.diagnostics import blowup_quantity
from ccflab.integrate import DIAGNOSTIC_NAMES, blowup_bump
from ccflab.noise import GeneralH, LinearB, StrongAlpha, ZeroNoise, path_seed


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
        for pair in ("sim.notakey=1", "sim.drift_scheme=euler", "sim.adapt=false"):
            with pytest.raises(KeyError):
                apply_overrides(load_config(None, []), [pair])

    def test_override_type_checked(self):
        with pytest.raises(TypeError):
            apply_overrides(load_config(None, []), ["sim.dt=\"fast\""])

    @pytest.mark.parametrize("pair", ["sim.dt=true", "study.paths=true",
                                      "study.q_hat=false"])
    def test_override_bool_needs_bool_default(self, pair):
        # bool is an int subclass: a float, int or None default takes no bool,
        # and no default is a bool
        with pytest.raises(TypeError, match="got bool"):
            load_config(None, [pair])

    @pytest.mark.parametrize("pair", ["sim.dt=null", "study.delta=null",
                                      "study.paths=null", "noise.family=null"])
    def test_override_null_needs_null_default(self, pair):
        key = pair.split("=")[0]
        with pytest.raises(TypeError, match=rf"override {key}: expected \w+, got null"):
            load_config(None, [pair])
        cfg = load_config(None, ["study.eps_ref=2.0", "study.eps_ref=null"])
        assert cfg["study"]["eps_ref"] is None

    @pytest.mark.parametrize("pair, message", [
        ("study.dt_list=[true,0.01]", "expected float, got bool"),
        ("study.n_list=[64.5,128]", "expected int, got float"),
        ("study.n_list=[64,[128]]", "expected int, got list"),
        ("study.eps_list=[null,0.5]", "null list item"),
    ])
    def test_override_list_items_type_checked(self, pair, message):
        with pytest.raises(TypeError, match=message):
            load_config(None, [pair])

    def test_override_list_takes_int_for_float(self):
        cfg = load_config(None, ["study.eps_list=[1,0.5]"])
        assert cfg["study"]["eps_list"] == [1.0, 0.5]
        assert all(type(eps) is float for eps in cfg["study"]["eps_list"])

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

    @pytest.mark.parametrize("tree, message", [
        ({"noise": {"family": False}}, "override noise.family: expected str, got bool"),
        ({"sim": {"record_every": 10.9}},
         "override sim.record_every: expected int, got float"),
        ({"study": {"workers": 1.5}}, "override study.workers: expected int, got float"),
        ({"study": {"q_hat": "abc"}}, "override study.q_hat: expected float, got str"),
        ({"sim": 3}, "config sim: expected a section, got int"),
        ([], "config file: expected a section, got list"),
    ], ids=["bool-as-str", "float-for-int", "float-workers", "str-for-null", "leaf-section",
            "list-file"])
    def test_config_file_leaves_type_checked(self, tree, message, tmp_path):
        # a config file's leaves take the same schema check as --set
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tree))
        with pytest.raises(TypeError, match=message):
            load_config(str(p), [])

    def test_config_file_converts_like_set(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sim": {"dt": 1},
                                 "study": {"eps_ref": 2, "eps_list": [1, 0.5], "k1": None}}))
        cfg = load_config(str(p), [])
        assert type(cfg["sim"]["dt"]) is float and cfg["study"]["eps_ref"] == 2.0
        assert all(type(eps) is float for eps in cfg["study"]["eps_list"])
        assert cfg["study"]["k1"] is None

    @pytest.mark.parametrize("key", ["noise.b_star", "study.eps_ref", "study.k1",
                                     "study.q_hat"])
    def test_null_default_takes_a_number_or_null(self, key):
        for raw in ("abc", '"big"', "[0.01]"):
            with pytest.raises(TypeError, match=rf"override {key}: expected float, got"):
                load_config(None, [f"{key}={raw}"])
        section, leaf = key.split(".")
        assert load_config(None, [f"{key}=2"])[section][leaf] == 2.0
        assert load_config(None, [f"{key}=2", f"{key}=null"])[section][leaf] is None

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nonsense": {}}))
        with pytest.raises(KeyError):
            load_config(str(p), [])


class TestExitCodes:
    def test_missing_config_file(self):
        assert main(["simulate", "--config", "/nonexistent/x.json"]) == 3

    def test_blowup_without_mc_paths_is_a_usage_error(self, capsys):
        assert main(["blowup", "--paths", "1", "--set", "study.mc_paths=0"]) == 3
        assert "num_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "1.0"])
    def test_blowup_threshold_outside_unit_interval_is_a_usage_error(self, k, capsys):
        assert main(["blowup", "--paths", "1", "--set", "study.mc_paths=64",
                     "--set", f"study.threshold_k={k}"]) == 3
        assert "threshold K must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--paths", "0"],
        ["simulate", "--paths", "-3"],
        ["global", "--paths", "0"],
        ["global", "--paths", "2"],
        ["converge", "--paths", "0"],
        ["blowup", "--paths", "0", "--set", "study.mc_paths=64"],
        ["blowup", "--paths", "-1", "--set", "study.mc_paths=64"],
        ["instability", "--paths", "-1", "--set", "study.n_list=[64]"],
    ], ids=["simulate-0", "simulate-neg3", "global-0", "global-2", "converge-0",
            "blowup-0", "blowup-neg1", "instability-neg1"])
    def test_paths_below_minimum_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 3
        assert "paths must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["girsanov", "--set", "grid.n_modes=64", "--set", "sim.horizon=0.05",
         "--set", "study.dt_list=[true,0.01]"],
        ["instability", "--paths", "0", "--set", "sim.horizon=0.01",
         "--set", "study.n_list=[64.5,128]"],
    ], ids=["girsanov-bool-dt", "instability-float-n"])
    def test_list_item_of_wrong_type_is_a_usage_error(self, argv, monkeypatch, capsys):
        # rejected with the config, before any study work
        def forbidden(*args, **kwargs):
            raise AssertionError("study work started")
        monkeypatch.setattr(girsanov, "girsanov_residual", forbidden)
        monkeypatch.setattr(instability, "error_functional_ensemble", forbidden)
        assert main(argv) == 3
        assert "error: override study." in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--paths", "1", "--set", "sim.dt=null"], "override sim.dt"),
        (["instability", "--set", "study.delta=null"], "override study.delta"),
        (["instability", "--set", "sim.dt=0"], "dt and horizon must be positive"),
        (["instability", "--set", "sim.dt=-0.002"], "dt and horizon must be positive"),
        (["instability", "--set", "sim.horizon=1e308", "--set", "sim.dt=1e-10"],
         "horizon / dt must be finite"),
    ], ids=["simulate-null-dt", "instability-null-delta", "instability-zero-dt",
            "instability-negative-dt", "instability-overflow"])
    def test_bad_step_or_null_is_a_usage_error(self, argv, message, monkeypatch, capsys):
        # rejected with the config, before any study work
        def forbidden(*args, **kwargs):
            raise AssertionError("study work started")
        for name in ("error_functional_ensemble", "separation_experiment"):
            monkeypatch.setattr(instability, name, forbidden)
        monkeypatch.setattr(ensemble, "run_paths", forbidden)
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--paths", "1", "--set",
          'noise={"family": "general", "n_components": 2.5}'], "override noise: "),
        (["simulate", "--set", 'sim={"dt": 0.01}'], "override sim: "),
        (["global", "--set", "study.q_hat=abc"], "override study.q_hat: "),
        (["simulate", "--set", 'study.eps_ref="big"'], "override study.eps_ref: "),
        (["converge", "--set", "study.eps_ref=[0.01]"], "override study.eps_ref: "),
    ], ids=["section-noise", "section-sim", "q_hat-str", "eps_ref-str", "eps_ref-list"])
    def test_bad_leaf_is_a_usage_error_before_any_work(self, argv, message, monkeypatch,
                                                        capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("study work started")
        monkeypatch.setitem(cli.COMMANDS, argv[0], (forbidden, cli.COMMANDS[argv[0]][1]))
        assert main(argv) == 3
        out = capsys.readouterr()
        assert message in out.err and out.out == ""

    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sim": {"seed": "7", "record_every": 10.9},
                                 "study": {"workers": 1.5}}))
        assert main(["simulate", "--paths", "1", "--config", str(p)]) == 3
        assert "override sim.seed: expected int, got str" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["sim.adapt=false", "sim.cutoff_radius=50.0",
                                      "grid.dealias_fraction=0.5"])
    def test_removed_key_is_a_usage_error(self, pair, capsys):
        # every path takes one plain step per macro step, with no halving to
        # switch off and no cut-off gate to set, and products are dealiased
        # by the 2/3 rule, with no band to set
        assert main(["simulate", "--paths", "1", "--set", pair]) == 3
        key = pair.split("=")[0]
        assert f"unknown config key: {key}" in capsys.readouterr().err

    def test_non_finite_step_count_is_a_usage_error(self, capsys):
        assert main(["simulate", "--paths", "1", "--set", "sim.horizon=1e308",
                     "--set", "sim.dt=1e-10"]) == 3
        assert "horizon / dt must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--paths", "1", "--set", "sim.horizon=0.0015"],
         "horizon 0.0015 is not a whole number of steps of dt 0.001"),
        (["girsanov", "--set", "grid.n_modes=64", "--set", "sim.horizon=0.05",
          "--set", "study.dt_list=[0.004,0.001]"],
         "horizon 0.05 is not a whole number of steps of dt 0.004"),
        (["instability", "--set", "sim.dt=0.007", "--set", "sim.horizon=0.7"],
         "horizon 1.8 is not a whole number of steps of dt 0.007"),
    ], ids=["simulate", "girsanov-coarse-dt", "instability-separation"])
    def test_fractional_step_count_is_a_usage_error(self, argv, message, monkeypatch,
                                                     capsys):
        # a horizon between two step grids used to be rounded to the nearer
        # one: 0.0015 at dt 1e-3 ran to 0.002, and 0.05 at dt 4e-3 to 0.048;
        # the separation experiment's horizon max(sim.horizon, 1.8) ran to
        # 1.799 at dt 0.007
        def forbidden(*args, **kwargs):
            raise AssertionError("study work started")
        monkeypatch.setattr(ensemble, "run_paths", forbidden)
        for name in ("error_functional_ensemble", "separation_experiment"):
            monkeypatch.setattr(instability, name, forbidden)
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 3
        out = capsys.readouterr().out
        usage = " ".join(out.split("\n\n")[0].split())
        assert usage == f"usage: ccflab [-h] [--dump-config] {{{','.join(cli.COMMANDS)}}} ..."
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("    ")}
        assert set(cli.COMMANDS) <= listed

    def test_identities_pass(self, tmp_path, capsys):
        rep = tmp_path / "ids.csv"
        code = main(["identities", "--set", "study.fields=10",
                     "--report", str(rep)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out
        assert rep.exists() and "cotlar" in rep.read_text()

    @pytest.mark.parametrize("fields", [0, -2])
    def test_identities_without_fields_is_a_usage_error(self, fields, capsys):
        # no field checks no identity: that is no pass
        assert main(["identities", "--set", f"study.fields={fields}"]) == 3
        captured = capsys.readouterr()
        assert f"fields must be >= 1, got {fields}" in captured.err
        assert captured.out == ""

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
                     "--set", "study.k1=1.0",
                     "--set", f"sim.blowup_threshold={q0 * (1.0 + 1e-9)!r}"])
        out = capsys.readouterr().out
        assert code == 2
        assert "lyapunov slope nan" in out and "(FAIL)" in out

    def test_global_reports_diverged_paths(self, tmp_path, capsys, monkeypatch):
        # path 3 overflows at its second step, and the verdict line and the
        # report say so
        step, target = integrate.em_step, path_seed(0, 3)

        def overflowing(u, t, cfg, dw, dt=None):
            out = step(u, t, cfg, dw, dt)
            return np.inf * out if cfg.seed == target and t > 0.0 else out

        monkeypatch.setattr(integrate, "em_step", overflowing)
        rep = tmp_path / "global.csv"
        code = main(["global", "--set", "grid.n_modes=64", "--set", "sim.horizon=0.005",
                     "--set", "study.q_hat=0.1", "--set", "study.k1=1.0",
                     "--report", str(rep)])
        out = capsys.readouterr().out
        assert code == 2
        assert "paths 8: completed 7, blewup 0, diverged 1; lyapunov slope nan" in out
        (row,) = csv.DictReader(rep.read_text().splitlines())
        assert (row["completed"], row["blowups"], row["diverged"]) == ("7", "0", "1")

    def test_global_defaults_pass(self, capsys):
        # the strong noise prevents blow-up: with the exact factor of its
        # rate no path diverges (4 of 8 did under Euler-Maruyama increments)
        code = main(["global"])
        out = capsys.readouterr().out
        assert "paths 8: completed 8, blewup 0, diverged 0;" in out
        assert code == 0

    def test_global_theta_half_reads_q_hat(self, capsys):
        # theta = 1/2 is admissible when q^2 > 2 Q_hat, with Q_hat from study.q_hat
        argv = ["global", "--set", "grid.n_modes=64", "--set", "sim.horizon=0.005",
                "--set", "noise.theta=0.5", "--set", "study.q_hat=0.1",
                "--set", "study.k1=1.0"]
        assert main(argv + ["--set", "noise.q=3.0"]) != 3
        assert "lyapunov slope" in capsys.readouterr().out
        assert main(argv + ["--set", "noise.q=0.3"]) == 3
        assert "needs inf q^2 > 2*Q_hat = 0.2, got 0.09" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["k1", "k2", "q_hat"])
    def test_global_nonpositive_constant_is_a_usage_error(self, key, monkeypatch, capsys):
        # study.q_hat and study.k1 are given, so no sweep runs, and the check
        # comes before any path
        def forbidden(*args, **kwargs):
            raise AssertionError("study work started")
        monkeypatch.setattr(ensemble, "run_paths", forbidden)
        assert main(["global", "--set", "study.q_hat=0.5", "--set", "study.k1=1.0",
                     "--set", f"study.{key}=-1"]) == 3
        assert "k1, k2 and q_hat must be positive" in capsys.readouterr().err

    def test_converge_zero_gap_fails(self, capsys):
        # the two smallest widths leave every retained mode of a 64-mode grid
        # unchanged, so their gap is exactly 0 and has no log-log rate
        code = main(["converge", "--paths", "2", "--set", "grid.n_modes=64",
                     "--set", "sim.horizon=0.05", "--set", "noise.family=linear"])
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
        # one path prints the summaries of any path count and persists its rows
        out = tmp_path / "path.jsonl"
        code = main(["simulate", "--paths", "1", "--out", str(out),
                     "--set", "sim.horizon=0.01",
                     "--set", "grid.n_modes=64",
                     "--set", "study.amplitude=0.1"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_paths"] == 1 and summary["status_counts"] == {"completed": 1}
        head, path, *rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert head["kind"] == "header" and head["n_paths"] == 1
        assert path["kind"] == "path" and path["index"] == 0
        # 10 steps recorded every 10, and the start
        assert [row["v"][0] for row in rows] == [0.0, 0.01]

    def test_simulate_single_path_is_path_0(self, tmp_path):
        # one path is path 0 of the ensemble, which runs on its own path seed
        single, ens = tmp_path / "single.jsonl", tmp_path / "ens.jsonl"
        argv = ["simulate", "--seed", "7", "--set", "sim.horizon=0.01",
                "--set", "grid.n_modes=64", "--set", "noise.family=linear",
                "--set", "study.amplitude=0.1", "--set", "sim.record_every=2"]
        assert main(argv + ["--paths", "1", "--out", str(single)]) == 0
        assert main(argv + ["--paths", "2", "--out", str(ens)]) == 0
        _, *lines = single.read_text().splitlines()
        ens_lines = ens.read_text().splitlines()
        path0 = json.loads(lines[0])
        assert path0["index"] == 0
        assert path0["seed"] == path_seed(7, 0) != 7
        assert path0["extremes"] == {name: max(json.loads(row)["v"][j + 1] for row in lines[1:])
                                     for j, name in enumerate(DIAGNOSTIC_NAMES)}
        # path 0 and its rows, as the two-path file writes them
        assert ens_lines[1:1 + len(lines)] == lines
        assert json.loads(ens_lines[1 + len(lines)])["index"] == 1

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
                     "--set", "sim.horizon=0.048",
                     "--set", "study.dt_list=[0.004,0.001]",
                     "--set", "study.amplitude=0.2"])
        assert code in (0, 2)  # ordering can be noisy at this tiny scale
        assert "refinement ratios" in capsys.readouterr().out

    def test_girsanov_seed_52_passes(self, capsys):
        # the first refinement ratio read 0.46 at this seed under
        # Euler-Maruyama increments
        code = main(["girsanov", "--seed", "52"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("coupled residual") == 3

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
                     "--set", "sim.blowup_threshold=1.3817"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("coupled residual nan  (path blewup)") == 3

    def test_girsanov_zero_residual_fails(self, tmp_path, capsys):
        # zero initial data stays zero on both sides of the coupling, so every
        # residual is exactly 0 and has no refinement ratio
        rep = tmp_path / "girsanov.csv"
        code = main(["girsanov", "--set", "study.amplitude=0", "--set", "grid.n_modes=64",
                     "--set", "sim.horizon=0.012", "--report", str(rep)])
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

    @pytest.mark.parametrize("n_list", ["[64]", "[64,64]"])
    def test_instability_one_carrier_is_a_usage_error(self, n_list, monkeypatch, capsys):
        # one carrier has no defect slope to fit: rejected before any defect runs
        def forbidden(*args, **kwargs):
            raise AssertionError("study work started")
        monkeypatch.setattr(instability, "error_functional_ensemble", forbidden)
        code = main(["instability", "--paths", "0", "--set", f"study.n_list={n_list}",
                     "--set", "sim.horizon=0.05", "--set", "sim.dt=0.01",
                     "--set", "study.separation_n=64"])
        captured = capsys.readouterr()
        assert code == 3
        assert "two distinct carriers in study.n_list" in captured.err
        assert captured.out == ""

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
