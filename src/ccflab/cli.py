"""Batch command line: every study as a subcommand over one JSON config.

Config key tree (defaults shown by ``--dump-config``):

* ``grid.*``      period, n_modes (products are dealiased by the 2/3 rule)
* ``sim.*``       s, dt, horizon, eps_mollify, blowup_threshold, record_every,
                  seed
* ``noise.*``     family (zero | general | strong | linear | instability) and
                  its parameters (q, theta, b0, lam, b_star, k_exp, n_exp,
                  sigma0, n_components, component_decay)
* ``study.*``     per-subcommand knobs (paths, widths, carrier lists, ...)

``sim.horizon`` is the horizon of every study; ``instability`` runs its
separation experiment to at least 1.8 (past pi/2).

Overrides: ``--set key.path=value`` with JSON-typed values.  Every leaf, from
``--config`` or ``--set``, is checked against the type of its default, and a
``null`` default stands for an optional number.  Every subcommand takes
``--config``, ``--seed`` and ``--set``, plus only those of ``--paths``,
``--out`` and ``--report`` that it reads.
Every subcommand is deterministic given (config, seed) and rewrites its
outputs byte-identically.  Exit codes: 0 pass, 2 acceptance failure, 3 usage
or runtime error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics, ensemble, girsanov, instability
from .integrate import SimConfig, blowup_bump, power_law_field, whole_steps
from .noise import GeneralH, InstabilityH, LinearB, StrongAlpha, ZeroNoise, stream
from .spectral import (
    SpectralGrid,
    cotlar_residual,
    derivative,
    frac_laplacian,
    hilbert,
    lambda_shift_residual,
    random_band_limited,
    sobolev_norm,
)

DEFAULTS: dict = {
    "grid": {"period": 2.0 * np.pi, "n_modes": 256},
    "sim": {
        "s": 3.1, "dt": 1e-3, "horizon": 1.0, "eps_mollify": 0.0,
        "blowup_threshold": 1e3, "record_every": 10, "seed": 0,
    },
    "noise": {
        "family": "zero", "q": 1.0, "theta": 1.0, "b0": 0.5, "lam": 1.0,
        "b_star": None, "k_exp": 1, "n_exp": 1, "sigma0": 1.6,
        "n_components": 8, "component_decay": 2.0,
    },
    "study": {
        "paths": 8, "workers": 1, "tolerance": 1e-10, "fields": 100,
        "f0": 10.0, "width": 1.0, "threshold_k": 0.5, "mc_paths": 100000,
        "eps_list": [0.125, 0.0625, 0.03125, 0.015625], "eps_ref": None,
        "n_list": [64, 128, 256, 512, 1024], "delta": 0.9, "m": 1,
        "dt_list": [4e-3, 1e-3, 2.5e-4], "k1": None,
        "k2": 0.5, "q_hat": None, "separation_n": 1024, "amplitude": 1.0,
    },
}


def merge_config(base: dict, override, schema: dict = DEFAULTS, prefix: str = "") -> dict:
    """``base`` with the leaves of ``override`` laid over it, each checked by
    :func:`_typed` against its ``schema`` default."""
    if not isinstance(override, dict):
        raise TypeError(f"config {prefix.rstrip('.') or 'file'}: expected a section, "
                        f"got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = prefix + key
        if key not in schema:
            raise KeyError(f"unknown config key: {name}")
        if isinstance(schema[key], dict):
            out[key] = merge_config(out[key], val, schema[key], name + ".")
        else:
            out[key] = _typed(name, schema[key], val)
    return out


def apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override must look like key.path=value: {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if isinstance(value, dict):
            raise TypeError(f"override {key}: expected a value, got a section; "
                            "set its keys one by one")
        for part in reversed(key.split(".")):
            value = {part: value}
        cfg = merge_config(cfg, value)
    return cfg


def _typed(key: str, default, value):
    """``value`` checked against the type of its schema ``default``: an int is
    taken for a float (and converted), no key takes a bool, ``null`` only
    where the default is ``null``, a ``null`` default takes a number (every
    one is an optional float), and a list is checked item by item against the
    type of its default's items."""
    if isinstance(default, list) and default and isinstance(value, list):
        if None in value:
            raise TypeError(f"override {key}: null list item")
        return [_typed(key, default[0], v) for v in value]
    if value is None:
        if default is not None:
            raise TypeError(f"override {key}: expected {type(default).__name__}, got null")
        return None
    if default is None:
        default = 0.0
    # bool is an int subclass, and no key takes a bool
    if isinstance(value, bool) or (
            not isinstance(value, type(default))
            and not (isinstance(default, float) and isinstance(value, int))):
        raise TypeError(f"override {key}: expected {type(default).__name__}, "
                        f"got {type(value).__name__}")
    return float(value) if isinstance(default, float) else value


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        cfg = merge_config(cfg, json.loads(Path(path).read_text()))
    return apply_overrides(cfg, overrides)


def build_grid(cfg: dict) -> SpectralGrid:
    return SpectralGrid(period=cfg["grid"]["period"], n_modes=cfg["grid"]["n_modes"])


def build_noise(cfg: dict, family: str | None = None):
    """The noise model of ``family`` (default ``noise.family``) from the
    ``noise.*`` parameters."""
    n = cfg["noise"]
    family = n["family"] if family is None else family
    if family == "zero":
        return ZeroNoise()
    if family == "general":
        return GeneralH(q=n["q"], exponent_k=n["k_exp"], exponent_n=n["n_exp"],
                        n_components=n["n_components"],
                        component_decay=n["component_decay"])
    if family == "strong":
        return StrongAlpha(q=n["q"], theta=n["theta"])
    if family == "linear":
        b_star = n["b_star"] if n["b_star"] is not None else 1.05 * n["b0"] ** 2
        return LinearB(b0=n["b0"], lam=n["lam"], b_star=b_star)
    if family == "instability":
        return InstabilityH(q=n["q"], exponent_k=n["k_exp"], exponent_n=n["n_exp"],
                            sigma0=n["sigma0"])
    raise ValueError(f"unknown noise family {family!r}")


def build_sim(cfg: dict, family: str | None = None) -> SimConfig:
    """The path settings of ``sim.*`` on the grid of ``grid.*``, with the
    noise model of ``family`` (default ``noise.family``)."""
    s = cfg["sim"]
    return SimConfig(
        grid=build_grid(cfg), s=s["s"], dt=s["dt"], horizon=s["horizon"],
        noise=build_noise(cfg, family),
        seed=s["seed"], eps_mollify=s["eps_mollify"],
        blowup_threshold=s["blowup_threshold"], record_every=s["record_every"],
    )


def study_paths(cfg: dict, args, minimum: int) -> int:
    """``--paths`` if given, else ``study.paths``; fewer than ``minimum`` is a
    usage error."""
    n = args.paths if args.paths is not None else cfg["study"]["paths"]
    if n < minimum:
        raise ValueError(f"paths must be >= {minimum}, got {n}")
    return n


def write_csv(path: str | None, header: list[str], rows: list[list]):
    if path is None:
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# -- subcommands ----------------------------------------------------------------


def cmd_identities(cfg: dict, args) -> int:
    tol = cfg["study"]["tolerance"]
    n_fields = cfg["study"]["fields"]
    if n_fields < 1:
        raise ValueError(f"fields must be >= 1, got {n_fields}")
    grid = build_grid(cfg)
    rng = stream(cfg["sim"]["seed"])
    rows, failed = [], False
    worst = {"cotlar": 0.0, "coordinate_commutation": 0.0, "double_hilbert": 0.0,
             "gradient_symbol": 0.0}
    for _ in range(n_fields):
        f = random_band_limited(grid, grid.dealias_keep, rng,
                                rms=rng.uniform(0.2, 2.0))
        l2 = sobolev_norm(f, 0.0)
        worst["cotlar"] = max(worst["cotlar"], cotlar_residual(f) / l2**2)
        worst["coordinate_commutation"] = max(worst["coordinate_commutation"],
                                              lambda_shift_residual(f) / l2)
        hh = hilbert(hilbert(f)) + f
        worst["double_hilbert"] = max(worst["double_hilbert"],
                                      sobolev_norm(hh, 0.0) / l2)
        sym = hilbert(derivative(f)) + frac_laplacian(f)
        worst["gradient_symbol"] = max(worst["gradient_symbol"],
                                       sobolev_norm(sym, 0.0) / l2)
    for name, value in worst.items():
        ok = value <= tol
        failed |= not ok
        rows.append([name, value, tol, "pass" if ok else "FAIL"])
        print(f"identity {name:26s} worst {value:10.3e}  tol {tol:g}  "
              f"{'pass' if ok else 'FAIL'}")
    # packet-norm limit sweep
    for profile_name, profile in (("bump", instability.phi_profile),
                                  ("gauss", lambda y: np.exp(-(y**2)))):
        for r in (0.0, 1.0, 1.6):
            ratio = instability.packet_norm_ratio(profile, 4096, r, 0.9)
            ok = abs(ratio - 1.0) < 0.05
            failed |= not ok
            rows.append([f"packet_limit_{profile_name}_r{r}", ratio, 0.05,
                         "pass" if ok else "FAIL"])
            print(f"packet ratio {profile_name:6s} r={r:3.1f}: {ratio:8.5f}  "
                  f"{'pass' if ok else 'FAIL'}")
    write_csv(args.report, ["check", "value", "tolerance", "status"], rows)
    return 2 if failed else 0


def cmd_simulate(cfg: dict, args) -> int:
    sim = build_sim(cfg)
    u0 = power_law_field(sim.grid, sim.s, stream(sim.seed),
                         amplitude=cfg["study"]["amplitude"])
    n_paths = study_paths(cfg, args, 1)
    result = ensemble.run_ensemble(sim, u0, n_paths,
                                   workers=cfg["study"]["workers"])
    print(json.dumps(result.summaries, indent=2, sort_keys=True))
    if args.out:
        ensemble.persist(result, args.out)
    return 0


def cmd_blowup(cfg: dict, args) -> int:
    study = cfg["study"]
    sim = build_sim(cfg, "linear")
    k_thr = study["threshold_k"]
    u0 = blowup_bump(sim.grid, study["f0"], width=study["width"])
    n_paths = study_paths(cfg, args, 1)
    res = girsanov.blowup_ensemble(sim, k_thr, u0, n_paths,
                                   mc_paths=study["mc_paths"],
                                   workers=study["workers"])
    b = res.bound
    print(f"blowup fraction {res.fraction:.4f} ({res.n_blewup}/{res.n_paths}), "
          f"bound {b['estimate']:.4f} [{b['ci_lo']:.4f}, {b['ci_hi']:.4f}], "
          f"oracle {b['oracle']}")
    write_csv(args.report,
              ["b0", "lambda", "K", "bound_mc", "bound_oracle", "spde_fraction",
               "ci_lo", "ci_hi"],
              [[sim.noise.b0, sim.noise.lam, k_thr, b["estimate"], b["oracle"],
                res.fraction, b["ci_lo"], b["ci_hi"]]])
    return 0 if res.passed else 2


def cmd_global(cfg: dict, args) -> int:
    study = cfg["study"]
    sim = build_sim(cfg, "strong")
    model = sim.noise
    u0 = blowup_bump(sim.grid, study["f0"], width=study["width"])
    n_paths = study_paths(cfg, args, diagnostics.MIN_GROWTH_PATHS)
    q_hat = study["q_hat"]
    if q_hat is None:
        q_hat = diagnostics.estimate_commutator_constant(1000, sim.s,
                                                         stream(sim.seed, 2, 0))
    model.validate(q_hat=q_hat)
    k1 = study["k1"]
    # a fitted K1 is positive by construction
    if min(study["k2"], q_hat, 1.0 if k1 is None else k1) <= 0.0:
        raise ValueError("k1, k2 and q_hat must be positive")
    if k1 is None:
        k1 = diagnostics.fit_k1_from_sweep(model, sim.s, q_hat, study["k2"],
                                           stream(sim.seed, 2, 1))
    records = ensemble.run_paths(sim, u0, n_paths, workers=study["workers"])
    n_done, n_blew, n_div = (sum(r.status == status for r in records)
                             for status in ("completed", "blewup", "diverged"))
    # too few completed paths for the growth check is a failed study
    slope, growth_ok = diagnostics.lyapunov_growth_check(records, k1) \
        if n_done >= diagnostics.MIN_GROWTH_PATHS else (float("nan"), False)
    print(f"paths {n_paths}: completed {n_done}, blewup {n_blew}, diverged {n_div}; "
          f"lyapunov slope {slope:.4f} vs K1={k1:.4f} ({'pass' if growth_ok else 'FAIL'})")
    write_csv(args.report, ["theta", "q", "paths", "blowups", "completed", "diverged",
                            "k1", "slope", "growth_ok"],
              [[model.theta, model.q, n_paths, n_blew, n_done, n_div, k1, slope,
                growth_ok]])
    return 0 if (n_blew == 0 and growth_ok) else 2


def cmd_girsanov(cfg: dict, args) -> int:
    study = cfg["study"]
    if len(set(study["dt_list"])) < 2:
        raise ValueError("need at least two distinct step sizes in study.dt_list")
    base = build_sim(cfg, "linear")
    u0 = power_law_field(base.grid, base.s, stream(base.seed), amplitude=study["amplitude"],
                         max_mode=base.grid.dealias_keep // 4)
    rows, residuals, stopped = [], [], False
    for dt in study["dt_list"]:
        sim = replace(base, dt=dt, record_every=max(1, int(round(0.02 / dt))))
        res, status = girsanov.girsanov_residual(sim, u0)
        residuals.append(res)
        rows.append([dt, res])
        # a path that stopped before the horizon has no residual to refine
        stopped |= status != "completed"
        note = "" if status == "completed" else f"  (path {status})"
        print(f"dt={dt:9.3g}  coupled residual {res:.6e}{note}")
    write_csv(args.report, ["dt", "residual"], rows)
    # an exact 0 residual has no refinement ratio: report its step sizes
    zero_dt = [dt for dt, res in zip(study["dt_list"], residuals) if res == 0.0]
    if zero_dt:
        print(f"FAIL: residual exactly 0 at dt = {', '.join(f'{dt:g}' for dt in zero_dt)}; "
              "no refinement ratios")
        return 2
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ok = not stopped and all(r > 1.0 for r in ratios)
    print("refinement ratios:", ", ".join(f"{r:.2f}" for r in ratios))
    return 0 if ok else 2


def cmd_instability(cfg: dict, args) -> int:
    study = cfg["study"]
    # the whole-step checks on horizon and dt, the separation's too, before any work
    sim = build_sim(cfg, "instability")
    noise, horizon, dt, seed = sim.noise, sim.horizon, sim.dt, sim.seed
    sep_horizon = max(horizon, 1.8)
    whole_steps(sep_horizon, dt)
    n_paths = study_paths(cfg, args, 0)   # 0: deterministic defect only
    if len(set(study["n_list"])) < 2:
        raise ValueError("need at least two distinct carriers in study.n_list")
    # one parameter set, re-used at every carrier n (the decay exponent and
    # the separation experiment do not depend on n or m)
    sep_p = instability.InstabilityParams(m=study["m"],
                                          n=study["separation_n"],
                                          delta=study["delta"], s=sim.s)
    rows = []
    points = []
    for n in study["n_list"]:
        p = replace(sep_p, n=n)
        out = instability.error_functional_ensemble(p, noise, n_paths, horizon,
                                                    dt, seed=seed)
        points.append((float(n), out["mean_sup_sq"]))
        rows.append([n, out["mean_sup_sq"], out["det_sup_sq"]])
        print(f"n={n:5d}  E sup |defect|^2 = {out['mean_sup_sq']:.6e}")
    slope, r2 = ensemble.rate_fit(points)
    target = 2.0 * sep_p.rate_error(noise.sigma0) + 0.3
    print(f"defect slope {slope:.3f} (target <= {target:.3f}, r2={r2:.3f})")
    write_csv(args.report, ["n", "mean_sup_sq_defect", "det_sup_sq"], rows)

    sep = instability.separation_experiment(sep_p, horizon=sep_horizon,
                                            dt=dt, noise=noise,
                                            num_paths=max(1, n_paths // 4), seed=seed)
    if args.out:
        write_csv(args.out, ["t", "gap", "reference"],
                  [[t, g, r] for t, g, r in zip(sep["times"], sep["gap_curve"],
                                                sep["reference"])])
    for sign in (+1, -1):
        for idx, status in enumerate(sep["status"][sign]):
            if status != "completed":
                print(f"separation path {idx} m={sign:+d}: {status} at "
                      f"t={sep['t_stop'][sign][idx]:.4g}")
    if sep["times"][-1] < np.pi / 2:
        sep_ok = False
        print(f"separation at t=pi/2: curve ends at t={sep['times'][-1]:.4g} (FAIL)")
    else:
        j = int(np.argmin(np.abs(sep["times"] - np.pi / 2)))
        sep_ok = sep["gap_curve"][j] >= 0.5 * sep["reference"][j]
        print(f"separation at t=pi/2: gap {sep['gap_curve'][j]:.4f} vs "
              f"reference {sep['reference'][j]:.4f} ({'pass' if sep_ok else 'FAIL'})")
    return 0 if (slope <= target and sep_ok) else 2


def cmd_converge(cfg: dict, args) -> int:
    study = cfg["study"]
    sim = build_sim(cfg)
    n_paths = study_paths(cfg, args, 1)
    if isinstance(sim.noise, ZeroNoise) and n_paths > 1:
        # without noise every path is the same path
        print(f"noise is deterministic: 1 path run, not {n_paths}")
        n_paths = 1
    out = ensemble.convergence_study(sim, list(study["eps_list"]), n_paths,
                                     eps_ref=study["eps_ref"],
                                     workers=study["workers"])
    for row in out["table"]:
        print(f"eps={row['eps']:9.3g}  E sup gap^2 = {row['mean_sq_gap']:.6e} "
              f"(+-{row['sem']:.1e})")
    write_csv(args.report, ["eps", "mean_sq_gap", "sem"],
              [[r["eps"], r["mean_sq_gap"], r["sem"]] for r in out["table"]])
    if out["zero_gap_eps"]:
        widths = ", ".join(f"{eps:g}" for eps in out["zero_gap_eps"])
        print(f"FAIL: gap exactly 0 at eps = {widths}; no rate fit")
        return 2
    print(f"slope {out['slope']:.3f} (expect >= 0.8)")
    return 0 if out["slope"] >= 0.8 else 2


# each subcommand with the optional flags it reads
COMMANDS = {
    "identities": (cmd_identities, ("report",)),
    "simulate": (cmd_simulate, ("paths", "out")),
    "blowup": (cmd_blowup, ("paths", "report")),
    "global": (cmd_global, ("paths", "report")),
    "girsanov": (cmd_girsanov, ("report",)),
    "instability": (cmd_instability, ("paths", "out", "report")),
    "converge": (cmd_converge, ("paths", "report")),
}
FLAGS = {
    "paths": {"type": int, "default": None, "help": "override study.paths"},
    "out": {"default": None, "help": "primary output file"},
    "report": {"default": None, "help": "CSV report file"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 3; 2 is the code of a failed check."""
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="ccflab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--dump-config", action="store_true",
                        help="print the default config tree and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (fn, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override sim.seed")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        dest="overrides", help="dotted-key config override")
        for flag in flags:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
    args = parser.parse_args(argv)
    if args.dump_config:
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True, default=float))
        return 0
    if args.command is None:
        parser.print_help()
        return 3
    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg["sim"]["seed"] = args.seed
        return COMMANDS[args.command][0](cfg, args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
