"""Monte Carlo orchestration, persistence and the mollifier-convergence study.

Path i of study seed ``seed_base`` runs on :func:`~ccflab.noise.path_seed`
``(seed_base, i)``, computed in the parent, so results are independent of the
worker count and scheduling order; they come back in path-index order, and
aggregating them is idempotent.  Every result carries a digest of its
configuration, which :func:`persist` writes into the header of its JSON-lines
file.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .integrate import DIAGNOSTIC_NAMES, PathRecord, SimConfig, power_law_field, simulate_path
from .noise import path_seed, stream
from .spectral import Field, sobolev_norm

__all__ = [
    "EnsembleResult",
    "run_paths",
    "SimTask",
    "run_ensemble",
    "recompute_summaries",
    "config_digest",
    "persist",
    "rate_fit",
    "convergence_study",
    "wilson_ci",
]


def run_paths(task, seed_base: int, num_paths: int, workers: int = 1) -> list:
    """Map a picklable ``task(seed)`` over the per-path seeds.

    The result order is by path index regardless of scheduling.
    """
    seeds = [path_seed(seed_base, i) for i in range(num_paths)]
    if workers <= 1 or num_paths <= 1:
        return [task(s) for s in seeds]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(task, seeds)


# -- ensemble of SPDE paths -------------------------------------------------------


@dataclass
class EnsembleResult:
    """The paths of one ensemble in index order, path i on ``seeds[i]``."""

    config_digest: str
    seeds: list[int]
    records: list[PathRecord]
    summaries: dict


def config_digest(cfg) -> str:
    """Stable digest of a :class:`~ccflab.integrate.SimConfig`; the type of
    every nested dataclass is hashed with its fields."""
    text = json.dumps(_plain(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(obj):
    if not is_dataclass(obj):
        return obj
    return {"__type__": type(obj).__name__,
            **{f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}}


def _extremes(rec: PathRecord) -> dict[str, float]:
    """The largest recorded value of each diagnostic of one path."""
    return {k: float(np.max(v)) for k, v in rec.diagnostics.items()}


def recompute_summaries(records: list[PathRecord]) -> dict:
    """Aggregate one or more paths; applying this twice is a no-op."""
    n = len(records)
    statuses = [r.status for r in records]
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    n_blew = counts.get("blewup", 0)
    lo, hi = wilson_ci(n_blew, n)
    extremes = [_extremes(r) for r in records]
    summary = {
        "n_paths": n,
        "status_counts": counts,
        "blowup_fraction": n_blew / n,
        "blowup_ci": [lo, hi],
        "extremes": {},
    }
    for k in sorted(DIAGNOSTIC_NAMES):
        vals = np.array([e[k] for e in extremes])
        summary["extremes"][k] = {"mean": float(vals.mean()),
                                  "var": float(vals.var(ddof=1)) if n > 1 else 0.0,
                                  "max": float(vals.max())}
    return summary


# two-sided 95% standard normal quantile
WILSON_Z = 1.959964


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (robust at small counts) of ``trials >= 1``."""
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return center - half, center + half


@dataclass(frozen=True)
class SimTask:
    """Picklable per-seed task: one SPDE path from shared initial data."""

    cfg: SimConfig
    u0: Field

    def __call__(self, seed: int) -> PathRecord:
        return simulate_path(replace(self.cfg, seed=seed), self.u0)


def run_ensemble(cfg: SimConfig, u0: Field, num_paths: int,
                 workers: int = 1) -> EnsembleResult:
    """``num_paths >= 1`` independent paths from shared initial data, path i
    on ``path_seed(cfg.seed, i)``."""
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    records = run_paths(SimTask(cfg, u0), cfg.seed, num_paths, workers)
    seeds = [path_seed(cfg.seed, i) for i in range(num_paths)]
    return EnsembleResult(config_digest(cfg), seeds, records, recompute_summaries(records))


# -- persistence --------------------------------------------------------------------


def persist(result: EnsembleResult, path: str):
    """JSON-lines: one header row, then per path in index order its summary
    row followed by one row per recorded step."""
    with open(path, "w") as fh:
        def write(row: dict):
            fh.write(json.dumps(row) + "\n")

        write({"kind": "header", "config_digest": result.config_digest,
               "n_paths": len(result.records), "columns": ["t", *DIAGNOSTIC_NAMES]})
        for i, (seed, rec) in enumerate(zip(result.seeds, result.records)):
            write({"kind": "path", "index": i, "seed": seed, "status": rec.status,
                   "t_stop": rec.t_stop, "extremes": _extremes(rec)})
            for j, t in enumerate(rec.times):
                write({"kind": "row", "v": [float(t)] + [float(rec.diagnostics[k][j])
                                                         for k in DIAGNOSTIC_NAMES]})


# -- rate fitting ---------------------------------------------------------------------


def rate_fit(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Log-log least squares; returns ``(slope, intercept, r_squared)``."""
    if len({x for x, _ in points}) < 2:
        raise ValueError("rate fit needs at least two distinct abscissae")
    xs = np.log(np.array([p[0] for p in points], dtype=float))
    ys = np.log(np.array([p[1] for p in points], dtype=float))
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("rate fit needs positive finite values")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# -- mollifier convergence study -------------------------------------------------------


@dataclass(frozen=True)
class _CoupledFamilyTask:
    """Sup-differences of all widths against one shared reference run, for one
    seed (the Wiener realization couples every member of the family)."""

    cfg: SimConfig
    u0: Field
    eps_list: tuple[float, ...]
    eps_ref: float
    k_threshold: float

    def __call__(self, seed: int) -> list[float]:
        base = replace(self.cfg, seed=seed, keep_snapshots=True)
        rec_r = simulate_path(replace(base, eps_mollify=self.eps_ref), self.u0)
        s32 = self.cfg.s - 1.5
        out = []
        for eps in self.eps_list:
            rec_e = simulate_path(replace(base, eps_mollify=eps), self.u0)
            worst = 0.0
            for (te, ue), (tr, ur) in zip(rec_e.snapshots, rec_r.snapshots):
                if abs(te - tr) > 1e-12:
                    break
                # stopped supremum: both paths must stay inside the K-ball
                if sobolev_norm(ue, self.cfg.s) >= self.k_threshold or \
                        sobolev_norm(ur, self.cfg.s) >= self.k_threshold:
                    break
                worst = max(worst, sobolev_norm(ue - ur, s32) ** 2)
            out.append(worst)
        return out


def convergence_study(cfg: SimConfig, eps_list: list[float], num_paths: int,
                      eps_ref: float | None = None, workers: int = 1) -> dict:
    """Coupled-pair mollifier convergence: ensemble mean of the stopped
    supremum of the squared H^{s-3/2} gap against the reference width, with a
    log-log rate fit.

    The initial datum is a power-law spectrum at the critical decay for the
    configured Sobolev index, drawn from the data stream ``stream(cfg.seed)``;
    it keeps tail mass at every scale (smooth data would collapse the study
    to spectral round-off).  The sup stops once either path leaves the ball of
    radius ``50 |u0|_{H^s}``.
    """
    if len(set(eps_list)) < 2:
        raise ValueError("need at least two distinct mollifier widths")
    eps_sorted = sorted(eps_list, reverse=True)
    if eps_ref is None:
        eps_ref = eps_sorted[-1] / 4.0
    u0 = power_law_field(cfg.grid, cfg.s, stream(cfg.seed), amplitude=1.0)
    k_threshold = 50.0 * sobolev_norm(u0, cfg.s)

    task = _CoupledFamilyTask(cfg, u0, tuple(eps_sorted), eps_ref, k_threshold)
    per_seed = np.array(run_paths(task, cfg.seed, num_paths, workers))
    table = []
    for j, eps in enumerate(eps_sorted):
        sups = per_seed[:, j]
        table.append({"eps": eps, "mean_sq_gap": float(sups.mean()),
                      "sem": float(sups.std(ddof=1) / np.sqrt(num_paths))
                      if num_paths > 1 else 0.0})
    # a width that leaves every retained mode unchanged has a gap of exactly
    # 0, which has no logarithm: report those widths instead of a fit
    zero_gap_eps = [row["eps"] for row in table if row["mean_sq_gap"] == 0.0]
    slope = float("nan")
    if not zero_gap_eps:
        slope, _, _ = rate_fit([(row["eps"], row["mean_sq_gap"]) for row in table])
    return {"table": table, "slope": slope, "zero_gap_eps": zero_gap_eps}
