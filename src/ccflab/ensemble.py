"""Monte Carlo orchestration, persistence and the mollifier-convergence study.

Every study runs its SPDE paths through :func:`run_paths`, path i on
:func:`~ccflab.noise.path_seed` ``(cfg.seed, i)``, computed in the parent, so
results are independent of the worker count and scheduling order; they come
back in path-index order, and aggregating them is idempotent.  Every result
carries a digest of its configuration, which :func:`persist` writes into the
header of its JSON-lines file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .integrate import DIAGNOSTIC_NAMES, PathRecord, SimConfig, power_law_field, simulate_path
from .noise import path_seed, stream
from .spectral import Field, sobolev_norm

__all__ = [
    "EnsembleResult",
    "run_paths",
    "run_ensemble",
    "recompute_summaries",
    "config_digest",
    "persist",
    "rate_fit",
    "convergence_study",
    "wilson_ci",
]


@dataclass(frozen=True)
class _PathTask:
    """Picklable per-seed task: one SPDE path from shared initial data."""

    cfg: SimConfig
    u0: Field

    def __call__(self, seed: int) -> PathRecord:
        return simulate_path(replace(self.cfg, seed=seed), self.u0)


def run_paths(cfg: SimConfig, u0: Field, num_paths: int,
              workers: int = 1) -> list[PathRecord]:
    """The one runner of SPDE paths: ``num_paths`` paths from shared initial data,
    path i on ``path_seed(cfg.seed, i)``, in path-index order whatever the
    scheduling, on at most ``num_paths`` worker processes."""
    task = _PathTask(cfg, u0)
    seeds = [path_seed(cfg.seed, i) for i in range(num_paths)]
    if workers <= 1 or num_paths <= 1:
        return [task(s) for s in seeds]
    # only a pool needs it, so a study run on one worker skips its import
    import multiprocessing
    with multiprocessing.Pool(processes=min(workers, num_paths)) as pool:
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


def run_ensemble(cfg: SimConfig, u0: Field, num_paths: int,
                 workers: int = 1) -> EnsembleResult:
    """``num_paths >= 1`` independent paths from shared initial data, path i
    on ``path_seed(cfg.seed, i)``."""
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    records = run_paths(cfg, u0, num_paths, workers)
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


def rate_fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Log-log least squares; returns ``(slope, r_squared)``."""
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
    return float(slope), r2


# -- mollifier convergence study -------------------------------------------------------


def _stopped_sup(rec_e: PathRecord, rec_r: PathRecord, s: float, k_threshold: float) -> float:
    """Sup of the squared H^{s-3/2} gap of two paths on one path seed over their
    shared recorded times, stopped once either leaves the ``k_threshold`` ball."""
    worst = 0.0
    for (te, ue), (tr, ur) in zip(rec_e.snapshots, rec_r.snapshots):
        # a path that blew up recorded its last state off the record grid
        if te != tr:
            break
        if sobolev_norm(ue, s) >= k_threshold or sobolev_norm(ur, s) >= k_threshold:
            break
        worst = max(worst, sobolev_norm(ue - ur, s - 1.5) ** 2)
    return worst


def convergence_study(cfg: SimConfig, eps_list: list[float], num_paths: int,
                      eps_ref: float | None = None, workers: int = 1) -> dict:
    """Coupled-pair mollifier convergence: ensemble mean of the stopped
    supremum of the squared H^{s-3/2} gap against the reference width, with a
    log-log rate fit.

    Every width runs the same path seeds as the reference, so path i of each
    sees one Wiener path.  The initial datum is a power-law spectrum at the
    critical decay for the configured Sobolev index, drawn from the data
    stream ``stream(cfg.seed)``; it keeps tail mass at every scale (smooth
    data would collapse the study to spectral round-off).  The sup stops once
    either path leaves the ball of radius ``50 |u0|_{H^s}``.
    """
    if len(set(eps_list)) < 2:
        raise ValueError("need at least two distinct mollifier widths")
    eps_sorted = sorted(eps_list, reverse=True)
    if eps_ref is None:
        eps_ref = eps_sorted[-1] / 4.0
    u0 = power_law_field(cfg.grid, cfg.s, stream(cfg.seed), amplitude=1.0)
    k_threshold = 50.0 * sobolev_norm(u0, cfg.s)

    def paths(eps: float) -> list[PathRecord]:
        return run_paths(replace(cfg, eps_mollify=eps, keep_snapshots=True), u0,
                         num_paths, workers)

    ref = paths(eps_ref)
    table = []
    for eps in eps_sorted:
        sups = np.array([_stopped_sup(rec, rec_r, cfg.s, k_threshold)
                         for rec, rec_r in zip(paths(eps), ref)])
        table.append({"eps": eps, "mean_sq_gap": float(sups.mean()),
                      "sem": float(sups.std(ddof=1) / np.sqrt(num_paths))
                      if num_paths > 1 else 0.0})
    # a width that leaves every retained mode unchanged has a gap of exactly
    # 0, which has no logarithm: report those widths instead of a fit
    zero_gap_eps = [row["eps"] for row in table if row["mean_sq_gap"] == 0.0]
    slope = float("nan")
    if not zero_gap_eps:
        slope, _ = rate_fit([(row["eps"], row["mean_sq_gap"]) for row in table])
    return {"table": table, "slope": slope, "zero_gap_eps": zero_gap_eps}
