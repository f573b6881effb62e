"""Monte Carlo orchestration, persistence and the mollifier-convergence study.

Per-path seeds are ``seed_base XOR index``, so results are independent of the
worker count and scheduling order; aggregation always happens after a
deterministic sort by path index.  Summaries are recomputed from the per-path
rows on load (idempotent aggregation), and every result carries a digest of
its configuration so shards from different configurations cannot be merged
silently.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .integrate import PathRecord, SimConfig, power_law_field, simulate_path
from .spectral import Field, sobolev_norm

__all__ = [
    "PathOutcome",
    "EnsembleResult",
    "path_seed",
    "run_paths",
    "SimTask",
    "run_ensemble",
    "recompute_summaries",
    "config_digest",
    "persist",
    "load",
    "merge",
    "rate_fit",
    "convergence_study",
    "wilson_ci",
]


def path_seed(seed_base: int, index: int) -> int:
    """Deterministic per-path seed: ``seed_base XOR index``."""
    return int(np.uint64(seed_base) ^ np.uint64(index))


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
class PathOutcome:
    """Scalar summary of one path."""

    index: int
    seed: int
    status: str
    t_stop: float
    extremes: dict[str, float]
    values: dict[str, float]


@dataclass
class EnsembleResult:
    run_id: str
    config_digest: str
    per_path: list[PathOutcome]
    summaries: dict
    rate_fits: dict | None = None


def config_digest(cfg) -> str:
    """Stable digest of a configuration dataclass (or plain dict); the type of
    every nested dataclass is hashed with its fields."""
    text = json.dumps(_plain(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def recompute_summaries(per_path: list[PathOutcome]) -> dict:
    """Aggregate per-path rows; applying this twice is a no-op by construction."""
    n = len(per_path)
    statuses = [p.status for p in per_path]
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    n_blew = counts.get("blewup", 0)
    lo, hi = wilson_ci(n_blew, n) if n else (0.0, 1.0)
    summary = {
        "n_paths": n,
        "status_counts": counts,
        "blowup_fraction": (n_blew / n) if n else 0.0,
        "blowup_ci": [lo, hi],
        "extremes": {},
        "values": {},
    }
    if n:
        keys = sorted({k for p in per_path for k in p.extremes})
        for k in keys:
            vals = np.array([p.extremes[k] for p in per_path if k in p.extremes])
            summary["extremes"][k] = {"mean": float(vals.mean()),
                                      "var": float(vals.var(ddof=1)) if vals.size > 1 else 0.0,
                                      "max": float(vals.max())}
        vkeys = sorted({k for p in per_path for k in p.values})
        for k in vkeys:
            vals = np.array([p.values[k] for p in per_path if k in p.values])
            summary["values"][k] = {"mean": float(vals.mean()),
                                    "var": float(vals.var(ddof=1)) if vals.size > 1 else 0.0}
    return summary


def wilson_ci(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """Wilson score interval (robust at small counts)."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return center - half, center + half


def _outcome_from_record(index: int, seed: int, rec: PathRecord) -> PathOutcome:
    extremes = {k: float(np.max(v)) for k, v in rec.diagnostics.items()}
    return PathOutcome(index, seed, rec.status, rec.t_stop, extremes, {})


@dataclass(frozen=True)
class SimTask:
    """Picklable per-seed task: one SPDE path from shared initial data."""

    cfg: SimConfig
    u0: Field

    def __call__(self, seed: int) -> PathRecord:
        return simulate_path(replace(self.cfg, seed=seed), self.u0)


def run_ensemble(cfg: SimConfig, u0: Field, num_paths: int,
                 workers: int = 1) -> EnsembleResult:
    """Independent paths from shared initial data, seeds ``cfg.seed XOR index``."""
    records = run_paths(SimTask(cfg, u0), cfg.seed, num_paths, workers)
    per_path = [_outcome_from_record(i, path_seed(cfg.seed, i), r)
                for i, r in enumerate(records)]
    return EnsembleResult("ensemble", config_digest(cfg), per_path,
                          recompute_summaries(per_path))


# -- persistence --------------------------------------------------------------------


def persist(result: EnsembleResult, path: str):
    """JSON-lines: one header row, one row per path."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "header", "run_id": result.run_id,
                             "config_digest": result.config_digest,
                             "n_paths": len(result.per_path),
                             "rate_fits": result.rate_fits}) + "\n")
        for p in result.per_path:
            fh.write(json.dumps({"kind": "path", "index": p.index, "seed": p.seed,
                                 "status": p.status, "t_stop": p.t_stop,
                                 "extremes": p.extremes, "values": p.values}) + "\n")


def load(path: str, expect_digest: str | None = None) -> EnsembleResult:
    """Inverse of :func:`persist`; summaries are recomputed from the rows."""
    header = None
    per_path = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: corrupted row ({exc})") from None
            if row.get("kind") == "header":
                header = row
            elif row.get("kind") == "path":
                per_path.append(PathOutcome(row["index"], row["seed"], row["status"],
                                            row["t_stop"], row["extremes"],
                                            row.get("values", {})))
            else:
                raise ValueError(f"{path}:{lineno}: unknown row kind")
    if header is None:
        raise ValueError(f"{path}: missing header row")
    if expect_digest is not None and header["config_digest"] != expect_digest:
        raise ValueError(f"{path}: config digest mismatch "
                         f"({header['config_digest']} != {expect_digest})")
    per_path.sort(key=lambda p: p.index)
    return EnsembleResult(header["run_id"], header["config_digest"], per_path,
                          recompute_summaries(per_path), header.get("rate_fits"))


def merge(results: list[EnsembleResult]) -> EnsembleResult:
    """Append-merge shards of the same configuration."""
    if not results:
        raise ValueError("nothing to merge")
    digest = results[0].config_digest
    if any(r.config_digest != digest for r in results):
        raise ValueError("cannot merge shards from different configurations")
    rows = sorted((p for r in results for p in r.per_path), key=lambda p: p.index)
    return EnsembleResult(results[0].run_id, digest, rows, recompute_summaries(rows))


# -- rate fitting ---------------------------------------------------------------------


def rate_fit(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Log-log least squares; returns ``(slope, intercept, r_squared)``."""
    if len(points) < 2:
        raise ValueError("rate fit needs at least two points")
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
        base = replace(self.cfg, seed=seed, adapt=False, keep_snapshots=True)
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
                      u0: Field | None = None, eps_ref: float | None = None,
                      k_threshold: float | None = None,
                      workers: int = 1) -> dict:
    """Coupled-pair mollifier convergence: ensemble mean of the stopped
    supremum of the squared H^{s-3/2} gap against the reference width, with a
    log-log rate fit.

    Initial data defaults to a power-law spectrum at the critical decay for
    the configured Sobolev index, which keeps tail mass at every scale (smooth
    data would collapse the study to spectral round-off).
    """
    if len(set(eps_list)) < 2:
        raise ValueError("need at least two distinct mollifier widths")
    eps_sorted = sorted(eps_list, reverse=True)
    if eps_ref is None:
        eps_ref = eps_sorted[-1] / 4.0
    if u0 is None:
        u0 = power_law_field(cfg.grid, cfg.s, np.random.default_rng(cfg.seed),
                             amplitude=1.0)
    if k_threshold is None:
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
    slope = intercept = r2 = float("nan")
    if not zero_gap_eps:
        slope, intercept, r2 = rate_fit([(row["eps"], row["mean_sq_gap"]) for row in table])
    return {"table": table, "slope": slope, "intercept": intercept, "r2": r2,
            "zero_gap_eps": zero_gap_eps, "eps_ref": eps_ref, "k_threshold": k_threshold}
