"""Harness checks: deterministic seeding across worker counts, the
JSON-lines format of ``persist``, configuration digests, idempotent
aggregation, and the rate-fit plumbing."""

import json
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np
import pytest

from ccflab import ensemble
from ccflab.ensemble import (
    config_digest,
    convergence_study,
    persist,
    rate_fit,
    recompute_summaries,
    run_ensemble,
    run_paths,
    wilson_ci,
)
from ccflab.integrate import DIAGNOSTIC_NAMES, PathRecord, SimConfig, power_law_field
from ccflab.noise import GeneralH, LinearB, StrongAlpha, path_seed, stream
from ccflab.spectral import Field, SpectralGrid, sobolev_norm

GRID = SpectralGrid(n_modes=64)


def small_cfg(**kw):
    noise = LinearB(b0=0.4, lam=1.0, b_star=0.2)
    base = dict(grid=GRID, s=3.1, dt=1e-3, horizon=0.02, noise=noise, seed=11,
                record_every=5)
    base.update(kw)
    return SimConfig(**base)


def small_u0():
    rng = np.random.default_rng(3)
    return power_law_field(GRID, 3.1, rng, amplitude=0.2)


# a completed path's record without rows, to lay snapshots over
RECORD = PathRecord(np.zeros(0), {}, "completed", 0.02, [], np.zeros(0))


class TestSeeding:
    def test_path_seeds_injective(self):
        # no two (study seed, path) pairs share a seed, and no path runs on a
        # study seed
        seeds = {path_seed(s, i) for s in range(64) for i in range(64)}
        assert len(seeds) == 64 * 64
        assert seeds.isdisjoint(range(64))
        assert all(0 <= s < 2**64 for s in seeds | {path_seed(2**63, 1)})

    def test_study_streams_differ_from_path_0(self):
        # data and Monte Carlo streams of a study seed are not the increment
        # stream of its path 0, which is stream (0,) of that path's seed
        cfg = small_cfg()
        (rec,) = run_paths(cfg, small_u0(), 1)
        dw = rec.wiener_increments
        scale = np.sqrt(cfg.dt)
        assert np.array_equal(
            dw, scale * stream(path_seed(cfg.seed, 0), 0).standard_normal(dw.size))
        for key in ((), (1,), (2, 0), (2, 1)):
            assert not np.allclose(dw, scale * stream(cfg.seed, *key).standard_normal(dw.size))

    def test_data_stream_is_the_bare_seed(self):
        # initial fields and identity samples stay what they were
        assert np.array_equal(stream(5).standard_normal(8),
                              np.random.default_rng(5).standard_normal(8))

    def test_worker_count_invariance(self):
        cfg, u0 = small_cfg(), small_u0()
        r1 = run_ensemble(cfg, u0, 6, workers=1)
        r2 = run_ensemble(cfg, u0, 6, workers=2)
        assert r1.config_digest == r2.config_digest
        assert r1.seeds == r2.seeds == [path_seed(cfg.seed, i) for i in range(6)]
        assert_same_records(r1.records, r2.records)

    def test_pool_holds_at_most_one_process_per_path(self, monkeypatch):
        # study.workers is unbounded: two paths start two processes, not four
        started = []

        class Pool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, seeds):
                return [task(s) for s in seeds]

        monkeypatch.setattr(multiprocessing, "Pool", Pool)
        cfg, u0 = small_cfg(), small_u0()
        assert_same_records(run_paths(cfg, u0, 2, workers=4), run_paths(cfg, u0, 2))
        assert started == [2]

    def test_rerun_identical(self):
        cfg, u0 = small_cfg(), small_u0()
        assert_same_records(run_ensemble(cfg, u0, 4).records,
                            run_ensemble(cfg, u0, 4).records)


def assert_same_records(a, b):
    """Bitwise: the same statuses, stopping times, rows and increments."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.status, x.t_stop) == (y.status, y.t_stop)
        assert np.array_equal(x.times, y.times)
        assert np.array_equal(x.wiener_increments, y.wiener_increments)
        assert x.diagnostics.keys() == y.diagnostics.keys()
        for k in x.diagnostics:
            assert np.array_equal(x.diagnostics[k], y.diagnostics[k]), k


class TestResult:
    def test_zero_paths(self):
        with pytest.raises(ValueError, match="num_paths must be >= 1, got 0"):
            run_ensemble(small_cfg(), small_u0(), 0)

    def test_digest_sensitivity(self):
        a = config_digest(small_cfg())
        b = config_digest(small_cfg(seed=12))
        assert a != b
        c = config_digest(small_cfg(noise=GeneralH(n_components=2)))
        assert c not in (a, b)

    def test_aggregation_idempotent(self):
        r = run_ensemble(small_cfg(), small_u0(), 5)
        again = recompute_summaries(r.records)
        assert again == r.summaries


class TestDigest:
    def test_frozen_digest(self):
        # any change to the fields of SimConfig or of a noise model moves the
        # digest written into every ensemble header: update this on purpose
        cfg = small_cfg(noise=GeneralH(n_components=2))
        assert config_digest(cfg) == "2f0c8ba27fdd5b2d"

    def test_nested_types_hashed(self):
        # same field values, different nested dataclass type: different digest
        @dataclass(frozen=True)
        class OtherAlpha:
            q: float = 1.0
            theta: float = 1.0

        a = small_cfg(noise=StrongAlpha(q=1.0, theta=1.0))
        b = small_cfg(noise=OtherAlpha(q=1.0, theta=1.0))
        assert config_digest(a) != config_digest(b)


class TestPersistence:
    def test_file_format(self, tmp_path):
        r = run_ensemble(small_cfg(), small_u0(), 4)
        p = tmp_path / "runs.jsonl"
        persist(r, str(p))
        header, *rows = [json.loads(line) for line in p.read_text().splitlines()]
        assert header == {"kind": "header", "config_digest": r.config_digest,
                          "n_paths": 4, "columns": ["t", *DIAGNOSTIC_NAMES]}
        # per path in index order: its summary row, then its recorded rows
        for i, rec in enumerate(r.records):
            path, rows = rows[0], rows[1:]
            assert path == {"kind": "path", "index": i, "seed": r.seeds[i],
                            "status": rec.status, "t_stop": rec.t_stop,
                            "extremes": {k: float(np.max(v))
                                         for k, v in rec.diagnostics.items()}}
            n = rec.times.size
            assert [row["kind"] for row in rows[:n]] == ["row"] * n
            assert [row["v"][0] for row in rows[:n]] == rec.times.tolist()
            rows = rows[n:]
        assert rows == []


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_ci(30, 100)
        assert lo < 0.3 < hi

    def test_small_counts_stay_in_unit_interval(self):
        lo, hi = wilson_ci(0, 5)
        assert 0.0 <= lo < hi <= 1.0


class TestRateFit:
    def test_exact_power_law(self):
        pts = [(float(n), float(n) ** -2.0) for n in (8, 16, 32, 64)]
        slope, r2 = rate_fit(pts)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_single_point_error(self):
        # two points at one abscissa have no slope either
        for pts in ([(8.0, 1.0)], [(8.0, 1.0), (8.0, 2.0)]):
            with pytest.raises(ValueError, match="two distinct abscissae"):
                rate_fit(pts)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(4)
        pts = [(float(2**j), 2.0 ** (-1.3 * j) * np.exp(0.03 * rng.normal()))
               for j in range(3, 11)]
        slope, _ = rate_fit(pts)
        assert abs(slope - (-1.3 / np.log(2) * np.log(2))) < 0.1


class TestCoupledFamily:
    def test_shared_wiener_draws(self):
        # the reference width among the widths gaps by exactly 0.0 only if its
        # runs take the same Wiener draws as the reference runs; another width
        # gaps by > 0
        out = convergence_study(small_cfg(), [0.1, 0.025], num_paths=2, eps_ref=0.025)
        gap_other, gap_ref = (row["mean_sq_gap"] for row in out["table"])
        assert gap_ref == 0.0
        assert gap_other > 0.0
        assert out["zero_gap_eps"] == [0.025]

    def test_off_grid_stop_ends_the_sup(self):
        # a path that blew up recorded its last state between two recorded
        # times of the other path: states at different times are not compared
        u = Field.from_samples(GRID, np.sin(GRID.x))
        rec_e = replace(RECORD, snapshots=[(0.0, u), (0.01, 1.5 * u), (0.015, 9.0 * u)])
        rec_r = replace(RECORD, snapshots=[(0.0, u), (0.01, u), (0.02, u)])
        want = sobolev_norm(1.5 * u - u, 3.1 - 1.5) ** 2   # the gap at t = 0.01
        assert ensemble._stopped_sup(rec_e, rec_r, 3.1, 1e6) == want


class TestConvergenceStudy:
    def test_singleton_eps_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(small_cfg(), [0.1], 2)

    def test_smoke_run_positive_slope(self):
        # tiny smoke version: gaps must grow with eps
        grid = SpectralGrid(n_modes=128)
        noise = LinearB(b0=0.3, lam=1.0, b_star=0.1)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.1, noise=noise,
                        seed=7, record_every=10)
        out = convergence_study(cfg, [1 / 4, 1 / 8, 1 / 16], num_paths=3)
        gaps = [row["mean_sq_gap"] for row in out["table"]]
        assert gaps[0] > gaps[-1] > 0.0
        assert out["slope"] > 0.3

    def test_sem_is_std_over_sqrt_n(self, monkeypatch):
        # fixed per-path sups, one column per width (largest width first)
        rows = [[4.0, 1.0], [5.0, 1.5], [7.0, 2.0], [8.0, 3.5]]
        column = {0.2: 0, 0.1: 1}
        monkeypatch.setattr(ensemble, "run_paths", lambda cfg, u0, n, workers:
                            [(cfg.eps_mollify, i) for i in range(n)])
        monkeypatch.setattr(ensemble, "_stopped_sup", lambda rec, rec_r, s, k:
                            rows[rec[1]][column[rec[0]]])
        out = convergence_study(small_cfg(), [0.2, 0.1], num_paths=len(rows))
        cols = np.array(rows)
        for j, row in enumerate(out["table"]):
            want = cols[:, j].std(ddof=1) / np.sqrt(len(rows))
            assert row["sem"] == pytest.approx(want, rel=1e-14)
            assert row["mean_sq_gap"] == pytest.approx(cols[:, j].mean(), rel=1e-14)

    def test_worker_count_invariance(self):
        # every width opens its own pool; the table and slope do not move
        cfg = small_cfg(noise=GeneralH(n_components=2))
        one = convergence_study(cfg, [0.2, 0.1], num_paths=3, workers=1)
        two = convergence_study(cfg, [0.2, 0.1], num_paths=3, workers=2)
        assert one["table"] == two["table"]
        assert one["slope"] == two["slope"]
        assert all(row["mean_sq_gap"] > 0.0 for row in one["table"])
