"""Harness checks: deterministic seeding across worker counts, the
JSON-lines format of ``persist``, configuration digests, idempotent
aggregation, and the rate-fit plumbing."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from ccflab import ensemble
from ccflab.ensemble import (
    SimTask,
    config_digest,
    convergence_study,
    persist,
    rate_fit,
    recompute_summaries,
    run_ensemble,
    run_paths,
    wilson_ci,
)
from ccflab.integrate import SimConfig, power_law_field
from ccflab.noise import GeneralH, LinearB, StrongAlpha, path_seed, stream
from ccflab.spectral import Field, SpectralGrid

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
        (rec,) = run_paths(SimTask(cfg, small_u0()), cfg.seed, 1)
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
        for a, b in zip(r1.per_path, r2.per_path):
            assert a.seed == b.seed and a.status == b.status
            assert a.extremes == b.extremes  # bitwise: same floats

    def test_rerun_identical(self):
        cfg, u0 = small_cfg(), small_u0()
        r1 = run_ensemble(cfg, u0, 4)
        r2 = run_ensemble(cfg, u0, 4)
        assert [p.extremes for p in r1.per_path] == [p.extremes for p in r2.per_path]


class TestResult:
    def test_zero_paths(self):
        r = run_ensemble(small_cfg(), small_u0(), 0)
        assert r.summaries["n_paths"] == 0
        assert r.per_path == []

    def test_digest_sensitivity(self):
        a = config_digest(small_cfg())
        b = config_digest(small_cfg(seed=12))
        assert a != b
        c = config_digest(small_cfg(noise=GeneralH(n_components=2)))
        assert c not in (a, b)

    def test_aggregation_idempotent(self):
        r = run_ensemble(small_cfg(), small_u0(), 5)
        again = recompute_summaries(r.per_path)
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
                          "n_paths": 4}
        assert [row.pop("kind") for row in rows] == ["path"] * 4
        assert rows == [{"index": o.index, "seed": o.seed, "status": o.status,
                         "t_stop": o.t_stop, "extremes": o.extremes}
                        for o in r.per_path]
        assert [row["index"] for row in rows] == [0, 1, 2, 3]


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_ci(30, 100)
        assert lo < 0.3 < hi

    def test_small_counts_stay_in_unit_interval(self):
        lo, hi = wilson_ci(0, 5)
        assert 0.0 <= lo < hi <= 1.0

    def test_no_trials_gives_unit_interval(self):
        assert wilson_ci(0, 0) == (0.0, 1.0)


class TestRateFit:
    def test_exact_power_law(self):
        pts = [(float(n), float(n) ** -2.0) for n in (8, 16, 32, 64)]
        slope, _, r2 = rate_fit(pts)
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
        slope, _, _ = rate_fit(pts)
        assert abs(slope - (-1.3 / np.log(2) * np.log(2))) < 0.1


class TestCoupledFamily:
    def test_shared_wiener_draws(self):
        # the reference width run against itself gaps by exactly 0.0 only if
        # both runs take the same Wiener draws; another width gaps by > 0
        task = ensemble._CoupledFamilyTask(small_cfg(), small_u0(), (0.1, 0.025),
                                           eps_ref=0.025, k_threshold=1e6)
        gap_other, gap_ref = task(9)
        assert gap_ref == 0.0
        assert gap_other > 0.0


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
        # fixed per-seed rows, one column per width (largest width first)
        rows = [[4.0, 1.0], [5.0, 1.5], [7.0, 2.0], [8.0, 3.5]]
        monkeypatch.setattr(ensemble, "run_paths", lambda task, seed, n, workers: rows)
        out = convergence_study(small_cfg(), [0.2, 0.1], num_paths=len(rows))
        cols = np.array(rows)
        for j, row in enumerate(out["table"]):
            want = cols[:, j].std(ddof=1) / np.sqrt(len(rows))
            assert row["sem"] == pytest.approx(want, rel=1e-14)
            assert row["mean_sq_gap"] == pytest.approx(cols[:, j].mean(), rel=1e-14)
