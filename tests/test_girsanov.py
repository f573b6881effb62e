"""Change-of-measure lab checks: exponential-martingale path arithmetic, the
coupled u = beta*v equivalence, characteristic tracking of the transported
maximum, the max-point identity on wide windows, the pathwise Riccati bound,
and the scalar first-passage bound against its reflection-principle oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ccflab.girsanov import (
    CharacteristicTrack,
    GirsanovSpec,
    beta_path,
    blowup_ensemble,
    blowup_probability_bound,
    first_passage_oracle,
    girsanov_residual,
    identity_sv_residual,
    riccati_check,
    run_random_pde,
)
from ccflab.ensemble import path_seed
from ccflab.integrate import SimConfig, blowup_bump, simulate_path
from ccflab.noise import ExpDecayFn, LinearB, ZeroNoise
from ccflab.spectral import (
    Field,
    SpectralGrid,
    derivative,
    evaluate_at,
    random_band_limited,
    sobolev_norm,
    sup_norms,
)

GRID = SpectralGrid(n_modes=256)


class TestBetaPath:
    def test_b_zero_is_one(self):
        inc = np.random.default_rng(0).normal(size=(50, 1)) * 0.1
        beta = beta_path(ExpDecayFn(0.0, 1.0), inc, 0.01)
        assert np.all(beta == 1.0)

    def test_constant_b_closed_form(self):
        b0, dt = 0.7, 1e-3
        rng = np.random.default_rng(1)
        inc = np.sqrt(dt) * rng.standard_normal((200, 1))
        beta = beta_path(ExpDecayFn(b0, 0.0), inc, dt)
        w = np.concatenate([[0.0], np.cumsum(inc[:, 0])])
        t = np.arange(201) * dt
        want = np.exp(b0 * w - 0.5 * b0**2 * t)
        assert np.allclose(beta, want, rtol=1e-12)

    def test_martingale_mean(self):
        # E beta(T) = 1; 4000 paths at modest depth
        b0, lam, dt, n = 0.8, 1.0, 0.01, 100
        rng = np.random.default_rng(2)
        finals = []
        for _ in range(4000):
            inc = np.sqrt(dt) * rng.standard_normal((n, 1))
            finals.append(beta_path(ExpDecayFn(b0, lam), inc, dt)[-1])
        finals = np.array(finals)
        sem = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean() - 1.0) < 4.0 * sem

    def test_positive(self):
        rng = np.random.default_rng(3)
        inc = np.sqrt(0.01) * rng.standard_normal((500, 1))
        assert np.all(beta_path(ExpDecayFn(1.0, 0.5), inc, 0.01) > 0.0)


class TestGirsanovResidual:
    def cfg(self, dt=1e-3, b0=0.5, horizon=0.2, n_modes=128):
        noise = LinearB(b_fn=ExpDecayFn(b0, 1.0), b_star=max(b0**2 * 1.1, 1e-6))
        return SimConfig(grid=SpectralGrid(n_modes=n_modes), s=3.1, dt=dt,
                         horizon=horizon, noise=noise, seed=42, record_every=10)

    def test_b_zero_residual_vanishes(self):
        cfg = self.cfg(b0=0.0)
        rng = np.random.default_rng(4)
        u0 = random_band_limited(cfg.grid, 20, rng, rms=0.3)
        res, status = girsanov_residual(cfg, u0)
        assert status == "completed"
        assert res < 1e-14

    def test_zero_data(self):
        cfg = self.cfg()
        assert girsanov_residual(cfg, Field.zeros(cfg.grid)) == (0.0, "completed")

    def test_refinement_shrinks_residual(self):
        rng = np.random.default_rng(5)
        u0 = random_band_limited(SpectralGrid(n_modes=128), 15, rng, rms=0.4)
        r_coarse, _ = girsanov_residual(self.cfg(dt=4e-3), u0)
        r_fine, _ = girsanov_residual(self.cfg(dt=1e-3), u0)
        assert r_fine < r_coarse
        assert r_coarse < 0.05


class TestCharacteristicTrack:
    def test_constant_field(self):
        v = Field.from_function(GRID, lambda x: 0 * x + 0.7)
        cfg = SimConfig(grid=GRID, s=3.1, dt=0.01, horizon=0.1, noise=ZeroNoise())
        _, _, trk = run_random_pde(cfg, v, np.ones(11), track=True)
        assert trk.times.size == 11
        assert np.allclose(trk.positions, trk.positions[0])
        assert np.allclose(trk.f_values, 0.0, atol=1e-12)

    def test_short_beta_rejected(self):
        # 10 steps need beta at 11 step times
        cfg = SimConfig(grid=GRID, s=3.1, dt=0.01, horizon=0.1, noise=ZeroNoise())
        with pytest.raises(ValueError, match="beta holds 10 values"):
            run_random_pde(cfg, Field.zeros(GRID), np.ones(10))

    @pytest.mark.parametrize("track", [False, True])
    def test_divergence_raises(self, track):
        # a non-finite step is an error naming its time, not a shortened
        # (times, fields) that the residual would be scored on
        grid = SpectralGrid(n_modes=64)
        cfg = SimConfig(grid=grid, s=3.1, dt=0.01, horizon=0.5, noise=ZeroNoise())
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"random PDE diverged at t=0\.02"):
            run_random_pde(cfg, blowup_bump(grid, 2.0), np.full(51, 1e6), track=track)

    def test_frozen_track(self):
        # frozen values: a change in the RK4 stage arithmetic shows here
        grid = SpectralGrid(n_modes=128)
        u0 = blowup_bump(grid, 2.0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.02, noise=ZeroNoise())
        inc = np.sqrt(cfg.dt) * np.random.default_rng(4).standard_normal((20, 1))
        beta = beta_path(ExpDecayFn(0.5, 1.0), inc, cfg.dt)
        _, fields, trk = run_random_pde(cfg, u0, beta, track=True)
        assert trk.times.size == 21
        assert trk.positions[-1] == pytest.approx(3.8014613905613364, rel=1e-12)
        assert trk.f_values[-1] == pytest.approx(2.0735500735579255, rel=1e-12)
        assert sobolev_norm(fields[-1], 3.1) == pytest.approx(21.889662740858974, rel=1e-12)

    def test_max_transported_deterministic(self):
        # resolved deterministic run: d_x v at the tracked point stays small
        # and v along the characteristic is conserved
        grid = SpectralGrid(n_modes=512)
        u0 = blowup_bump(grid, 2.0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=5e-4, horizon=0.2, noise=ZeroNoise(),
                        seed=0, record_every=40)
        beta = np.ones(int(round(cfg.horizon / cfg.dt)) + 1)
        times, fields, trk = run_random_pde(cfg, u0, beta, track=True)
        assert not trk.flagged
        vx_max = max(derivative(f).max_abs() for f in fields)
        assert np.max(trk.vx_residual) <= 1e-3 * vx_max
        # value conservation along the characteristic
        v_on_track = [evaluate_at(fields[0], trk.positions[0])]
        v_end = evaluate_at(fields[-1], trk.positions[-1])
        assert abs(v_end - v_on_track[0]) < 1e-4 * abs(v_on_track[0])

    def test_riccati_growth_deterministic(self):
        grid = SpectralGrid(n_modes=1024)
        f0 = 10.0
        u0 = blowup_bump(grid, f0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=2e-4, horizon=0.12, noise=ZeroNoise(),
                        seed=0, record_every=600)
        beta = np.ones(int(round(cfg.horizon / cfg.dt)) + 1)
        _, _, trk = run_random_pde(cfg, u0, beta, track=True)
        worst, ok = riccati_check(trk, tol=0.05, f_max=60.0)
        assert ok, f"worst normalized defect {worst}"
        # integrated Riccati: 1/F(0) - 1/F(t) >= t/2 forces F to double by 0.1
        f = trk.f_values
        assert f[-1] >= 1.0 / (1.0 / f0 - 0.5 * trk.times[-1]) * 0.85

    def test_riccati_trivial_track(self):
        trk = CharacteristicTrack(np.linspace(0, 1, 5), np.zeros(5), np.zeros(5),
                                  np.ones(5), np.zeros(5), False)
        worst, ok = riccati_check(trk, tol=0.05)
        assert ok and worst == 0.0


class TestIdentitySV:
    def wide_bump(self, amp=1.0, n_modes=4096, period=400.0, center=0.5):
        g = SpectralGrid(period=period, n_modes=n_modes)
        w = period / 16.0
        return Field.from_function(
            g, lambda x: amp * np.exp(-((x - center * period) ** 2) / w**2))

    def test_zero(self):
        assert identity_sv_residual(Field.zeros(GRID)) == 0.0

    def test_gaussian_wide_window(self):
        v = self.wide_bump()
        assert identity_sv_residual(v) <= 1e-4

    def test_quadratic_scaling(self):
        v1 = self.wide_bump(1.0)
        v3 = self.wide_bump(3.0)
        r1, r3 = identity_sv_residual(v1), identity_sv_residual(v3)
        assert r3 == pytest.approx(9.0 * r1, rel=1e-6)

    def test_rejects_spread_field(self):
        v = Field.from_function(GRID, lambda x: np.cos(x))
        with pytest.raises(ValueError):
            identity_sv_residual(v)

    def test_defect_shrinks_with_window(self):
        r_small = identity_sv_residual(self.wide_bump(period=100.0, n_modes=2048))
        r_big = identity_sv_residual(self.wide_bump(period=400.0, n_modes=4096))
        assert r_big < 0.25 * r_small  # ~ 1/L^2


class TestFirstPassage:
    def test_oracle_frozen_value(self):
        # sigma^2 = 1/2, ln(0.5)/sigma = -0.980258; 1 - 2 Phi = 0.6730413
        assert first_passage_oracle(1.0, 1.0, 0.5) == pytest.approx(0.6730413, abs=5e-6)

    def test_oracle_k_to_zero(self):
        assert first_passage_oracle(1.0, 1.0, 1e-12) > 0.999999

    def test_mc_matches_oracle(self):
        spec = GirsanovSpec(b_fn=ExpDecayFn(1.0, 1.0), b_star=1.05,
                            threshold_k=0.5, horizon=10.0)
        out = blowup_probability_bound(spec, 20_000, np.random.default_rng(7),
                                       monitor_points=4096)
        ci_half = 0.5 * (out["ci_hi"] - out["ci_lo"])
        assert abs(out["estimate"] - out["oracle"]) <= 2.0 * ci_half + 0.01
        # the bridge-corrected estimator removes the monitoring bias
        assert abs(out["corrected"] - out["oracle"]) <= 2.5 * ci_half

    def test_rejects_constant_b(self):
        spec = GirsanovSpec(b_fn=ExpDecayFn(0.5, 0.0), b_star=0.3,
                            threshold_k=0.5, horizon=5.0)
        with pytest.raises(ValueError):
            blowup_probability_bound(spec, 100, np.random.default_rng(0))

    @staticmethod
    def linear_spec():
        return GirsanovSpec(b_fn=ExpDecayFn(0.5, 1.0), b_star=0.2625,
                            threshold_k=0.5, horizon=1.0)

    def test_block_invariance(self):
        runs = [blowup_probability_bound(self.linear_spec(), 333, np.random.default_rng(3),
                                         monitor_points=2048, block=block)
                for block in (1, 7, 64, 333)]
        for out in runs[1:]:
            assert out["estimate"] == runs[0]["estimate"]
            assert (out["ci_lo"], out["ci_hi"]) == (runs[0]["ci_lo"], runs[0]["ci_hi"])
            assert out["corrected"] == pytest.approx(runs[0]["corrected"], rel=1e-12, abs=0)

    def test_frozen_values(self):
        # values of the one-array computation that the streamed blocks must keep
        out = blowup_probability_bound(self.linear_spec(), 512, np.random.default_rng(0))
        assert out["estimate"] == 0.94921875
        assert out["ci_lo"] == 0.926634038608981
        assert out["ci_hi"] == 0.9651128190352277
        assert out["corrected"] == pytest.approx(0.9484347074322856, rel=1e-12)
        assert out["oracle"] == pytest.approx(0.9500645237714559, rel=1e-14)
        assert out["monitor_points"] == 16384

    def test_memory_independent_of_paths(self):
        # a single (512, 16384) float64 block would be 64 MiB per temporary
        tracemalloc.start()
        try:
            blowup_probability_bound(self.linear_spec(), 512, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("kwargs", [dict(num_paths=0), dict(monitor_points=0),
                                        dict(block=0)],
                             ids=["num_paths", "monitor_points", "block"])
    def test_rejects_empty_sizes(self, kwargs):
        args = dict(num_paths=10, monitor_points=64, block=4) | kwargs
        with pytest.raises(ValueError, match=">= 1"):
            blowup_probability_bound(self.linear_spec(), rng=np.random.default_rng(0),
                                     **args)


class TestBlowupEnsemble:
    def spec(self):
        return GirsanovSpec(b_fn=ExpDecayFn(0.25, 1.0), b_star=0.0625 * 1.05,
                            threshold_k=0.5, horizon=1.0)

    def test_rejects_small_gradient(self):
        grid = SpectralGrid(n_modes=256)
        u0 = blowup_bump(grid, 0.01, width=1.0)  # way below b*/K = 0.125
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.5, seed=0)
        with pytest.raises(ValueError):
            blowup_ensemble(cfg, self.spec(), u0, num_paths=1, mc_paths=100)

    def test_zero_paths_no_crash(self):
        grid = SpectralGrid(n_modes=256)
        u0 = blowup_bump(grid, 1.0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.5, seed=0,
                        blowup_threshold=50.0)
        res = blowup_ensemble(cfg, self.spec(), u0, num_paths=0, mc_paths=1000)
        assert res.n_paths == 0 and res.passed

    def test_paths_match_direct_runs_and_workers(self):
        grid = SpectralGrid(n_modes=64)
        u0 = blowup_bump(grid, 1.0, width=1.0)
        # a threshold just above the initial quantity: of the two paths at
        # seed 4, one is flagged at t = 0.004 and one completes
        _, q_ux, q_hux = sup_norms(u0)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.05, seed=4,
                        blowup_threshold=1.01 * (q_ux + q_hux), blowup_doublings=0)
        spec = self.spec()
        res1 = blowup_ensemble(cfg, spec, u0, num_paths=2, mc_paths=100, workers=1)
        res2 = blowup_ensemble(cfg, spec, u0, num_paths=2, mc_paths=100, workers=2)
        assert (res2.n_blewup, res2.n_unresolved, res2.fraction) == \
            (res1.n_blewup, res1.n_unresolved, res1.fraction)
        base = replace(cfg, noise=LinearB(b_fn=spec.b_fn, b_star=spec.b_star))
        statuses = [simulate_path(replace(base, seed=path_seed(cfg.seed, i)), u0).status
                    for i in range(2)]
        assert res1.n_blewup == statuses.count("blewup")
        assert res1.n_unresolved == statuses.count("diverged")
        assert res1.fraction == statuses.count("blewup") / 2
        assert statuses == ["blewup", "completed"]
