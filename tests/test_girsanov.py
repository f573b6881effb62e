"""Change-of-measure lab checks: exponential-martingale path arithmetic, the
coupled u = beta*v equivalence, characteristic tracking of the transported
maximum, the max-point identity on wide windows, the pathwise Riccati bound
(the last three through ``blowup_mechanism.py``), and the scalar
first-passage bound against its reflection-principle oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ccflab.girsanov import (
    beta_path,
    blowup_ensemble,
    blowup_probability_bound,
    first_passage_oracle,
    girsanov_residual,
    run_random_pde,
)
from ccflab.integrate import SimConfig, blowup_bump, em_step, simulate_path
from ccflab.noise import LinearB, ZeroNoise, exp_decay, path_seed
from ccflab.spectral import (
    Field,
    SpectralGrid,
    derivative,
    evaluate_at,
    random_band_limited,
    sobolev_norm,
    sup_norms,
)
from blowup_mechanism import (
    CharacteristicTrack,
    characteristic_track,
    identity_sv_residual,
    riccati_check,
)

GRID = SpectralGrid(n_modes=256)


class TestBetaPath:
    def test_b_zero_is_one(self):
        inc = np.random.default_rng(0).normal(size=50) * 0.1
        beta = beta_path(0.0, 1.0, inc, 0.01)
        assert np.all(beta == 1.0)

    def test_constant_b_closed_form(self):
        b0, dt = 0.7, 1e-3
        rng = np.random.default_rng(1)
        inc = np.sqrt(dt) * rng.standard_normal(200)
        beta = beta_path(b0, 0.0, inc, dt)
        w = np.concatenate([[0.0], np.cumsum(inc)])
        t = np.arange(201) * dt
        want = np.exp(b0 * w - 0.5 * b0**2 * t)
        assert np.allclose(beta, want, rtol=1e-12)

    def test_martingale_mean(self):
        # E beta(T) = 1; 4000 paths at modest depth
        b0, lam, dt, n = 0.8, 1.0, 0.01, 100
        rng = np.random.default_rng(2)
        finals = []
        for _ in range(4000):
            inc = np.sqrt(dt) * rng.standard_normal(n)
            finals.append(beta_path(b0, lam, inc, dt)[-1])
        finals = np.array(finals)
        sem = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean() - 1.0) < 4.0 * sem

    def test_matches_per_step_sums(self):
        # reference: one exp_decay call per grid time and running left-point
        # Ito and trapezoid sums, in the order cumsum adds them
        b0, lam, dt, n = 0.5, 1.0, 1e-3, 400
        inc = np.sqrt(dt) * np.random.default_rng(6).standard_normal(n)
        b = [exp_decay(b0, lam, t) for t in np.arange(n + 1) * dt]
        ito = quad = 0.0
        want = [1.0]
        for i in range(n):
            ito += b[i] * inc[i]
            quad += 0.5 * (b[i] ** 2 + b[i + 1] ** 2) * dt / 2.0
            want.append(np.exp(ito - quad))
        assert np.array_equal(beta_path(b0, lam, inc, dt), want)

    def test_positive(self):
        rng = np.random.default_rng(3)
        inc = np.sqrt(0.01) * rng.standard_normal(500)
        assert np.all(beta_path(1.0, 0.5, inc, 0.01) > 0.0)


class TestGirsanovResidual:
    def cfg(self, dt=1e-3, b0=0.5, horizon=0.2, n_modes=128):
        noise = LinearB(b0=b0, lam=1.0, b_star=max(b0**2 * 1.1, 1e-6))
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

    @pytest.mark.parametrize("dt", [4e-3, 1e-3])
    def test_left_point_twin_matches_to_round_off(self, dt):
        # the path multiplies step j by exp(b_j dW_j - b_j^2 dt / 2), b frozen
        # at the left point; a twin on the running product of those factors
        # holds u = beta v to round-off, so the residual against beta_path
        # measures its trapezoid int b^2/2 against that left point
        cfg = replace(self.cfg(dt=dt), keep_snapshots=True)
        u0 = random_band_limited(cfg.grid, 15, np.random.default_rng(5), rms=0.4)
        rec = simulate_path(cfg, u0)
        assert rec.status == "completed"
        inc, noise = rec.wiener_increments, cfg.noise
        b = np.array([exp_decay(noise.b0, noise.lam, i * dt) for i in range(len(inc))])
        left = np.exp(np.concatenate([[0.0], np.cumsum(b * inc - 0.5 * b**2 * dt)]))

        def worst(beta):
            _, fields_v = run_random_pde(cfg, u0, beta)
            return max(sobolev_norm(u - beta[round(t / dt)] * v, cfg.s - 1.0)
                       / (1.0 + sobolev_norm(u, cfg.s - 1.0))
                       for (t, u), v in zip(rec.snapshots, fields_v))

        assert worst(left) <= 1e-12
        assert worst(beta_path(noise.b0, noise.lam, inc, dt)) > 1e6 * worst(left)


class TestRandomPDE:
    """The twin ``v`` steps through ``em_step`` (``fft_calls`` is in
    ``conftest.py``)."""

    def cfg(self, **kw):
        noise = LinearB(b0=0.5, lam=1.0, b_star=0.3)
        return SimConfig(**{"grid": GRID, "s": 3.1, "dt": 1e-3, "horizon": 0.01,
                            "noise": noise, **kw})

    def beta(self, cfg):
        inc = np.sqrt(cfg.dt) * np.random.default_rng(6).standard_normal(10)
        return beta_path(0.5, 1.0, inc, cfg.dt)

    def test_steps_are_noiseless_em_steps(self):
        # a LinearB cfg: the twin sets ZeroNoise itself
        cfg = self.cfg(record_every=3)
        beta = self.beta(cfg)
        u0 = blowup_bump(GRID, 5.0)
        times, fields = run_random_pde(cfg, u0, beta)
        quiet = replace(cfg, noise=ZeroNoise())
        v, want = Field(u0.grid, u0.coefficients), [u0]
        for i in range(10):
            v = em_step(v, i * cfg.dt, quiet, 0.0, beta[i] * cfg.dt)
            if (i + 1) % 3 == 0 or i == 9:
                want.append(v)
        assert np.array_equal(times, np.array([0, 3, 6, 9, 10]) * cfg.dt)
        assert len(fields) == len(want) == 5
        for f, w in zip(fields, want):
            assert np.array_equal(f.coefficients, w.coefficients)

    def test_twin_step_transforms(self, fft_calls):
        # per step: stage 1's two rows and product (2), stages 2-4 (6); no
        # sups are read, so no three-row start transform
        u0 = blowup_bump(GRID, 5.0)
        cfg = self.cfg(horizon=1e-3)
        fft_calls.clear()
        run_random_pde(cfg, Field(u0.grid, u0.coefficients), np.ones(2))
        assert fft_calls == ["irfft", "rfft"] * 4
        fft_calls.clear()
        run_random_pde(self.cfg(), Field(u0.grid, u0.coefficients), np.ones(11))
        assert len(fft_calls) == 10 * 8

    def test_recorded_fields_are_bare(self):
        cfg = self.cfg()
        u0 = blowup_bump(GRID, 5.0)
        _, fields = run_random_pde(cfg, u0, self.beta(cfg))
        assert len(fields) == 11
        assert all(f._rows is None and f._transport is None for f in fields)

    def test_short_beta_rejected(self):
        # 10 steps need beta at 11 step times
        cfg = SimConfig(grid=GRID, s=3.1, dt=0.01, horizon=0.1, noise=ZeroNoise())
        with pytest.raises(ValueError, match="beta holds 10 values"):
            run_random_pde(cfg, Field.zeros(GRID), np.ones(10))

    def test_divergence_raises(self):
        # a non-finite step is an error naming its time, not a shortened
        # (times, fields) that the residual would be scored on
        grid = SpectralGrid(n_modes=64)
        cfg = SimConfig(grid=grid, s=3.1, dt=0.01, horizon=0.5, noise=ZeroNoise())
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"stream diverged at t=0\.02"):
            run_random_pde(cfg, blowup_bump(grid, 2.0), np.full(51, 1e6))


class TestCharacteristicTrack:
    def test_constant_field(self):
        v = Field.from_samples(GRID, 0 * GRID.x + 0.7)
        cfg = SimConfig(grid=GRID, s=3.1, dt=0.01, horizon=0.1, noise=ZeroNoise())
        _, fields = run_random_pde(cfg, v, np.ones(11))
        trk = characteristic_track(fields, np.ones(11), cfg.dt)
        assert trk.times.size == 11
        assert np.allclose(trk.positions, trk.positions[0])
        assert np.allclose(trk.f_values, 0.0, atol=1e-12)

    def test_beta_shorter_than_states_rejected(self):
        fields = [Field.zeros(GRID)] * 3
        with pytest.raises(ValueError, match="beta holds 2 values for 3 states"):
            characteristic_track(fields, np.ones(2), 0.01)

    def test_frozen_track(self):
        # frozen values: a change in the RK4 stage arithmetic shows here
        grid = SpectralGrid(n_modes=128)
        u0 = blowup_bump(grid, 2.0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.02, noise=ZeroNoise())
        inc = np.sqrt(cfg.dt) * np.random.default_rng(4).standard_normal(20)
        beta = beta_path(0.5, 1.0, inc, cfg.dt)
        _, fields = run_random_pde(cfg, u0, beta)
        trk = characteristic_track(fields, beta, cfg.dt)
        assert trk.times.size == 21
        assert trk.positions[-1] == pytest.approx(3.8014613905613364, rel=1e-12)
        assert trk.f_values[-1] == pytest.approx(2.0735500735579255, rel=1e-12)
        assert sobolev_norm(fields[-1], 3.1) == pytest.approx(21.889662740858974, rel=1e-12)

    def test_max_transported_deterministic(self):
        # resolved deterministic run: d_x v at the tracked point stays small
        # and v along the characteristic is conserved
        grid = SpectralGrid(n_modes=512)
        u0 = blowup_bump(grid, 2.0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=5e-4, horizon=0.2, noise=ZeroNoise(), seed=0)
        beta = np.ones(int(round(cfg.horizon / cfg.dt)) + 1)
        times, fields = run_random_pde(cfg, u0, beta)
        trk = characteristic_track(fields, beta, cfg.dt)
        assert not trk.flagged
        vx_max = max(derivative(f).max_abs() for f in fields[::40])
        assert np.max(trk.vx_residual) <= 1e-3 * vx_max
        # value conservation along the characteristic
        v_on_track = [evaluate_at(fields[0], trk.positions[0])]
        v_end = evaluate_at(fields[-1], trk.positions[-1])
        assert abs(v_end - v_on_track[0]) < 1e-4 * abs(v_on_track[0])

    def test_riccati_growth_deterministic(self):
        grid = SpectralGrid(n_modes=1024)
        f0 = 10.0
        u0 = blowup_bump(grid, f0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=2e-4, horizon=0.12, noise=ZeroNoise(), seed=0)
        beta = np.ones(int(round(cfg.horizon / cfg.dt)) + 1)
        _, fields = run_random_pde(cfg, u0, beta)
        trk = characteristic_track(fields, beta, cfg.dt)
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
        return Field.from_samples(g, amp * np.exp(-((g.x - center * period) ** 2) / w**2))

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
        v = Field.from_samples(GRID, np.cos(GRID.x))
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

    def test_oracle_even_in_b0(self):
        # the law of int b dW depends on b only through b^2
        want = first_passage_oracle(0.5, 1.0, 0.5)
        assert first_passage_oracle(-0.5, 1.0, 0.5) == want > 0.9
        for b0 in (0.5, -0.5):
            out = blowup_probability_bound(b0, 1.0, 0.5, 64,
                                           np.random.default_rng(0), monitor_points=64)
            assert out["oracle"] == want

    @pytest.mark.parametrize("b0, lam, k, want", [
        (0.5, 1.0, 0.5, 0.9500645237714559),
        (1.0, 1.0, 0.5, 0.673041289742525),
        (1.0, 0.5, 0.3, 0.7713999099016969),
        (2.0, 3.0, 0.9, 0.10267380515301716),
    ])
    def test_oracle_matches_normal_cdf_form(self, b0, lam, k, want):
        # ``want`` recorded from 1 - 2 Phi(ln K / sigma) with a library normal
        # CDF; the erf form agrees to a few ulps
        assert abs(first_passage_oracle(b0, lam, k) - want) <= 1e-15

    def test_oracle_k_to_zero(self):
        assert first_passage_oracle(1.0, 1.0, 1e-12) > 0.999999

    def test_mc_matches_oracle(self):
        # every grid samples the exact first-passage event, so both estimators
        # are unbiased at any monitor_points
        for monitor_points in (1, 16):
            out = blowup_probability_bound(1.0, 1.0, 0.5, 20_000, np.random.default_rng(7),
                                           monitor_points=monitor_points)
            ci_half = 0.5 * (out["ci_hi"] - out["ci_lo"])
            assert abs(out["estimate"] - out["oracle"]) <= 2.5 * ci_half
            assert abs(out["corrected"] - out["oracle"]) <= 2.5 * ci_half

    def test_rejects_constant_b(self):
        with pytest.raises(ValueError):
            blowup_probability_bound(0.5, 0.0, 0.5, 100,
                                     np.random.default_rng(0))

    def test_block_invariance(self):
        runs = [blowup_probability_bound(0.5, 1.0, 0.5, 333, np.random.default_rng(3),
                                         monitor_points=2048, block=block)
                for block in (1, 7, 64, 333)]
        for out in runs[1:]:
            assert out["estimate"] == runs[0]["estimate"]
            assert (out["ci_lo"], out["ci_hi"]) == (runs[0]["ci_lo"], runs[0]["ci_hi"])
            assert out["corrected"] == pytest.approx(runs[0]["corrected"], rel=1e-12, abs=0)

    def test_frozen_values(self):
        # one increment over the exact variance b0^2/(2 lam) = 0.125 plus the
        # exact bridge minimum per path: a change in the draw layout shows here
        out = blowup_probability_bound(0.5, 1.0, 0.5, 512, np.random.default_rng(0))
        assert out["estimate"] == 0.9453125
        assert out["ci_lo"] == 0.9220969710274459
        assert out["ci_hi"] == 0.9618955661155087
        assert out["corrected"] == pytest.approx(0.9441420295320919, rel=1e-12)
        assert out["oracle"] == pytest.approx(0.9500645237714559, rel=1e-14)
        assert out["monitor_points"] == 1

    def test_one_monitor_point_is_the_bridge_formula(self):
        # one increment over the whole variance sigma^2 = b0^2/(2 lam): a path
        # ending at w > ln K survives with 1 - exp(-2 (-ln K)(w - ln K) / sigma^2)
        out = blowup_probability_bound(0.5, 1.0, 0.5, 1000, np.random.default_rng(5),
                                       monitor_points=1)
        sigma2, a = 0.5**2 / 2.0, np.log(0.5)
        # one (paths, 3, 1) draw: row 0 the increment, rows 1-2 the bridge minimum
        z = np.random.default_rng(5).standard_normal((1000, 3, 1))
        w = np.sqrt(sigma2) * z[:, 0, 0]
        keep = np.where(w > a, -np.expm1(2.0 * a * (w - a) / sigma2), 0.0)
        assert out["corrected"] == pytest.approx(keep.mean(), rel=1e-12, abs=0)

    def test_memory_independent_of_paths(self):
        # 1000 paths at 1024 points as one block would take over 32 MiB
        tracemalloc.start()
        try:
            blowup_probability_bound(0.5, 1.0, 0.5, 1000, np.random.default_rng(0),
                                     monitor_points=1024)
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
            blowup_probability_bound(0.5, 1.0, 0.5, rng=np.random.default_rng(0), **args)


class TestBlowupEnsemble:
    NOISE = LinearB(b0=0.25, lam=1.0, b_star=0.0625 * 1.05)

    def test_rejects_small_gradient(self):
        grid = SpectralGrid(n_modes=256)
        u0 = blowup_bump(grid, 0.01, width=1.0)  # way below b*/K = 0.125
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.5, seed=0, noise=self.NOISE)
        with pytest.raises(ValueError, match="blow-up condition"):
            blowup_ensemble(cfg, 0.5, u0, num_paths=1, mc_paths=100)

    def test_zero_paths_rejected(self):
        # no path to hold against the bound is no pass
        grid = SpectralGrid(n_modes=256)
        u0 = blowup_bump(grid, 1.0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.5, seed=0,
                        blowup_threshold=50.0, noise=self.NOISE)
        with pytest.raises(ValueError, match="num_paths must be >= 1"):
            blowup_ensemble(cfg, 0.5, u0, num_paths=0, mc_paths=1000)

    def test_paths_match_direct_runs_and_workers(self):
        grid = SpectralGrid(n_modes=64)
        u0 = blowup_bump(grid, 1.0, width=1.0)
        # a threshold just above the initial quantity: of the two paths at
        # seed 1, path 0 completes and path 1 is flagged at t = 0.002
        _, q_ux, q_hux = sup_norms(u0)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.05, seed=1,
                        blowup_threshold=1.01 * (q_ux + q_hux), noise=self.NOISE)
        res1 = blowup_ensemble(cfg, 0.5, u0, num_paths=2, mc_paths=100, workers=1)
        res2 = blowup_ensemble(cfg, 0.5, u0, num_paths=2, mc_paths=100, workers=2)
        assert (res2.n_blewup, res2.n_unresolved, res2.fraction) == \
            (res1.n_blewup, res1.n_unresolved, res1.fraction)
        statuses = [simulate_path(replace(cfg, seed=path_seed(cfg.seed, i)), u0).status
                    for i in range(2)]
        assert res1.n_blewup == statuses.count("blewup")
        assert res1.n_unresolved == statuses.count("diverged")
        assert res1.fraction == statuses.count("blewup") / 2
        assert statuses == ["completed", "blewup"]
