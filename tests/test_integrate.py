"""Integrator checks: gate profile, hand-computed drift values, the scalar
geometric-Brownian oracle for the linear-noise степping, determinism/coupling
contracts, and a fast deterministic blow-up smoke run."""

import io

import numpy as np
import pytest

from ccflab.integrate import (
    SimConfig,
    blowup_bump,
    cutoff_chi,
    drift,
    em_step,
    power_law_field,
    rk4,
    simulate_low_frequency,
    simulate_path,
)
from ccflab.instability import InstabilityParams, build_low_initial
from ccflab.noise import ExpDecayFn, GeneralH, LinearB, WienerSpec, ZeroNoise
from ccflab.spectral import (
    Field,
    SpectralGrid,
    argmax_refined,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    random_band_limited,
    sobolev_norm,
    sup_norms,
)

GRID = SpectralGrid(period=2.0 * np.pi, n_modes=256)


def zero_cfg(**kw):
    base = dict(grid=GRID, s=3.1, dt=1e-3, horizon=0.05, noise=ZeroNoise(), seed=1)
    base.update(kw)
    return SimConfig(**base)


class TestCutoffChi:
    def test_plateau(self):
        assert cutoff_chi(0.5 * 3.0, 3.0) == 1.0

    def test_zero_beyond_double(self):
        assert cutoff_chi(9.0, 3.0) == 0.0

    def test_middle_and_scale_invariance(self):
        v1 = cutoff_chi(1.5 * 2.0, 2.0)
        v2 = cutoff_chi(1.5 * 7.0, 7.0)
        assert 0.0 < v1 < 1.0
        assert v1 == pytest.approx(v2, rel=1e-14)

    def test_disabled(self):
        assert cutoff_chi(1e9, None) == 1.0
        assert cutoff_chi(1e9, np.inf) == 1.0


class TestSimConfig:
    @pytest.mark.parametrize("radius", [0.5, 1.0, -np.inf, np.nan])
    def test_rejects_cutoff_radius(self, radius):
        with pytest.raises(ValueError):
            zero_cfg(cutoff_radius=radius)

    @pytest.mark.parametrize("radius", [None, np.inf, 2.0])
    def test_accepts_cutoff_radius(self, radius):
        assert zero_cfg(cutoff_radius=radius).cutoff_radius == radius


class TestRk4:
    # one step of y' = lam y multiplies y by the degree-4 Taylor polynomial
    @staticmethod
    def amplification(z):
        return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0

    def test_scalar_linear(self):
        lam, dt = -1.7, 0.3
        got = rk4(lambda y: lam * y, 2.0, dt)
        assert got == pytest.approx(2.0 * self.amplification(lam * dt), rel=1e-14)

    def test_field_linear_per_coefficient(self):
        rng = np.random.default_rng(12)
        u = random_band_limited(GRID, 20, rng, rms=0.5)
        lam, dt = 0.9, 0.05
        got = rk4(lambda f: lam * f, u, dt)
        want = self.amplification(lam * dt) * u.coefficients
        assert np.allclose(got.coefficients, want, rtol=1e-14, atol=1e-16)


class TestDrift:
    def test_zero_field(self):
        assert drift(Field.zeros(GRID), zero_cfg()).max_abs() == 0.0

    def test_gate_closes(self):
        rng = np.random.default_rng(0)
        u = random_band_limited(GRID, 40, rng, rms=1.0)
        r = sobolev_norm(u, 3.1 - 1.5)
        cfg = zero_cfg(cutoff_radius=max(r / 2.5, 1.01))  # |u| >= 2R
        assert drift(u, cfg).max_abs() == 0.0

    def test_cos_hand_value(self):
        # (Hu)u_x = sin^2 x for u = cos x; drift is its negative
        u = Field.from_function(GRID, lambda x: np.cos(x))
        got = drift(u, zero_cfg())
        assert np.allclose(got.samples, -np.sin(GRID.x) ** 2, atol=1e-12)

    def test_linear_growth_envelope(self):
        # gated drift obeys |G(u)|_{H^s} <= l1 (1 + |u|_{H^s}); constant frozen
        # from a direct sweep at eps = 0.05, R = 2.
        rng = np.random.default_rng(1)
        cfg = zero_cfg(eps_mollify=0.05, cutoff_radius=2.0)
        worst = 0.0
        for _ in range(50):
            u = random_band_limited(GRID, 80, rng, rms=rng.uniform(0.05, 4.0))
            ratio = sobolev_norm(drift(u, cfg), 3.1) / (1.0 + sobolev_norm(u, 3.1))
            worst = max(worst, ratio)
        assert worst < 25.0


class TestEmStep:
    def test_zero_fixed_point(self):
        cfg = zero_cfg()
        u = Field.zeros(GRID)
        for _ in range(5):
            u = em_step(u, 0.0, cfg, np.zeros(0))
        assert u.max_abs() == 0.0

    def test_geometric_brownian_oracle(self):
        # constant datum, b(t) u dW: H and d_x annihilate the zero mode, so the
        # transport drift vanishes exactly and the state follows the scalar
        # geometric Brownian motion; EM tracks the closed form at strong
        # order 1/2.
        b0, lam = 0.8, 1.0
        noise = LinearB(b_fn=ExpDecayFn(b0, lam), b_star=b0**2 * 1.05)
        u0 = Field.from_function(GRID, lambda x: 0.0 * x + 1.0)
        errs = []
        for dt in (1e-3, 1e-3 / 16.0):
            cfg = zero_cfg(dt=dt, horizon=0.5, noise=noise, adapt=False, seed=77,
                           record_every=max(1, int(1e-3 / dt)))
            assert drift(u0, cfg).max_abs() == 0.0
            rec = simulate_path(cfg, u0)
            ts = np.arange(rec.wiener_increments.shape[0]) * dt
            bvals = b0 * np.exp(-lam * ts)
            ito = np.cumsum(bvals * rec.wiener_increments[:, 0])
            quad = np.cumsum(bvals**2) * dt / 2.0
            exact_T = float(np.exp(ito[-1] - quad[-1]))
            got_T = rec.diagnostics["h_s"][-1] / sobolev_norm(u0, 3.1)
            errs.append(abs(got_T - exact_T))
        # 16x dt refinement should shrink the strong error by ~4 (order 1/2)
        assert errs[1] < errs[0]
        assert errs[0] < 0.05


class TestTransformBudget:
    """FFT calls per operation (``fft_calls`` is in ``conftest.py``)."""

    U = random_band_limited(GRID, 40, np.random.default_rng(8), rms=0.5)

    def test_drift(self, fft_calls):
        drift(self.U, zero_cfg())
        assert fft_calls == ["ifft", "fft"]

    def test_gradient_sups(self, fft_calls):
        gradient_sups(self.U)
        assert fft_calls == ["ifft"]

    def test_general_h_em_step(self, fft_calls):
        cfg = zero_cfg(noise=GeneralH(wiener=WienerSpec(n_components=8)))
        em_step(self.U, 0.0, cfg, np.full(8, 1e-3))
        assert len(fft_calls) == 10


class TestSimulatePath:
    def test_zero_data_zero_noise(self):
        cfg = zero_cfg(horizon=0.02)
        rec = simulate_path(cfg, Field.zeros(GRID))
        assert rec.status == "completed"
        for name in ("h_s", "sup_ux"):
            assert np.all(rec.diagnostics[name] == 0.0)
        # recorded as 0.0, not -0.0
        assert not np.any(np.signbit(rec.diagnostics["max_lam"]))

    def test_bit_identical_reruns(self):
        noise = LinearB(b_fn=ExpDecayFn(0.4, 1.0), b_star=0.2)
        cfg = zero_cfg(horizon=0.03, noise=noise, seed=123)
        rng = np.random.default_rng(5)
        u0 = random_band_limited(GRID, 20, rng, rms=0.3)
        r1 = simulate_path(cfg, u0)
        r2 = simulate_path(cfg, u0)
        for k in r1.diagnostics:
            assert np.array_equal(r1.diagnostics[k], r2.diagnostics[k])
        assert np.array_equal(r1.wiener_increments, r2.wiener_increments)

    def test_cutoff_inert_when_huge(self):
        rng = np.random.default_rng(6)
        u0 = random_band_limited(GRID, 20, rng, rms=0.2)
        big = 1e3 * sobolev_norm(u0, 3.1)
        rec_inf = simulate_path(zero_cfg(horizon=0.02, cutoff_radius=None), u0)
        rec_big = simulate_path(zero_cfg(horizon=0.02, cutoff_radius=big), u0)
        assert np.array_equal(rec_inf.diagnostics["h_s"], rec_big.diagnostics["h_s"])

    def test_transport_range_preserved(self):
        # pure transport: [min u, max u] invariant up to O(dt + spectral error)
        u0 = Field.from_function(GRID, lambda x: 0.3 * np.sin(x) + 0.1 * np.cos(2 * x))
        cfg = zero_cfg(dt=5e-4, horizon=0.5, record_every=100, keep_snapshots=True)
        rec = simulate_path(cfg, u0)
        assert rec.status == "completed"
        _, ufinal = rec.snapshots[-1]
        assert abs(ufinal.samples.max() - u0.samples.max()) < 5e-4
        assert abs(ufinal.samples.min() - u0.samples.min()) < 5e-4

    def test_deterministic_blowup_smoke(self):
        # resolution-consistent threshold: the resolvable gradient quantity
        # saturates near amplitude * N / period, ~260 here; the full-depth
        # default-threshold check runs in the acceptance suite at high N
        grid = SpectralGrid(period=2.0 * np.pi, n_modes=1024)
        f0 = 10.0
        u0 = blowup_bump(grid, f0, width=1.0)
        cfg = SimConfig(grid=grid, s=3.1, dt=2e-4, horizon=0.4, noise=ZeroNoise(),
                        seed=0, blowup_threshold=200.0, record_every=20)
        rec = simulate_path(cfg, u0)
        assert rec.status == "blewup"
        assert rec.t_stop <= 0.3

    def test_threshold_must_exceed_initial(self):
        u0 = blowup_bump(GRID, 10.0)
        cfg = zero_cfg(blowup_threshold=1.0)
        with pytest.raises(ValueError):
            simulate_path(cfg, u0)

    def test_frozen_general_h_gated(self):
        # tiny GeneralH path with the gate strictly between 0 and 1; frozen
        # values: a change in the RK4 stage arithmetic or the gate shows here
        grid = SpectralGrid(n_modes=64)
        u0 = random_band_limited(grid, 8, np.random.default_rng(2), rms=0.5)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.02, seed=3,
                        noise=GeneralH(wiener=WienerSpec(n_components=4)),
                        cutoff_radius=sobolev_norm(u0, 1.6) / 1.5)
        rec = simulate_path(cfg, u0)
        assert rec.status == "completed"
        assert rec.wiener_increments.shape == (20, 4)
        assert rec.diagnostics["h_s"][-1] == pytest.approx(121.52130646992151, rel=1e-12)
        assert rec.diagnostics["sup_ux"][-1] == pytest.approx(3.733239827661896, rel=1e-12)
        assert rec.diagnostics["max_lam"][-1] == pytest.approx(2.93661865702782, rel=1e-12)


def low_datum(n: int, n_modes: int) -> Field:
    """The instability lab's ``m = +1`` low-frequency datum at carrier ``n``."""
    p = InstabilityParams(m=1, n=n)
    return build_low_initial(p, SpectralGrid(period=p.period, n_modes=n_modes))


class TestLowFrequency:
    def test_zero_initial_stays_zero(self):
        grid = SpectralGrid(period=16.0 * 64**0.9, n_modes=256)
        steps = list(simulate_low_frequency(Field.zeros(grid), horizon=0.05, dt=1e-2))
        assert len(steps) == 6
        assert all(f.max_abs() == 0.0 for _, f in steps)

    def test_time_reversal(self):
        # v0 = -u(T) integrated forward by T returns to -u(0): the equation is
        # invariant under (t, u) -> (-t, -u).
        T, dt = 0.5, 2e-3
        u0 = low_datum(32, 512)
        fwd = list(simulate_low_frequency(u0, horizon=T, dt=dt))
        assert fwd[-1][0] == pytest.approx(T)
        # manual reverse run from -u(T)
        from ccflab.spectral import dealiased_product, derivative, hilbert
        u = -1.0 * fwd[-1][1]

        def rhs(f):
            return -1.0 * dealiased_product(hilbert(f), derivative(f))

        for _ in range(int(T / dt)):
            u = rk4(rhs, u, dt)
        assert np.allclose(u.samples, -u0.samples, atol=1e-8)

    def test_frozen_values(self):
        # frozen values: a change in the RK4 stage arithmetic shows here
        steps = list(simulate_low_frequency(low_datum(2, 64), 0.2, dt=2e-2))
        assert len(steps) == 11
        last = steps[-1][1]
        assert sobolev_norm(last, 3.1) == pytest.approx(3.1993670441614426, rel=1e-12)
        assert last.samples.max() == pytest.approx(0.4940297471127496, rel=1e-12)

    def test_divergence_raises(self):
        # a non-finite step is an error naming its time, not a silently
        # shortened trajectory
        grid = SpectralGrid(period=2.0 * np.pi, n_modes=64)
        initial = Field.from_samples(grid, 100.0 * np.sin(grid.x))
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"diverged at t=0\.15"):
            list(simulate_low_frequency(initial, horizon=0.5, dt=0.05))

    def test_steps_run_on_demand(self, fft_calls):
        # the stream takes an RK4 step (8 FFT calls) only when its state is read
        stream = simulate_low_frequency(low_datum(2, 64), 0.2, dt=2e-2)
        fft_calls.clear()
        next(stream)
        assert fft_calls == []
        next(stream)
        assert len(fft_calls) == 8


class TestInitialData:
    def test_blowup_bump_hits_target(self):
        grid = SpectralGrid(n_modes=1024)
        u0 = blowup_bump(grid, 10.0, width=1.0)
        x0 = argmax_refined(u0)
        val = evaluate_at(frac_laplacian(u0, 1.0), x0)
        assert val == pytest.approx(10.0, rel=1e-3)

    def test_power_law_amplitude(self):
        rng = np.random.default_rng(10)
        f = power_law_field(GRID, 3.1, rng, amplitude=2.0)
        assert sobolev_norm(f, 0.0) == pytest.approx(2.0, rel=1e-12)


class TestPathRecordIO:
    def test_jsonl_roundtrip_rows(self):
        cfg = zero_cfg(horizon=0.01)
        rec = simulate_path(cfg, Field.from_function(GRID, lambda x: 0.1 * np.sin(x)))
        buf = io.StringIO()
        rec.to_jsonl(buf)
        lines = buf.getvalue().strip().split("\n")
        import json
        head = json.loads(lines[0])
        assert head["status"] == "completed"
        assert head["n_rows"] == len(lines) - 1
