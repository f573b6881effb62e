"""Integrator checks: hand-computed drift values, the exact factor of the
scalar-rate noises against the geometric-Brownian closed form, the
one-operator-at-a-time reference step and path the shared-transform stepper
must equal bit for bit, FFT budgets, determinism/coupling contracts, the
time-change identity of a scalar-rate path, and a fast deterministic blow-up
smoke run."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ccflab import integrate
from ccflab.ensemble import persist, run_ensemble
from ccflab.integrate import (
    SimConfig,
    blowup_bump,
    drift,
    em_step,
    power_law_field,
    rk4,
    simulate_low_frequency,
    simulate_path,
    whole_steps,
)
from ccflab.instability import InstabilityParams, build_low_initial
from ccflab.noise import (
    GeneralH,
    InstabilityH,
    LinearB,
    StrongAlpha,
    ZeroNoise,
    exp_decay,
    stream,
    wiener_increments,
)
from ccflab.spectral import (
    Field,
    SpectralGrid,
    argmax_refined,
    dealias,
    dealiased_product,
    derivative,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    apply_multiplier,
    hilbert,
    random_band_limited,
    sobolev_norm,
    sup_norms,
)

GRID = SpectralGrid(period=2.0 * np.pi, n_modes=256)


def zero_cfg(**kw):
    base = dict(grid=GRID, s=3.1, dt=1e-3, horizon=0.05, noise=ZeroNoise(), seed=1)
    base.update(kw)
    return SimConfig(**base)


# -- reference stepper: one operator at a time, on Fields --------------------------


def reference_drift(u: Field, cfg: SimConfig) -> Field:
    eps = cfg.eps_mollify
    symbol = integrate._mollifier_values(u.grid, eps)
    w = apply_multiplier(u, symbol) if eps > 0.0 else u
    term = dealiased_product(hilbert(w), derivative(w))
    if eps > 0.0:
        term = apply_multiplier(term, symbol)
    return -1.0 * term


def reference_sups(f: Field) -> tuple[float, float, float]:
    fx = derivative(f)
    return fx.max_abs(), hilbert(fx).max_abs(), 0.0 - float(np.min(hilbert(fx).samples))


def reference_rate(model, t: float, u: Field) -> float | None:
    """The scalar ``a(t, u)`` of a family ``h = a u``, formed here from its
    formula; ``None`` for the field-valued families."""
    if isinstance(model, LinearB):
        return exp_decay(model.b0, model.lam, t)
    if isinstance(model, StrongAlpha):
        sup_ux, sup_hux, _ = reference_sups(u)
        return model.q * (1.0 + sup_ux + sup_hux) ** model.theta
    return None


def reference_em_step(u: Field, t: float, cfg: SimConfig, dw: float,
                      dt: float | None = None) -> Field:
    """RK4 of the drift, then the exact factor ``exp(a dw - a^2 dt / 2)`` of
    ``a = rate`` or the noise ``components(t, u) dw``, each operator applied
    on its own; from a bare field of ``u``'s coefficients, so no transform a
    stepper cached on ``u`` is read."""
    dt = cfg.dt if dt is None else dt
    u = Field(u.grid, u.coefficients)
    unew = rk4(lambda f: reference_drift(f, cfg), u, dt)
    rate = reference_rate(cfg.noise, t, u)
    if rate is not None:
        return np.exp(rate * dw - 0.5 * rate**2 * dt) * unew
    h = cfg.noise.components(t, u)
    if h is not None:
        unew = unew + dw * h
    return unew


def reference_path(cfg: SimConfig, u0: Field) -> dict:
    """``simulate_path`` as a plain loop over :func:`reference_em_step`."""
    n_steps = int(round(cfg.horizon / cfg.dt))
    increments = wiener_increments(cfg.seed, cfg.dt, n_steps)
    times, rows = [], []

    def record(t, f):
        hm1 = sobolev_norm(f, cfg.s - 1.0)
        times.append(t)
        rows.append((sobolev_norm(f, cfg.s), hm1, sobolev_norm(f, cfg.s - 1.5),
                     *reference_sups(f), np.log1p(hm1**2)))

    def result(status, t, taken):
        return {"times": np.array(times), "rows": np.array(rows), "status": status,
                "t_stop": t, "increments": increments[:taken]}

    u = dealias(u0)
    record(0.0, u)
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, dw in enumerate(increments):
            unew = reference_em_step(u, t, cfg, dw)
            t = (i + 1) * cfg.dt
            if unew.diverged:
                if i % cfg.record_every:
                    record(i * cfg.dt, u)
                return result("diverged", t, i + 1)
            u = unew
            sup_ux, sup_hux, _ = reference_sups(u)
            if sup_ux + sup_hux >= cfg.blowup_threshold:
                record(t, u)
                return result("blewup", t, i + 1)
            if (i + 1) % cfg.record_every == 0 or i == n_steps - 1:
                record(t, u)
    return result("completed", t, n_steps)


class TestSimConfig:
    @pytest.mark.parametrize("horizon, dt", [(1e308, 1e-10), (np.inf, 1e-3),
                                             (1.0, np.nan)])
    def test_rejects_non_finite_step_count(self, horizon, dt):
        with pytest.raises(ValueError, match="horizon / dt must be finite"):
            zero_cfg(horizon=horizon, dt=dt)

    @pytest.mark.parametrize("horizon, dt, n", [(1.0, 1e-3, 1000), (0.07, 0.01, 7),
                                                (1.8, 0.02, 90), (0.2, 5e-4, 400)])
    def test_whole_steps(self, horizon, dt, n):
        steps = whole_steps(horizon, dt)
        assert steps == n and type(steps) is int

    @pytest.mark.parametrize("horizon, dt, message", [
        (0.0, 1e-3, "dt and horizon must be positive"),
        (1.0, -1e-3, "dt and horizon must be positive"),
        (np.inf, 1e-3, "horizon / dt must be finite"),
        (0.07, 0.02, "horizon 0.07 is not a whole number of steps of dt 0.02")])
    def test_whole_steps_checks_as_sim_config_does(self, horizon, dt, message):
        # one rule: the same checks and messages for a path and for a loop
        # that steps to a horizon without a SimConfig
        with pytest.raises(ValueError, match=message):
            whole_steps(horizon, dt)
        with pytest.raises(ValueError, match=message):
            zero_cfg(horizon=horizon, dt=dt)


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

    def test_cos_hand_value(self):
        # (Hu)u_x = sin^2 x for u = cos x; drift is its negative
        u = Field.from_samples(GRID, np.cos(GRID.x))
        got = drift(u, zero_cfg())
        assert np.allclose(got.samples, -np.sin(GRID.x) ** 2, atol=1e-12)

    def test_quadratic_growth_envelope(self):
        # the mollified drift has degree 2: G(10 u) = 100 G(u), and over this
        # sweep |G(u)|_{H^s} <= C(eps) |u|_{H^s}^2; C frozen from a direct
        # sweep at eps = 0.05 (worst ratio 6.05e-5), where the linear ratio
        # |G(u)|_{H^s} / (1 + |u|_{H^s}) reaches 620
        rng = np.random.default_rng(1)
        cfg = zero_cfg(eps_mollify=0.05)
        worst = 0.0
        for _ in range(50):
            rms = np.exp(rng.uniform(np.log(0.05), np.log(400.0)))
            u = random_band_limited(GRID, 80, rng, rms=rms)
            g = drift(u, cfg)
            scaled = drift(10.0 * u, cfg)
            assert sobolev_norm(scaled - 100.0 * g, 3.1) <= 1e-12 * sobolev_norm(scaled, 3.1)
            worst = max(worst, sobolev_norm(g, 3.1) / sobolev_norm(u, 3.1) ** 2)
        assert worst < 1e-4


class TestEmStep:
    def test_steps_on_the_fields_grid(self):
        # drift and mollifier act on u's own grid, as reference_drift does,
        # whatever grid the config names
        grid = SpectralGrid(period=4.0 * np.pi, n_modes=GRID.n_modes)
        u = random_band_limited(grid, 20, np.random.default_rng(9), rms=0.5)
        noise = GeneralH(n_components=2)
        for kw in ({}, {"eps_mollify": 0.05}):
            own = zero_cfg(grid=grid, noise=noise, **kw)
            other = zero_cfg(noise=noise, **kw)
            assert np.array_equal(drift(u, other).coefficients,
                                  reference_drift(u, own).coefficients)
            bare = Field(u.grid, u.coefficients)
            assert np.array_equal(em_step(bare, 0.1, other, 0.02).coefficients,
                                  reference_em_step(u, 0.1, own, 0.02).coefficients)

    def test_zero_fixed_point(self):
        cfg = zero_cfg()
        u = Field.zeros(GRID)
        for _ in range(5):
            u = em_step(u, 0.0, cfg, 0.0)
        assert u.max_abs() == 0.0

    def test_geometric_brownian_oracle(self):
        # constant datum, b(t) u dW: H and d_x annihilate the zero mode, so the
        # transport drift vanishes exactly and the state follows the scalar
        # geometric Brownian motion; the exact factor of b frozen over each
        # step reproduces its frozen-coefficient closed form up to round-off
        b0, lam = 0.8, 1.0
        noise = LinearB(b0=b0, lam=lam, b_star=b0**2 * 1.05)
        u0 = Field.from_samples(GRID, 0.0 * GRID.x + 1.0)
        errs = []
        for dt in (1e-3, 1e-3 / 16.0):
            cfg = zero_cfg(dt=dt, horizon=0.5, noise=noise, seed=77,
                           record_every=max(1, int(1e-3 / dt)))
            assert drift(u0, cfg).max_abs() == 0.0
            rec = simulate_path(cfg, u0)
            ts = np.arange(rec.wiener_increments.shape[0]) * dt
            bvals = b0 * np.exp(-lam * ts)
            ito = np.cumsum(bvals * rec.wiener_increments)
            quad = np.cumsum(bvals**2) * dt / 2.0
            exact_T = float(np.exp(ito[-1] - quad[-1]))
            got_T = rec.diagnostics["h_s"][-1] / sobolev_norm(u0, 3.1)
            errs.append(abs(got_T - exact_T))
        assert max(errs) <= 1e-12, errs

    @pytest.mark.parametrize("noise", [StrongAlpha(q=3.0, theta=1.0),
                                       LinearB(b0=0.8, lam=1.0, b_star=0.8**2 * 1.05)],
                             ids=repr)
    def test_scalar_rate_step_is_the_exact_factor(self, noise):
        # on a constant datum the drift vanishes and the sups are 0, so one
        # step is u exp(a dw - a^2 dt / 2) with a = q or b(t)
        u = Field.from_samples(GRID, 0.0 * GRID.x + 1.0)
        cfg = zero_cfg(noise=noise)
        t, dt, dw = 0.3, 2e-3, 0.07
        a = noise.q if isinstance(noise, StrongAlpha) else noise.b0 * np.exp(-noise.lam * t)
        got = em_step(Field(u.grid, u.coefficients), t, cfg, dw, dt)
        want = u.coefficients * np.exp(a * dw - a * a * dt / 2.0)
        assert np.allclose(got.coefficients, want, rtol=1e-14, atol=0.0)


class TestReferenceStep:
    """``em_step`` equals the one-operator-at-a-time reference bit for bit:
    the reference steps the negated transport term over ``dt``, ``em_step``
    the term itself over ``-dt``."""

    NOISES = [
        ZeroNoise(),
        GeneralH(n_components=1, exponent_k=1, exponent_n=1),
        GeneralH(n_components=1, exponent_k=2, exponent_n=2),
        GeneralH(n_components=8, exponent_k=1, exponent_n=1),
        GeneralH(n_components=8, exponent_k=2, exponent_n=2),
        StrongAlpha(q=0.5, theta=1.0),
        LinearB(b0=0.4, lam=1.0, b_star=0.2),
        InstabilityH(q=2.0, exponent_k=2, exponent_n=1, sigma0=1.6),
    ]

    @staticmethod
    def states():
        # inside the dealias band, and up to the last mode below Nyquist
        rng = np.random.default_rng(31)
        return [random_band_limited(GRID, m, rng, rms=0.5)
                for m in (GRID.dealias_keep, GRID.n_modes // 2 - 1)]

    @pytest.mark.parametrize("noise", NOISES, ids=repr)
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_equals_reference(self, noise, eps):
        for u in self.states():
            cfg = zero_cfg(noise=noise, eps_mollify=eps)
            for dt in (1e-3, 2.5e-4):
                want = reference_em_step(u, 0.3, cfg, 0.02, dt)
                got = em_step(Field(u.grid, u.coefficients), 0.3, cfg, 0.02, dt)
                assert np.array_equal(got.coefficients, want.coefficients)
                # from a state whose sups were read first, as a path steps
                # from each state it reaches
                v = Field(u.grid, u.coefficients)
                gradient_sups(v)
                got = em_step(v, 0.3, cfg, 0.02, dt)
                assert np.array_equal(got.coefficients, want.coefficients)

    def test_drift_equals_reference(self):
        for u in self.states():
            for cfg in (zero_cfg(), zero_cfg(eps_mollify=0.05)):
                want = reference_drift(u, cfg).coefficients
                assert np.array_equal(drift(u, cfg).coefficients, want)

    def test_start_sups_equal_reference(self):
        for u in self.states():
            assert gradient_sups(Field(u.grid, u.coefficients)) == reference_sups(u)

    def test_noisy_paths_equal_reference(self):
        u0 = blowup_bump(GRID, 10.0)
        for noise in (LinearB(b0=0.5, lam=1.0, b_star=1.05 * 0.25),
                      StrongAlpha(q=0.5, theta=1.0), GeneralH(n_components=8)):
            cfg = zero_cfg(horizon=0.1, noise=noise, seed=5, record_every=3)
            want = reference_path(cfg, u0)
            rec = simulate_path(cfg, u0)
            assert rec.status == want["status"] == "completed"
            assert rec.t_stop == want["t_stop"]
            assert np.array_equal(rec.wiener_increments, want["increments"])
            assert np.array_equal(rec.times, want["times"])
            for j, name in enumerate(integrate.DIAGNOSTIC_NAMES):
                assert np.array_equal(rec.diagnostics[name], want["rows"][:, j]), name


class TestTransformBudget:
    """FFT calls per operation (``fft_calls`` is in ``conftest.py``)."""

    U = random_band_limited(GRID, 40, np.random.default_rng(8), rms=0.5)

    def test_drift(self, fft_calls):
        drift(self.U, zero_cfg())
        assert fft_calls == ["irfft", "rfft"]

    def test_gradient_sups(self, fft_calls):
        gradient_sups(Field(self.U.grid, self.U.coefficients))
        assert fft_calls == ["irfft"]

    def test_gradient_sups_kept_on_the_field(self, fft_calls):
        # the path takes a state's sups once; a StrongAlpha rate of that
        # state reads the same tuple
        u = Field(self.U.grid, self.U.coefficients)
        sups = gradient_sups(u)
        assert gradient_sups(u) is sups
        assert StrongAlpha(q=0.5).rate(0.0, u) == 0.5 * (1.0 + sups[0] + sups[1])
        assert fft_calls == ["irfft"]

    def test_general_h_em_step(self, fft_calls):
        # the step rows (1), the noise with stage 1 (1), stages 2-4 (6)
        cfg = zero_cfg(noise=GeneralH(n_components=8))
        em_step(Field(self.U.grid, self.U.coefficients), 0.0, cfg, 1e-3)
        assert len(fft_calls) == 8

    def test_general_h_em_step_mollified(self, fft_calls):
        # stage 1 transforms J u on its own (2): no more than one drift and
        # one noise transform each per stage
        cfg = zero_cfg(noise=GeneralH(n_components=8), eps_mollify=0.05)
        em_step(Field(self.U.grid, self.U.coefficients), 0.0, cfg, 1e-3)
        assert len(fft_calls) == 10

    @pytest.mark.parametrize("noise, per_step", [(GeneralH(n_components=8), 8),
                                                 (LinearB(b0=0.4, lam=1.0, b_star=0.2), 8),
                                                 (ZeroNoise(), 8),
                                                 (StrongAlpha(q=0.5, theta=1.0), 8)])
    def test_simulate_path_per_macro_step(self, fft_calls, noise, per_step):
        # the initial state's step rows, then per macro step the step's
        # transforms and the next state's step rows
        cfg = zero_cfg(noise=noise, horizon=0.02)
        rec = simulate_path(cfg, self.U)
        assert rec.status == "completed" and rec.wiener_increments.shape == (20,)
        assert len(fft_calls) == 1 + 20 * per_step


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
        noise = LinearB(b0=0.4, lam=1.0, b_star=0.2)
        cfg = zero_cfg(horizon=0.03, noise=noise, seed=123)
        rng = np.random.default_rng(5)
        u0 = random_band_limited(GRID, 20, rng, rms=0.3)
        r1 = simulate_path(cfg, u0)
        r2 = simulate_path(cfg, u0)
        for k in r1.diagnostics:
            assert np.array_equal(r1.diagnostics[k], r2.diagnostics[k])
        assert np.array_equal(r1.wiener_increments, r2.wiener_increments)

    def test_one_em_step_per_macro_step(self, monkeypatch):
        # a path takes exactly one em_step per macro step, for each kind of
        # noise step, also where a step moves the state by far more than 10%
        # of its H^s norm
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return em_step(*args, **kwargs)

        monkeypatch.setattr(integrate, "em_step", counted)
        u0 = blowup_bump(GRID, 10.0)
        for noise in (LinearB(b0=0.5, lam=1.0, b_star=1.05 * 0.25),
                      StrongAlpha(q=1.0, theta=1.0), GeneralH(n_components=8, q=4.0)):
            calls.clear()
            rec = simulate_path(zero_cfg(horizon=0.1, noise=noise, seed=5), u0)
            assert rec.status == "completed"
            assert len(calls) == rec.wiener_increments.shape[0] == 100

    def test_increments_are_the_path_seeds_draw(self):
        # a path that stops early records the prefix of its seed's increments
        noise = LinearB(b0=0.5, lam=1.0, b_star=1.05 * 0.25)
        cfg = zero_cfg(horizon=0.2, noise=noise, seed=5, blowup_threshold=30.0)
        rec = simulate_path(cfg, blowup_bump(GRID, 10.0))
        taken = rec.wiener_increments.shape[0]
        assert rec.status == "blewup" and taken < 200
        assert np.array_equal(rec.wiener_increments,
                              wiener_increments(cfg.seed, cfg.dt, 200)[:taken])

    def test_transport_range_preserved(self):
        # pure transport: [min u, max u] invariant up to O(dt + spectral error)
        u0 = Field.from_samples(GRID, 0.3 * np.sin(GRID.x) + 0.1 * np.cos(2 * GRID.x))
        cfg = zero_cfg(dt=5e-4, horizon=0.5, record_every=100, keep_snapshots=True)
        rec = simulate_path(cfg, u0)
        assert rec.status == "completed"
        _, ufinal = rec.snapshots[-1]
        assert abs(ufinal.samples.max() - u0.samples.max()) < 5e-4
        assert abs(ufinal.samples.min() - u0.samples.min()) < 5e-4

    def test_snapshots_are_bare_fields(self):
        # a kept state does not keep the transforms its step cached on it
        u0 = Field.from_samples(GRID, 0.3 * np.sin(GRID.x))
        rec = simulate_path(zero_cfg(horizon=0.01, keep_snapshots=True,
                                     noise=GeneralH(n_components=2)), u0)
        assert len(rec.snapshots) == 11
        assert all(f._rows is None and f._transport is None for _, f in rec.snapshots)

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

    @staticmethod
    def stop_case(stop: str, record_every: int):
        """``(cfg, u0, status, step)``: a path that stops after ``step`` steps
        with ``status``, its last state on the grid of ``record_every`` 4
        (``"on"``) or off it (``"off"``)."""
        kind = stop.split("-")[0]
        if kind == "diverged":
            # the step after the last finite state overflows
            grid = SpectralGrid(n_modes=64)
            seed, step = {"diverged-off": (1, 5), "diverged-on": (2, 4)}[stop]
            cfg = SimConfig(grid=grid, s=3.1, dt=0.02, horizon=2.0, seed=seed,
                            noise=GeneralH(q=50.0), record_every=record_every,
                            keep_snapshots=True, blowup_threshold=1e300)
            return cfg, power_law_field(grid, 3.1, stream(0), amplitude=5.0), kind, step
        # the monitored quantity reads 29.43, 29.79, 30.25 at steps 26-28
        horizon, threshold, step = {"completed-off": (0.01, 1e3, 10),
                                    "completed-on": (0.012, 1e3, 12),
                                    "blewup-off": (0.2, 29.6, 27),
                                    "blewup-on": (0.2, 30.0, 28)}[stop]
        cfg = zero_cfg(horizon=horizon, seed=5, record_every=record_every,
                       keep_snapshots=True, blowup_threshold=threshold,
                       noise=LinearB(b0=0.5, lam=1.0, b_star=1.05 * 0.25))
        return cfg, blowup_bump(GRID, 10.0), kind, step

    @pytest.mark.parametrize("record_every", [1, 4])
    @pytest.mark.parametrize("stop", ["completed-off", "completed-on", "blewup-off",
                                      "blewup-on", "diverged-off", "diverged-on"])
    def test_stop_records_its_state_once(self, stop, record_every):
        # every record_every-th state, then the state the path stopped at
        # (horizon, blown-up or last finite) unless the grid holds it; t_stop
        # is the time of the last step taken
        cfg, u0, status, step = self.stop_case(stop, record_every)
        rec = simulate_path(cfg, u0)
        want = reference_path(cfg, u0)
        taken = step + (status == "diverged")
        assert rec.status == want["status"] == status
        assert rec.t_stop == want["t_stop"] == taken * cfg.dt
        assert np.array_equal(rec.wiener_increments, want["increments"])
        assert rec.wiener_increments.shape == (taken,)
        steps = sorted(set(range(0, step + 1, record_every)) | {step})
        assert np.array_equal(rec.times, want["times"])
        assert np.array_equal(rec.times, np.array(steps) * cfg.dt)
        for j, name in enumerate(integrate.DIAGNOSTIC_NAMES):
            assert np.array_equal(rec.diagnostics[name], want["rows"][:, j]), name
        # one kept state per row: the snapshots are the recorded states
        assert [t for t, _ in rec.snapshots] == list(rec.times)
        assert [sobolev_norm(f, cfg.s) for _, f in rec.snapshots] \
            == list(rec.diagnostics["h_s"])
        if record_every > 1:
            # every fourth row and the stop's are rows of the dense record:
            # [0, 4, 5] for diverged-off
            dense = simulate_path(replace(cfg, record_every=1), u0)
            assert np.array_equal(dense.times, cfg.dt * np.arange(step + 1))
            for name, values in rec.diagnostics.items():
                assert np.array_equal(values, dense.diagnostics[name][steps]), name

    def test_frozen_general_h(self):
        # tiny GeneralH path; frozen values: a change in the RK4 stage
        # arithmetic or the noise shows here
        grid = SpectralGrid(n_modes=64)
        u0 = random_band_limited(grid, 8, np.random.default_rng(2), rms=0.5)
        cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.02, seed=3,
                        noise=GeneralH(n_components=4))
        rec = simulate_path(cfg, u0)
        assert rec.status == "completed"
        assert rec.wiener_increments.shape == (20,)
        assert rec.diagnostics["h_s"][-1] == pytest.approx(91.66208711734731, rel=1e-12)
        assert rec.diagnostics["sup_ux"][-1] == pytest.approx(2.8619456523543527, rel=1e-12)
        assert rec.diagnostics["max_lam"][-1] == pytest.approx(2.3834538353390697, rel=1e-12)


def low_datum(n: int, n_modes: int) -> Field:
    """The instability lab's ``m = +1`` low-frequency datum at carrier ``n``."""
    p = InstabilityParams(m=1, n=n)
    return build_low_initial(p, SpectralGrid(period=p.period, n_modes=n_modes))


def low_cfg(grid: SpectralGrid, dt: float, horizon: float, **kw) -> SimConfig:
    return SimConfig(grid=grid, s=3.1, dt=dt, horizon=horizon, **kw)


def low_stream(u0: Field, horizon: float, dt: float, **kw):
    """The deterministic stream of the whole steps of size ``dt`` in
    ``horizon`` from ``u0``."""
    return simulate_low_frequency(low_cfg(u0.grid, dt, horizon, **kw), u0,
                                  [dt] * whole_steps(horizon, dt))


class TestLowFrequency:
    def test_zero_initial_stays_zero(self):
        grid = SpectralGrid(period=16.0 * 64**0.9, n_modes=256)
        steps = list(low_stream(Field.zeros(grid), horizon=0.05, dt=1e-2))
        assert len(steps) == 6
        assert all(f.max_abs() == 0.0 for f in steps)

    def test_time_reversal(self):
        # v0 = -u(T) integrated forward by T returns to -u(0): the equation is
        # invariant under (t, u) -> (-t, -u).
        T, dt = 0.5, 2e-3
        u0 = low_datum(32, 512)
        fwd = list(low_stream(u0, horizon=T, dt=dt))
        assert len(fwd) == int(round(T / dt)) + 1
        # manual reverse run from -u(T)
        from ccflab.spectral import dealiased_product, derivative, hilbert
        u = -1.0 * fwd[-1]

        def rhs(f):
            return -1.0 * dealiased_product(hilbert(f), derivative(f))

        for _ in range(int(T / dt)):
            u = rk4(rhs, u, dt)
        assert np.allclose(u.samples, -u0.samples, atol=1e-8)

    def test_frozen_values(self):
        # frozen values: a change in the RK4 stage arithmetic shows here
        steps = list(low_stream(low_datum(2, 64), 0.2, dt=2e-2))
        assert len(steps) == 11
        last = steps[-1]
        assert sobolev_norm(last, 3.1) == pytest.approx(3.1993670441614426, rel=1e-12)
        assert last.samples.max() == pytest.approx(0.4940297471127496, rel=1e-12)

    def test_divergence_raises(self):
        # a non-finite step is an error naming its time, not a silently
        # shortened trajectory
        grid = SpectralGrid(period=2.0 * np.pi, n_modes=64)
        initial = Field.from_samples(grid, 100.0 * np.sin(grid.x))
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"stream diverged at t=0\.15"):
            list(low_stream(initial, horizon=0.5, dt=0.05))

    def test_steps_run_on_demand(self, fft_calls):
        # the stream takes an RK4 step (8 FFT calls) only when its state is read
        stream = low_stream(low_datum(2, 64), 0.2, dt=2e-2)
        fft_calls.clear()
        next(stream)
        assert fft_calls == []
        next(stream)
        assert len(fft_calls) == 8

    def test_steps_are_noiseless_em_steps(self):
        # the stream honours the mollifier of its config and ignores its
        # noise: each state is one noiseless em_step of the given size, bit
        # for bit
        u0 = power_law_field(GRID, 3.1, np.random.default_rng(12), amplitude=1.0)
        cfg = low_cfg(GRID, 1e-3, 0.01, eps_mollify=0.05,
                      noise=GeneralH(n_components=8, exponent_k=2, exponent_n=1))
        quiet = low_cfg(GRID, 1e-3, 0.01, eps_mollify=0.05)
        sizes = 1e-3 * np.exp(0.3 * np.sin(np.arange(10)))
        got = list(simulate_low_frequency(cfg, u0, sizes))
        v, want = u0, [u0]
        for i, h in enumerate(sizes):
            v = em_step(v, i * 1e-3, quiet, 0.0, h)
            want.append(v)
        assert len(got) == len(want) == 11
        for f, w in zip(got, want):
            assert np.array_equal(f.coefficients, w.coefficients)


class TestTimeChange:
    """A path of a noise ``h = a u`` is its start state's deterministic
    stream on the clock ``theta = int beta dt``: ``u_n = beta_n w_n``."""

    def test_strong_alpha_path_is_a_scaled_stream(self):
        # w steps by beta_n dt; a_n = q (1 + beta_n F(w_n))^theta with
        # F = sup|w_x| + sup|H w_x|, and beta_{n+1} = beta_n exp(a_n dW_n -
        # a_n^2 dt / 2), the factor of the path's own step
        grid = SpectralGrid(n_modes=128)
        u0 = power_law_field(grid, 3.1, stream(0), max_mode=grid.dealias_keep // 4)
        noise = StrongAlpha()
        dt = 1e-3
        cfg = SimConfig(grid=grid, s=3.1, dt=dt, horizon=0.2, noise=noise, seed=11,
                        record_every=1, keep_snapshots=True)
        rec = simulate_path(cfg, u0)
        assert rec.status == "completed" and len(rec.snapshots) == 201
        beta = [1.0]
        steps = (beta[n] * dt for n in range(len(rec.wiener_increments)))
        stream_w = simulate_low_frequency(cfg, rec.snapshots[0][1], steps)
        worst = 0.0
        for n, ((_, u), w) in enumerate(zip(rec.snapshots, stream_w)):
            err = sobolev_norm(u - beta[n] * w, cfg.s - 1.0) / sobolev_norm(u, cfg.s - 1.0)
            worst = max(worst, err)
            if n < len(rec.wiener_increments):
                sup_wx, sup_hwx, _ = gradient_sups(w)
                a = noise.q * (1.0 + beta[n] * (sup_wx + sup_hwx)) ** noise.theta
                dw = rec.wiener_increments[n]
                beta.append(beta[n] * np.exp(a * dw - a * a * dt / 2.0))
        assert len(beta) == 201
        assert worst <= 1e-12


class TestInitialData:
    def test_blowup_bump_hits_target(self):
        grid = SpectralGrid(n_modes=1024)
        u0 = blowup_bump(grid, 10.0, width=1.0)
        x0 = argmax_refined(u0)
        val = evaluate_at(frac_laplacian(u0), x0)
        assert val == pytest.approx(10.0, rel=1e-3)

    def test_power_law_amplitude(self):
        rng = np.random.default_rng(10)
        f = power_law_field(GRID, 3.1, rng, amplitude=2.0)
        assert sobolev_norm(f, 0.0) == pytest.approx(2.0, rel=1e-12)


class TestPathRecordIO:
    def test_jsonl_roundtrip_rows(self, tmp_path):
        # persist writes a path's recorded rows as they are, bit for bit
        cfg = zero_cfg(horizon=0.01)
        u0 = Field.from_samples(GRID, 0.1 * np.sin(GRID.x))
        result = run_ensemble(cfg, u0, 1)
        (rec,) = result.records
        out = tmp_path / "path.jsonl"
        persist(result, str(out))
        head, path, *rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert head["columns"] == ["t", *integrate.DIAGNOSTIC_NAMES]
        assert path["status"] == "completed" and len(rows) == rec.times.size == 11
        assert [row["v"] for row in rows] == np.column_stack(
            [rec.times, *(rec.diagnostics[k] for k in integrate.DIAGNOSTIC_NAMES)]).tolist()
