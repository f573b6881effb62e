"""Noise-family checks: hand-computed two-mode values, moment sanity for the
Wiener increments, and the statistical growth/Lipschitz envelopes."""

import math

import numpy as np
import pytest

from ccflab.noise import (
    GeneralH,
    InstabilityH,
    LinearB,
    StrongAlpha,
    ZeroNoise,
    helmholtz_inverse_dx,
    wiener_increments,
)
from ccflab.spectral import Field, SpectralGrid, random_band_limited, sobolev_norm

GRID = SpectralGrid(period=2.0 * np.pi, n_modes=256)


def cosx(amp=1.0):
    return Field.from_samples(GRID, amp * np.cos(GRID.x))


class TestHelmholtzInverseDx:
    def test_cos_to_minus_half_sin(self):
        got = helmholtz_inverse_dx(cosx())
        assert np.allclose(got.samples, -0.5 * np.sin(GRID.x), atol=1e-12)

    def test_constant_to_zero(self):
        f = Field.from_samples(GRID, 0 * GRID.x + 4.2)
        assert helmholtz_inverse_dx(f).max_abs() < 1e-13

    def test_smoothing_bound(self):
        # multiplier modulus |xi|/(1+xi^2) <= (1+xi^2)^{-1/2}
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_band_limited(GRID, 80, rng)
            s = 2.4
            assert sobolev_norm(helmholtz_inverse_dx(f), s) <= sobolev_norm(f, s - 1.0) + 1e-12


class TestGeneralH:
    def model(self, K=1, k=1, n=1):
        return GeneralH(q=1.0, exponent_k=k, exponent_n=n, n_components=K)

    @pytest.mark.parametrize("kwargs", [dict(n_components=0), dict(component_decay=-0.5),
                                        dict(exponent_k=0)])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GeneralH(**kwargs)

    def test_zero_input(self):
        assert self.model(K=4).components(0.3, Field.zeros(GRID)).max_abs() == 0.0

    def test_two_mode_hand_value(self):
        # u = cos x: u_x + H u_x = -sin x - cos x, then the Helmholtz-inverse
        # derivative gives (-cos x + sin x)/2 (multiplier i xi/(1+xi^2) at k=1).
        h = self.model().components(0.0, cosx())
        want = 0.5 * (-np.cos(GRID.x) + np.sin(GRID.x))
        assert np.allclose(h.samples, want, atol=1e-12)

    def test_component_scaling(self):
        # K components on K Brownian motions are one of amplitude |c|_2
        u = random_band_limited(GRID, 40, np.random.default_rng(0))
        one = self.model(K=1)
        assert one.amplitude == 1.0
        for K in (3, 8):
            m = self.model(K=K)
            norm = np.sqrt(np.sum(np.arange(1.0, K + 1) ** (-2.0 * m.component_decay)))
            assert m.amplitude == pytest.approx(norm, rel=1e-14)
            # summed once per instance, by the same rule as before
            assert vars(m)["amplitude"] == math.sqrt(
                sum(j ** (-2.0 * m.component_decay) for j in range(1, K + 1)))
            got = m.components(0.0, u).coefficients
            want = m.amplitude * one.components(0.0, u).coefficients
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_growth_envelope_linear_case(self):
        # k = n = 1: |h|_{H^s} <= sqrt(2) * q * |c|_2 * |u|_{H^s}
        # (multiplier bound |xi(i xi - |xi|)/(1+xi^2)| <= sqrt(2)).
        rng = np.random.default_rng(2)
        m = self.model(K=8)
        csum = m.amplitude
        s = 3.1
        for _ in range(20):
            u = random_band_limited(GRID, 80, rng, rms=rng.uniform(0.1, 5.0))
            hs = sobolev_norm(m.components(0.0, u), s)
            assert hs <= np.sqrt(2.0) * csum * sobolev_norm(u, s) * (1.0 + 1e-10)

    def test_lipschitz_ratio_bounded(self):
        # statistical check of the local Lipschitz property at k = n = 2
        rng = np.random.default_rng(3)
        grid = SpectralGrid(n_modes=64)
        m = GeneralH(exponent_k=2, exponent_n=2, n_components=4)
        s = 3.1
        ratios = []
        for _ in range(1000):
            u = random_band_limited(grid, 18, rng, rms=rng.uniform(0.05, 1.0))
            v = random_band_limited(grid, 18, rng, rms=rng.uniform(0.05, 1.0))
            du = sobolev_norm(u - v, s)
            if du < 1e-9:
                continue
            hu = m.components(0.0, u)
            hv = m.components(0.0, v)
            diff = sobolev_norm(hu - hv, s)
            nmax = max(sobolev_norm(u, s), sobolev_norm(v, s), 1.0)
            ratios.append(diff / du / nmax)
        assert np.max(ratios) < 50.0  # measured ~over the sample; N-local constant


class TestStrongAlpha:
    def test_zero(self):
        m = StrongAlpha(theta=1.0)
        assert m.components(0.0, Field.zeros(GRID)).max_abs() == 0.0

    def test_cos_three_cos(self):
        m = StrongAlpha(q=1.0, theta=1.0)
        got = m.components(0.0, cosx())
        assert np.allclose(got.samples, 3.0 * np.cos(GRID.x), atol=1e-9)

    def test_collinear(self):
        rng = np.random.default_rng(4)
        u = random_band_limited(GRID, 40, rng)
        m = StrongAlpha(theta=0.7)
        out = m.components(0.0, u)
        lam = out.samples[10] / u.samples[10]
        assert np.allclose(out.samples, lam * u.samples, atol=1e-10)

    def test_validation_branches(self):
        StrongAlpha(theta=1.0).validate()
        with pytest.raises(ValueError):
            StrongAlpha(theta=0.4).validate()
        with pytest.raises(ValueError):
            StrongAlpha(theta=0.5).validate()  # needs q_hat
        with pytest.raises(ValueError):
            StrongAlpha(theta=0.5, q=1.0).validate(q_hat=1.0)
        StrongAlpha(theta=0.5, q=2.0).validate(q_hat=1.0)  # q^2=4 > 2


class TestLinearB:
    def test_zero_field(self):
        m = LinearB(b0=0.5, lam=1.0, b_star=0.3)
        assert m.components(0.0, Field.zeros(GRID)).max_abs() == 0.0

    def test_b_zero(self):
        m = LinearB(b0=0.0, lam=1.0, b_star=0.3)
        assert m.components(1.2, cosx()).max_abs() == 0.0

    def test_identity_at_t0(self):
        m = LinearB(b0=1.0, lam=1.0, b_star=1.1)
        u = cosx(0.7)
        assert np.allclose(m.components(0.0, u).samples, u.samples)

    def test_validation(self):
        LinearB(b0=0.5, lam=1.0, b_star=0.26).validate()
        with pytest.raises(ValueError):
            LinearB(b0=1.0, lam=1.0, b_star=0.9).validate()  # b(0)^2 = 1
        with pytest.raises(ValueError):
            LinearB(b0=0.5, lam=-0.1, b_star=0.26).validate()  # b grows


class TestInstabilityH:
    def test_sigma0_range(self):
        with pytest.raises(ValueError):
            InstabilityH(sigma0=1.4)
        with pytest.raises(ValueError):
            InstabilityH(sigma0=1.8)

    def test_zero_extension(self):
        m = InstabilityH(sigma0=1.6)
        assert m.components(0.0, Field.zeros(GRID)).max_abs() == 0.0

    def test_factor_monotone(self):
        m = InstabilityH(sigma0=1.6)
        rng = np.random.default_rng(5)
        base = random_band_limited(GRID, 30, rng)
        norms = []
        for amp in (0.5, 1.0, 2.0):
            u = amp * base
            out = m.components(0.0, u)
            # scalar factor exp(-1/|u|) against the linear part: normalize out
            norms.append(sobolev_norm(out, m.sigma0) / amp)
        assert norms[0] < norms[1] < norms[2]

    def test_envelope_bound(self):
        # |h(t,u)|_{H^sigma0} <= g * exp(-1/|u|_{H^sigma0}) with the linear-part
        # constant g = sqrt(2) (multiplier bound as in the general family, k=n=1)
        m = InstabilityH(sigma0=1.6)
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = random_band_limited(GRID, 60, rng, rms=rng.uniform(0.1, 3.0))
            out = m.components(0.0, u)
            r = sobolev_norm(u, m.sigma0)
            bound = np.sqrt(2.0) * np.exp(-1.0 / r) * sobolev_norm(u, m.sigma0 + 0.0)
            # the Helmholtz-inverse derivative loses one derivative; use H^{sigma0}
            # of u as a crude but valid majorant of |base|_{H^sigma0}
            assert sobolev_norm(out, m.sigma0) <= bound * (1.0 + 1e-10)


class TestWienerIncrements:
    def test_dt_zero(self):
        assert np.all(wiener_increments(0, 0.0, 5) == 0.0)
        with pytest.raises(ValueError):
            wiener_increments(0, -0.1, 5)

    def test_moments(self):
        dt = 0.01
        n = 1_000_000
        draws = wiener_increments(1234, dt, n)
        se = np.sqrt(dt / n)
        assert abs(draws.mean()) < 4.0 * se
        assert abs(draws.var() - dt) < 0.01 * dt

    def test_shape_and_determinism(self):
        a = wiener_increments(9, 0.1, 3)
        assert a.shape == (3,)
        assert np.array_equal(a, wiener_increments(9, 0.1, 3))
        # one draw per step: a shorter draw is a prefix of a longer one
        assert np.array_equal(a, wiener_increments(9, 0.1, 50)[:3])


class TestHermitian:
    def test_all_models_produce_real_fields(self):
        rng = np.random.default_rng(7)
        u = random_band_limited(GRID, 50, rng)
        models = [
            GeneralH(n_components=3),
            StrongAlpha(theta=1.0),
            LinearB(b0=0.4, lam=1.0, b_star=0.2),
            InstabilityH(sigma0=1.6),
        ]
        for m in models:
            # the half spectrum of a real field: real DC, zero Nyquist slot
            c = m.components(0.1, u).coefficients
            assert c.shape == (GRID.n_modes // 2 + 1,)
            assert c[0].imag == 0.0 and c[GRID.nyquist_index] == 0.0

    def test_zero_noise(self):
        assert ZeroNoise().components(0.0, cosx()) is None
