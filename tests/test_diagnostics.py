"""Diagnostics checks: hand values for the monitored quantities, the pairing
lemma as an empirical bound, drift-condition sign structure, and the
integration-by-parts sanity identity."""

import numpy as np
import pytest

from ccflab.diagnostics import (
    blowup_quantity,
    estimate_commutator_constant,
    _drift_condition_sides,
    fit_k1_from_sweep,
    lyapunov_growth_check,
    transport_pairing,
)
from ccflab.integrate import SimConfig, simulate_path
from ccflab.noise import StrongAlpha, ZeroNoise
from ccflab.spectral import (
    Field,
    SpectralGrid,
    apply_multiplier,
    dealiased_product,
    derivative,
    hilbert,
    pad_field,
    random_band_limited,
    sobolev_norm,
)

GRID = SpectralGrid(n_modes=256)


def drift_residual(u, model, k1=1.0, k2=0.5):
    """LHS minus RHS of the drift condition at ``(0, u)`` with ``s = 3.1``
    and ``q_hat = 0.5``; a negative value certifies it there."""
    lhs, rhs = _drift_condition_sides(u, 0.0, model, 3.1, 0.5, k1, k2)
    return lhs - rhs


class TestBlowupQuantity:
    def test_zero(self):
        assert blowup_quantity(Field.zeros(GRID)) == 0.0

    def test_cos(self):
        u = Field.from_samples(GRID, np.cos(GRID.x))
        assert blowup_quantity(u) == pytest.approx(2.0, abs=1e-10)

    def test_homogeneous(self):
        rng = np.random.default_rng(0)
        u = random_band_limited(GRID, 40, rng)
        assert blowup_quantity(-3.0 * u) == pytest.approx(3.0 * blowup_quantity(u), rel=1e-12)


class TestLyapunovValue:
    """The ``lyapunov`` column ``log(1 + |u|^2_{H^{s-1}})`` that
    ``simulate_path`` records, read at ``t = 0``."""

    def recorded(self, u):
        cfg = SimConfig(grid=GRID, s=3.1, dt=1e-3, horizon=1e-3, noise=ZeroNoise())
        return simulate_path(cfg, u).diagnostics["lyapunov"][0]

    def test_zero(self):
        assert self.recorded(Field.zeros(GRID)) == 0.0

    def test_unit_norm(self):
        u = Field.from_samples(GRID, np.cos(GRID.x))
        u = (1.0 / sobolev_norm(u, 2.1)) * u
        assert self.recorded(u) == pytest.approx(np.log(2.0), rel=1e-10)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        u = random_band_limited(GRID, 30, rng)
        vals = [self.recorded(a * u) for a in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]


class TestTransportPairing:
    def test_zero(self):
        assert transport_pairing(Field.zeros(GRID), 2.1) == 0.0

    def test_cos_l2_vanishes(self):
        # integral of sin^2 x * cos x over the period is zero
        u = Field.from_samples(GRID, np.cos(GRID.x))
        assert abs(transport_pairing(u, 0.0)) < 1e-12

    def test_pairing_lemma_bound(self):
        # |((Hu)u_x, u)| <= Q bq(u) |u|^2 with the empirical constant
        rng = np.random.default_rng(2)
        q_hat = estimate_commutator_constant(300, 3.1, np.random.default_rng(77))
        for _ in range(50):
            u = random_band_limited(GRID, 80, rng, rms=rng.uniform(0.1, 2.0))
            lhs = abs(transport_pairing(u, 2.1))
            rhs = q_hat * blowup_quantity(u) * sobolev_norm(u, 2.1) ** 2
            assert lhs <= rhs * 1.5 + 1e-12  # fresh draws may exceed the max slightly

    def test_antisymmetry_sanity(self):
        # ((Hu) D^sig u_x, D^sig u)_{L2} = -1/2 int (Hu)_x (D^sig u)^2
        rng = np.random.default_rng(3)
        u = random_band_limited(GRID, 40, rng)
        sig = 2.1
        up = pad_field(u)
        a = apply_multiplier(up, up.grid.sobolev_base ** (sig / 2))
        w = hilbert(up)
        lhs = np.mean(w.samples * derivative(a).samples * a.samples) * up.grid.period
        rhs = -0.5 * np.mean(derivative(w).samples * a.samples**2) * up.grid.period
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestCommutatorConstant:
    def test_repeatable(self):
        a = estimate_commutator_constant(200, 3.1, np.random.default_rng(5))
        b = estimate_commutator_constant(200, 3.1, np.random.default_rng(5))
        assert a == b

    def test_nondecreasing_in_samples(self):
        a = estimate_commutator_constant(200, 3.1, np.random.default_rng(6))
        b = estimate_commutator_constant(600, 3.1, np.random.default_rng(6))
        assert b >= a

    def test_finite_at_scale(self):
        q = estimate_commutator_constant(10_000, 3.1, np.random.default_rng(7))
        assert 0.0 < q < 10.0


class TestDriftCondition:
    def test_zero_field_gives_minus_k1(self):
        model = StrongAlpha(q=1.0, theta=1.0)
        r = drift_residual(Field.zeros(GRID), model, k1=2.5)
        assert r == pytest.approx(-2.5, abs=1e-12)

    def test_negative_for_large_gradient_states(self):
        # theta = 1, q = 1: the noise quadratic dominates once bq is large
        model = StrongAlpha(q=1.0, theta=1.0)
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = random_band_limited(GRID, 60, rng, rms=rng.uniform(4.0, 10.0))
            assert blowup_quantity(u) > 4.0
            assert drift_residual(u, model, k1=3.0) <= 0.0

    def test_monotone_in_k2(self):
        model = StrongAlpha(q=1.0, theta=1.0)
        rng = np.random.default_rng(9)
        u = random_band_limited(GRID, 40, rng, rms=2.0)
        r_small = drift_residual(u, model, k2=0.1)
        r_big = drift_residual(u, model, k2=5.0)
        assert r_big > r_small

    def test_fitted_k1_certifies_fresh_states(self):
        model = StrongAlpha(q=1.0, theta=1.0)
        k1 = fit_k1_from_sweep(model, 3.1, q_hat=0.5, k2=0.5,
                               rng=np.random.default_rng(10))
        rng = np.random.default_rng(11)
        bad = 0
        for _ in range(100):
            u = random_band_limited(GRID, 80, rng, rms=rng.uniform(0.01, 8.0))
            if drift_residual(u, model, k1=1.2 * k1) > 0.0:
                bad += 1
        assert bad == 0


class TestGrowthCheck:
    def make_records(self, n_paths, horizon=0.02):
        grid = SpectralGrid(n_modes=64)
        recs = []
        for i in range(n_paths):
            rng = np.random.default_rng(100 + i)
            u0 = random_band_limited(grid, 10, rng, rms=0.2)
            cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=horizon,
                            noise=ZeroNoise(), seed=i, record_every=5)
            recs.append(simulate_path(cfg, u0))
        return recs

    def test_zero_noise_short_horizon_passes(self):
        recs = self.make_records(8)
        slope, ok = lyapunov_growth_check(recs, 5.0)
        assert ok
        assert abs(slope) < 5.0

    def test_requires_enough_paths(self):
        recs = self.make_records(3)
        with pytest.raises(ValueError):
            lyapunov_growth_check(recs, 5.0)

    def test_blowup_data_violates_bound(self):
        # negative control: deterministic blow-up growth beats any modest line
        grid = SpectralGrid(n_modes=512)
        from ccflab.integrate import blowup_bump
        recs = []
        for i in range(8):
            cfg = SimConfig(grid=grid, s=3.1, dt=5e-4, horizon=0.12,
                            noise=ZeroNoise(), seed=i, record_every=20,
                            blowup_threshold=1e6)
            recs.append(simulate_path(cfg, blowup_bump(grid, 10.0)))
        slope, ok = lyapunov_growth_check(recs, 1.0)
        assert not ok
