"""Operator-level checks for the spectral core.

Expected values are either evaluated by hand from the multiplier symbols
(two-mode trigonometric identities) or computed against an independent
quadrature/closed-form oracle and frozen here.
"""

import pickle

import numpy as np
import pytest

from ccflab.spectral import (
    BandwidthError,
    Field,
    SpectralGrid,
    SupportError,
    argmax_refined,
    bessel,
    cotlar_residual,
    dealias,
    dealiased_product,
    derivative,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    hilbert,
    lambda_product_residual,
    lambda_shift_residual,
    mollify,
    random_band_limited,
    sobolev_inner,
    sobolev_norm,
    sup_norms,
    transport_product,
)
from ccflab import spectral
from ccflab.noise import transport_gradient_powers

GRID = SpectralGrid(period=2.0 * np.pi, n_modes=256)


def cos_field(grid, k, amp=1.0):
    return Field.from_function(grid, lambda x: amp * np.cos(k * x))


def sin_field(grid, k, amp=1.0):
    return Field.from_function(grid, lambda x: amp * np.sin(k * x))


class TestGrid:
    def test_wavenumbers_are_integer_multiples(self):
        g = SpectralGrid(period=5.0, n_modes=64)
        base = 2.0 * np.pi / 5.0
        ratio = g.wavenumbers / base
        assert np.allclose(ratio, np.round(ratio), atol=1e-12)
        assert ratio.min() == -31 and ratio.max() == 32

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SpectralGrid(n_modes=8)
        with pytest.raises(ValueError):
            SpectralGrid(n_modes=100)
        with pytest.raises(ValueError):
            SpectralGrid(period=-1.0)

    def test_cached_arrays_read_only(self):
        # every caller of a grid shares these arrays, also after the grid
        # is pickled to a worker process
        names = ("x", "k_int", "wavenumbers", "dealias_mask", "sobolev_base",
                 "derivative_symbol", "hilbert_symbol", "helmholtz_dx_symbol",
                 "transport_symbols", "gradient_symbols")
        g = SpectralGrid(n_modes=32)
        cached = [getattr(g, name) for name in names]
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        for a in [*cached, *(getattr(copy, name) for name in names),
                  spectral._sobolev_weights(g, 2.5)]:
            with pytest.raises(ValueError):
                a[..., 1] = 0

    def test_nyquist_always_zeroed(self):
        g = SpectralGrid(n_modes=16)
        f = Field.from_samples(g, np.cos(8 * g.x))  # pure Nyquist content
        assert np.max(np.abs(f.coefficients)) < 1e-14


class TestHilbert:
    def test_cos_to_minus_sin(self):
        for k in (1, 3, 10):
            got = hilbert(cos_field(GRID, k))
            want = sin_field(GRID, k, -1.0)
            assert np.allclose(got.samples, want.samples, atol=1e-12)

    def test_constant_annihilated(self):
        f = Field.from_function(GRID, lambda x: 0 * x + 3.7)
        assert hilbert(f).max_abs() < 1e-13

    def test_involution_on_zero_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_band_limited(GRID, 60, rng)
            hh = hilbert(hilbert(f))
            assert np.allclose(hh.samples, -f.samples, atol=1e-12)


class TestFracLaplacian:
    def test_cos_eigenfunction(self):
        for k, alpha in [(2, 0.5), (5, 1.0), (7, 2.0)]:
            got = frac_laplacian(cos_field(GRID, k), alpha)
            assert np.allclose(got.samples, abs(k) ** alpha * np.cos(k * GRID.x), atol=1e-10)

    def test_constant_to_zero(self):
        f = Field.from_function(GRID, lambda x: 0 * x + 1.0)
        assert frac_laplacian(f, 1.3).max_abs() < 1e-13

    def test_symbol_identity_alpha_one(self):
        # H(f_x) = -Lam f, pointwise on the grid
        f = sin_field(GRID, 3)
        lhs = frac_laplacian(f, 1.0)
        assert np.allclose(lhs.samples, 3.0 * np.sin(3 * GRID.x), atol=1e-11)
        rhs = hilbert(derivative(f))
        assert np.allclose((lhs + rhs).samples, 0.0, atol=1e-11)

    def test_symbol_identity_random(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(GRID, 80, rng)
        resid = frac_laplacian(f, 1.0) + hilbert(derivative(f))
        assert resid.max_abs() < 1e-11


class TestBessel:
    def test_zero_order_is_identity(self):
        rng = np.random.default_rng(11)
        f = random_band_limited(GRID, 50, rng)
        assert np.allclose(bessel(f, 0.0).samples, f.samples, atol=1e-13)

    def test_cos_s2(self):
        got = bessel(cos_field(GRID, 1), 2.0)
        assert np.allclose(got.samples, 2.0 * np.cos(GRID.x), atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(12)
        f = random_band_limited(GRID, 50, rng)
        back = bessel(bessel(f, 3.1), -3.1)
        assert np.allclose(back.samples, f.samples, atol=1e-11)


class TestMollify:
    def test_band_limited_untouched(self):
        # modes up to 10; eps = 1/20 keeps |xi| <= 20 exactly
        rng = np.random.default_rng(5)
        f = random_band_limited(GRID, 10, rng)
        assert np.allclose(mollify(f, 0.05).samples, f.samples, atol=1e-13)

    def test_high_mode_killed(self):
        f = cos_field(GRID, 50)
        assert mollify(f, 0.05).max_abs() < 1e-13  # 50 >= 2/eps = 40

    def test_eps_zero_identity(self):
        f = cos_field(GRID, 9)
        assert np.allclose(mollify(f, 0.0).samples, f.samples)

    def test_approximation_rate(self):
        # |f - J_eps f|_{H^r} <= C eps^{s-r} |f|_{H^s}; frozen C from a
        # direct norm computation on power-law data.
        grid = SpectralGrid(n_modes=1024)
        s, r = 3.0, 1.5
        c = np.zeros(grid.n_modes, dtype=np.complex128)
        k = np.arange(1, 300)
        c[k] = (1.0 + k.astype(float) ** 2) ** (-(s + 0.501) / 2.0)
        c[-k] = np.conj(c[k])
        f = Field.from_coefficients(grid, c)
        hs = sobolev_norm(f, s)
        worst = max(
            sobolev_norm(f - mollify(f, eps), r) / (eps ** (s - r) * hs)
            for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64)
        )
        assert worst < 1.0  # measured ~0.6; the bound constant is O(1)

    def test_contractivity(self):
        rng = np.random.default_rng(8)
        f = random_band_limited(GRID, 70, rng)
        for s in (0.0, 1.0, 3.1):
            assert sobolev_norm(mollify(f, 0.03), s) <= sobolev_norm(f, s) + 1e-12
            assert sobolev_norm(hilbert(f), s) <= sobolev_norm(f, s) + 1e-12


class TestNorms:
    def test_zero(self):
        assert sobolev_norm(Field.zeros(GRID), 2.0) == 0.0

    def test_cos_l2(self):
        assert abs(sobolev_norm(cos_field(GRID, 1), 0.0) - np.sqrt(np.pi)) < 1e-12

    def test_cos_h2(self):
        assert abs(sobolev_norm(cos_field(GRID, 1), 2.0) - 2.0 * np.sqrt(np.pi)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(21)
        f = random_band_limited(GRID, 100, rng)
        lhs = sobolev_norm(f, 0.0) ** 2
        rhs = GRID.period * np.mean(f.samples**2)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_inner_product_consistent(self):
        rng = np.random.default_rng(22)
        f = random_band_limited(GRID, 40, rng)
        assert abs(sobolev_inner(f, f, 1.7) - sobolev_norm(f, 1.7) ** 2) < 1e-10

    def test_refinement_stable(self):
        # same smooth function, doubled resolution: norm unchanged
        f1 = cos_field(GRID, 4, 0.8)
        f2 = cos_field(SpectralGrid(n_modes=512), 4, 0.8)
        assert abs(sobolev_norm(f1, 2.3) - sobolev_norm(f2, 2.3)) < 1e-11


class TestSupNorms:
    # sup_norms is (sup|f|, sup|f_x|, sup|H f_x|); gradient_sups is
    # (sup|f_x|, sup|H f_x|, max Lam f) and f.max_abs() is sup|f|
    def test_cos(self):
        f = cos_field(GRID, 1)
        assert np.allclose(sup_norms(f), (1.0, 1.0, 1.0), atol=1e-10)
        assert np.allclose((f.max_abs(), *gradient_sups(f)), (1.0, 1.0, 1.0, 1.0),
                           atol=1e-10)

    def test_zero(self):
        f = Field.zeros(GRID)
        assert sup_norms(f) == (0.0, 0.0, 0.0)
        sups = (f.max_abs(), *gradient_sups(f))
        assert sups == (0.0, 0.0, 0.0, 0.0)
        # max Lam f is read as -min H f_x, which must not give -0.0
        assert not np.any(np.signbit(sups))

    def test_two_sin_three(self):
        f = sin_field(GRID, 3, 2.0)
        assert np.allclose(sup_norms(f), (2.0, 6.0, 6.0), atol=1e-9)
        assert np.allclose((f.max_abs(), *gradient_sups(f)), (2.0, 6.0, 6.0, 6.0),
                           atol=1e-9)


class TestStackedTransforms:
    """The stacked transforms equal the one-multiplier compositions bit for bit."""

    SIZES = [16, 64, 256, 1024, 2048]

    @staticmethod
    def fields(n):
        grid = SpectralGrid(n_modes=n)
        rng = np.random.default_rng(n)
        # inside the dealias band and up to the last mode below Nyquist
        return [random_band_limited(grid, m, rng, rms=rng.uniform(0.1, 3.0))
                for m in (grid.dealias_keep, n // 2 - 1)]

    @pytest.mark.parametrize("n", SIZES)
    def test_transport_product(self, n):
        for w in self.fields(n):
            want = dealiased_product(hilbert(w), derivative(w))
            assert np.array_equal(transport_product(w).coefficients, want.coefficients)

    @pytest.mark.parametrize("n", SIZES)
    def test_gradient_sups(self, n):
        for f in self.fields(n):
            fx = derivative(f)
            want = (fx.max_abs(), hilbert(fx).max_abs(),
                    max(frac_laplacian(f, 1.0).samples))
            assert np.array_equal(gradient_sups(f), want)

    @pytest.mark.parametrize("n", SIZES)
    def test_transport_gradient_powers(self, n):
        k, m = 2, 1
        for u in self.fields(n):
            ux = dealias(derivative(u))
            want = dealias(Field.from_samples(u.grid, ux.samples**k + hilbert(ux).samples**m))
            got = transport_gradient_powers(u, k, m)
            assert np.array_equal(got.coefficients, want.coefficients)


class TestDerivative:
    def test_cos(self):
        got = derivative(cos_field(GRID, 4))
        assert np.allclose(got.samples, -4.0 * np.sin(4 * GRID.x), atol=1e-11)

    def test_constant(self):
        f = Field.from_function(GRID, lambda x: 0 * x + 2.0)
        assert derivative(f).max_abs() < 1e-13


class TestCommutation:
    def test_exact_at_coefficient_level(self):
        rng = np.random.default_rng(41)
        f = random_band_limited(GRID, 70, rng)
        pairs = [
            (lambda u: hilbert(mollify(u, 0.04)), lambda u: mollify(hilbert(u), 0.04)),
            (lambda u: bessel(hilbert(u), 2.2), lambda u: hilbert(bessel(u, 2.2))),
            (lambda u: derivative(mollify(u, 0.04)), lambda u: mollify(derivative(u), 0.04)),
        ]
        for a, b in pairs:
            ca, cb = a(f).coefficients, b(f).coefficients
            # diagonal operators commute exactly; float product order costs <= 1 ulp
            assert np.max(np.abs(ca - cb)) < 1e-15


class TestHermitianPreservation:
    def test_ops_keep_fields_real(self):
        rng = np.random.default_rng(51)
        f = random_band_limited(GRID, 60, rng)
        for g in (hilbert(f), frac_laplacian(f, 1.0), bessel(f, 2.0),
                  mollify(f, 0.05), derivative(f), dealiased_product(f, f)):
            c = g.coefficients
            n = GRID.n_modes
            idx = np.arange(1, n)
            assert np.allclose(c[idx], np.conj(c[n - idx]), atol=1e-14)
            assert abs(c[0].imag) < 1e-15


class TestCotlar:
    def test_cos(self):
        # 2 H(-0.5 sin 2x) = -cos 2x equals sin^2 - cos^2
        assert cotlar_residual(cos_field(GRID, 1)) < 1e-12

    def test_zero(self):
        assert cotlar_residual(Field.zeros(GRID)) == pytest.approx(0.0, abs=1e-15)

    def test_random_band_limited(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            f = random_band_limited(GRID, GRID.dealias_keep, rng)
            l2sq = sobolev_norm(f, 0.0) ** 2
            assert cotlar_residual(f) <= 1e-10 * l2sq

    def test_rejects_full_band(self):
        f = cos_field(GRID, 120)  # beyond the dealias band
        with pytest.raises(BandwidthError):
            cotlar_residual(f)


class TestLambdaProduct:
    def test_zero(self):
        assert lambda_product_residual(Field.zeros(GRID)) == 0.0

    def test_rejects_boundary_support(self):
        f = cos_field(GRID, 2)  # fills the whole period
        with pytest.raises(SupportError):
            lambda_product_residual(f)

    def test_centered_gaussian_defect_shrinks_with_window(self):
        # The sawtooth-coordinate identity carries an intrinsic periodization
        # defect ~ |f|_L1/period that decays like 1/L at fixed bump width.
        res = []
        for nper, n in [(1, 2048), (4, 4096), (16, 8192)]:
            L = 2.0 * np.pi * nper
            g = SpectralGrid(period=L, n_modes=n)
            f = Field.from_function(g, lambda x: np.exp(-((x - L / 2) ** 2) / 0.25**2))
            res.append(lambda_product_residual(f))
        assert res[1] < 0.5 * res[0] and res[2] < 0.5 * res[1]

    @pytest.mark.xfail(reason="centered-coordinate form keeps an O(|f|_L1/L) torus "
                              "defect; only its modulation form is grid-exact "
                              "(see notes in decisions ledger)", strict=True)
    def test_centered_gaussian_at_stated_tolerance(self):
        L = 2.0 * np.pi
        g = SpectralGrid(period=L, n_modes=2048)
        f = Field.from_function(g, lambda x: np.exp(-((x - L / 2) ** 2) / (L / 20) ** 2))
        l2 = sobolev_norm(f, 0.0)
        assert lambda_product_residual(f) <= 1e-6 * l2

    def test_shift_form_is_grid_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            f = random_band_limited(GRID, 100, rng)
            l2 = sobolev_norm(f, 0.0)
            assert lambda_shift_residual(f) <= 1e-12 * l2


class TestEvaluateAt:
    def test_matches_grid_samples(self):
        rng = np.random.default_rng(81)
        f = random_band_limited(GRID, 30, rng)
        xs = GRID.x[[3, 100, 200]]
        assert np.allclose(evaluate_at(f, xs), f.samples[[3, 100, 200]], atol=1e-12)

    def test_off_grid_cos(self):
        f = cos_field(GRID, 5)
        x = 0.3217
        assert abs(evaluate_at(f, x) - np.cos(5 * x)) < 1e-12

    def test_argmax_refined(self):
        x0 = 2.11
        f = Field.from_function(GRID, lambda x: np.exp(np.cos(x - x0)))
        assert abs(argmax_refined(f) - x0) < 1e-4


class TestProducts:
    def test_dealiased_product_exact_inside_band(self):
        f = cos_field(GRID, 3)
        g = cos_field(GRID, 5)
        prod = dealiased_product(f, g)
        want = 0.5 * (np.cos(2 * GRID.x) + np.cos(8 * GRID.x))
        assert np.allclose(prod.samples, want, atol=1e-12)

    def test_mask_applied(self):
        f = cos_field(GRID, 80)
        prod = dealiased_product(f, f)  # cos^2 has a 160 mode, beyond keep=84
        c = prod.coefficients
        assert np.max(np.abs(c[~GRID.dealias_mask])) == 0.0


class TestDivergedFlag:
    def test_nan_field_flags(self):
        s = np.zeros(GRID.n_modes)
        s[5] = np.nan
        f = Field.from_samples(GRID, s)
        assert f.diverged

    def test_finite_field_ok(self):
        assert not cos_field(GRID, 2).diverged
