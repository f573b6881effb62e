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
    apply_multiplier,
    argmax_refined,
    cotlar_residual,
    dealias,
    dealiased_product,
    dealiased_with_transport,
    derivative,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    hilbert,
    is_dealiased,
    lambda_shift_residual,
    random_band_limited,
    sobolev_inner,
    sobolev_norm,
    sup_norms,
    transport_product,
)
from ccflab import integrate, spectral
from ccflab.noise import transport_gradient_powers

GRID = SpectralGrid(period=2.0 * np.pi, n_modes=256)


def cos_field(grid, k, amp=1.0):
    return Field.from_samples(grid, amp * np.cos(k * grid.x))


def sin_field(grid, k, amp=1.0):
    return Field.from_samples(grid, amp * np.sin(k * grid.x))


def bessel(f, s):
    """Bessel potential, the multiplier ``(1 + xi^2)^{s/2}``."""
    return apply_multiplier(f, f.grid.sobolev_base ** (s / 2))


def mollify(f, eps):
    """``J_eps``: the per-mode values a mollified step multiplies by."""
    return apply_multiplier(f, integrate._mollifier_values(f.grid, eps))


class TestGrid:
    def test_wavenumbers_are_integer_multiples(self):
        g = SpectralGrid(period=5.0, n_modes=64)
        base = 2.0 * np.pi / 5.0
        ratio = g.wavenumbers / base
        assert np.allclose(ratio, np.round(ratio), atol=1e-12)
        # the half spectrum k = 0 .. N/2
        assert ratio.shape == (33,) and ratio.min() == 0 and ratio.max() == 32

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
        names = ("x", "k_int", "k_fft", "wavenumbers", "parseval", "sobolev_base",
                 "derivative_symbol", "hilbert_symbol", "helmholtz_dx_symbol",
                 "step_symbols", "transport_symbols")
        g = SpectralGrid(n_modes=32)
        cached = [getattr(g, name) for name in names]
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        for a in [*cached, *(getattr(copy, name) for name in names),
                  spectral._sobolev_weights(g, 2.5),
                  random_band_limited(g, 4, np.random.default_rng(0)).gradient_samples]:
            with pytest.raises(ValueError):
                a[..., 1] = 0

    def test_symbols_real_or_zero_at_dc(self):
        # irfft drops the imaginary part of the DC slot, so no symbol may put
        # one there
        g = SpectralGrid(n_modes=32)
        for name in ("sobolev_base", "derivative_symbol", "hilbert_symbol",
                     "helmholtz_dx_symbol", "step_symbols", "parseval"):
            assert np.all(np.imag(getattr(g, name)[..., 0]) == 0.0), name

    @pytest.mark.parametrize("n, fraction", [(16, 2.0 / 3.0), (256, 2.0 / 3.0),
                                             (1024, 2.0 / 3.0)])
    def test_aliased_modes_are_the_mask_complement(self, n, fraction):
        # the slice selects exactly the stored modes beyond the band that
        # keeps the lowest ``fraction`` of the Nyquist band, less one mode
        g = SpectralGrid(n_modes=n)
        outside = np.zeros(n // 2 + 1, dtype=bool)
        outside[g.aliased_modes] = True
        assert np.array_equal(outside, g.k_int > np.floor(fraction * (n // 2)) - 1)
        # dealias zeroes those modes and keeps every other one
        f = Field.from_samples(g, np.random.default_rng(n).standard_normal(n))
        d = dealias(f).coefficients
        assert not d[outside].any()
        assert np.array_equal(d[~outside], f.coefficients[~outside])

    @pytest.mark.parametrize("n, keep", [(16, 4), (64, 20), (256, 84), (1024, 340)])
    def test_dealias_keep_is_the_two_thirds_rule(self, n, keep):
        # the band at every size a study or workload runs: the 2/3 rule is
        # not a setting
        assert SpectralGrid(n_modes=n).dealias_keep == keep

    def test_nyquist_always_zeroed(self):
        # in both views: the samples are those of the kept coefficients, not
        # the caller's
        g = SpectralGrid(n_modes=16)
        f = Field.from_samples(g, np.cos(8 * g.x))  # pure Nyquist content
        assert np.max(np.abs(f.coefficients)) < 1e-14
        assert f.max_abs() < 1e-14


class TestHilbert:
    def test_cos_to_minus_sin(self):
        for k in (1, 3, 10):
            got = hilbert(cos_field(GRID, k))
            want = sin_field(GRID, k, -1.0)
            assert np.allclose(got.samples, want.samples, atol=1e-12)

    def test_constant_annihilated(self):
        f = Field.from_samples(GRID, 0 * GRID.x + 3.7)
        assert hilbert(f).max_abs() < 1e-13

    def test_involution_on_zero_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_band_limited(GRID, 60, rng)
            hh = hilbert(hilbert(f))
            assert np.allclose(hh.samples, -f.samples, atol=1e-12)


class TestFracLaplacian:
    def test_cos_eigenfunction(self):
        for k in (2, 5, 7):
            got = frac_laplacian(cos_field(GRID, k))
            assert np.allclose(got.samples, k * np.cos(k * GRID.x), atol=1e-10)

    def test_constant_to_zero(self):
        f = Field.from_samples(GRID, 0 * GRID.x + 1.0)
        assert frac_laplacian(f).max_abs() < 1e-13

    def test_symbol_identity_alpha_one(self):
        # H(f_x) = -Lam f, pointwise on the grid
        f = sin_field(GRID, 3)
        lhs = frac_laplacian(f)
        assert np.allclose(lhs.samples, 3.0 * np.sin(3 * GRID.x), atol=1e-11)
        rhs = hilbert(derivative(f))
        assert np.allclose((lhs + rhs).samples, 0.0, atol=1e-11)

    def test_symbol_identity_random(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(GRID, 80, rng)
        resid = frac_laplacian(f) + hilbert(derivative(f))
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
        c = np.zeros(grid.n_modes // 2 + 1, dtype=np.complex128)
        k = np.arange(1, 300)
        c[k] = (1.0 + k.astype(float) ** 2) ** (-(s + 0.501) / 2.0)
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
    def test_transport_product_from_rows_or_alone(self, n, fft_calls):
        # from formed step rows it takes the forward transform only; a bare
        # field forms its step rows first; either way both are kept
        for w in self.fields(n):
            want = dealiased_product(hilbert(w), derivative(w)).coefficients
            bare, rowed = Field(w.grid, w.coefficients), Field(w.grid, w.coefficients)
            rowed.step_rows
            fft_calls.clear()
            assert np.array_equal(rowed.transport_coefficients, want)
            assert fft_calls == ["rfft"]
            fft_calls.clear()
            assert np.array_equal(bare.transport_coefficients, want)
            assert fft_calls == ["irfft", "rfft"]
            assert np.array_equal(bare.step_rows, rowed.step_rows)
            fft_calls.clear()
            for f in (bare, rowed):
                assert f.transport_coefficients is f.transport_coefficients
                assert f.step_rows is f.step_rows
            assert fft_calls == []

    @pytest.mark.parametrize("n", SIZES)
    def test_gradient_sups(self, n):
        for f in self.fields(n):
            fx = derivative(f)
            want = (fx.max_abs(), hilbert(fx).max_abs(),
                    max(frac_laplacian(f).samples))
            assert np.array_equal(gradient_sups(f), want)

    @pytest.mark.parametrize("n", SIZES)
    def test_step_rows(self, n, fft_calls):
        # all rows from one call, each equal to its own multiplier
        for f in self.fields(n):
            fresh = Field(f.grid, f.coefficients)
            fft_calls.clear()
            rows = fresh.step_rows
            assert fft_calls == ["irfft"]
            for row, symbol in zip(rows, f.grid.step_symbols):
                assert np.array_equal(row, apply_multiplier(f, symbol).samples)

    @pytest.mark.parametrize("n", SIZES)
    def test_noise_transform_carries_transport(self, n, fft_calls):
        for u in self.fields(n):
            samples = np.cos(u.grid.x) * u.samples
            want = dealias(Field.from_samples(u.grid, samples)).coefficients
            want_transport = transport_product(Field(u.grid, u.coefficients)).coefficients
            fresh = Field(u.grid, u.coefficients)
            fresh.step_rows
            fft_calls.clear()
            got = dealiased_with_transport(fresh, samples)
            assert np.array_equal(got, want)
            assert np.array_equal(fresh.transport_coefficients, want_transport)
            assert fft_calls == ["rfft"]    # the product came with the one call

    def test_is_dealiased(self):
        f = random_band_limited(GRID, GRID.dealias_keep, np.random.default_rng(3))
        assert is_dealiased(f)
        assert not is_dealiased(random_band_limited(GRID, GRID.dealias_keep + 1,
                                                    np.random.default_rng(3)))
        assert is_dealiased(-1.0 * f) and is_dealiased(Field.zeros(GRID))

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
        f = Field.from_samples(GRID, 0 * GRID.x + 2.0)
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
    # a real field is its half spectrum: the conjugate modes are implied, so
    # what keeps it real is a real DC coefficient and a zero Nyquist slot
    def test_ops_keep_fields_real(self):
        rng = np.random.default_rng(51)
        f = random_band_limited(GRID, 60, rng)
        for g in (hilbert(f), frac_laplacian(f), bessel(f, 2.0),
                  mollify(f, 0.05), derivative(f), dealiased_product(f, f)):
            c = g.coefficients
            assert c.shape == (GRID.n_modes // 2 + 1,)
            assert c[0].imag == 0.0 and c[GRID.nyquist_index] == 0.0

    def test_constructors_keep_fields_real(self):
        c = np.full(GRID.n_modes // 2 + 1, 1.0 + 2.0j)
        f = Field.from_coefficients(GRID, c)
        assert f.coefficients[0] == 1.0 and f.coefficients[-1] == 0.0
        g = Field.from_samples(GRID, np.cos(GRID.x) + np.cos(128 * GRID.x) + 0.5)
        assert g.coefficients[0] == 0.5 and g.coefficients[-1] == 0.0
        with pytest.raises(ValueError, match="wrong length"):
            Field.from_coefficients(GRID, np.zeros(GRID.n_modes))


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
        f = Field.from_samples(GRID, np.exp(np.cos(GRID.x - x0)))
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
        assert np.max(np.abs(c[GRID.k_int > GRID.dealias_keep])) == 0.0


class TestDivergedFlag:
    def test_nan_field_flags(self):
        s = np.zeros(GRID.n_modes)
        s[5] = np.nan
        f = Field.from_samples(GRID, s)
        assert f.diverged

    def test_finite_field_ok(self):
        assert not cos_field(GRID, 2).diverged
