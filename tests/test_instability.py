"""Carrier-representation checks, cross-validated against dense grids at small
carrier wavenumbers, plus smoke runs of the defect/gap/separation studies."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccflab import instability, integrate
from ccflab.instability import (
    InstabilityParams,
    approx_solution_mod,
    build_high_frequency_mod,
    build_low_initial,
    error_functional_ensemble,
    error_integrand_mod,
    eval_noise_mod,
    low_trajectory,
    packet_norm_ratio,
    phi_profile,
    phi_profile_prime,
    phi_tilde_profile,
    profile_l2_line,
    separation_experiment,
    simulate_actual_mod,
)
from ccflab.modulated import (
    CARRIER_ROWS,
    CarrierBasis,
    ModulatedField,
    carrier0,
    mod_derivative,
    mod_helmholtz_inverse_dx,
    mod_hilbert,
    mod_product,
    mod_transport_product,
    modulated_norm,
    packet,
)
from ccflab.noise import InstabilityH, path_seed
from ccflab.spectral import (
    Field,
    SpectralGrid,
    dealiased_product,
    derivative,
    hilbert,
    sobolev_norm,
)
from dense_reference import approx_solution, build_high_frequency, to_dense_field

# the deterministic carrier run: its weak-noise coefficient is zero, formed
# without a transform
DETERMINISTIC = InstabilityH(q=0.0)
# the weak noise at defaults; its sigma0 (1.6) is the defect's Sobolev index
NOISE = InstabilityH()
SIGMA0 = NOISE.sigma0


def params(n=32, m=1, env=1024):
    return InstabilityParams(m=m, n=n, env_modes=env)


def dense_grid_for(p, factor=16):
    # dense grid resolving the carrier and its first harmonic products
    n_dense = p.env_modes * factor
    return SpectralGrid(period=p.period, n_modes=n_dense)


class TestParams:
    def test_exponents_at_defaults(self):
        p = params()
        assert p.rate_error(SIGMA0) == pytest.approx(-1.6, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstabilityParams(m=2, n=32)
        with pytest.raises(ValueError):
            InstabilityParams(m=1, n=32, delta=0.5)

    def test_cached_carrier_rows_read_only(self):
        p = params()
        for name in ("phi_envelope", "phi_prime_envelope", "sin_samples",
                     "cos_samples", "hilbert_samples", "square_rows"):
            with pytest.raises(ValueError):
                getattr(p, name).flat[0] = 0.0

    def test_profiles(self):
        assert phi_profile(np.array([0.5]))[0] == 1.0
        assert phi_profile(np.array([2.5]))[0] == 0.0
        # phitilde is 1 on the support of phi
        y = np.linspace(-2.0, 2.0, 101)
        assert np.all(phi_tilde_profile(y) == 1.0)
        # analytic derivative matches finite differences
        ys = np.linspace(1.05, 1.95, 41)
        h = 1e-6
        fd = (phi_profile(ys + h) - phi_profile(ys - h)) / (2 * h)
        assert np.allclose(phi_profile_prime(ys), fd, atol=1e-5)


class TestModulatedAlgebra:
    def test_carrier_separation_guard(self):
        grid = SpectralGrid(period=100.0, n_modes=1024)
        with pytest.raises(ValueError):
            CarrierBasis(grid, carrier=1.0)

    def test_dense_agreement_packet(self):
        # agreement is limited by the envelope grid's resolution of the
        # C-infinity bump skirts (root-exponential tail), not round-off
        p = params()
        dense = dense_grid_for(p)
        mf = build_high_frequency_mod(p, 0.37)
        got = to_dense_field(mf, dense)
        want = build_high_frequency(p, 0.37, dense)
        rel = np.max(np.abs(got.samples - want.samples)) / want.max_abs()
        assert rel < 2e-5
        p_fine = params(env=2048)
        got_f = to_dense_field(build_high_frequency_mod(p_fine, 0.37), dense)
        rel_f = np.max(np.abs(got_f.samples - want.samples)) / want.max_abs()
        assert rel_f < rel

    def test_dense_agreement_norms(self):
        p = params()
        dense = dense_grid_for(p)
        ul = build_low_initial(p, p.env_grid)
        mf = approx_solution_mod(p, 0.0, ul)
        dense_field = approx_solution(p, 0.0, build_low_initial(p, dense), dense)
        for r in (0.0, 1.6, 3.1):
            a = modulated_norm(mf, r)
            b = sobolev_norm(dense_field, r)
            assert a == pytest.approx(b, rel=2e-7), r

    def test_dense_agreement_product(self):
        p = params()
        dense = dense_grid_for(p)
        ul = build_low_initial(p, p.env_grid)
        mf = approx_solution_mod(p, 0.1, ul)
        sq_mod = mod_product(mf, mf)
        f = to_dense_field(mf, dense)
        sq_dense = dealiased_product(f, f)
        got = to_dense_field(sq_mod, dense)
        rel = np.max(np.abs(got.samples - sq_dense.samples)) / sq_dense.max_abs()
        assert rel < 1e-5

    @pytest.mark.parametrize("k, n", [(1, 1), (2, 1), (1, 2)])
    def test_dense_agreement_noise(self, k, n):
        p = params()
        dense = dense_grid_for(p)
        model = InstabilityH(exponent_k=k, exponent_n=n)
        u = approx_solution_mod(p, 0.1, build_low_initial(p, p.env_grid))
        got = to_dense_field(eval_noise_mod(model, 0.1, u), dense)
        want = model.components(0.1, to_dense_field(u, dense))
        rel = np.max(np.abs(got.samples - want.samples)) / want.max_abs()
        assert rel < 1e-6

    def test_operators_shift_symbols(self):
        p = params()
        dense = dense_grid_for(p)
        mf = build_high_frequency_mod(p, 0.0)
        for mod_op, dense_op in ((mod_hilbert, hilbert), (mod_derivative, derivative)):
            got = to_dense_field(mod_op(mf), dense)
            want = dense_op(to_dense_field(mf, dense))
            assert np.max(np.abs(got.samples - want.samples)) < 1e-10

    def test_linearity_and_zero(self):
        p = params()
        z = ModulatedField.zeros(p.basis)
        mf = build_high_frequency_mod(p, 0.0)
        assert modulated_norm(z, 2.0) == 0.0
        assert modulated_norm(mf + z, 2.0) == modulated_norm(mf, 2.0)
        assert modulated_norm(2.0 * mf, 2.0) == pytest.approx(2 * modulated_norm(mf, 2.0))


def _ref_wavenumbers(grid):
    """Integer envelope wavenumbers in FFT order (the Nyquist slot labelled
    +N/2) and the envelope frequencies ``xi`` they stand for."""
    n = grid.n_modes
    k = np.arange(n)
    k[n // 2 + 1:] -= n
    return k, 2.0 * np.pi * k / grid.period


def _ref_mask(grid):
    return np.abs(_ref_wavenumbers(grid)[0]) <= grid.dealias_keep


def assert_slices_band_complement(basis):
    """``basis.aliased_modes`` selects exactly the FFT-order slots outside
    the reference band."""
    outside = np.zeros(basis.grid.n_modes, dtype=bool)
    outside[basis.aliased_modes] = True
    assert np.array_equal(outside, ~_ref_mask(basis.grid))


@pytest.mark.parametrize("n_modes", [16, 64, 1024])
def test_aliased_envelope_modes_slice_the_band_complement(n_modes):
    grid = SpectralGrid(period=2.0 * np.pi, n_modes=n_modes)
    assert_slices_band_complement(CarrierBasis(grid, 2.0 * n_modes))


def _ref_phys(basis, rows):
    return [np.fft.ifft(c * basis.grid.n_modes) for c in rows]


def _ref_symbol(basis, symbol, rows):
    xi = _ref_wavenumbers(basis.grid)[1]
    return [symbol(c * basis.carrier + xi) * rows[c]
            for c in range(CARRIER_ROWS)]


def _ref_product(basis, pa, pb):
    """Per-carrier product of two lists of envelope samples."""
    cmax, grid = CARRIER_ROWS - 1, basis.grid
    n = grid.n_modes

    def side(phys, c):
        return phys[c] if c >= 0 else np.conj(phys[-c])

    out = []
    for cout in range(cmax + 1):
        acc = np.zeros(n, dtype=np.complex128)
        for c1 in range(-cmax, cmax + 1):
            c2 = cout - c1
            if abs(c2) > cmax:
                continue
            acc += side(pa, c1) * side(pb, c2)
        if cout == 0:
            acc = acc.real.astype(np.complex128)
        c = np.fft.fft(acc) / n
        c[~_ref_mask(grid)] = 0.0
        out.append(c)
    return out


def _ref_norm(basis, rows, r):
    total = 0.0
    xi = _ref_wavenumbers(basis.grid)[1]
    for c in range(CARRIER_ROWS):
        w = (1.0 + (c * basis.carrier + xi) ** 2) ** r
        contrib = float(np.sum(w * np.abs(rows[c]) ** 2) * basis.grid.period)
        total += contrib if c == 0 else 2.0 * contrib
    return float(np.sqrt(total))


REF_SYMBOLS = {
    mod_derivative: lambda xi: 1j * xi,
    mod_hilbert: lambda xi: 1j * np.sign(xi),
    mod_helmholtz_inverse_dx: lambda xi: 1j * xi / (1.0 + xi**2),
}


class TestStackedCarriers:
    """The stacked carrier algebra against a per-carrier reference, bit for bit."""

    @pytest.fixture(params=[(256, 64), (256, 1024), (1024, 64), (1024, 1024)],
                    ids=lambda nn: f"env{nn[0]}-n{nn[1]}")
    def fields(self, request):
        env, n = request.param
        p = InstabilityParams(m=1, n=n, env_modes=env)
        basis = p.basis
        rng = np.random.default_rng(env + n)

        def draw():
            shape = (CARRIER_ROWS, env)
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return ModulatedField(basis, np.where(_ref_mask(basis.grid), 1e-3 * c, 0.0))

        # a realistic packet plus low-frequency profile, and two random stacks
        packet_and_low = approx_solution_mod(p, 0.3, build_low_initial(p, p.env_grid))
        return basis, [packet_and_low, draw(), draw()]

    def test_phys(self, fields):
        basis, fs = fields
        for f in fs:
            assert np.array_equal(f.phys, _ref_phys(basis, list(f.coeffs)))

    def test_operators(self, fields):
        basis, fs = fields
        for op, symbol in REF_SYMBOLS.items():
            for f in fs:
                want = _ref_symbol(basis, symbol, list(f.coeffs))
                assert np.array_equal(op(f).coeffs, want), op.__name__

    def test_product(self, fields):
        basis, fs = fields
        for a, b in ((fs[0], fs[1]), (fs[1], fs[2]), (fs[2], fs[2])):
            want = _ref_product(basis, _ref_phys(basis, list(a.coeffs)),
                                _ref_phys(basis, list(b.coeffs)))
            assert np.array_equal(mod_product(a, b).coeffs, want)

    def test_transport_product(self, fields):
        basis, fs = fields
        for u in fs:
            hu = _ref_symbol(basis, REF_SYMBOLS[mod_hilbert], list(u.coeffs))
            ux = _ref_symbol(basis, REF_SYMBOLS[mod_derivative], list(u.coeffs))
            want = _ref_product(basis, _ref_phys(basis, hu), _ref_phys(basis, ux))
            assert np.array_equal(mod_transport_product(u.basis, u.coeffs), want)

    def test_norm(self, fields):
        basis, fs = fields
        for f in fs:
            for r in (0.0, 1.6, 3.1, 4.6):
                assert modulated_norm(f, r) == _ref_norm(basis, list(f.coeffs), r)

    def test_cached_symbols_read_only(self, fields):
        basis, _ = fields
        for name in ("xi", "derivative_symbol", "hilbert_symbol", "helmholtz_dx_symbol",
                     "transport_symbols"):
            with pytest.raises(ValueError):
                getattr(basis, name)[..., 0] = 0

    def test_envelope_layout(self, fields):
        basis, _ = fields
        k, _ = _ref_wavenumbers(basis.grid)
        assert np.array_equal(basis.grid.k_fft, k)
        assert_slices_band_complement(basis)

    def test_carrier0_mirrors_the_half_spectrum(self, fields):
        # the zero-carrier row of a real field is its full Hermitian spectrum
        basis, _ = fields
        grid = basis.grid
        f = Field.from_samples(grid, np.cos(grid.x * 2.0 * np.pi / grid.period)
                               + np.sin(3.0 * grid.x * 2.0 * np.pi / grid.period) ** 3)
        row = carrier0(basis, f).coeffs[0]
        want = np.fft.fft(f.samples) / grid.n_modes
        want[grid.n_modes // 2] = 0.0
        assert np.max(np.abs(row - want)) < 1e-15
        n = grid.n_modes
        assert np.array_equal(row[n // 2 + 1:], np.conj(row[1:n // 2][::-1]))
        assert np.array_equal(row[:n // 2 + 1], f.coefficients)


class TestCarrierTransformBudget:
    """FFT calls per carrier operation: each is one stacked transform."""

    P = InstabilityParams(m=1, n=64, env_modes=256)
    UL1 = list(low_trajectory(P, 0.015, 5e-3))[1]

    def fresh(self):
        return approx_solution_mod(self.P, 0.1, self.UL1)

    def test_phys(self, fft_calls):
        u = self.fresh()
        fft_calls.clear()
        assert u.phys is u.phys
        assert fft_calls == ["ifft"]

    def test_product(self, fft_calls):
        a, b = self.fresh(), mod_derivative(self.fresh())
        fft_calls.clear()
        mod_product(a, b)
        assert fft_calls == ["ifft", "ifft", "fft"]

    def test_transport_rhs(self, fft_calls):
        # the forward transform writes into the caller's out, a stage of rk4
        u = self.fresh()
        fft_calls.clear()
        out = np.empty_like(u.coeffs)
        assert mod_transport_product(u.basis, u.coeffs, out) is out
        assert fft_calls == ["ifft", "fft"]
        assert [call.out for call in fft_calls] == [False, True]

    def test_error_integrand(self, fft_calls):
        # one stacked inverse transform of the real low-frequency rows, one
        # forward transform of the complex carrier row 1; rows 0 and 2 are
        # cached on the params
        hul0 = hilbert(self.UL1)
        error_integrand_mod(self.P, 0.1, self.UL1, hul0)
        fft_calls.clear()
        error_integrand_mod(self.P, 0.1, self.UL1, hul0)
        assert fft_calls == ["irfft", "fft"]

    def test_simulate_actual_mod_step(self, fft_calls):
        # two forward transforms build the low datum and the packet, then
        # 4 RK4 stages of 2; the packet's row stays cached on the params
        p = InstabilityParams(m=1, n=64, env_modes=256)
        simulate_actual_mod(p, DETERMINISTIC, seed=0, horizon=0.015, dt=5e-3)
        assert len(fft_calls) == 2 + 3 * 8
        assert fft_calls[:2] == ["rfft", "fft"]
        fft_calls.clear()
        simulate_actual_mod(p, DETERMINISTIC, seed=0, horizon=0.015, dt=5e-3)
        assert len(fft_calls) == 1 + 3 * 8

    def test_packet_takes_no_transform(self, fft_calls):
        # u_h(t) is the cached unit-phase row times one phase
        p = InstabilityParams(m=-1, n=64, env_modes=256)
        p.packet_row
        fft_calls.clear()
        uh = build_high_frequency_mod(p, 0.37)
        assert fft_calls == []
        want = packet(p.basis, float(p.n) ** (-0.5 * p.delta - p.s) * p.phi_envelope
                      * np.exp(-1j * (p.m * 0.37 + 0.5 * p.n * p.period)))
        assert np.max(np.abs(uh.coeffs - want.coeffs)) <= 1e-15 * np.max(np.abs(want.coeffs))

    def test_defect_step(self, fft_calls):
        # one defect step: the integrand (2) and the low-frequency RK4 step
        # (8); the noise coefficient along u_h + u_l takes none
        p = InstabilityParams(m=1, n=64, env_modes=256)
        error_functional_ensemble(p, NOISE, 2, horizon=0.01, dt=5e-3)   # warm caches
        counts = []
        for horizon in (0.05, 0.1):
            fft_calls.clear()
            error_functional_ensemble(p, NOISE, 2, horizon=horizon, dt=5e-3)
            counts.append(len(fft_calls))
        assert counts[1] - counts[0] == 10 * 10


class TestBuilders:
    def test_high_frequency_center_value(self):
        p = params()
        dense = dense_grid_for(p)
        uh = build_high_frequency(p, 0.0, dense)
        # at the bump center (t=0): amplitude n^{-d/2-s}
        j = dense.n_modes // 2
        assert uh.samples[j] == pytest.approx(float(p.n) ** (-0.5 * p.delta - p.s),
                                              rel=1e-12)

    def test_high_frequency_needs_resolution(self):
        p = params()
        with pytest.raises(ValueError):
            build_high_frequency(p, 0.0, p.env_grid)  # envelope grid too coarse

    def test_low_initial_zero_mean_and_sign(self):
        p = params()
        ul_p = build_low_initial(p, p.env_grid)
        ul_m = build_low_initial(params(m=-1), p.env_grid)
        assert abs(ul_p.coefficients[0]) < 1e-15
        assert np.allclose(ul_p.samples, -ul_m.samples, atol=1e-15)

    def test_m_flip_flips_initial_sign(self):
        # on a grid other than the envelope grid too
        grid = SpectralGrid(period=params().period, n_modes=256)
        plus = build_low_initial(params(m=1), grid)
        minus = build_low_initial(params(m=-1), grid)
        assert np.allclose(plus.samples, -minus.samples, atol=1e-14)

    def test_packet_time_amplitude_bound(self):
        # |u_h(t) - u_h(0)| <= amp * |t| pointwise (mean value on the cosine)
        p = params()
        dense = dense_grid_for(p)
        t = 0.2
        diff = build_high_frequency(p, t, dense) - build_high_frequency(p, 0.0, dense)
        amp = float(p.n) ** (-0.5 * p.delta - p.s)
        assert diff.max_abs() <= amp * t * (1.0 + 1e-9)


class TestPacketNormRatio:
    def test_converges_for_bump(self):
        r1 = packet_norm_ratio(phi_profile, 2**8, 1.0, 0.9)
        r2 = packet_norm_ratio(phi_profile, 2**12, 1.0, 0.9)
        assert abs(r2 - 1.0) < abs(r1 - 1.0) + 1e-9
        assert abs(r2 - 1.0) < 0.05

    def test_converges_for_gaussian(self):
        gauss = lambda y: np.exp(-(y**2))
        assert abs(packet_norm_ratio(gauss, 2**12, 1.6, 0.9) - 1.0) < 0.05


def reference_integrand_terms(p, t, ul_t, hul0):
    """The defect integrand's three terms as generic carrier products of the
    packets built at time ``t``: the composition that ``error_integrand_mod``
    puts in closed form."""
    basis = p.basis
    hul_t = hilbert(ul_t)
    phase = np.exp(-1j * (p.m * t + 0.5 * p.n * p.period))
    n = float(p.n)
    sin_pk = packet(basis, n ** (1.0 - 0.5 * p.delta - p.s) * p.phi_envelope
                    * (-1j * phase))
    cos_pk = packet(basis, n ** (-1.5 * p.delta - p.s) * p.phi_prime_envelope * phase)
    term1 = mod_product(carrier0(basis, hul0 - hul_t), sin_pk)
    term2 = mod_product(carrier0(basis, hul_t), cos_pk)
    uh = build_high_frequency_mod(p, t)
    grad = mod_derivative(carrier0(basis, ul_t) + uh)
    term3 = mod_product(mod_hilbert(uh), grad)
    return term1, term2, term3


# relative H^sigma0 distance allowed between the kernel and the reference
ORACLE_REL = 1e-10


def oracle_distance(p, got, want):
    return modulated_norm(got - want, SIGMA0) / modulated_norm(want, SIGMA0)


@functools.lru_cache(maxsize=None)
def oracle_case(n, env, m):
    p = InstabilityParams(m=m, n=n, env_modes=env)
    ul0 = build_low_initial(p, p.env_grid)
    return p, ul0, hilbert(ul0)


class TestErrorIntegrand:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(t=st.floats(0.0, 1.8), n=st.sampled_from([64, 256, 1024]),
           env=st.sampled_from([256, 1024]), m=st.sampled_from([1, -1]),
           shift=st.floats(-1.0, 1.0), scale=st.floats(0.5, 1.5))
    def test_kernel_matches_reference(self, t, n, env, m, shift, scale):
        # u_l(t): the datum translated by up to n^delta and rescaled, so that
        # Hu_l(0) - Hu_l(t) and all three terms are non-zero
        p, ul0, hul0 = oracle_case(n, env, m)
        grid = p.env_grid
        ul_t = Field.from_coefficients(
            grid, scale * ul0.coefficients
            * np.exp(-1j * grid.wavenumbers * shift * n**p.delta))
        term1, term2, term3 = reference_integrand_terms(p, t, ul_t, hul0)
        want = term1 + term2 + term3
        got = error_integrand_mod(p, t, ul_t, hul0)
        assert oracle_distance(p, got, want) < ORACLE_REL

    def test_dense_agreement_at_t0(self):
        p = params()
        dense = dense_grid_for(p)
        ul_env = build_low_initial(p, p.env_grid)
        hul0 = hilbert(ul_env)
        e_mod = error_integrand_mod(p, 0.0, ul_env, hul0)
        got = to_dense_field(e_mod, dense)

        # dense reference: term1 vanishes at t=0; term2 + term3 built directly
        ul = build_low_initial(p, dense)
        hul = hilbert(ul)
        xc = dense.x - 0.5 * p.period
        nf = float(p.n)
        cos_pk = Field.from_samples(
            dense, nf ** (-1.5 * p.delta - p.s) * phi_profile_prime(xc / nf**p.delta)
            * np.cos(p.n * xc))
        term2 = dealiased_product(hul, cos_pk)
        uh = build_high_frequency(p, 0.0, dense)
        term3 = dealiased_product(hilbert(uh), derivative(ul) + derivative(uh))
        want = term2 + term3
        scale = max(want.max_abs(), 1e-300)
        # pointwise agreement is limited by skirt truncation; the norms that
        # enter the rate study agree much more tightly
        assert np.max(np.abs(got.samples - want.samples)) < 5e-3 * scale
        rel_norm = abs(sobolev_norm(got, SIGMA0) - sobolev_norm(want, SIGMA0)) \
            / sobolev_norm(want, SIGMA0)
        assert rel_norm < 1e-6

    def test_first_term_vanishes_at_t0(self):
        # at t = 0 the sin term's factor Hu_l(0) - Hu_l(t) is zero, so the
        # integrand is the reference's term2 + term3
        p = params()
        ul_env = build_low_initial(p, p.env_grid)
        hul0 = hilbert(ul_env)
        e0 = error_integrand_mod(p, 0.0, ul_env, hul0)
        term1, term2, term3 = reference_integrand_terms(p, 0.0, ul_env, hul0)
        assert modulated_norm(term1, SIGMA0) == 0.0
        assert oracle_distance(p, e0, term2 + term3) < ORACLE_REL
        # control: hul0 from another datum (the m = -1 profile) switches the
        # sin term on, which lives on carrier row 1 alone
        other = hilbert(build_low_initial(params(m=-1), p.env_grid))
        e_other = error_integrand_mod(p, 0.0, ul_env, other)
        assert np.array_equal(e_other.coeffs[[0, 2]], e0.coeffs[[0, 2]])
        assert oracle_distance(p, e_other, e0) > 1.0


class TestStudies:
    @pytest.mark.parametrize("run", [
        lambda p, h, dt: low_trajectory(p, h, dt),
        lambda p, h, dt: error_functional_ensemble(p, NOISE, 1, h, dt),
        lambda p, h, dt: simulate_actual_mod(p, NOISE, 0, h, dt),
        lambda p, h, dt: separation_experiment(p, h, dt, NOISE)],
        ids=["low_trajectory", "error_functional_ensemble", "simulate_actual_mod",
             "separation_experiment"])
    def test_fractional_horizon_raises(self, run):
        # every horizon is a whole number of steps, as an SPDE path's is:
        # 0.07 / 0.02 = 3.5 steps is rejected, not rounded to 4
        with pytest.raises(ValueError, match="horizon 0.07 is not a whole number"):
            run(params(n=64, env=256), 0.07, 0.02)

    def test_error_functional_deterministic_bound(self):
        p = params(n=64)
        out = error_functional_ensemble(p, DETERMINISTIC, num_paths=0,
                                        horizon=0.5, dt=5e-3)
        assert out["mean_sup_sq"] == out["det_sup_sq"] > 0.0

    def test_error_functional_repeatable(self):
        p = params(n=64)
        a = error_functional_ensemble(p, NOISE, 2, horizon=0.3, dt=5e-3, seed=5)
        b = error_functional_ensemble(p, NOISE, 2, horizon=0.3, dt=5e-3, seed=5)
        assert a["mean_sup_sq"] == b["mean_sup_sq"]

    def test_gap_interpolation_inequality(self):
        # |g|_{H^s} <= |g|_{H^sigma0}^{1/2} |g|_{H^{2s-sigma0}}^{1/2} on the
        # actual-minus-approximate states g of three paths
        p = params(n=64)
        horizon, dt = 0.4, 5e-3
        approx = [approx_solution_mod(p, i * dt, ul)
                  for i, ul in enumerate(low_trajectory(p, horizon, dt))]
        high = 2.0 * p.s - SIGMA0
        gaps = []

        def observe(i, t, u):
            g = u - approx[i]
            gaps.append((modulated_norm(g, p.s), modulated_norm(g, SIGMA0),
                         modulated_norm(g, high)))

        for idx in range(3):
            out = simulate_actual_mod(p, NOISE, path_seed(0, idx), horizon, dt,
                                      observer=observe)
            assert out["status"] == "completed"
        assert len(gaps) == 3 * len(approx) == 3 * 81
        assert max(lo for _, lo, _ in gaps) > 0.0
        for hs, lo, hi in gaps:
            assert hs <= (lo * hi) ** 0.5 * (1.0 + 1e-9) or hs < 1e-300

    def test_kept_states_share_no_memory(self):
        # the states an observer keeps, as separation_experiment keeps the
        # m = +1 run, are fresh arrays: pairwise distinct, and equal to a
        # rerun's bit for bit
        p = params(n=64)
        runs = []
        for _ in range(2):
            kept = []
            simulate_actual_mod(p, NOISE, 9, 0.05, 5e-3,
                                observer=lambda i, t, u: kept.append(u.coeffs))
            runs.append(kept)
        kept, again = runs
        assert len(kept) == len(again) == 11
        for i, a in enumerate(kept):
            assert np.array_equal(a, again[i])
            assert not any(np.shares_memory(a, b) for b in kept[i + 1:])

    def test_same_rotation_zero_gap(self):
        p = params(n=64)
        r1 = simulate_actual_mod(p, NOISE, seed=9, horizon=0.2, dt=5e-3)
        r2 = simulate_actual_mod(p, NOISE, seed=9, horizon=0.2, dt=5e-3)
        gap = modulated_norm(r1["state"] - r2["state"], p.s)
        assert gap == 0.0

    def test_separation_smoke(self):
        p = params(n=256)
        out = separation_experiment(p, horizon=1.8, dt=5e-3,
                                    noise=NOISE, num_paths=1)
        t_idx = np.argmin(np.abs(out["times"] - np.pi / 2))
        assert out["gap_curve"][t_idx] > 0.5 * out["reference"][t_idx]
        assert out["initial_gap"] < out["reference_amplitude"]
        assert out["status"] == {1: ["completed"], -1: ["completed"]}
        assert out["t_stop"][1] == out["t_stop"][-1] == [pytest.approx(1.8)]
        assert len(out["gap_curve"]) == len(out["times"]) == 361

    def test_separation_stopped_paths_not_padded(self):
        # both signs exit after one step: the curve ends at the last state
        # the runs share instead of being padded to the horizon
        p = InstabilityParams(m=1, n=64, exit_radius=1e-300, env_modes=256)
        out = separation_experiment(p, horizon=1.8, dt=5e-3, noise=DETERMINISTIC)
        assert out["status"] == {1: ["exited"], -1: ["exited"]}
        assert out["t_stop"] == {1: [pytest.approx(5e-3)], -1: [pytest.approx(5e-3)]}
        assert len(out["times"]) == len(out["gap_curve"]) == len(out["reference"]) == 1

    def test_frozen_actual_mod(self):
        # frozen values: a change in the RK4 stage arithmetic shows here
        p = InstabilityParams(m=1, n=64, env_modes=256)
        out = simulate_actual_mod(p, NOISE, seed=9,
                                  horizon=0.02, dt=5e-3)
        assert out["status"] == "completed"
        assert out["t_stop"] == 0.02
        assert modulated_norm(out["state"], p.s) == pytest.approx(1.236154364519811,
                                                                  rel=1e-12)
        assert modulated_norm(out["state"], SIGMA0) == pytest.approx(
            0.18714942821316036, rel=1e-12)

    def test_exit_time_respected(self):
        # shrink the exit radius below the solution norm: path must stop at once
        p = InstabilityParams(m=1, n=64, exit_radius=1e-300)
        # exit_radius must be positive but tiny triggers immediate exit
        res = simulate_actual_mod(p, DETERMINISTIC, seed=0, horizon=0.1, dt=5e-3)
        assert res["status"] == "exited"
        assert res["t_stop"] == pytest.approx(5e-3)

    def test_frozen_error_functional(self):
        # frozen values: a change in the order of the running sums shows here
        p = InstabilityParams(m=1, n=64, env_modes=256)
        out = error_functional_ensemble(p, NOISE, 2,
                                        horizon=0.3, dt=5e-3, seed=5)
        assert out["mean_sup_sq"] == 2.902587987612532e-11
        assert out["det_sup_sq"] == 2.872377000285298e-14
        assert out["sem"] == 5.4690765443100475e-12
        assert out["num_paths"] == 2

    def test_error_functional_memory(self):
        # the defect, the Ito sums and the low-frequency profile are running
        # values: the peak stays below 80 carrier stacks for an 80-step and a
        # 320-step call alike (per-step lists of integrands, noise
        # coefficients, partial sums or low-frequency fields would exceed it)
        p = InstabilityParams(m=1, n=64, env_modes=256)
        error_functional_ensemble(p, NOISE, 2, horizon=0.01, dt=5e-3)  # warm caches
        stack_bytes = CARRIER_ROWS * p.env_modes * 16
        for horizon in (0.4, 1.6):
            tracemalloc.start()
            try:
                error_functional_ensemble(p, NOISE, 2, horizon=horizon, dt=5e-3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 80 * stack_bytes, horizon

    def test_error_functional_skips_horizon_state(self, monkeypatch):
        # the defect reads u_l at the left point of each of its 10 steps, so
        # the stream yields t = 0 and 9 RK4 states; the state at the horizon
        # is never solved for
        read = []
        stream = instability.low_trajectory

        def counted(*args):
            for u in stream(*args):
                read.append(u)
                yield u

        monkeypatch.setattr(instability, "low_trajectory", counted)
        p = InstabilityParams(m=1, n=64, env_modes=256)
        error_functional_ensemble(p, NOISE, 2, horizon=0.05,
                                  dt=5e-3)
        assert len(read) == 10

    def test_actual_paths_solve_no_low_frequency(self, monkeypatch):
        # the actual solutions read only u_l(0): no low-frequency trajectory
        # is solved by simulate_actual_mod or the separation experiment
        def forbidden(*args, **kwargs):
            raise AssertionError("low-frequency solve")
        monkeypatch.setattr(instability, "low_trajectory", forbidden)
        monkeypatch.setattr(integrate, "simulate_low_frequency", forbidden)
        monkeypatch.setattr(instability, "simulate_low_frequency", forbidden)
        p = InstabilityParams(m=1, n=64, env_modes=256)
        res = simulate_actual_mod(p, NOISE, seed=9, horizon=0.02, dt=5e-3)
        assert res["status"] == "completed" and res["t_stop"] == 0.02
        sep = separation_experiment(p, horizon=0.5, dt=5e-3, noise=NOISE,
                                    num_paths=2, seed=3)
        assert len(sep["times"]) == len(sep["gap_curve"]) == 101
        assert sep["gap_curve"][-1] == 0.81464608037081
        assert sep["initial_gap"] == 0.374339041785388
        assert sep["status"] == {1: ["completed"] * 2, -1: ["completed"] * 2}


class TestLowFrequencyDecay:
    def test_initial_norm_slope(self):
        pts = []
        for k in (6, 7, 8, 9):
            p = params(n=2**k)
            pts.append((float(2**k), sobolev_norm(build_low_initial(p, p.env_grid), p.s)))
        from ccflab.ensemble import rate_fit
        slope, _ = rate_fit(pts)
        assert abs(slope - (0.45 - 1.0)) < 0.05

    def test_trajectory_stays_bounded(self):
        p = params(n=64)
        norms = [sobolev_norm(f, p.s) for f in low_trajectory(p, 1.0, 5e-3)]
        assert len(norms) == 201
        assert max(norms) <= 2.0 * norms[0]

    def test_l2_profile_oracle(self):
        # plateau bump: integral of phi^2 is 2 + 2 * int_0^1 transition^2
        val = profile_l2_line(phi_profile)
        z = np.linspace(0.0, 1.0, 200001)
        trans = np.exp(1.0 - 1.0 / (1.0 - z[:-1] ** 2))
        want = np.sqrt(2.0 + 2.0 * np.trapezoid(trans**2, z[:-1]))
        assert val == pytest.approx(want, rel=1e-4)
