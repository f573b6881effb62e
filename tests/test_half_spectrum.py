"""The half-spectrum core against the full-spectrum reference
(``full_spectrum.py``): operators, norms, evaluation, padding, one step of
every noise family, a linear-noise path, the low-frequency solve and the random
PDE agree to 1e-13 relative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccflab import integrate
from ccflab.girsanov import run_random_pde
from ccflab.integrate import (
    SimConfig,
    blowup_bump,
    em_step,
    power_law_field,
    simulate_low_frequency,
    simulate_path,
)
from ccflab.noise import (
    GeneralH,
    InstabilityH,
    LinearB,
    StrongAlpha,
    ZeroNoise,
    stream,
)
from ccflab.spectral import (
    Field,
    SpectralGrid,
    apply_multiplier,
    dealias,
    derivative,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    hilbert,
    mollifier_symbol,
    pad_field,
    random_band_limited,
    sobolev_inner,
    sobolev_norm,
    transport_product,
)
from full_spectrum import Full

REL = 1e-13

NOISES = [
    ZeroNoise(),
    GeneralH(n_components=8, exponent_k=2, exponent_n=1),
    StrongAlpha(q=0.5, theta=1.0),
    LinearB(b0=0.4, lam=1.0, b_star=0.2),
    InstabilityH(q=2.0, exponent_k=1, exponent_n=2, sigma0=1.6),
]


def assert_close(got, want, what=""):
    """``got`` within ``REL`` of ``want``, relative to the largest entry of
    ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale, what


def assert_field(full, f, want):
    """The field ``f`` has the full-spectrum coefficients ``want``, and the
    samples they stand for."""
    assert f.grid == full.grid
    assert_close(full.mirror(f.coefficients), want, "coefficients")
    assert_close(f.samples, full.samples(want), "samples")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([16, 32, 64, 256, 1024]), band=st.floats(0.0, 1.0),
       full_band=st.booleans(), seed=st.integers(0, 2**32 - 1),
       rms=st.floats(0.05, 3.0), decay=st.floats(0.5, 2.5), x=st.floats(0.0, 2.0 * np.pi))
def test_core_matches_full_spectrum(n, band, full_band, seed, rms, decay, x):
    grid = SpectralGrid(n_modes=n)
    full = Full(grid)
    # modes 1 .. max_mode: up to the last mode below Nyquist, or inside the
    # dealias band
    max_mode = n // 2 - 1 if full_band else 1 + int(band * (grid.dealias_keep - 1))
    f = random_band_limited(grid, max_mode, np.random.default_rng(seed), rms, decay)
    c = full.mirror(f.coefficients)
    assert_close(f.samples, full.samples(c), "samples")
    assert_close(full.mirror(type(f).from_samples(grid, f.samples).coefficients), c,
                 "from_samples")

    # multiplier operators
    for op, symbol in ((derivative, full.d), (hilbert, full.h),
                       (lambda u: apply_multiplier(u, grid.helmholtz_dx_symbol),
                        full.helmholtz),
                       (frac_laplacian, np.abs(full.xi)),
                       (lambda u: apply_multiplier(u, grid.sobolev_base ** (3.1 / 2)),
                        (1.0 + full.xi**2) ** 1.55),
                       (lambda u: apply_multiplier(u, integrate._mollifier_values(grid, 0.05)),
                        mollifier_symbol(0.05 * full.xi)),
                       (dealias, full.mask)):
        assert_field(full, op(f), symbol * c)

    assert_field(full, transport_product(Field(f.grid, f.coefficients)), full.transport(c))
    assert_close(gradient_sups(Field(f.grid, f.coefficients)), full.gradient_sups(c),
                 "gradient_sups")

    g = hilbert(f) + 0.5 * f
    cg = full.mirror(g.coefficients)
    for s in (0.0, 1.6, 3.1):
        assert sobolev_norm(f, s) == pytest.approx(full.sobolev_norm(c, s), rel=REL)
        # relative to the norms: the inner product may nearly cancel
        scale = full.sobolev_norm(c, s) * full.sobolev_norm(cg, s)
        assert abs(sobolev_inner(f, g, s) - full.sobolev_inner(c, cg, s)) <= REL * scale

    # off grid, and the identity it must reproduce on the grid
    xs = np.array([x, x + 0.5 * grid.period / n, 1.0 + 1e-3])
    assert_close(evaluate_at(f, xs), full.evaluate_at(c, xs), "evaluate_at")
    assert_close(evaluate_at(f, grid.x[[1, n // 3]]), f.samples[[1, n // 3]], "on grid")

    fine, c2 = full.pad(c)
    assert_field(fine, pad_field(f), c2)

    # one step of every noise family, plain and mollified
    for noise in NOISES:
        for eps in (0.0, 0.05):
            cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.05, noise=noise,
                            eps_mollify=eps)
            want = full.em_step(c, 0.3, cfg, 0.02, 1e-3)
            assert_field(full, em_step(Field(f.grid, f.coefficients), 0.3, cfg, 0.02), want)


def test_power_law_field_matches_full_spectrum():
    # its amplitude is an L2 norm over the half spectrum with the Parseval
    # factor
    grid = SpectralGrid(n_modes=256)
    full = Full(grid)
    f = power_law_field(grid, 3.1, np.random.default_rng(4), amplitude=2.0)
    rng = np.random.default_rng(4)
    k = np.arange(1, grid.dealias_keep + 1)
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    c[k] = 0.5 * k ** -3.1 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k.size))
    c[-k] = np.conj(c[k])
    assert_field(full, f, (2.0 / full.sobolev_norm(c, 0.0)) * c)


def test_linear_noise_path_matches_full_spectrum(monkeypatch):
    # 50 macro steps of a blow-up datum under linear noise, one step each
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return em_step(*args, **kwargs)

    monkeypatch.setattr(integrate, "em_step", counted)
    grid = SpectralGrid(n_modes=256)
    full = Full(grid)
    cfg = SimConfig(grid=grid, s=3.1, dt=2e-3, horizon=0.1, seed=5, record_every=5,
                    noise=LinearB(b0=0.5, lam=1.0, b_star=1.05 * 0.25))
    u0 = blowup_bump(grid, 10.0)
    want = full.simulate_path(cfg, full.mirror(u0.coefficients))
    rec = simulate_path(cfg, u0)
    assert len(calls) == 50
    assert rec.status == want["status"] == "completed"
    assert rec.t_stop == want["t_stop"]
    assert np.array_equal(rec.times, want["times"]) and rec.times.size == 11
    assert np.array_equal(rec.wiener_increments, want["increments"])
    for j, name in enumerate(("h_s", "h_sm1", "h_sm32", "sup_ux", "sup_hux",
                              "max_lam", "lyapunov")):
        assert_close(rec.diagnostics[name], want["rows"][:, j], name)


def stopped_path_case(kind: str, record_every: int):
    """A path that diverges (the state after its fourth step is the last
    finite one) or blows up (at step 28), each on or off the record grid."""
    if kind == "diverged":
        # round-off grows with the state: this path reaches ~1e48 before it
        # overflows and agrees to ~1e-14; at seed 1 it reaches ~1e117 and
        # agrees to ~1e-12 only
        grid = SpectralGrid(n_modes=64)
        cfg = SimConfig(grid=grid, s=3.1, dt=0.02, horizon=2.0, seed=2,
                        noise=GeneralH(q=50.0), record_every=record_every,
                        blowup_threshold=1e300)
        return cfg, power_law_field(grid, 3.1, stream(0), amplitude=5.0)
    grid = SpectralGrid(n_modes=256)
    cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.2, seed=5,
                    noise=LinearB(b0=0.5, lam=1.0, b_star=1.05 * 0.25),
                    record_every=record_every, blowup_threshold=30.0)
    return cfg, blowup_bump(grid, 10.0)


@pytest.mark.parametrize("kind, record_every, times", [
    ("diverged", 1, 5), ("diverged", 3, 3), ("blewup", 4, 8), ("blewup", 5, 7),
])
def test_stopped_path_matches_full_spectrum(kind, record_every, times):
    # the state a path stops at is recorded once, on or off the record grid
    cfg, u0 = stopped_path_case(kind, record_every)
    full = Full(cfg.grid)
    want = full.simulate_path(cfg, full.mirror(u0.coefficients))
    rec = simulate_path(cfg, u0)
    assert rec.status == want["status"] == kind
    assert rec.t_stop == want["t_stop"]
    assert np.array_equal(rec.times, want["times"]) and rec.times.size == times
    assert np.array_equal(rec.wiener_increments, want["increments"])
    for j, name in enumerate(integrate.DIAGNOSTIC_NAMES):
        assert_close(rec.diagnostics[name], want["rows"][:, j], name)


def test_low_frequency_matches_full_spectrum():
    grid = SpectralGrid(period=16.0 * 64**0.9, n_modes=512)
    full = Full(grid)
    u0 = random_band_limited(grid, 40, np.random.default_rng(6), rms=0.05)
    want = full.low_frequency(full.mirror(u0.coefficients), 0.2, 0.01)
    cfg = SimConfig(grid=grid, s=3.1, dt=0.01, horizon=0.2)
    got = list(simulate_low_frequency(cfg, u0, [0.01] * 20))
    assert len(got) == len(want) == 21
    for f, c in zip(got, want):
        assert_field(full, f, c)


def test_random_pde_matches_full_spectrum():
    grid = SpectralGrid(n_modes=256)
    full = Full(grid)
    cfg = SimConfig(grid=grid, s=3.1, dt=1e-3, horizon=0.04, record_every=10)
    u0 = blowup_bump(grid, 5.0)
    beta = np.exp(0.3 * np.sin(np.arange(41)))
    _, fields = run_random_pde(cfg, u0, beta)
    want = full.random_pde(cfg, full.mirror(u0.coefficients), beta)
    assert len(fields) == len(want) == 5
    for f, c in zip(fields, want):
        assert_field(full, f, c)
