"""High/low-frequency approximate solutions and the non-uniform-dependence
experiments.

The approximate solution at carrier ``n`` is ``u_h + u_l``: a tiny oscillatory
packet ``n^{-delta/2-s} phi(x/n^delta) cos(nx - mt)`` plus the transported
low-frequency profile started from ``-H(m n^{-1} phitilde(x/n^delta))``.  Its
defect against the stochastic equation is the integrand

    E = [Hu_l(0) - Hu_l(t)] n^{1-delta/2-s} phi(x/n^delta) sin(nx - mt)
      + Hu_l(t) n^{-3delta/2-s} phi'(x/n^delta) cos(nx - mt)
      + (H u_h)(d_x u_l + d_x u_h),

and the accumulated defect is ``int E dt`` minus the stochastic integral of
the weak-noise coefficient along the approximate solution.  Everything here
runs in the carrier-envelope representation, whose step cost does not grow
with ``n``; agreement with dense-grid evaluation is covered by the tests.

Each study is one pass over time that keeps only running sums and sups: the
defect functional steps ``u_l`` (from :func:`build_low_initial`) in the same
loop that forms ``E`` and the noise coefficient, the actual solutions start
from ``u_l(0)`` alone (no low-frequency solve), and the separation experiment
keeps the ``m = +1`` states of a path to difference the ``m = -1`` run against.

Transform budget of one defect step: the integrand's carrier rows are in
closed form (:func:`error_integrand_mod`, one stacked inverse and one forward
transform; generic carrier products took 21 calls), the noise coefficient
along the approximate solution builds its packet with one forward transform
(plus 3 per power above 1 of its exponents), and the low-frequency RK4 step
takes 8.  That is 11 FFT calls per step with noise, shared by every path.

Decay exponents, computed from ``(s, sigma0, delta)`` and asserted negative
up front:

    rate_error = -s - 1 + sigma0 + delta      (defect functional, squared: 2x)
    rate_gap_hs = (delta - 1) / 2             (H^s distance of actual vs approx)
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .integrate import plateau_bump, rk4, simulate_low_frequency
from .modulated import (
    CarrierBasis,
    ModulatedField,
    carrier0,
    carrier_norms,
    mod_derivative,
    mod_helmholtz_inverse_dx,
    mod_hilbert,
    mod_product,
    mod_transport_product,
    modulated_norm,
    packet,
)
from .noise import InstabilityH, ZeroNoise, instability_factor, path_seed, wiener_increments
from .spectral import Field, SpectralGrid, _read_only, hilbert

__all__ = [
    "InstabilityParams",
    "phi_profile",
    "phi_tilde_profile",
    "profile_l2_line",
    "build_high_frequency",
    "build_high_frequency_mod",
    "build_low_initial",
    "low_trajectory",
    "approx_solution",
    "approx_solution_mod",
    "error_integrand_mod",
    "packet_norm_ratio",
    "error_functional_ensemble",
    "actual_vs_approx_gap",
    "separation_experiment",
]


def phi_profile(y: np.ndarray) -> np.ndarray:
    """Smooth bump: 1 on |y|<1, 0 on |y|>=2."""
    return plateau_bump(y, 1.0, 2.0)


def phi_tilde_profile(y: np.ndarray) -> np.ndarray:
    """Same profile widened: 1 on the support of the narrow bump, 0 on |y|>=4."""
    return plateau_bump(y, 2.0, 4.0)


def phi_profile_prime(y: np.ndarray) -> np.ndarray:
    """Derivative of the narrow bump (analytic, vanishing off 1<|y|<2)."""
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros(y.shape)
    a = np.abs(y)
    mid = (a > 1.0) & (a < 2.0)
    z = a[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - z**2)) * (-2.0 * z / (1.0 - z**2) ** 2) \
        * np.sign(y[mid])
    return out


def profile_l2_line(profile) -> float:
    """Line L2 norm of a profile that is negligible outside [-8, 8], by
    trapezoid quadrature on 2^16 points."""
    y = np.linspace(-8.0, 8.0, 1 << 16)
    return float(np.sqrt(np.trapezoid(profile(y) ** 2, y)))


@dataclass(frozen=True)
class InstabilityParams:
    """Parameters of the approximate-solution family at one carrier ``n``."""

    m: int
    n: int
    delta: float = 0.9
    s: float = 3.1
    sigma0: float = 1.6
    exit_radius: float = 20.0
    env_modes: int = 1024

    def __post_init__(self):
        if self.m not in (-1, 1):
            raise ValueError("m must be +1 or -1")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.75 < self.delta < 1.0:
            raise ValueError("delta must lie in (3/4, 1)")
        if self.s <= 3.0:
            raise ValueError("s must exceed 3")
        if not 1.5 < self.sigma0 < 1.75:
            raise ValueError("sigma0 must lie in (3/2, 7/4)")
        if self.rate_error >= 0.0 or self.rate_gap_hs >= 0.0:
            raise ValueError("decay exponents must be negative")

    @property
    def period(self) -> float:
        return 16.0 * float(self.n) ** self.delta

    @property
    def rate_error(self) -> float:
        return -self.s - 1.0 + self.sigma0 + self.delta

    @property
    def rate_gap_hs(self) -> float:
        return 0.5 * (self.delta - 1.0)

    @cached_property
    def env_grid(self) -> SpectralGrid:
        return SpectralGrid(period=self.period, n_modes=self.env_modes)

    @cached_property
    def basis(self) -> CarrierBasis:
        return CarrierBasis(self.env_grid, float(self.n))

    def scaled(self, profile) -> np.ndarray:
        xc = self.env_grid.x - 0.5 * self.period
        return profile(xc / self.n**self.delta)

    @cached_property
    def phi_envelope(self) -> np.ndarray:
        """``phi(x_c / n^delta)`` on the envelope grid (time independent)."""
        return _read_only(self.scaled(phi_profile))

    @cached_property
    def phi_prime_envelope(self) -> np.ndarray:
        """``phi'(x_c / n^delta)`` on the envelope grid (time independent)."""
        return _read_only(self.scaled(phi_profile_prime))

    # Unit-phase carrier-1 samples of the defect's packets: each packet is one
    # of these times ``phase = exp(-i(m t + n L/2))`` (time independent).

    @cached_property
    def sin_samples(self) -> np.ndarray:
        """``S``: the first term's ``sin`` packet, ``-i/2 n^{1-d/2-s} phi``."""
        amp = float(self.n) ** (1.0 - 0.5 * self.delta - self.s)
        return _read_only(amp * self.phi_envelope * -0.5j)

    @cached_property
    def cos_samples(self) -> np.ndarray:
        """``C``: the second term's ``cos`` packet, ``1/2 n^{-3d/2-s} phi'``."""
        amp = float(self.n) ** (-1.5 * self.delta - self.s)
        return _read_only(amp * self.phi_prime_envelope * 0.5)

    def _unit_packet(self) -> ModulatedField:
        return packet(self.basis, float(self.n) ** (-0.5 * self.delta - self.s)
                      * self.phi_envelope)

    @cached_property
    def hilbert_samples(self) -> np.ndarray:
        """``H``: ``mod_hilbert`` of the packet ``u_h``."""
        return _read_only(mod_hilbert(self._unit_packet()).phys[1])

    @cached_property
    def square_rows(self) -> np.ndarray:
        """Carrier rows 0 and 2 of ``(H u_h) d_x u_h``, transformed and
        dealiased: ``2 Re(conj(H) D)`` and ``H D``, with ``D`` the samples of
        ``mod_derivative`` of the packet."""
        h = self.hilbert_samples
        d = mod_derivative(self._unit_packet()).phys[1]
        grid = self.env_grid
        rows = np.fft.fft(np.stack([2.0 * (np.conj(h) * d).real, h * d]),
                          axis=-1) / grid.n_modes
        rows[:, ~grid.dealias_mask] = 0.0
        return _read_only(rows)


# -- building blocks -------------------------------------------------------------


def build_high_frequency(p: InstabilityParams, t: float, grid: SpectralGrid) -> Field:
    """Dense-grid packet ``n^{-d/2-s} phi(x_c/n^d) cos(n x_c - m t)``.

    The grid must resolve the carrier with at least 8 points per wavelength.
    """
    if 2.0 * np.pi * grid.n_modes / grid.period < 8.0 * p.n:
        raise ValueError("grid does not resolve the carrier (need >= 8 points "
                         "per wavelength)")
    xc = grid.x - 0.5 * grid.period
    amp = float(p.n) ** (-0.5 * p.delta - p.s)
    vals = amp * phi_profile(xc / p.n**p.delta) * np.cos(p.n * xc - p.m * t)
    return Field.from_samples(grid, vals)


def build_high_frequency_mod(p: InstabilityParams, t: float) -> ModulatedField:
    """Carrier-1 version of the packet (phase referenced to the centered
    coordinate, matching :func:`build_high_frequency`)."""
    amp = float(p.n) ** (-0.5 * p.delta - p.s)
    phase = np.exp(-1j * (p.m * t + 0.5 * p.n * p.period))
    return packet(p.basis, amp * p.phi_envelope, phase=phase)


def build_low_initial(p: InstabilityParams, grid: SpectralGrid) -> Field:
    """Low-frequency datum ``u_l(0) = -H(m n^{-1} phitilde(x_c/n^delta))`` on
    ``grid`` (the envelope grid, or a dense grid of the same period)."""
    xc = grid.x - 0.5 * grid.period
    g = Field.from_samples(grid, (p.m / p.n) * phi_tilde_profile(xc / p.n**p.delta))
    return -1.0 * hilbert(g)


def low_trajectory(p: InstabilityParams, horizon: float,
                   dt: float) -> Iterator[tuple[float, Field]]:
    """Stream of ``(t, u_l(t))`` on the envelope grid, one per step from
    ``t = 0``; each RK4 step runs when its state is read."""
    return simulate_low_frequency(build_low_initial(p, p.env_grid), horizon, dt)


def approx_solution(p: InstabilityParams, t: float, ul_t: Field,
                    grid: SpectralGrid) -> Field:
    """Dense ``u_h(t) + u_l(t)``; ``ul_t`` is interpolated onto ``grid`` modes."""
    uh = build_high_frequency(p, t, grid)
    if ul_t.grid != grid:
        raise ValueError("low-frequency field must live on the dense grid")
    return uh + ul_t


def approx_solution_mod(p: InstabilityParams, t: float, ul_t: Field) -> ModulatedField:
    return carrier0(p.basis, ul_t) + build_high_frequency_mod(p, t)


def packet_norm_ratio(profile, n: int, r: float, delta: float) -> float:
    """Normalized packet norm against its large-n limit, on 2048 envelope modes.

    Returns ``n^{-delta/2-r} |profile(x/n^d) cos(nx)|_{H^r}`` divided by
    ``|profile|_{L2} / sqrt(2)``; tends to 1 as the carrier grows.
    """
    period = 16.0 * float(n) ** delta
    grid = SpectralGrid(period=period, n_modes=2048)
    basis = CarrierBasis(grid, float(n))
    xc = grid.x - 0.5 * period
    mf = packet(basis, profile(xc / n**delta))
    norm = modulated_norm(mf, r)
    limit = profile_l2_line(profile) / np.sqrt(2.0)
    return float(norm * float(n) ** (-0.5 * delta - r) / limit)


# -- defect integrand and functional ------------------------------------------------


def error_integrand_mod(p: InstabilityParams, t: float, ul_t: Field,
                        hul0: Field) -> ModulatedField:
    """The three-term defect integrand at time ``t`` (see module docstring).

    Every packet in it is a constant envelope times one phase
    ``exp(-i(m t + n L/2))`` and every carrier operator is linear, so its
    carrier rows have a closed form in the unit-phase samples cached on ``p``:
    row 0 is term 3's time-independent ``2 Re(conj(H) D)``, row 2 is
    ``phase^2 H D``, and row 1 is ``phase`` times the dealiased transform of
    ``(Hu_l(0) - Hu_l(t)) S + Hu_l(t) C + H d_x u_l(t)``.  One stacked inverse
    transform (of ``u_l(t)`` under ``[i sgn xi, i xi]``, and of
    ``hul0 - Hu_l(t)``) and one forward transform.
    """
    grid = p.env_grid
    if ul_t.grid != grid or hul0.grid != grid:
        raise ValueError("low-frequency fields must live on the envelope grid")
    n_modes = grid.n_modes
    rows = np.empty((3, n_modes), dtype=np.complex128)
    rows[:2] = grid.transport_symbols * ul_t.coefficients
    # difference the Hilbert transforms before sampling: they nearly cancel
    rows[2] = hul0.coefficients - rows[0]
    hul_t, ul_x, hul_drop = np.fft.ifft(rows * n_modes, axis=-1)
    row1 = np.fft.fft(hul_drop * p.sin_samples + hul_t * p.cos_samples
                      + p.hilbert_samples * ul_x) / n_modes
    row1[~grid.dealias_mask] = 0.0
    phase = np.exp(-1j * (p.m * t + 0.5 * p.n * p.period))
    out = ModulatedField.zeros(p.basis)
    out.coeffs[0] = p.square_rows[0]
    out.coeffs[1] = phase * row1
    out.coeffs[2] = (phase * phase) * p.square_rows[1]
    return out


def _mod_power(mf: ModulatedField, k: int) -> ModulatedField:
    out = mf
    for _ in range(k - 1):
        out = mod_product(out, mf)
    return out


def eval_noise_mod(model: InstabilityH, t: float, u: ModulatedField) -> ModulatedField:
    """Weak-noise coefficient evaluated in the carrier representation."""
    factor = model.q * instability_factor(modulated_norm(u, model.sigma0))
    if factor == 0.0:
        return ModulatedField.zeros(u.basis)
    ux = mod_derivative(u)
    hux = mod_hilbert(ux)
    base = _mod_power(ux, model.exponent_k) + _mod_power(hux, model.exponent_n)
    return factor * mod_helmholtz_inverse_dx(base)


def error_functional_ensemble(p: InstabilityParams, noise: InstabilityH | ZeroNoise,
                              num_paths: int, horizon: float, dt: float,
                              seed: int = 0) -> dict:
    """Monte Carlo estimate of ``E sup_t |int_0^t E dt' - int_0^t h dW|^2`` in
    ``H^{sigma0}``.

    One pass over the steps, stepping the low-frequency profile alongside:
    the drift integrand and the noise coefficient along the deterministic
    approximate solution are formed once per step and shared by every path,
    which only differs by its scalar Brownian increments (left-point Euler
    accumulation, :func:`~ccflab.noise.wiener_increments` of the path's
    seed, as :func:`simulate_actual_mod` draws them).  The paths' Ito sums
    are one ``(num_paths, max_carrier + 1, N)`` array, and each step takes
    their ``H^{sigma0}`` norms in one batched :func:`~ccflab.modulated.carrier_norms`.
    """
    n_steps = int(round(horizon / dt))
    sigma0 = p.sigma0
    paths = num_paths if not isinstance(noise, ZeroNoise) else 0
    dws = np.array([wiener_increments(path_seed(seed, idx), dt, n_steps)
                    for idx in range(paths)])
    itos = np.zeros((paths, p.basis.max_carrier + 1, p.env_modes), dtype=np.complex128)
    sups = np.zeros(paths)
    partial = ModulatedField.zeros(p.basis)    # running integral of E
    det_sup_sq = modulated_norm(partial, sigma0) ** 2
    # zip stops at the range before asking the stream for the horizon state
    for i, (t, ul_t) in zip(range(n_steps), low_trajectory(p, horizon, dt)):
        if i == 0:
            hul0 = hilbert(ul_t)
        partial = partial + dt * error_integrand_mod(p, t, ul_t, hul0)
        det_sup_sq = max(det_sup_sq, modulated_norm(partial, sigma0) ** 2)
        if paths:
            h = eval_noise_mod(noise, t, approx_solution_mod(p, t, ul_t))
            itos += dws[:, i, None, None] * h.coeffs
            sups = np.maximum(sups, carrier_norms(p.basis, partial.coeffs - itos,
                                                  sigma0) ** 2)
    if not paths:
        return {"mean_sup_sq": det_sup_sq, "sem": 0.0, "det_sup_sq": det_sup_sq,
                "num_paths": 0}
    sem = float(sups.std(ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
    return {"mean_sup_sq": float(sups.mean()), "sem": sem,
            "det_sup_sq": det_sup_sq, "num_paths": paths}


# -- actual solutions and gaps ---------------------------------------------------------


def _mod_rhs(u: ModulatedField) -> ModulatedField:
    return -1.0 * mod_transport_product(u)


def simulate_actual_mod(p: InstabilityParams, noise: InstabilityH | ZeroNoise,
                        seed: int, horizon: float, dt: float, observer=None) -> dict:
    """One path of the stochastic equation from the approximate initial datum
    ``u_h(0) + u_l(0)``, over ``round(horizon / dt)`` steps of size ``dt``.

    ``seed`` is a path seed; its :func:`~ccflab.noise.wiener_increments`
    drive the steps.
    Only the low-frequency datum at t=0 enters, so no low-frequency
    trajectory is solved.  Stops at the horizon or at the first exceedance of
    the exit radius in H^s.  ``observer(i, t, u)`` is called after every step
    (and once at t=0) for gap accumulation; the final state is returned
    together with the stop time and status.
    """
    u = approx_solution_mod(p, 0.0, build_low_initial(p, p.env_grid))
    stochastic = not isinstance(noise, ZeroNoise)
    n_steps = int(round(horizon / dt))
    dws = wiener_increments(seed, dt, n_steps) if stochastic else None
    if observer is not None:
        observer(0, 0.0, u)
    status, t_stop = "completed", n_steps * dt
    for i in range(n_steps):
        t = i * dt
        unew = rk4(_mod_rhs, u, dt)
        if stochastic:
            unew = unew + float(dws[i]) * eval_noise_mod(noise, t, u)
        u = unew
        if u.diverged:
            status, t_stop = "diverged", (i + 1) * dt
            break
        if modulated_norm(u, p.s) > p.exit_radius:
            status, t_stop = "exited", (i + 1) * dt
            break
        if observer is not None:
            observer(i + 1, (i + 1) * dt, u)
    return {"state": u, "status": status, "t_stop": t_stop}


def actual_vs_approx_gap(p: InstabilityParams, noise: InstabilityH | ZeroNoise,
                         num_paths: int, horizon: float, dt: float,
                         seed: int = 0) -> dict:
    """Ensemble gap estimates between actual and approximate solutions.

    Returns ``E sup |gap|^2`` in ``H^{sigma0}`` and ``H^{2s-sigma0}`` plus
    ``E sup |gap|`` in ``H^s``, with the per-path sups for the interpolation
    inequality check (the H^s mean is bounded by the fourth-root product of
    the two squared means).
    """
    approx = [approx_solution_mod(p, t, f) for t, f in low_trajectory(p, horizon, dt)]
    hi_index = 2.0 * p.s - p.sigma0
    per_path = {"sigma0_sq": [], "high_sq": [], "hs": []}

    for idx in range(num_paths):
        sup_lo, sup_hi, sup_s = 0.0, 0.0, 0.0

        def observe(i, t, u):
            nonlocal sup_lo, sup_hi, sup_s
            gap = u - approx[i]
            sup_lo = max(sup_lo, modulated_norm(gap, p.sigma0) ** 2)
            sup_hi = max(sup_hi, modulated_norm(gap, hi_index) ** 2)
            sup_s = max(sup_s, modulated_norm(gap, p.s))

        simulate_actual_mod(p, noise, path_seed(seed, idx), horizon, dt,
                            observer=observe)
        per_path["sigma0_sq"].append(sup_lo)
        per_path["high_sq"].append(sup_hi)
        per_path["hs"].append(sup_s)

    out = {k: float(np.mean(v)) for k, v in per_path.items()}
    out["interpolation_ok"] = bool(
        out["hs"] <= out["sigma0_sq"] ** 0.25 * out["high_sq"] ** 0.25 * (1.0 + 1e-9)
        or out["hs"] < 1e-300)
    out["per_path"] = per_path
    return out


def separation_experiment(p: InstabilityParams, horizon: float, dt: float,
                          noise: InstabilityH | ZeroNoise, num_paths: int = 1,
                          seed: int = 0) -> dict:
    """Drift-apart of the two actual solutions with opposite packet rotation.

    Returns the initial H^s gap, the ensemble-mean running-sup gap curve, the
    reference curve ``sqrt(2) |phi|_{L2} sup_{[0,t]} |sin t'|``, and per sign
    ``m = +1, -1`` the list of path statuses and stop times.  A path that
    exits or diverges is not padded: ``times``, ``gap_curve`` and
    ``reference`` end at the last state of the shortest run.
    """
    p_plus = replace(p, m=1)
    p_minus = replace(p, m=-1)
    u0 = {pp.m: approx_solution_mod(pp, 0.0, build_low_initial(pp, pp.env_grid))
          for pp in (p_plus, p_minus)}
    init_gap = modulated_norm(u0[-1] - u0[+1], p.s)

    curves = []
    status: dict[int, list[str]] = {+1: [], -1: []}
    t_stop: dict[int, list[float]] = {+1: [], -1: []}
    for idx in range(num_paths):
        plus, gaps = [], []

        def gap_to_plus(i, t, u):
            if i < len(plus):
                gaps.append(modulated_norm(u - plus[i], p.s))

        for sign, pp, observe in ((+1, p_plus, lambda i, t, u: plus.append(u)),
                                  (-1, p_minus, gap_to_plus)):
            out = simulate_actual_mod(pp, noise, path_seed(seed, idx), horizon, dt,
                                      observer=observe)
            status[sign].append(out["status"])
            t_stop[sign].append(out["t_stop"])
        curves.append(np.maximum.accumulate(gaps))

    n_kept = min(len(c) for c in curves)
    times = np.arange(n_kept) * dt
    ref_amp = np.sqrt(2.0) * profile_l2_line(phi_profile)
    reference = ref_amp * np.maximum.accumulate(np.abs(np.sin(times)))
    return {"times": times,
            "gap_curve": np.mean([c[:n_kept] for c in curves], axis=0),
            "reference": reference, "initial_gap": init_gap,
            "reference_amplitude": ref_amp, "status": status, "t_stop": t_stop}
