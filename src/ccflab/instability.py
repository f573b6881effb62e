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
with ``n``; agreement with dense-grid evaluation is covered by the tests,
which keep the dense packets as their reference.

Each study is one pass over time that keeps only running sums and sups: the
defect functional steps ``u_l`` (from :func:`build_low_initial`) in the same
loop that forms ``E`` and the noise coefficient, the actual solutions start
from ``u_l(0)`` alone (no low-frequency solve), and the separation experiment
keeps the ``m = +1`` states of a path to difference the ``m = -1`` run against.
The low-frequency profile is the deterministic stream of
:func:`~ccflab.integrate.simulate_low_frequency` on the envelope grid.

Transform budget of one defect step: the integrand's carrier rows are in
closed form (:func:`error_integrand_mod`, one stacked ``irfft`` of the
low-frequency rows and one :func:`~ccflab.modulated.dealiased_envelopes` of
carrier row 1; generic carrier products took 21 calls), the noise
coefficient along the approximate solution takes none (plus 3 per power
above 1 of its exponents), since its packet is the cached unit-phase row
times one phase, and the low-frequency step (one noiseless ``em_step``)
takes 8.  That is 10 transform calls per step with noise, shared by every
path.

The squared defect functional is ``O(n^{2 rate_error})``, with the one
exponent ``rate_error = -s - 1 + sigma0 + delta``, below -5/4 on the parameter
ranges.  Every study runs the weak noise :class:`~ccflab.noise.InstabilityH`,
whose ``sigma0`` this is: its deterministic run is ``InstabilityH(q=0.0)``, a
zero coefficient formed without a transform, and ``num_paths=0`` is the
defect-only run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .integrate import SimConfig, plateau_bump, rk4, simulate_low_frequency, whole_steps
from .modulated import (
    CARRIER_ROWS,
    CarrierBasis,
    ModulatedField,
    carrier0,
    carrier_norms,
    dealiased_envelopes,
    mod_derivative,
    mod_helmholtz_inverse_dx,
    mod_hilbert,
    mod_product,
    mod_transport_product,
    modulated_norm,
    packet,
)
from .noise import InstabilityH, instability_factor, path_seed, wiener_increments
from .spectral import Field, SpectralGrid, _read_only, hilbert, inverse_samples

__all__ = [
    "InstabilityParams",
    "phi_profile",
    "phi_tilde_profile",
    "profile_l2_line",
    "build_high_frequency_mod",
    "build_low_initial",
    "low_trajectory",
    "approx_solution_mod",
    "error_integrand_mod",
    "packet_norm_ratio",
    "error_functional_ensemble",
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

    @property
    def period(self) -> float:
        return 16.0 * float(self.n) ** self.delta

    def rate_error(self, sigma0: float) -> float:
        return -self.s - 1.0 + sigma0 + self.delta

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

    @cached_property
    def packet_row(self) -> np.ndarray:
        """Carrier row 1 of the unit-phase packet ``u_h``: the packet at time
        ``t`` is this row times ``phase``."""
        unit = packet(self.basis, float(self.n) ** (-0.5 * self.delta - self.s)
                      * self.phi_envelope)
        return _read_only(unit.coeffs[1])

    def _unit_packet(self) -> ModulatedField:
        mf = ModulatedField.zeros(self.basis)
        mf.coeffs[1] = self.packet_row
        return mf

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
        return _read_only(dealiased_envelopes(
            self.basis, np.stack([2.0 * (np.conj(h) * d).real, h * d])))


# -- building blocks -------------------------------------------------------------


def build_high_frequency_mod(p: InstabilityParams, t: float) -> ModulatedField:
    """Carrier-1 packet ``n^{-d/2-s} phi(x_c/n^d) cos(n x_c - m t)``, its phase
    referenced to the centered coordinate ``x_c``: the cached
    :attr:`InstabilityParams.packet_row` times the phase, no transform."""
    phase = np.exp(-1j * (p.m * t + 0.5 * p.n * p.period))
    mf = ModulatedField.zeros(p.basis)
    mf.coeffs[1] = phase * p.packet_row
    return mf


def build_low_initial(p: InstabilityParams, grid: SpectralGrid) -> Field:
    """Low-frequency datum ``u_l(0) = -H(m n^{-1} phitilde(x_c/n^delta))`` on
    ``grid`` (the envelope grid, or a dense grid of the same period)."""
    xc = grid.x - 0.5 * grid.period
    g = Field.from_samples(grid, (p.m / p.n) * phi_tilde_profile(xc / p.n**p.delta))
    return -1.0 * hilbert(g)


def low_trajectory(p: InstabilityParams, horizon: float, dt: float) -> Iterator[Field]:
    """Stream of ``u_l(i dt)`` on the envelope grid, one per step from
    ``t = 0`` over the :func:`~ccflab.integrate.whole_steps` of ``horizon``;
    each step runs when its state is read."""
    return simulate_low_frequency(SimConfig(p.env_grid, p.s, dt, horizon),
                                  build_low_initial(p, p.env_grid),
                                  repeat(dt, whole_steps(horizon, dt)))


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
    ``(Hu_l(0) - Hu_l(t)) S + Hu_l(t) C + H d_x u_l(t)``.  One stacked
    ``irfft`` of the three real rows (``u_l(t)`` under ``[i sgn xi, i xi]``,
    and ``hul0 - Hu_l(t)``) and one ``dealiased_envelopes`` of the complex
    row 1.
    """
    grid = p.env_grid
    if ul_t.grid != grid or hul0.grid != grid:
        raise ValueError("low-frequency fields must live on the envelope grid")
    rows = np.empty((3, *grid.k_int.shape), dtype=np.complex128)
    rows[:2] = grid.transport_symbols * ul_t.coefficients
    # difference the Hilbert transforms before sampling: they nearly cancel
    rows[2] = hul0.coefficients - rows[0]
    hul_t, ul_x, hul_drop = inverse_samples(grid, rows)
    row1 = dealiased_envelopes(p.basis, hul_drop * p.sin_samples + hul_t * p.cos_samples
                               + p.hilbert_samples * ul_x)
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


def error_functional_ensemble(p: InstabilityParams, noise: InstabilityH,
                              num_paths: int, horizon: float, dt: float,
                              seed: int = 0) -> dict:
    """Monte Carlo estimate of ``E sup_t |int_0^t E dt' - int_0^t h dW|^2`` in
    ``H^{sigma0}``, the space of ``noise``'s vanishing factor.

    One pass over the steps, stepping the low-frequency profile alongside:
    the drift integrand and the noise coefficient along the deterministic
    approximate solution are formed once per step and shared by every path,
    which only differs by its scalar Brownian increments (left-point Euler
    accumulation, :func:`~ccflab.noise.wiener_increments` of the path's
    seed, as :func:`simulate_actual_mod` draws them).  The paths' Ito sums
    are one ``(num_paths, CARRIER_ROWS, N)`` array, and each step takes
    their ``H^{sigma0}`` norms in one batched :func:`~ccflab.modulated.carrier_norms`.
    """
    n_steps = whole_steps(horizon, dt)
    sigma0 = noise.sigma0
    dws = np.array([wiener_increments(path_seed(seed, idx), dt, n_steps)
                    for idx in range(num_paths)])
    itos = np.zeros((num_paths, CARRIER_ROWS, p.env_modes), dtype=np.complex128)
    sups = np.zeros(num_paths)
    partial = ModulatedField.zeros(p.basis)    # running integral of E
    det_sup_sq = modulated_norm(partial, sigma0) ** 2
    # zip stops at the range before asking the stream for the horizon state
    for i, ul_t in zip(range(n_steps), low_trajectory(p, horizon, dt)):
        t = i * dt
        if i == 0:
            hul0 = hilbert(ul_t)
        partial = partial + dt * error_integrand_mod(p, t, ul_t, hul0)
        det_sup_sq = max(det_sup_sq, modulated_norm(partial, sigma0) ** 2)
        if num_paths:
            h = eval_noise_mod(noise, t, approx_solution_mod(p, t, ul_t))
            itos += dws[:, i, None, None] * h.coeffs
            sups = np.maximum(sups, carrier_norms(p.basis, partial.coeffs - itos,
                                                  sigma0) ** 2)
    if not num_paths:
        return {"mean_sup_sq": det_sup_sq, "sem": 0.0, "det_sup_sq": det_sup_sq,
                "num_paths": 0}
    sem = float(sups.std(ddof=1) / np.sqrt(num_paths)) if num_paths > 1 else 0.0
    return {"mean_sup_sq": float(sups.mean()), "sem": sem,
            "det_sup_sq": det_sup_sq, "num_paths": num_paths}


# -- actual solutions and separation ---------------------------------------------------


def simulate_actual_mod(p: InstabilityParams, noise: InstabilityH,
                        seed: int, horizon: float, dt: float, observer=None) -> dict:
    """One path of the stochastic equation from the approximate initial datum
    ``u_h(0) + u_l(0)``, over the :func:`~ccflab.integrate.whole_steps` of
    ``horizon``: RK4 of the transport product over ``-dt``, as
    :func:`~ccflab.integrate.em_step` steps a real field, plus the noise
    increment.

    ``seed`` is a path seed; its :func:`~ccflab.noise.wiener_increments`
    drive the steps.
    Only the low-frequency datum at t=0 enters, so no low-frequency
    trajectory is solved.  Stops at the horizon or at the first exceedance of
    the exit radius in H^s.  ``observer(i, t, u)`` is called after every step
    (and once at t=0) for gap accumulation; the final state is returned
    together with the stop time and status.
    """
    n_steps = whole_steps(horizon, dt)
    u = approx_solution_mod(p, 0.0, build_low_initial(p, p.env_grid))
    dws = wiener_increments(seed, dt, n_steps)
    rhs = partial(mod_transport_product, p.basis)
    if observer is not None:
        observer(0, 0.0, u)
    status, t_stop = "completed", n_steps * dt
    for i in range(n_steps):
        t = i * dt
        u = (ModulatedField(p.basis, rk4(rhs, u.coeffs, -dt))
             + float(dws[i]) * eval_noise_mod(noise, t, u))
        if u.diverged:
            status, t_stop = "diverged", (i + 1) * dt
            break
        if modulated_norm(u, p.s) > p.exit_radius:
            status, t_stop = "exited", (i + 1) * dt
            break
        if observer is not None:
            observer(i + 1, (i + 1) * dt, u)
    return {"state": u, "status": status, "t_stop": t_stop}


def separation_experiment(p: InstabilityParams, horizon: float, dt: float,
                          noise: InstabilityH, num_paths: int = 1,
                          seed: int = 0) -> dict:
    """Drift-apart of the two actual solutions with opposite packet rotation.

    Returns the initial H^s gap (path 0's first), the ensemble-mean
    running-sup gap curve, the
    reference curve ``sqrt(2) |phi|_{L2} sup_{[0,t]} |sin t'|``, and per sign
    ``m = +1, -1`` the list of path statuses and stop times.  A path that
    exits or diverges is not padded: ``times``, ``gap_curve`` and
    ``reference`` end at the last state of the shortest run.
    """
    p_plus = replace(p, m=1)
    p_minus = replace(p, m=-1)
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
            "reference": reference, "initial_gap": float(curves[0][0]),
            "reference_amplitude": ref_amp, "status": status, "t_stop": t_stop}
