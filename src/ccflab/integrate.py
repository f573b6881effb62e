"""Time integration of the (mollified) stochastic transport equation.

The drift is the mollified transport term

    -J_eps[(H J_eps u) d_x J_eps u],

the diffusion is the selected noise family, driven by one scalar Brownian
increment per step.  A step is a classical fourth-order Runge-Kutta drift
substep followed by the noise.  Forward Euler on a spectral advection operator
would amplify the highest retained modes at rate ~ (c k_max)^2 dt/2 per unit
time, which wrecks long horizons at realistic step sizes; the RK4 substep is
neutrally stable on the imaginary axis.

The families ``h = a(t, u) u`` with a scalar rate (``StrongAlpha``,
``LinearB``) take their noise exactly for ``a = rate(t, u)`` frozen over
the step: the substep's result is multiplied by ``exp(a dW - a^2 dt / 2)``,
the Ito factor of ``du = a u dW`` (Kloeden & Platen, *Numerical Solution of
SDEs*, 1992).  Explicit Euler's ``a u dW`` diverges at the rates of the strong
noise, a ~ 20 (Hutzenthaler, Jentzen & Kloeden, Proc. R. Soc. A 467, 2011).
The field-valued families ``GeneralH`` and ``InstabilityH`` add the
Euler-Maruyama increment ``h(t, u) dW`` (strong order 1/2).  A path takes
one step per macro step.

All stepping runs through one right-hand side on half-spectrum coefficient
arrays, the transport term ``J[(H J c) (J c)_x]``: one stacked inverse and
one forward real FFT per evaluation.  It backs :func:`drift` and the RK4
stages of :func:`em_step`, which steps it over ``-dt`` (bit for bit RK4 of
its negative over ``dt``) and takes every step of a real field: the SPDE
paths and the deterministic stream of :func:`simulate_low_frequency`.

Transform budget, counted in ``rfft``/``irfft`` calls (every transform of a
real field is one of them, see :mod:`ccflab.spectral`): what a step shares
of its start state ``u`` lives in ``u``'s own caches.  Its step rows, one
stacked ``irfft``, serve the monitored sups and the recorded ``max Lam u``
(taken once and kept on ``u``, where a ``StrongAlpha`` rate reads them too),
the gradient samples of the noise and the samples of the first RK4 stage.
The first stage is ``u``'s transport product, whose one ``rfft`` the forward
transform of a ``GeneralH``/``InstabilityH`` noise carries; the scalar rates
add none.  So a macro step takes 8 transform calls: the step rows (1), the
noise with stage 1 (1) and stages 2-4 (6).  With a mollifier stage 1
transforms ``J u`` on its own (10).  A step of the deterministic stream has
no noise, so its stage 1 is step rows, then product: 2 calls, 8 in all.

One path is one logical task: no shared mutable state, bit-identical reruns
for a fixed config.  ``cfg.seed`` is a path seed: the macro increments are
:func:`~ccflab.noise.wiener_increments` of it, drawn up front.  Every loop
that steps to a horizon, a path's or the carrier lab's, takes its step count
from :func:`whole_steps`, which rejects a horizon that is not a whole number
of steps.

:func:`simulate_low_frequency` is the mollified deterministic equation
alone: a stream of noiseless :func:`em_step` states on step sizes the caller
gives, which serves the low-frequency profile of
:mod:`ccflab.instability` (a constant step) and the random-PDE twin of
:mod:`ccflab.girsanov` (the steps ``beta_i dt`` of the clock
``theta = int beta dt``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .noise import NoiseModel, ZeroNoise, wiener_increments
from .spectral import (
    Field,
    SpectralGrid,
    _read_only,
    argmax_refined,
    dealias,
    dealiased_coefficients,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    inverse_samples,
    mollifier_symbol,
    sobolev_norm,
    transition_bump,
)

__all__ = [
    "SimConfig",
    "whole_steps",
    "PathRecord",
    "rk4",
    "drift",
    "em_step",
    "simulate_path",
    "simulate_low_frequency",
    "blowup_bump",
    "power_law_field",
    "plateau_bump",
]


def plateau_bump(y: np.ndarray, inner: float = 1.0, outer: float = 2.0) -> np.ndarray:
    """C-infinity plateau profile: 1 on |y|<=inner, 0 on |y|>=outer."""
    return transition_bump((np.abs(y) - inner) / (outer - inner))


def whole_steps(horizon: float, dt: float) -> int:
    """The number of steps of size ``dt`` that make up ``horizon``, the one
    rule for every horizon a study steps to.  Raises ``ValueError`` unless
    both are positive and ``horizon`` is a whole number of steps (to 1e-9
    relative)."""
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("dt and horizon must be positive")
    if not np.isfinite(horizon / dt):
        raise ValueError(f"horizon / dt must be finite, got {horizon / dt}")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon:g} is not a whole number of steps of dt {dt:g}")
    return n_steps


@dataclass(frozen=True)
class SimConfig:
    """All discretization, noise and stopping parameters for one path."""

    grid: SpectralGrid
    s: float
    dt: float
    horizon: float
    noise: NoiseModel = field(default_factory=ZeroNoise)
    seed: int = 0
    eps_mollify: float = 0.0
    blowup_threshold: float = 1.0e3
    record_every: int = 1
    keep_snapshots: bool = False

    def __post_init__(self):
        whole_steps(self.horizon, self.dt)
        if self.s <= 3.0:
            raise ValueError("Sobolev index must exceed 3 for these runs")
        if not 0.0 <= self.eps_mollify < 1.0:
            raise ValueError("eps_mollify must lie in [0, 1)")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


DIAGNOSTIC_NAMES = ("h_s", "h_sm1", "h_sm32", "sup_ux", "sup_hux", "max_lam", "lyapunov")


@dataclass
class PathRecord:
    """Diagnostic time series and, if kept, the recorded states of one
    realization."""

    times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    status: str                    # "completed" | "blewup" | "diverged"
    t_stop: float
    snapshots: list[tuple[float, Field]]
    wiener_increments: np.ndarray  # one Brownian increment per macro step taken


# -- drift and stepping ----------------------------------------------------------


def rk4(rhs, y, dt: float, k1=None):
    """One classical fourth-order Runge-Kutta step of ``y' = rhs(y)``.

    ``y`` may be a float, a coefficient array or a ``ModulatedField``:
    anything closed under addition and scaling by a float.
    ``k1`` is ``rhs(y)`` when the caller already has it.
    """
    k1 = rhs(y) if k1 is None else k1
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@lru_cache(maxsize=64)
def _mollifier_values(grid: SpectralGrid, eps: float) -> np.ndarray:
    # every step on the grid shares it, hence read-only
    return _read_only(mollifier_symbol(eps * grid.wavenumbers))


def _mollifier(grid: SpectralGrid, cfg: SimConfig) -> np.ndarray | None:
    """Per-mode values of ``J_eps`` on ``grid``, ``None`` for the identity."""
    eps = cfg.eps_mollify
    return _mollifier_values(grid, eps) if eps > 0.0 else None


def _transport_rhs(c: np.ndarray, grid: SpectralGrid,
                   mollifier: np.ndarray | None) -> np.ndarray:
    """``J[(H J c) (J c)_x]``, dealiased, for the coefficients ``c``: one
    stacked inverse and one forward FFT.  ``J`` multiplies by ``mollifier``
    (the identity for ``None``)."""
    w = c if mollifier is None else c * mollifier
    hw, wx = inverse_samples(grid, w * grid.transport_symbols)
    product = dealiased_coefficients(grid, hw * wx)
    return product if mollifier is None else product * mollifier


def drift(u: Field, cfg: SimConfig) -> Field:
    """Negated transport term, ready to be added to the state."""
    return Field(u.grid, -_transport_rhs(u.coefficients, u.grid, _mollifier(u.grid, cfg)))


def em_step(u: Field, t: float, cfg: SimConfig, dw: float,
            dt: float | None = None) -> Field:
    """One step from the state ``u`` at time ``t``: the RK4 drift substep,
    then the noise of the increment ``dw``, the exact factor
    ``exp(a dw - a^2 dt / 2)`` of ``a = rate(t, u)`` for a family
    ``h = rate u`` or the increment ``h(t, u) dw`` otherwise.

    The substep is RK4 of the transport term over ``-dt``.  The noise is
    formed before it: without a mollifier the first stage is ``u``'s own
    transport product, which the forward transform of a field-valued noise
    forms in the same call.
    """
    dt = cfg.dt if dt is None else dt
    grid, mollifier, noise = u.grid, _mollifier(u.grid, cfg), cfg.noise
    a = h = None
    if hasattr(noise, "rate"):
        a = noise.rate(t, u)
    else:
        coefficient = noise.components(t, u)
        h = None if coefficient is None else coefficient.coefficients
    k1 = u.transport_coefficients if mollifier is None else None
    c = rk4(lambda y: _transport_rhs(y, grid, mollifier), u.coefficients, -dt, k1)
    if a is not None:
        c = c * np.exp(a * dw - 0.5 * a**2 * dt)
    elif h is not None:
        c = c + h * dw
    return Field(grid, c)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def simulate_path(cfg: SimConfig, u0: Field) -> PathRecord:
    """Integrate one path to the horizon, blow-up detection or divergence.

    Blow-up is flagged at the first macro step where the monitored quantity
    ``|u_x|_inf + |H u_x|_inf`` reaches ``blowup_threshold``, which must exceed
    its initial value.  Stepping runs with numpy's floating-point warnings
    off: a path that overflows is reported by its ``diverged`` status.
    A path records every ``record_every``-th state and the state it stopped
    at (the horizon state, the blown-up state or the last finite one) once;
    ``t_stop`` is the time of the last step taken.
    Deterministic given the config: bit-identical on reruns.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial field lives on the wrong grid")
    n_steps = whole_steps(cfg.horizon, cfg.dt)
    increments = wiener_increments(cfg.seed, cfg.dt, n_steps)

    # each state keeps its sups: the blow-up check, a StrongAlpha rate and
    # the record read one tuple
    u = dealias(u0)
    sups = gradient_sups(u)
    if cfg.blowup_threshold <= sups[0] + sups[1]:
        raise ValueError("blowup_threshold must exceed the initial monitored quantity")
    times, rows = [], []
    snapshots: list[tuple[float, Field]] = []

    def record(step: int, f: Field):
        t = step * cfg.dt
        sup_fx, sup_hfx, mlam = gradient_sups(f)
        hm1 = sobolev_norm(f, cfg.s - 1.0)
        hm32 = sobolev_norm(f, cfg.s - 1.5)
        times.append(t)
        rows.append((sobolev_norm(f, cfg.s), hm1, hm32, sup_fx, sup_hfx, mlam, np.log1p(hm1**2)))
        if cfg.keep_snapshots:
            # a bare field: the step caches of ``f`` hold several times its size
            snapshots.append((t, Field(f.grid, f.coefficients)))

    record(0, u)
    # ``u`` is the state after ``step`` steps; ``taken`` counts the steps tried
    status, step, taken = "completed", 0, n_steps
    for i, dw in enumerate(increments):
        u_next = em_step(u, i * cfg.dt, cfg, dw)
        if u_next.diverged:
            status, taken = "diverged", i + 1
            break
        u, sups, step = u_next, gradient_sups(u_next), i + 1
        if step % cfg.record_every == 0:
            record(step, u)
        if sups[0] + sups[1] >= cfg.blowup_threshold:
            status, taken = "blewup", step
            break

    # the state the path stopped at, unless the record grid holds it
    if step % cfg.record_every:
        record(step, u)
    diags = {name: np.array([r[j] for r in rows]) for j, name in enumerate(DIAGNOSTIC_NAMES)}
    return PathRecord(np.array(times), diags, status, taken * cfg.dt, snapshots,
                      increments[:taken])


# -- deterministic stream ------------------------------------------------------------


def simulate_low_frequency(cfg: SimConfig, u0: Field,
                           steps: Iterable[float]) -> Iterator[Field]:
    """The mollified ``u_t + (Hu) u_x = 0`` from ``u0``: yields ``u0``
    and then the state after each noiseless :func:`em_step`, one per size in
    ``steps``, whatever the noise of ``cfg``.

    A step is only taken when the next state is asked for.  Raises
    ``ValueError`` naming the time ``(i + 1) cfg.dt`` of the first non-finite
    step.
    """
    cfg = replace(cfg, noise=ZeroNoise())
    u = u0
    yield u
    for i, dt in enumerate(steps):
        u = em_step(u, i * cfg.dt, cfg, 0.0, dt)
        if u.diverged:
            raise ValueError(f"deterministic stream diverged at t={(i + 1) * cfg.dt:.6g}")
        yield u


# -- initial data factories -----------------------------------------------------------


def blowup_bump(grid: SpectralGrid, f0: float, width: float = 1.0) -> Field:
    """Odd-about-max profile scaled so that ``Lam u0`` equals ``f0`` at the
    argmax of ``u0`` (the quantity driving the transported-maximum bound)."""
    xc = grid.x - 0.5 * grid.period
    prof = np.sin(xc) * np.exp(-(xc**2) / width**2)
    u = dealias(Field.from_samples(grid, prof))
    lam_at_max = evaluate_at(frac_laplacian(u), argmax_refined(u))
    if lam_at_max <= 0.0:
        raise ValueError("profile has nonpositive max-point gradient quantity")
    return (f0 / lam_at_max) * u


def power_law_field(grid: SpectralGrid, decay: float, rng: np.random.Generator,
                    amplitude: float = 1.0, max_mode: int | None = None) -> Field:
    """Random field with ``|u_hat(k)| ~ k^-decay`` up to the dealias band.

    With ``decay = s`` the H^s norm is log-critical: the spectral tail carries
    mass at every scale, which is what makes mollifier-convergence rates
    observable instead of collapsing to spectral round-off.
    """
    kmax = grid.dealias_keep if max_mode is None else max_mode
    c = np.zeros(grid.k_int.shape, dtype=np.complex128)
    k = np.arange(1, kmax + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=kmax)
    c[k] = 0.5 * k ** (-float(decay)) * np.exp(1j * phases)
    f = Field.from_coefficients(grid, c)
    cur = sobolev_norm(f, 0.0)
    return (amplitude / cur) * f if cur > 0 else f
