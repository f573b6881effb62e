"""Time integration of the (cut-off, mollified) stochastic transport equation.

The drift is the gated, mollified transport term

    -chi_R(|u|_{H^{s-3/2}}) J_eps[(H J_eps u) d_x J_eps u],

the diffusion is the selected noise family times the same gate, driven by K
scalar Brownian increments.  The noise enters in Euler-Maruyama fashion
(strong order 1/2) on top of a classical fourth-order Runge-Kutta drift
substep.  Forward Euler on a spectral advection operator would amplify the
highest retained modes at rate ~ (c k_max)^2 dt/2 per unit time, which wrecks
long horizons at realistic step sizes; the RK4 substep is neutrally stable on
the imaginary axis and leaves the strong order of the noise unchanged.  A
step whose relative ``H^s`` increment exceeds ``ADAPT_REL_INCREMENT`` is
split with a Brownian bridge, at most ``MAX_HALVINGS`` times.

Transform budget: one ``drift`` evaluation is one stacked inverse FFT and one
forward FFT (:func:`~ccflab.spectral.transport_product`), so an RK4 substep
costs 8 FFT calls.  The noise adds 2 more for ``GeneralH``/``InstabilityH``
(10 per ``em_step``), 1 for ``StrongAlpha`` and none for ``LinearB``.  After
each accepted macro step :func:`~ccflab.spectral.gradient_sups` reads the
monitored sups and the recorded ``max Lam u`` from one more call, so a
``GeneralH`` path takes 11 calls per macro step, plus 10 for each further
``em_step`` that adaptive halving takes.

One path is one logical task: no shared mutable state, RNG derived from the
config seed, bit-identical reruns for a fixed config.

:func:`simulate_low_frequency` is the deterministic ``u_t + (Hu) u_x = 0``
alone: an RK4 stream from a datum the caller builds.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseModel, ZeroNoise, sample_wiener_increments
from .spectral import (
    Field,
    SpectralGrid,
    argmax_refined,
    dealias,
    evaluate_at,
    frac_laplacian,
    gradient_sups,
    mollify,
    sobolev_norm,
    transition_bump,
    transport_product,
)

__all__ = [
    "SimConfig",
    "PathRecord",
    "cutoff_chi",
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


def cutoff_chi(x: float, radius: float | None) -> float:
    """Smooth gate: 1 on [0, R], 0 beyond 2R, monotone in between.

    ``radius=None`` or ``+inf`` disables the gate (identically 1).
    """
    if radius is None or np.isposinf(radius):
        return 1.0
    if radius <= 0.0:
        raise ValueError("cutoff radius must be positive")
    if x <= radius:
        return 1.0
    return float(transition_bump(np.array((x - radius) / radius)))


@dataclass(frozen=True)
class SimConfig:
    """All discretization, gating and stopping parameters for one path."""

    grid: SpectralGrid
    s: float
    dt: float
    horizon: float
    noise: NoiseModel = field(default_factory=ZeroNoise)
    seed: int = 0
    eps_mollify: float = 0.0
    cutoff_radius: float | None = None
    blowup_threshold: float = 1.0e3
    blowup_doublings: int = 3
    record_every: int = 1
    keep_snapshots: bool = False
    adapt: bool = True

    def __post_init__(self):
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ValueError("dt and horizon must be positive")
        if self.s <= 3.0:
            raise ValueError("Sobolev index must exceed 3 for these runs")
        if not 0.0 <= self.eps_mollify < 1.0:
            raise ValueError("eps_mollify must lie in [0, 1)")
        if self.cutoff_radius is not None and not self.cutoff_radius > 1.0:
            raise ValueError("cutoff radius must exceed 1")
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
    wiener_increments: np.ndarray  # one row of K increments per macro step taken

    def to_jsonl(self, stream: io.TextIOBase):
        """One JSON row per recorded step, preceded by a header row."""
        head = {"kind": "header", "status": self.status, "t_stop": self.t_stop,
                "n_rows": int(self.times.size),
                "columns": ["t", *DIAGNOSTIC_NAMES]}
        stream.write(json.dumps(head) + "\n")
        for i, t in enumerate(self.times):
            row = [float(t)] + [float(self.diagnostics[k][i]) for k in DIAGNOSTIC_NAMES]
            stream.write(json.dumps({"kind": "row", "v": row}) + "\n")


# -- drift and stepping ----------------------------------------------------------


def rk4(rhs, y, dt: float):
    """One classical fourth-order Runge-Kutta step of ``y' = rhs(y)``.

    ``y`` may be a float, a :class:`Field` or a ``ModulatedField``: anything
    closed under addition and scaling by a float.
    """
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _gate(u: Field, cfg: SimConfig) -> float:
    """Cut-off factor ``chi_R(|u|_{H^{s-3/2}})``; 1 without taking the norm
    when no radius is set."""
    if cfg.cutoff_radius is None or np.isposinf(cfg.cutoff_radius):
        return 1.0
    return cutoff_chi(sobolev_norm(u, cfg.s - 1.5), cfg.cutoff_radius)


def drift(u: Field, cfg: SimConfig) -> Field:
    """Negated gated transport term, ready to be added to the state."""
    gate = _gate(u, cfg)
    if gate == 0.0:
        return Field.zeros(u.grid)
    eps = cfg.eps_mollify
    w = mollify(u, eps) if eps > 0.0 else u
    term = transport_product(w)
    if eps > 0.0:
        term = mollify(term, eps)
    return (-gate) * term


def em_step(u: Field, t: float, cfg: SimConfig, dw: np.ndarray,
            dt: float | None = None) -> Field:
    """One step: drift substep plus gated noise increments."""
    dt = cfg.dt if dt is None else dt
    unew = rk4(lambda f: drift(f, cfg), u, dt)
    comps = cfg.noise.components(t, u)
    if comps:
        gate = _gate(u, cfg)
        if gate != 0.0:
            acc = unew.coefficients.copy()
            for c, w in zip(comps, dw):
                acc += (gate * w) * c.coefficients
            unew = Field(u.grid, acc)
    return unew


# adaptive halving: at most 2**MAX_HALVINGS = 4096 sub-steps per macro step
ADAPT_REL_INCREMENT = 0.10
MAX_HALVINGS = 12


def _adaptive_step(u: Field, t: float, cfg: SimConfig, dt: float, dw: np.ndarray,
                   rng: np.random.Generator, depth: int) -> Field:
    unew = em_step(u, t, cfg, dw, dt)
    if not cfg.adapt or depth >= MAX_HALVINGS:
        return unew
    base = sobolev_norm(u, cfg.s)
    inc = sobolev_norm(unew - u, cfg.s) if not unew.diverged else np.inf
    if inc <= ADAPT_REL_INCREMENT * max(base, 1e-12):
        return unew
    # split the increment with a Brownian bridge and recurse on both halves
    k = dw.shape[0]
    z = rng.standard_normal(k) if k else np.zeros(0)
    dw1 = 0.5 * dw + 0.5 * np.sqrt(dt) * z
    dw2 = dw - dw1
    mid = _adaptive_step(u, t, cfg, 0.5 * dt, dw1, rng, depth + 1)
    if mid.diverged:
        return mid
    return _adaptive_step(mid, t + 0.5 * dt, cfg, 0.5 * dt, dw2, rng, depth + 1)


def simulate_path(cfg: SimConfig, u0: Field) -> PathRecord:
    """Integrate one path to the horizon, blow-up detection or divergence.

    Blow-up is flagged when the monitored quantity ``|u_x|_inf + |H u_x|_inf``
    first crosses ``blowup_threshold``, provided it has doubled at least
    ``blowup_doublings`` times since the start (transient growth guard).
    Deterministic given the config: bit-identical on reruns.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial field lives on the wrong grid")
    rng = np.random.default_rng(np.uint64(cfg.seed))
    n_steps = int(round(cfg.horizon / cfg.dt))
    k = cfg.noise.n_components

    u = dealias(u0)
    times, rows = [], []
    snapshots: list[tuple[float, Field]] = []
    increments = np.zeros((n_steps, k))

    sups = gradient_sups(u)
    q0 = max(sups[0] + sups[1], 1e-12)
    if cfg.blowup_threshold <= sups[0] + sups[1]:
        raise ValueError("blowup_threshold must exceed the initial monitored quantity")
    doublings = 0

    def record(t: float, f: Field, sups: tuple[float, float, float]):
        """``sups`` is ``gradient_sups(f)``."""
        sup_fx, sup_hfx, mlam = sups
        hs = sobolev_norm(f, cfg.s)
        hm1 = sobolev_norm(f, cfg.s - 1.0)
        hm32 = sobolev_norm(f, cfg.s - 1.5)
        times.append(t)
        rows.append((hs, hm1, hm32, sup_fx, sup_hfx, mlam, np.log1p(hm1**2)))

    def finalize(status: str, t_stop: float, taken: int) -> PathRecord:
        diags = {name: np.array([r[i] for r in rows])
                 for i, name in enumerate(DIAGNOSTIC_NAMES)}
        return PathRecord(np.array(times), diags, status, t_stop, snapshots,
                          increments[:taken])

    record(0.0, u, sups)
    if cfg.keep_snapshots:
        snapshots.append((0.0, u))

    t = 0.0
    for i in range(n_steps):
        dw = sample_wiener_increments(k, cfg.dt, rng) if k else np.zeros(0)
        if k:
            increments[i] = dw
        u_next = _adaptive_step(u, t, cfg, cfg.dt, dw, rng, 0)
        t = (i + 1) * cfg.dt

        if u_next.diverged:
            # the last finite state, with the sups taken when it was accepted
            record(t, u, sups)
            return finalize("diverged", t, i + 1)
        u = u_next

        sups = gradient_sups(u)
        q = sups[0] + sups[1]
        while q >= q0 * 2.0 ** (doublings + 1):
            doublings += 1
        if q >= cfg.blowup_threshold and doublings >= cfg.blowup_doublings:
            record(t, u, sups)
            if cfg.keep_snapshots:
                snapshots.append((t, u))
            return finalize("blewup", t, i + 1)

        if (i + 1) % cfg.record_every == 0 or i == n_steps - 1:
            record(t, u, sups)
            if cfg.keep_snapshots:
                snapshots.append((t, u))

    return finalize("completed", t, n_steps)


# -- deterministic low-frequency solver --------------------------------------------


def simulate_low_frequency(u0: Field, horizon: float,
                           dt: float) -> Iterator[tuple[float, Field]]:
    """Classical RK4 pseudospectral solve of ``u_t + (Hu) u_x = 0`` on
    ``u0.grid``, over ``round(horizon / dt)`` steps of size ``dt``.

    Yields ``(t, u)`` at ``t = 0`` and after each step; a step is only taken
    when the next state is asked for.  Raises ``ValueError`` naming the time
    of the first non-finite step.
    """
    def rhs(f: Field) -> Field:
        return -1.0 * transport_product(f)

    u = u0
    yield 0.0, u
    for i in range(int(round(horizon / dt))):
        u = rk4(rhs, u, dt)
        if u.diverged:
            raise ValueError(f"low-frequency solve diverged at t={(i + 1) * dt:.6g}")
        yield (i + 1) * dt, u


# -- initial data factories -----------------------------------------------------------


def blowup_bump(grid: SpectralGrid, f0: float, width: float = 1.0) -> Field:
    """Odd-about-max profile scaled so that ``Lam u0`` equals ``f0`` at the
    argmax of ``u0`` (the quantity driving the transported-maximum bound)."""
    xc = grid.x - 0.5 * grid.period
    prof = np.sin(xc) * np.exp(-(xc**2) / width**2)
    u = dealias(Field.from_samples(grid, prof))
    x0 = argmax_refined(u)
    lam_at_max = evaluate_at(frac_laplacian(u, 1.0), x0)
    if lam_at_max <= 0.0:
        u = -1.0 * u
        x0 = argmax_refined(u)
        lam_at_max = evaluate_at(frac_laplacian(u, 1.0), x0)
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
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    k = np.arange(1, kmax + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=kmax)
    c[k] = 0.5 * k ** (-float(decay)) * np.exp(1j * phases)
    c[-k] = np.conj(c[k])
    f = Field.from_coefficients(grid, c)
    cur = sobolev_norm(f, 0.0)
    return (amplitude / cur) * f if cur > 0 else f
