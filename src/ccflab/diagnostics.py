"""Monitored functionals: blow-up criterion quantity, Lyapunov functional,
empirical transport-pairing constant, and the strong-noise drift condition.

The Lyapunov functional is ``G(x) = log(1+x)`` applied to the squared
H^{s-1} normramp; the drift condition certifies that the strong noise cancels
the transport growth at states with a large gradient quantity.  The pairing
constant Q in

    |((Hu) u_x, u)_{H^{s-1}}| <= Q (|u_x|_inf + |H u_x|_inf) |u|^2_{H^{s-1}}

has no explicit analytic value, so an empirical maximum over random
band-limited fields stands in for it; everything downstream that consumes Q
is therefore a statistical check, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import PathRecord
from .noise import StrongAlpha
from .spectral import (
    Field,
    SpectralGrid,
    gradient_sups,
    random_band_limited,
    sobolev_inner,
    sobolev_norm,
    transport_product,
)

__all__ = [
    "LyapunovSpec",
    "blowup_quantity",
    "lyapunov_value",
    "transport_pairing",
    "estimate_commutator_constant",
    "lyapunov_drift_residual",
    "fit_k1_from_sweep",
    "lyapunov_growth_check",
]

# completed paths the growth check needs for a meaningful standard error
MIN_GROWTH_PATHS = 8


@dataclass(frozen=True)
class LyapunovSpec:
    """Constants for the drift condition and growth check."""

    k1: float
    k2: float
    q_hat: float
    s: float

    def __post_init__(self):
        if min(self.k1, self.k2, self.q_hat) <= 0.0:
            raise ValueError("k1, k2 and q_hat must be positive")


def blowup_quantity(u: Field) -> float:
    """``|u_x|_inf + |H u_x|_inf``, the quantity whose explosion marks blow-up."""
    sup_ux, sup_hux, _ = gradient_sups(u)
    return sup_ux + sup_hux


def lyapunov_value(u: Field, s: float) -> float:
    """``log(1 + |u|^2_{H^{s-1}})``."""
    return float(np.log1p(sobolev_norm(u, s - 1.0) ** 2))


def transport_pairing(u: Field, s_pair: float) -> float:
    """Inner product ``((Hu) u_x, u)_{H^{s_pair}}`` with a dealiased product."""
    return sobolev_inner(transport_product(u), u, s_pair)


def estimate_commutator_constant(samples: int, s: float,
                                 rng: np.random.Generator) -> float:
    """Empirical pairing constant: running max of the normalized pairing ratio
    over random fields on the dealiased band of a 256-mode grid.

    Fields with a vanishing gradient quantity (< 1e-8) are skipped.  The
    estimate is reproducible given the generator state and nondecreasing in
    the sample count.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    grid = SpectralGrid(n_modes=256)
    q_hat = 0.0
    for _ in range(samples):
        u = random_band_limited(grid, grid.dealias_keep, rng,
                                rms=rng.uniform(0.05, 2.0), decay=rng.uniform(0.8, 2.5))
        bq = blowup_quantity(u)
        if bq < 1e-8:
            continue
        denom = bq * sobolev_norm(u, s - 1.0) ** 2
        q_hat = max(q_hat, abs(transport_pairing(u, s - 1.0)) / denom)
    return q_hat


def _drift_condition_sides(u: Field, t: float, model: StrongAlpha,
                           spec: LyapunovSpec) -> tuple[float, float]:
    y2 = sobolev_norm(u, spec.s - 1.0) ** 2
    g = np.log1p(y2)
    gp = 1.0 / (1.0 + y2)
    gpp = -1.0 / (1.0 + y2) ** 2
    (alpha,) = model.components(t, u)
    pairing = abs(sobolev_inner(alpha, u, spec.s - 1.0))
    m_t = 2.0 * spec.q_hat * blowup_quantity(u) * y2 + sobolev_norm(alpha, spec.s - 1.0) ** 2
    lhs = gp * m_t + 2.0 * gpp * pairing**2
    rhs = spec.k1 - spec.k2 * (gp * pairing) ** 2 / (1.0 + g)
    return lhs, rhs


def lyapunov_drift_residual(u: Field, t: float, model: StrongAlpha,
                            spec: LyapunovSpec) -> float:
    """LHS minus RHS of the drift condition; a negative value certifies it at
    ``(t, u)``."""
    lhs, rhs = _drift_condition_sides(u, t, model, spec)
    return lhs - rhs


def fit_k1_from_sweep(model: StrongAlpha, spec_s: float, q_hat: float, k2: float,
                      rng: np.random.Generator, samples: int = 400) -> float:
    """Smallest admissible constant (with head-room) over a random state sweep
    on a 256-mode grid.

    Returns ``1.1 * max(eps, sup_states [LHS + K2 penalty])`` so that the
    drift condition holds with this K1 at every sampled state.
    """
    grid = SpectralGrid(n_modes=256)
    probe = LyapunovSpec(k1=1.0, k2=k2, q_hat=q_hat, s=spec_s)
    worst = 0.0
    for _ in range(samples):
        u = random_band_limited(grid, grid.dealias_keep, rng,
                                rms=rng.uniform(0.01, 8.0),
                                decay=rng.uniform(0.8, 2.5))
        lhs, rhs = _drift_condition_sides(u, 0.0, model, probe)
        # rhs = k1 - penalty, so lhs + penalty is the k1 needed at this state
        worst = max(worst, lhs + (1.0 - rhs))
    return 1.1 * max(worst, 1e-6)


def lyapunov_growth_check(records: list[PathRecord],
                          spec: LyapunovSpec) -> tuple[float, bool]:
    """Linear-growth bound on the expected Lyapunov value of an ensemble.

    Compares the ensemble mean of ``log(1 + |u(t)|^2_{H^{s-1}})`` against the
    line ``value(0) + K1 t``; passes when the mean curve stays below the line
    within two standard errors at every recorded time.  Returns the fitted
    slope of the mean curve and the pass flag.
    """
    completed = [r for r in records if r.status == "completed"]
    if len(completed) < MIN_GROWTH_PATHS:
        raise ValueError(f"need at least {MIN_GROWTH_PATHS} completed paths, "
                         f"got {len(completed)}")
    times = completed[0].times
    for r in completed[1:]:
        if r.times.shape != times.shape or not np.allclose(r.times, times):
            raise ValueError("records do not share a common time grid")
    curves = np.stack([r.diagnostics["lyapunov"] for r in completed])
    mean = curves.mean(axis=0)
    sem = curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])
    line = mean[0] + spec.k1 * times
    passed = bool(np.all(mean <= line + 2.0 * sem + 1e-12))
    slope = float(np.polyfit(times, mean, 1)[0]) if times.size > 1 else 0.0
    return slope, passed
