"""Concrete noise coefficient families and the truncated Wiener driver.

Each model maps ``(t, u)`` to the list of diffusion-coefficient fields, one per
Brownian component.  The cylindrical driver is truncated to K scalar Brownian
motions with component weights ``c_j = j^{-a}`` (square-summable tail); the
single-driver families carry exactly one component.  Models are immutable and
evaluation is pure; the RNG for increments is owned by the caller, one stream
per path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Field,
    apply_multiplier,
    dealias,
    gradient_sups,
    multiplier_samples,
    sobolev_norm,
)

__all__ = [
    "ConstantFn",
    "ExpDecayFn",
    "WienerSpec",
    "ZeroNoise",
    "GeneralH",
    "StrongAlpha",
    "LinearB",
    "InstabilityH",
    "helmholtz_inverse_dx",
    "transport_gradient_powers",
    "sample_wiener_increments",
    "hilbert_schmidt_norm",
]


# -- picklable scalar time functions ------------------------------------------


@dataclass(frozen=True)
class ConstantFn:
    """Constant scalar function of time."""

    value: float = 1.0

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class ExpDecayFn:
    """``amplitude * exp(-rate * t)``."""

    amplitude: float = 1.0
    rate: float = 1.0

    def __call__(self, t: float) -> float:
        return self.amplitude * np.exp(-self.rate * t)


# -- Wiener truncation ---------------------------------------------------------


@dataclass(frozen=True)
class WienerSpec:
    """Truncation of the cylindrical Wiener process to K scalar drivers.

    ``component_decay`` is the exponent a in the weights ``c_j = j^{-a}``;
    any a >= 0 keeps the squared weights summable for the truncated sum, and
    the default a=2 gives a comfortably small tail.
    """

    n_components: int = 8
    component_decay: float = 2.0

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("need at least one Wiener component")
        if self.component_decay < 0.0:
            raise ValueError("component_decay must be nonnegative")

    @property
    def coefficients(self) -> np.ndarray:
        j = np.arange(1, self.n_components + 1, dtype=np.float64)
        return j ** (-self.component_decay)


def sample_wiener_increments(n_components: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian increments ``sqrt(dt) * N(0,1)``, one per component."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return np.zeros(n_components)
    return np.sqrt(dt) * rng.standard_normal(n_components)


# -- shared building blocks ------------------------------------------------------


def helmholtz_inverse_dx(f: Field) -> Field:
    """Apply ``(1 - d_xx)^{-1} d_x``, the multiplier ``i xi / (1 + xi^2)``."""
    return apply_multiplier(f, f.grid.helmholtz_dx_symbol)


def transport_gradient_powers(u: Field, k: int, n: int) -> Field:
    """``(u_x)^k + (H u_x)^n`` with dealiased pointwise powers.

    Exponents 1 and 2 are alias-free under the 2/3 rule; higher powers fold a
    small aliased tail back into the band, so keep k, n <= 2 in production runs.
    """
    if k < 1 or n < 1:
        raise ValueError("exponents must be >= 1")
    ux, hux = multiplier_samples(dealias(u), u.grid.gradient_symbols)
    return dealias(Field.from_samples(u.grid, ux**k + hux**n))


def hilbert_schmidt_norm(components: list[Field], s: float) -> float:
    """Hilbert-Schmidt norm of the coefficient: root sum of squared H^s norms."""
    return float(np.sqrt(sum(sobolev_norm(c, s) ** 2 for c in components)))


def instability_factor(norm_sigma0: float) -> float:
    """``exp(-1/r)`` continuously extended by 0 at r = 0."""
    if norm_sigma0 <= 0.0:
        return 0.0
    return float(np.exp(-1.0 / norm_sigma0))


# -- model variants --------------------------------------------------------------


@dataclass(frozen=True)
class ZeroNoise:
    """Deterministic equation: no diffusion term."""

    n_components: int = 0

    def components(self, t: float, u: Field) -> list[Field]:
        return []


@dataclass(frozen=True)
class GeneralH:
    """Cylindrical family ``c_j q(t) (1-d_xx)^{-1} d_x[(u_x)^k + (H u_x)^n]``."""

    q_fn: ConstantFn = field(default_factory=ConstantFn)
    exponent_k: int = 1
    exponent_n: int = 1
    wiener: WienerSpec = field(default_factory=WienerSpec)

    def __post_init__(self):
        if self.exponent_k < 1 or self.exponent_n < 1:
            raise ValueError("exponents must be >= 1")

    @property
    def n_components(self) -> int:
        return self.wiener.n_components

    def components(self, t: float, u: Field) -> list[Field]:
        """``c_j q(t) (1-d_xx)^{-1} d_x[(u_x)^k + (H u_x)^n]``, j = 1..K."""
        base = helmholtz_inverse_dx(transport_gradient_powers(u, self.exponent_k,
                                                              self.exponent_n))
        base = self.q_fn(t) * base
        return [c * base for c in self.wiener.coefficients]


@dataclass(frozen=True)
class StrongAlpha:
    """Fast-growing 1-D noise ``q(t)(1 + |u_x|_inf + |H u_x|_inf)^theta u``."""

    q_fn: ConstantFn = field(default_factory=ConstantFn)
    theta: float = 1.0
    n_components: int = 1

    def components(self, t: float, u: Field) -> list[Field]:
        """``[q(t) (1 + |u_x|_inf + |H u_x|_inf)^theta u]``."""
        sup_ux, sup_hux, _ = gradient_sups(u)
        scale = self.q_fn(t) * (1.0 + sup_ux + sup_hux) ** self.theta
        return [scale * u]

    def validate(self, horizon: float = 10.0, q_hat: float | None = None,
                 samples: int = 2048):
        """Check the admissible-coefficient condition.

        Either ``theta > 1/2`` with ``inf q^2 > 0``, or ``theta = 1/2`` with
        ``inf q^2 > 2 Q`` where Q is the transport-pairing constant.  The
        latter branch needs an empirical estimate ``q_hat`` of Q and is a
        heuristic check, not a proof.
        """
        ts = np.linspace(0.0, horizon, samples)
        q2 = np.array([self.q_fn(t) ** 2 for t in ts])
        q_lo, q_hi = float(q2.min()), float(q2.max())
        if not q_hi >= q_lo > 0.0:
            raise ValueError("q(t)^2 must be bounded away from zero")
        if self.theta > 0.5:
            return self
        if self.theta == 0.5:
            if q_hat is None:
                raise ValueError("theta = 1/2 requires an empirical pairing "
                                 "constant estimate (heuristic check)")
            if q_lo <= 2.0 * q_hat:
                raise ValueError(f"theta = 1/2 needs inf q^2 > 2*Q_hat = {2*q_hat:.4g}, "
                                 f"got {q_lo:.4g}")
            return self
        raise ValueError("theta must be >= 1/2")


@dataclass(frozen=True)
class LinearB:
    """Linear noise ``b(t) u`` with ``b^2`` bounded by ``b_star``."""

    b_fn: ExpDecayFn = field(default_factory=ExpDecayFn)
    b_star: float = 1.0
    n_components: int = 1

    def __post_init__(self):
        if self.b_star <= 0.0:
            raise ValueError("b_star must be positive")

    def components(self, t: float, u: Field) -> list[Field]:
        """``[b(t) u]``."""
        return [self.b_fn(t) * u]

    def validate(self, horizon: float = 10.0, samples: int = 4096):
        ts = np.linspace(0.0, horizon, samples)
        b = np.array([self.b_fn(t) for t in ts])
        if np.any(b < 0.0):
            raise ValueError("b(t) must be nonnegative")
        if np.any(b**2 >= self.b_star):
            raise ValueError("sampled b(t)^2 must stay below b_star on the horizon")
        return self


@dataclass(frozen=True)
class InstabilityH:
    """Weak 1-D noise with the vanishing factor ``exp(-1/|u|_{H^sigma0})``."""

    q_fn: ConstantFn = field(default_factory=ConstantFn)
    exponent_k: int = 1
    exponent_n: int = 1
    sigma0: float = 1.6
    n_components: int = 1

    def __post_init__(self):
        if not 1.5 < self.sigma0 < 1.75:
            raise ValueError("sigma0 must lie in (3/2, 7/4)")
        if self.exponent_k < 1 or self.exponent_n < 1:
            raise ValueError("exponents must be >= 1")

    def components(self, t: float, u: Field) -> list[Field]:
        """``[q(t) exp(-1/|u|_{H^sigma0}) (1-d_xx)^{-1} d_x[(u_x)^k + (H u_x)^n]]``."""
        factor = self.q_fn(t) * instability_factor(sobolev_norm(u, self.sigma0))
        if factor == 0.0:
            return [Field.zeros(u.grid)]
        base = helmholtz_inverse_dx(transport_gradient_powers(u, self.exponent_k,
                                                              self.exponent_n))
        return [factor * base]


NoiseModel = ZeroNoise | GeneralH | StrongAlpha | LinearB | InstabilityH
