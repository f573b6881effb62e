"""Concrete noise coefficient families and the Wiener driver.

Each model maps ``(t, u)`` to its diffusion-coefficient field ``h(t, u)``,
driven by one scalar Brownian motion per path (``None`` for the deterministic
equation).  A truncated cylindrical sum ``sum_j c_j g(u) dW_j`` whose
components are all multiples of one field ``g`` equals ``|c|_2 g dB`` in law,
so the general family is that one field.  The two families ``h = a(t, u) u``
with a scalar ``a``, :class:`StrongAlpha` and :class:`LinearB`, also give that
``rate(t, u)``, so the stepper can take their noise exactly.  Models are
immutable and evaluation is pure.

Seeding rule: every random stream of the lab is :func:`stream`, the child
``key`` of ``SeedSequence(seed)``, so streams with different keys are
independent by construction (keyed streams as in Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  The keys are

* on a study seed: ``()`` the data (initial fields, identity samples),
  ``(1,)`` the scalar Monte Carlo, ``(2, j)`` the sweeps of ``global``
  (``q_hat`` j=0, ``k1`` j=1), and ``(0, i)`` the seed of path i
  (:func:`path_seed`);
* on a path seed: ``(0,)`` the Wiener increments (:func:`wiener_increments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    Field,
    apply_multiplier,
    dealias,
    dealiased_with_transport,
    gradient_sups,
    is_dealiased,
    sobolev_norm,
)

__all__ = [
    "ZeroNoise",
    "GeneralH",
    "StrongAlpha",
    "LinearB",
    "InstabilityH",
    "exp_decay",
    "helmholtz_inverse_dx",
    "transport_gradient_powers",
    "stream",
    "path_seed",
    "wiener_increments",
]


def stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream ``key`` of ``seed``: child ``key`` of
    ``SeedSequence(seed)``.  The empty key gives the generator NumPy seeds
    from the bare integer ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def path_seed(seed: int, index: int) -> int:
    """64-bit seed of path ``index`` of study seed ``seed``, drawn from the
    stream ``(0, index)``, so no path runs on a stream of its study seed and
    two ``(seed, index)`` pairs share a path seed only by a 64-bit chance."""
    return stream(seed, 0, index).bit_generator.random_raw()


def wiener_increments(seed: int, dt: float, n: int) -> np.ndarray:
    """The first ``n`` Brownian increments ``sqrt(dt) N(0,1)`` of path seed
    ``seed``, from its stream ``(0,)``: one draw per step, so a prefix of a
    longer draw is the shorter draw."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    return np.sqrt(dt) * stream(seed, 0).standard_normal(n)


# -- shared building blocks ------------------------------------------------------


def helmholtz_inverse_dx(f: Field) -> Field:
    """Apply ``(1 - d_xx)^{-1} d_x``, the multiplier ``i xi / (1 + xi^2)``."""
    return apply_multiplier(f, f.grid.helmholtz_dx_symbol)


def transport_gradient_powers(u: Field, k: int, n: int) -> Field:
    """``(u_x)^k + (H u_x)^n`` with dealiased pointwise powers.

    Exponents 1 and 2 are alias-free under the 2/3 rule; higher powers fold a
    small aliased tail back into the band, so keep k, n <= 2 in production runs.
    A ``u`` inside the band is its own dealiased part, so its cached
    ``gradient_samples`` serve, and the one forward transform here also forms
    its transport product, ready for the first RK4 stage of a step from ``u``
    (:func:`~ccflab.spectral.dealiased_with_transport`).
    """
    if k < 1 or n < 1:
        raise ValueError("exponents must be >= 1")
    v = u if is_dealiased(u) else dealias(u)
    ux, hux = v.gradient_samples
    return Field(u.grid, dealiased_with_transport(v, ux**k + hux**n))


def exp_decay(b0: float, lam: float, t: float) -> float:
    """The linear-noise coefficient ``b(t) = b0 exp(-lam t)``."""
    return b0 * np.exp(-lam * t)


def instability_factor(norm_sigma0: float) -> float:
    """``exp(-1/r)`` continuously extended by 0 at r = 0."""
    if norm_sigma0 <= 0.0:
        return 0.0
    return float(np.exp(-1.0 / norm_sigma0))


# -- model variants --------------------------------------------------------------


@dataclass(frozen=True)
class ZeroNoise:
    """Deterministic equation: no diffusion term."""

    def components(self, t: float, u: Field) -> None:
        return None


@dataclass(frozen=True)
class GeneralH:
    """Cylindrical family ``sum_j c_j q (1-d_xx)^{-1} d_x[(u_x)^k + (H u_x)^n] dW_j``
    over ``n_components`` Brownian motions with weights
    ``c_j = j^{-component_decay}``; in law one Brownian motion of amplitude
    ``|c|_2``."""

    q: float = 1.0
    exponent_k: int = 1
    exponent_n: int = 1
    n_components: int = 8
    component_decay: float = 2.0

    def __post_init__(self):
        if self.exponent_k < 1 or self.exponent_n < 1:
            raise ValueError("exponents must be >= 1")
        if self.n_components < 1:
            raise ValueError("need at least one Wiener component")
        if self.component_decay < 0.0:
            raise ValueError("component_decay must be nonnegative")

    @cached_property
    def amplitude(self) -> float:
        """``|c|_2 = sqrt(sum_{j<=K} j^{-2a})``: exactly 1 at K = 1, and below
        ``pi^2 / sqrt(90) = 1.0404...`` at the default decay 2.  Summed once
        per instance."""
        return math.sqrt(sum(j ** (-2.0 * self.component_decay)
                             for j in range(1, self.n_components + 1)))

    def components(self, t: float, u: Field) -> Field:
        """``q |c|_2 (1-d_xx)^{-1} d_x[(u_x)^k + (H u_x)^n]``."""
        base = helmholtz_inverse_dx(transport_gradient_powers(u, self.exponent_k,
                                                              self.exponent_n))
        return (self.q * self.amplitude) * base


@dataclass(frozen=True)
class StrongAlpha:
    """Fast-growing 1-D noise ``q (1 + |u_x|_inf + |H u_x|_inf)^theta u``."""

    q: float = 1.0
    theta: float = 1.0

    def rate(self, t: float, u: Field) -> float:
        """``q (1 + |u_x|_inf + |H u_x|_inf)^theta``."""
        sup_ux, sup_hux, _ = gradient_sups(u)
        return self.q * (1.0 + sup_ux + sup_hux) ** self.theta

    def components(self, t: float, u: Field) -> Field:
        """``rate(t, u) u``."""
        return self.rate(t, u) * u

    def validate(self, q_hat: float | None = None):
        """Check the admissible-coefficient condition.

        Either ``theta > 1/2`` with ``q^2 > 0``, or ``theta = 1/2`` with
        ``q^2 > 2 Q`` where Q is the transport-pairing constant.  The latter
        branch needs an empirical estimate ``q_hat`` of Q and is a heuristic
        check, not a proof.  ``q`` is constant, so its infimum is its value.
        """
        q2 = self.q ** 2
        if not q2 > 0.0:
            raise ValueError("q^2 must be bounded away from zero")
        if self.theta > 0.5:
            return self
        if self.theta == 0.5:
            if q_hat is None:
                raise ValueError("theta = 1/2 requires an empirical pairing "
                                 "constant estimate (heuristic check)")
            if q2 <= 2.0 * q_hat:
                raise ValueError(f"theta = 1/2 needs inf q^2 > 2*Q_hat = {2*q_hat:.4g}, "
                                 f"got {q2:.4g}")
            return self
        raise ValueError("theta must be >= 1/2")


@dataclass(frozen=True)
class LinearB:
    """Linear noise ``b(t) u`` with ``b(t) = b0 exp(-lam t)`` and ``b^2``
    bounded by ``b_star``."""

    b0: float = 1.0
    lam: float = 1.0
    b_star: float = 1.0

    def __post_init__(self):
        if self.b_star <= 0.0:
            raise ValueError("b_star must be positive")

    def rate(self, t: float, u: Field) -> float:
        """``b(t)``."""
        return exp_decay(self.b0, self.lam, t)

    def components(self, t: float, u: Field) -> Field:
        """``rate(t, u) u = b(t) u``."""
        return self.rate(t, u) * u

    def validate(self):
        """Check ``0 <= b(t)`` and ``b(t)^2 < b_star`` for all ``t >= 0``: with
        ``b = b0 exp(-lam t)`` the sup of ``b^2`` is ``b0^2`` for ``lam >= 0``
        and unbounded for ``lam < 0``, ``b0 > 0``."""
        if self.b0 < 0.0:
            raise ValueError("b(t) must be nonnegative")
        if self.b0**2 >= self.b_star or (self.lam < 0.0 and self.b0 > 0.0):
            raise ValueError("b(t)^2 must stay below b_star for all t >= 0")
        return self


@dataclass(frozen=True)
class InstabilityH:
    """Weak 1-D noise with the vanishing factor ``exp(-1/|u|_{H^sigma0})``."""

    q: float = 1.0
    exponent_k: int = 1
    exponent_n: int = 1
    sigma0: float = 1.6

    def __post_init__(self):
        if not 1.5 < self.sigma0 < 1.75:
            raise ValueError("sigma0 must lie in (3/2, 7/4)")
        if self.exponent_k < 1 or self.exponent_n < 1:
            raise ValueError("exponents must be >= 1")

    def components(self, t: float, u: Field) -> Field:
        """``q exp(-1/|u|_{H^sigma0}) (1-d_xx)^{-1} d_x[(u_x)^k + (H u_x)^n]``."""
        factor = self.q * instability_factor(sobolev_norm(u, self.sigma0))
        if factor == 0.0:
            return Field.zeros(u.grid)
        base = helmholtz_inverse_dx(transport_gradient_powers(u, self.exponent_k,
                                                              self.exponent_n))
        return factor * base


NoiseModel = ZeroNoise | GeneralH | StrongAlpha | LinearB | InstabilityH
