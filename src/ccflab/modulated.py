"""Carrier-envelope representation of wave-packet fields.

The high/low frequency approximate solutions are superpositions of slowly
varying envelopes riding integer multiples of one fast carrier ``n``:

    u(x) = Re E_0(x) + sum_{c>=1} 2 Re[ E_c(x) exp(i c n x) ].

Envelopes live on a shared coarse periodic grid; all Fourier-multiplier
operators act exactly at the shifted frequencies ``c n + xi`` and products
follow the carrier algebra (harmonics beyond ``max_carrier`` are truncated,
which costs O(amplitude^3) here since the packets are tiny).  This makes the
cost of a time step independent of ``n``, while a dense grid would need
O(n^{1+delta}) points; agreement with the dense representation is checked in
the tests at small ``n``.

Because each carrier band is disjoint (the envelope bandwidth stays below
``n/2``), Sobolev norms split across carriers:

    |u|^2_{H^r} = sum_k w(xi_k) |E0_k|^2 L + sum_{c>=1} 2 sum_k w(c n + xi_k) |Ec_k|^2 L,

with ``w(xi) = (1+xi^2)^r``.  The represented object is the compactly
supported packet on the line (the carrier need not be commensurate with the
envelope period).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import Field, SpectralGrid

__all__ = ["CarrierBasis", "ModulatedField", "modulated_norm", "apply_symbol",
           "mod_product", "mod_derivative", "mod_hilbert", "mod_helmholtz_inverse_dx",
           "to_dense_field", "packet", "carrier0"]


@dataclass(frozen=True)
class CarrierBasis:
    """Envelope grid plus the fast carrier wavenumber."""

    grid: SpectralGrid
    carrier: float
    max_carrier: int = 2

    def __post_init__(self):
        if self.carrier <= 0.0:
            raise ValueError("carrier wavenumber must be positive")
        if self.max_carrier < 1:
            raise ValueError("max_carrier must be >= 1")
        xi_band = 2.0 * np.pi * self.grid.dealias_keep / self.grid.period
        if xi_band >= 0.5 * self.carrier:
            raise ValueError("envelope band overlaps neighbouring carrier bands; "
                             "increase the carrier or shrink the envelope grid")


class ModulatedField:
    """Immutable stack of complex envelopes, one per carrier 0..max_carrier."""

    __slots__ = ("basis", "_coeffs", "_phys")

    def __init__(self, basis: CarrierBasis, coeffs: list[np.ndarray], _phys=None):
        self.basis = basis
        self._coeffs = coeffs
        self._phys = _phys

    @classmethod
    def zeros(cls, basis: CarrierBasis) -> "ModulatedField":
        n = basis.grid.n_modes
        return cls(basis, [np.zeros(n, dtype=np.complex128)
                           for _ in range(basis.max_carrier + 1)])

    @property
    def coeffs(self) -> list[np.ndarray]:
        return self._coeffs

    @property
    def phys(self) -> list[np.ndarray]:
        if self._phys is None:
            n = self.basis.grid.n_modes
            self._phys = [np.fft.ifft(c * n) for c in self._coeffs]
        return self._phys

    @property
    def diverged(self) -> bool:
        return not all(np.all(np.isfinite(c)) for c in self._coeffs)

    def __add__(self, other: "ModulatedField") -> "ModulatedField":
        return ModulatedField(self.basis, [a + b for a, b in
                                           zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "ModulatedField") -> "ModulatedField":
        return ModulatedField(self.basis, [a - b for a, b in
                                           zip(self._coeffs, other._coeffs)])

    def __mul__(self, scalar: float) -> "ModulatedField":
        return ModulatedField(self.basis, [c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def __neg__(self) -> "ModulatedField":
        return ModulatedField(self.basis, [-c for c in self._coeffs])


def carrier0(basis: CarrierBasis, f: Field) -> ModulatedField:
    """Lift a plain real field onto the zero carrier."""
    if f.grid != basis.grid:
        raise ValueError("field lives on the wrong envelope grid")
    mf = ModulatedField.zeros(basis)
    mf.coeffs[0][:] = f.coefficients
    return mf


def packet(basis: CarrierBasis, envelope_samples: np.ndarray,
           phase: complex = 1.0) -> ModulatedField:
    """Real packet ``Re[envelope * phase * exp(i n x)]`` on the first carrier.

    The stored envelope is ``envelope * phase / 2`` so that the two-sided
    representation reproduces the cosine convention: with ``phase = exp(-i m t)``
    and a real envelope this is ``envelope * cos(n x - m t)``.
    """
    mf = ModulatedField.zeros(basis)
    n = basis.grid.n_modes
    env = np.asarray(envelope_samples, dtype=np.complex128) * (0.5 * phase)
    mf.coeffs[1][:] = np.fft.fft(env) / n
    return mf


def _shifted_xi(basis: CarrierBasis, c: int) -> np.ndarray:
    return c * basis.carrier + basis.grid.wavenumbers


def apply_symbol(mf: ModulatedField, symbol) -> ModulatedField:
    """Apply a Fourier multiplier ``symbol(xi_total)`` carrier by carrier."""
    out = [symbol(_shifted_xi(mf.basis, c)) * mf.coeffs[c]
           for c in range(mf.basis.max_carrier + 1)]
    return ModulatedField(mf.basis, out)


def mod_derivative(mf: ModulatedField) -> ModulatedField:
    return apply_symbol(mf, lambda xi: 1j * xi)


def mod_hilbert(mf: ModulatedField) -> ModulatedField:
    return apply_symbol(mf, lambda xi: 1j * np.sign(xi))


def mod_helmholtz_inverse_dx(mf: ModulatedField) -> ModulatedField:
    return apply_symbol(mf, lambda xi: 1j * xi / (1.0 + xi**2))


def mod_product(a: ModulatedField, b: ModulatedField) -> ModulatedField:
    """Pointwise product with carrier algebra; envelopes dealiased, harmonics
    beyond ``max_carrier`` dropped."""
    basis = a.basis
    if b.basis != basis:
        raise ValueError("operands live on different carrier bases")
    cmax = basis.max_carrier
    grid = basis.grid
    n = grid.n_modes
    pa, pb = a.phys, b.phys

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
            acc = acc.real.astype(np.complex128)  # conjugate pairs cancel
        c = np.fft.fft(acc) / n
        c[~grid.dealias_mask] = 0.0
        out.append(c)
    return ModulatedField(basis, out)


@lru_cache(maxsize=512)
def _band_weights(basis: CarrierBasis, c: int, r: float) -> np.ndarray:
    return (1.0 + _shifted_xi(basis, c) ** 2) ** r


def modulated_norm(mf: ModulatedField, r: float) -> float:
    """H^r norm via the disjoint carrier bands (see module docstring)."""
    grid = mf.basis.grid
    total = 0.0
    for c in range(mf.basis.max_carrier + 1):
        w = _band_weights(mf.basis, c, float(r))
        contrib = float(np.sum(w * np.abs(mf.coeffs[c]) ** 2) * grid.period)
        total += contrib if c == 0 else 2.0 * contrib
    return float(np.sqrt(total))


def to_dense_field(mf: ModulatedField, dense: SpectralGrid) -> Field:
    """Exact dense-grid samples of the represented function.

    Envelopes are upsampled spectrally (the dense grid must share the period
    and be a multiple refinement of the envelope grid); the carrier phases are
    evaluated directly, so the result is meaningful even when the carrier is
    not commensurate with the period, as long as the envelopes vanish at the
    window edges.
    """
    grid = mf.basis.grid
    if abs(dense.period - grid.period) > 1e-12 * grid.period:
        raise ValueError("dense grid must share the envelope period")
    if dense.n_modes % grid.n_modes != 0:
        raise ValueError("dense grid must refine the envelope grid")
    n, m = grid.n_modes, dense.n_modes
    x = dense.x
    total = np.zeros(m)
    for c in range(mf.basis.max_carrier + 1):
        coeffs = mf.coeffs[c]
        up = np.zeros(m, dtype=np.complex128)
        up[: n // 2] = coeffs[: n // 2]
        up[m - n // 2 + 1:] = coeffs[n // 2 + 1:]
        env = np.fft.ifft(up * m)
        if c == 0:
            total += env.real
        else:
            total += 2.0 * (env * np.exp(1j * c * mf.basis.carrier * x)).real
    return Field.from_samples(dense, total)
