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

Each field stores its envelopes as one ``(max_carrier + 1, N)`` coefficient
array, so every transform is one stacked FFT along the last axis and each
carrier basis caches its shifted multiplier symbols (read-only).  Transform
budget: one ``ifft`` per :attr:`ModulatedField.phys`, 3 calls per
:func:`mod_product` of two fields whose samples are not yet cached, and 2 per
:func:`mod_transport_product`, the right-hand side of the transport step.
Norms take none; :func:`carrier_norms` reduces a batch of stacks at once.
The defect integrand of :mod:`ccflab.instability` makes no generic product:
its carrier rows are in closed form, at 2 calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import Field, SpectralGrid, _read_only

__all__ = ["CarrierBasis", "ModulatedField", "modulated_norm", "carrier_norms",
           "apply_symbol", "mod_product", "mod_transport_product", "mod_derivative",
           "mod_hilbert", "mod_helmholtz_inverse_dx", "to_dense_field", "packet",
           "carrier0"]


@dataclass(frozen=True)
class CarrierBasis:
    """Envelope grid plus the fast carrier wavenumber.

    The symbol stacks have one row per carrier ``c = 0..max_carrier``,
    evaluated at the shifted frequencies ``c n + xi``; they are built once
    and shared read-only.
    """

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

    @cached_property
    def xi(self) -> np.ndarray:
        """Shifted frequencies ``c n + xi``."""
        c = np.arange(self.max_carrier + 1)[:, None]
        return _read_only(c * self.carrier + self.grid.wavenumbers)

    @cached_property
    def derivative_symbol(self) -> np.ndarray:
        """``i xi`` at the shifted frequencies."""
        return _read_only(1j * self.xi)

    @cached_property
    def hilbert_symbol(self) -> np.ndarray:
        """``i sgn(xi)`` at the shifted frequencies."""
        return _read_only(1j * np.sign(self.xi))

    @cached_property
    def helmholtz_dx_symbol(self) -> np.ndarray:
        """``i xi / (1 + xi^2)`` at the shifted frequencies."""
        return _read_only(1j * self.xi / (1.0 + self.xi**2))

    @cached_property
    def transport_symbols(self) -> np.ndarray:
        """``(2, max_carrier + 1, N)``: the Hilbert and derivative stacks."""
        return _read_only(np.stack([self.hilbert_symbol, self.derivative_symbol]))


class ModulatedField:
    """Immutable ``(max_carrier + 1, N)`` stack of complex envelope
    coefficients, one row per carrier 0..max_carrier."""

    __slots__ = ("basis", "_coeffs", "_phys")

    def __init__(self, basis: CarrierBasis, coeffs: np.ndarray):
        self.basis = basis
        self._coeffs = coeffs
        self._phys = None

    @classmethod
    def zeros(cls, basis: CarrierBasis) -> "ModulatedField":
        return cls(basis, np.zeros((basis.max_carrier + 1, basis.grid.n_modes),
                                   dtype=np.complex128))

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def phys(self) -> np.ndarray:
        """Envelope samples, one row per carrier (one stacked ``ifft``)."""
        if self._phys is None:
            self._phys = np.fft.ifft(self._coeffs * self.basis.grid.n_modes, axis=-1)
        return self._phys

    @property
    def diverged(self) -> bool:
        return not np.all(np.isfinite(self._coeffs))

    def __add__(self, other: "ModulatedField") -> "ModulatedField":
        return ModulatedField(self.basis, self._coeffs + other._coeffs)

    def __sub__(self, other: "ModulatedField") -> "ModulatedField":
        return ModulatedField(self.basis, self._coeffs - other._coeffs)

    def __mul__(self, scalar: float) -> "ModulatedField":
        return ModulatedField(self.basis, self._coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ModulatedField":
        return ModulatedField(self.basis, -self._coeffs)


def carrier0(basis: CarrierBasis, f: Field) -> ModulatedField:
    """Lift a plain real field onto the zero carrier."""
    if f.grid != basis.grid:
        raise ValueError("field lives on the wrong envelope grid")
    mf = ModulatedField.zeros(basis)
    mf.coeffs[0] = f.coefficients
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
    mf.coeffs[1] = np.fft.fft(env) / n
    return mf


def apply_symbol(mf: ModulatedField, symbols: np.ndarray) -> ModulatedField:
    """Apply a multiplier given as a stack of per-carrier symbol rows, such
    as :attr:`CarrierBasis.hilbert_symbol`."""
    return ModulatedField(mf.basis, symbols * mf.coeffs)


def mod_derivative(mf: ModulatedField) -> ModulatedField:
    return apply_symbol(mf, mf.basis.derivative_symbol)


def mod_hilbert(mf: ModulatedField) -> ModulatedField:
    return apply_symbol(mf, mf.basis.hilbert_symbol)


def mod_helmholtz_inverse_dx(mf: ModulatedField) -> ModulatedField:
    return apply_symbol(mf, mf.basis.helmholtz_dx_symbol)


def _carrier_product(basis: CarrierBasis, pa: np.ndarray, pb: np.ndarray) -> ModulatedField:
    """Carrier algebra of two sample stacks; one stacked forward transform."""
    cmax = basis.max_carrier
    grid = basis.grid
    n = grid.n_modes
    # carrier -c carries the conjugate envelope of carrier c
    ca, cb = np.conj(pa), np.conj(pb)
    acc = np.zeros((cmax + 1, n), dtype=np.complex128)
    for cout in range(cmax + 1):
        for c1 in range(cout - cmax, cmax + 1):
            c2 = cout - c1
            acc[cout] += (pa[c1] if c1 >= 0 else ca[-c1]) * (pb[c2] if c2 >= 0 else cb[-c2])
    acc[0] = acc[0].real  # conjugate pairs cancel
    c = np.fft.fft(acc, axis=-1) / n
    c[:, ~grid.dealias_mask] = 0.0
    return ModulatedField(basis, c)


def mod_product(a: ModulatedField, b: ModulatedField) -> ModulatedField:
    """Pointwise product with carrier algebra; envelopes dealiased, harmonics
    beyond ``max_carrier`` dropped."""
    if b.basis != a.basis:
        raise ValueError("operands live on different carrier bases")
    return _carrier_product(a.basis, a.phys, b.phys)


def mod_transport_product(u: ModulatedField) -> ModulatedField:
    """Dealiased ``(H u) u_x``: one inverse transform of the Hilbert and
    derivative stacks together, and one forward transform.

    Bit-identical to ``mod_product(mod_hilbert(u), mod_derivative(u))``.
    """
    basis = u.basis
    hu, ux = np.fft.ifft((basis.transport_symbols * u.coeffs) * basis.grid.n_modes,
                         axis=-1)
    return _carrier_product(basis, hu, ux)


@lru_cache(maxsize=512)
def _band_weights(basis: CarrierBasis, r: float) -> np.ndarray:
    # the factor 2 of the two-sided carriers c >= 1 is folded in (exact)
    w = (1.0 + basis.xi**2) ** r
    w[1:] *= 2.0
    return _read_only(w)


def carrier_norms(basis: CarrierBasis, coeffs: np.ndarray, r: float) -> np.ndarray:
    """H^r norms of a batch of coefficient stacks of shape
    ``(..., max_carrier + 1, N)``, via the disjoint carrier bands."""
    w = _band_weights(basis, float(r))
    bands = np.sum(w * np.abs(coeffs) ** 2, axis=-1) * basis.grid.period
    # add the bands in carrier order (cumsum is sequential by definition)
    return np.sqrt(np.cumsum(bands, axis=-1)[..., -1])


def modulated_norm(mf: ModulatedField, r: float) -> float:
    """H^r norm via the disjoint carrier bands (see module docstring)."""
    return float(carrier_norms(mf.basis, mf.coeffs, r))


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
    up = np.zeros((mf.basis.max_carrier + 1, m), dtype=np.complex128)
    up[:, : n // 2] = mf.coeffs[:, : n // 2]
    up[:, m - n // 2 + 1:] = mf.coeffs[:, n // 2 + 1:]
    env = np.fft.ifft(up * m, axis=-1)
    c = np.arange(mf.basis.max_carrier + 1)[:, None]
    bands = (env * np.exp(1j * c * mf.basis.carrier * dense.x)).real
    bands[1:] *= 2.0
    return Field.from_samples(dense, bands.sum(axis=0))
