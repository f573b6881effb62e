"""Carrier-envelope representation of wave-packet fields.

The high/low frequency approximate solutions are superpositions of slowly
varying envelopes riding integer multiples of one fast carrier ``n``:

    u(x) = Re E_0(x) + sum_{c>=1} 2 Re[ E_c(x) exp(i c n x) ].

Envelopes live on a shared coarse periodic grid; all Fourier-multiplier
operators act exactly at the shifted frequencies ``c n + xi`` and products
follow the carrier algebra (harmonics beyond carrier 2 are truncated,
which costs O(amplitude^3) here since the packets are tiny).  This makes the
cost of a time step independent of ``n``, while a dense grid would need
O(n^{1+delta}) points; agreement with the dense representation is checked in
the tests at small ``n``, which keep the dense upsampling as their reference.

Because each carrier band is disjoint (the envelope bandwidth stays below
``n/2``), Sobolev norms split across carriers:

    |u|^2_{H^r} = sum_k w(xi_k) |E0_k|^2 L + sum_{c>=1} 2 sum_k w(c n + xi_k) |Ec_k|^2 L,

with ``w(xi) = (1+xi^2)^r``.  The represented object is the compactly
supported packet on the line (the carrier need not be commensurate with the
envelope period).

Each field stores its envelopes as one ``(CARRIER_ROWS, N)`` coefficient
array of complex envelopes in full FFT order (the envelopes are not real, so
all N modes are kept), so every transform is one stacked complex FFT along
the last axis and each carrier basis caches its own FFT-order frequencies,
the slice :attr:`CarrierBasis.aliased_modes` of the slots outside the dealias
band, and shifted multiplier symbols (read-only).  A real field of
:mod:`ccflab.spectral` keeps only its half spectrum; :func:`carrier0` is the
one place where it is expanded into an envelope row.

Every envelope transform is normalized forward (``norm="forward"``), as a
real field's is: the ``fft`` to coefficients applies the ``1/N`` and the
``ifft`` to samples none.  N is a power of two, so this equals scaling by
hand bit for bit wherever no value is subnormal.  :func:`dealiased_envelopes`
is the one masked forward transform.  Transform budget: one ``ifft`` per
:attr:`ModulatedField.phys`, 3 calls per :func:`mod_product` of two fields
whose samples are not yet cached, and 2 per :func:`mod_transport_product`,
the right-hand side of the transport step; each product ends in one
:func:`dealiased_envelopes`.  :func:`packet` takes one unmasked ``fft`` (its
modes outside the band are tiny, not zero).  Norms take none;
:func:`carrier_norms` reduces a batch of stacks at once.  The defect
integrand of :mod:`ccflab.instability` makes no generic product: its carrier
rows are in closed form, at 2 calls, one ``irfft`` and one
:func:`dealiased_envelopes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import Field, SpectralGrid, _read_only

__all__ = ["CARRIER_ROWS", "CarrierBasis", "ModulatedField", "modulated_norm",
           "carrier_norms", "apply_symbol", "dealiased_envelopes", "mod_product",
           "mod_transport_product", "mod_derivative", "mod_hilbert",
           "mod_helmholtz_inverse_dx", "packet", "carrier0"]


# one envelope row per carrier 0, 1, 2: the packets and the defect integrand
# of :mod:`ccflab.instability` fill all three, and harmonics beyond are dropped
CARRIER_ROWS = 3


@dataclass(frozen=True)
class CarrierBasis:
    """Envelope grid plus the fast carrier wavenumber.

    The symbol stacks have one row per carrier ``c < CARRIER_ROWS``,
    evaluated at the shifted frequencies ``c n + xi``; they are built once
    and shared read-only.
    """

    grid: SpectralGrid
    carrier: float

    def __post_init__(self):
        if self.carrier <= 0.0:
            raise ValueError("carrier wavenumber must be positive")
        xi_band = 2.0 * np.pi * self.grid.dealias_keep / self.grid.period
        if xi_band >= 0.5 * self.carrier:
            raise ValueError("envelope band overlaps neighbouring carrier bands; "
                             "increase the carrier or shrink the envelope grid")

    @cached_property
    def aliased_modes(self) -> slice:
        """The FFT-order slots outside the grid's dealias band, ``|k| > keep``."""
        keep = self.grid.dealias_keep
        return slice(keep + 1, self.grid.n_modes - keep)

    @cached_property
    def xi(self) -> np.ndarray:
        """Shifted frequencies ``c n + xi`` over the FFT-order envelope
        wavenumbers ``grid.k_fft`` (the Nyquist slot labelled ``+N/2``)."""
        c = np.arange(CARRIER_ROWS)[:, None]
        return _read_only(c * self.carrier + 2.0 * np.pi * self.grid.k_fft / self.grid.period)

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
        """``(2, CARRIER_ROWS, N)``: the Hilbert and derivative stacks."""
        return _read_only(np.stack([self.hilbert_symbol, self.derivative_symbol]))


class ModulatedField:
    """Immutable ``(CARRIER_ROWS, N)`` stack of complex envelope
    coefficients, one row per carrier."""

    __slots__ = ("basis", "_coeffs", "_phys")

    def __init__(self, basis: CarrierBasis, coeffs: np.ndarray):
        self.basis = basis
        self._coeffs = coeffs
        self._phys = None

    @classmethod
    def zeros(cls, basis: CarrierBasis) -> "ModulatedField":
        return cls(basis, np.zeros((CARRIER_ROWS, basis.grid.n_modes),
                                   dtype=np.complex128))

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def phys(self) -> np.ndarray:
        """Envelope samples, one row per carrier (one stacked ``ifft``)."""
        if self._phys is None:
            self._phys = np.fft.ifft(self._coeffs, axis=-1, norm="forward")
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


def carrier0(basis: CarrierBasis, f: Field) -> ModulatedField:
    """Lift a plain real field onto the zero carrier: its half spectrum
    ``c_0 .. c_{N/2}`` and the conjugate modes ``c_{-k} = conj(c_k)`` fill the
    FFT-order envelope row."""
    if f.grid != basis.grid:
        raise ValueError("field lives on the wrong envelope grid")
    mf = ModulatedField.zeros(basis)
    c, half = f.coefficients, basis.grid.n_modes // 2
    mf.coeffs[0, :half + 1] = c
    mf.coeffs[0, half + 1:] = np.conj(c[half - 1:0:-1])
    return mf


def packet(basis: CarrierBasis, envelope_samples: np.ndarray) -> ModulatedField:
    """Real packet ``Re[envelope * exp(i n x)]`` on the first carrier.

    The stored envelope is ``envelope / 2`` so that the two-sided
    representation reproduces the cosine convention: for a real envelope this
    is ``envelope * cos(n x)``, and ``envelope * exp(-i m t)`` gives
    ``envelope * cos(n x - m t)``.
    """
    mf = ModulatedField.zeros(basis)
    env = np.asarray(envelope_samples, dtype=np.complex128) * 0.5
    mf.coeffs[1] = np.fft.fft(env, norm="forward")
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


def dealiased_envelopes(basis: CarrierBasis, samples: np.ndarray) -> np.ndarray:
    """Envelope coefficients of every row of the complex ``samples``, masked
    into the dealias band: one forward-normalized ``fft`` along the last axis."""
    c = np.fft.fft(samples, axis=-1, norm="forward")
    c[..., basis.aliased_modes] = 0.0
    return c


def _carrier_product(basis: CarrierBasis, pa: np.ndarray, pb: np.ndarray) -> ModulatedField:
    """Carrier algebra of two sample stacks; one stacked forward transform."""
    cmax = CARRIER_ROWS - 1
    # carrier -c carries the conjugate envelope of carrier c
    ca, cb = np.conj(pa), np.conj(pb)
    acc = np.zeros((cmax + 1, basis.grid.n_modes), dtype=np.complex128)
    for cout in range(cmax + 1):
        for c1 in range(cout - cmax, cmax + 1):
            c2 = cout - c1
            acc[cout] += (pa[c1] if c1 >= 0 else ca[-c1]) * (pb[c2] if c2 >= 0 else cb[-c2])
    acc[0] = acc[0].real  # conjugate pairs cancel
    return ModulatedField(basis, dealiased_envelopes(basis, acc))


def mod_product(a: ModulatedField, b: ModulatedField) -> ModulatedField:
    """Pointwise product with carrier algebra; envelopes dealiased, harmonics
    beyond the last carrier row dropped."""
    if b.basis != a.basis:
        raise ValueError("operands live on different carrier bases")
    return _carrier_product(a.basis, a.phys, b.phys)


def mod_transport_product(u: ModulatedField) -> ModulatedField:
    """Dealiased ``(H u) u_x``: one inverse transform of the Hilbert and
    derivative stacks together, and one forward transform.

    Bit-identical to ``mod_product(mod_hilbert(u), mod_derivative(u))``.
    """
    hu, ux = np.fft.ifft(u.basis.transport_symbols * u.coeffs, axis=-1, norm="forward")
    return _carrier_product(u.basis, hu, ux)


@lru_cache(maxsize=512)
def _band_weights(basis: CarrierBasis, r: float) -> np.ndarray:
    # the factor 2 of the two-sided carriers c >= 1 is folded in (exact)
    w = (1.0 + basis.xi**2) ** r
    w[1:] *= 2.0
    return _read_only(w)


def carrier_norms(basis: CarrierBasis, coeffs: np.ndarray, r: float) -> np.ndarray:
    """H^r norms of a batch of coefficient stacks of shape
    ``(..., CARRIER_ROWS, N)``, via the disjoint carrier bands."""
    w = _band_weights(basis, float(r))
    bands = np.sum(w * np.abs(coeffs) ** 2, axis=-1) * basis.grid.period
    # add the bands in carrier order (cumsum is sequential by definition)
    return np.sqrt(np.cumsum(bands, axis=-1)[..., -1])


def modulated_norm(mf: ModulatedField, r: float) -> float:
    """H^r norm via the disjoint carrier bands (see module docstring)."""
    return float(carrier_norms(mf.basis, mf.coeffs, r))
