"""Dense-grid reference for the carrier representation.

The instability lab runs its packets in the carrier-envelope representation
of :mod:`ccflab.modulated`, whose step cost does not grow with the carrier
``n``.  At small ``n`` a dense grid resolves the carrier directly, and the
functions here build the same objects on it: the packet ``u_h(t)``, the
approximate solution ``u_h(t) + u_l(t)`` and the dense samples of a
modulated field.  The tests compare the carrier representation against them.
"""

import numpy as np

from ccflab.instability import InstabilityParams, phi_profile
from ccflab.modulated import CARRIER_ROWS, ModulatedField
from ccflab.spectral import Field, SpectralGrid


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


def approx_solution(p: InstabilityParams, t: float, ul_t: Field,
                    grid: SpectralGrid) -> Field:
    """Dense ``u_h(t) + u_l(t)``; ``ul_t`` is interpolated onto ``grid`` modes."""
    uh = build_high_frequency(p, t, grid)
    if ul_t.grid != grid:
        raise ValueError("low-frequency field must live on the dense grid")
    return uh + ul_t


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
    up = np.zeros((CARRIER_ROWS, m), dtype=np.complex128)
    up[:, : n // 2] = mf.coeffs[:, : n // 2]
    up[:, m - n // 2 + 1:] = mf.coeffs[:, n // 2 + 1:]
    env = np.fft.ifft(up * m, axis=-1)
    c = np.arange(CARRIER_ROWS)[:, None]
    bands = (env * np.exp(1j * c * mf.basis.carrier * dense.x)).real
    bands[1:] *= 2.0
    return Field.from_samples(dense, bands.sum(axis=0))
