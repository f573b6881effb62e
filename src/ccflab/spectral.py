"""Periodic pseudospectral fields and Fourier-multiplier operators.

Everything lives on a uniform periodic grid.  A :class:`Field` is stored in
coefficient space (normalized DFT, ``c_k = (1/N) sum_j f(x_j) exp(-i xi_k x_j)``)
with samples cached lazily, so multiplier operators are single array
multiplications and never lose Hermitian symmetry.

Conventions:

* wavenumbers ``xi_k = 2 pi k / L`` for integer ``k = -N/2+1 .. N/2`` stored in
  FFT order; the Nyquist slot is forced to zero in every field.
* Hilbert transform has symbol ``+i sgn(xi)`` (kernel ``1/(y-x)``), so
  ``hilbert(derivative(f)) = -frac_laplacian(f, 1)``.
* the squared Sobolev norm is ``sum_k (1+xi_k^2)^s |c_k|^2 * L``, which for
  compactly supported data converges to the line-norm value under the
  unitary-per-length transform normalization.

Multiplier symbols are built once per grid: :class:`SpectralGrid` caches
``i xi``, ``i sgn(xi)`` and ``i xi / (1 + xi^2)`` together with two stacks,
``transport_symbols = [i sgn(xi), i xi]`` (``Hw`` and ``w_x``) and
``gradient_symbols = [i xi, (i xi)(i sgn(xi))]`` (``f_x`` and ``H f_x``).
Every cached array is read-only, since each grid hands the same array to all
callers.  :func:`multiplier_samples` applies a symbol stack and returns the
samples of all rows from one ``ifft`` call along the last axis; stacked rows
are bit-identical to separate 1-D transforms.  On top of it,
:func:`transport_product` forms the dealiased ``(Hw) w_x`` from one inverse and
one forward transform, and :func:`gradient_sups` reads ``sup|f_x|``,
``sup|H f_x|`` and ``max Lam f = -min H f_x`` from one inverse transform.
At small N the per-call overhead of a transform outweighs its arithmetic,
so the number of calls, not their length, sets the cost of a time step.

Fields are immutable after construction and all operations are pure, so
concurrent evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SpectralGrid",
    "Field",
    "BandwidthError",
    "SupportError",
    "apply_multiplier",
    "derivative",
    "hilbert",
    "frac_laplacian",
    "bessel",
    "mollify",
    "mollifier_symbol",
    "transition_bump",
    "dealias",
    "dealiased_product",
    "transport_product",
    "multiplier_samples",
    "pad_field",
    "sobolev_norm",
    "sobolev_inner",
    "sup_norms",
    "gradient_sups",
    "evaluate_at",
    "argmax_refined",
    "cotlar_residual",
    "lambda_product_residual",
    "lambda_shift_residual",
    "random_band_limited",
]


class BandwidthError(ValueError):
    """Input field carries spectral content beyond the admissible band."""


class SupportError(ValueError):
    """Input field has too much mass outside the required support window."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays are shared by every caller of a grid
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with FFT-ordered integer wavenumbers.

    Parameters
    ----------
    period:
        Domain length L; samples sit at ``x_j = j L / N``.
    n_modes:
        Number of grid points N, a power of two >= 16.
    dealias_fraction:
        Fraction of the Nyquist band kept when products are dealiased
        (2/3 by default, appropriate for a quadratic nonlinearity).
    """

    period: float = 2.0 * np.pi
    n_modes: int = 256
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        if not _is_power_of_two(self.n_modes) or self.n_modes < 16:
            raise ValueError("n_modes must be a power of two >= 16")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction must lie in (0, 1]")

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.arange(self.n_modes) * (self.period / self.n_modes))

    @cached_property
    def k_int(self) -> np.ndarray:
        # FFT order, but the Nyquist slot carries +N/2 (it is zeroed in all
        # fields, so only the label matters).
        n = self.n_modes
        k = np.arange(n)
        k[n // 2 + 1:] -= n
        k[n // 2] = n // 2
        return _read_only(k)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * self.k_int / self.period)

    @cached_property
    def nyquist_index(self) -> int:
        return self.n_modes // 2

    @cached_property
    def dealias_keep(self) -> int:
        """Largest |k| retained by the dealias mask."""
        return int(np.floor(self.dealias_fraction * (self.n_modes // 2))) - 1

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return _read_only(np.abs(self.k_int) <= self.dealias_keep)

    @cached_property
    def sobolev_base(self) -> np.ndarray:
        """(1 + xi^2) per mode; powers of this build the H^s weights."""
        return _read_only(1.0 + self.wavenumbers**2)

    @cached_property
    def derivative_symbol(self) -> np.ndarray:
        """``i xi``."""
        return _read_only(1j * self.wavenumbers)

    @cached_property
    def hilbert_symbol(self) -> np.ndarray:
        """``i sgn(xi)``."""
        return _read_only(1j * np.sign(self.wavenumbers))

    @cached_property
    def helmholtz_dx_symbol(self) -> np.ndarray:
        """``i xi / (1 + xi^2)``, the symbol of ``(1 - d_xx)^{-1} d_x``."""
        return _read_only(1j * self.wavenumbers / self.sobolev_base)

    @cached_property
    def transport_symbols(self) -> np.ndarray:
        """Rows ``i sgn(xi)`` and ``i xi``: ``Hw`` and ``w_x``."""
        return _read_only(np.stack([self.hilbert_symbol, self.derivative_symbol]))

    @cached_property
    def gradient_symbols(self) -> np.ndarray:
        """Rows ``i xi`` and ``(i xi)(i sgn(xi))``: ``f_x`` and ``H f_x``."""
        return _read_only(np.stack([self.derivative_symbol,
                                    self.derivative_symbol * self.hilbert_symbol]))

    def __reduce__(self):
        # pickle the defining fields only: a worker process rebuilds the
        # caches, read-only, instead of receiving writable copies
        return SpectralGrid, (self.period, self.n_modes, self.dealias_fraction)

    def refine(self, factor: int) -> "SpectralGrid":
        """Same period, `factor` times more modes."""
        return SpectralGrid(self.period, self.n_modes * factor, self.dealias_fraction)


class Field:
    """Real periodic function stored as normalized DFT coefficients.

    Coefficients are Hermitian-symmetric (the function is real valued) and the
    Nyquist mode is held at zero.  Construct through :meth:`from_samples`,
    :meth:`from_coefficients` or :meth:`from_function`.
    """

    __slots__ = ("grid", "_coeffs", "_samples")

    def __init__(self, grid: SpectralGrid, coeffs: np.ndarray, _samples=None):
        self.grid = grid
        self._coeffs = coeffs
        self._samples = _samples

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coefficients(cls, grid: SpectralGrid, coeffs: np.ndarray) -> "Field":
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.shape != (grid.n_modes,):
            raise ValueError("coefficient array has wrong length")
        c[grid.nyquist_index] = 0.0
        # exact Hermitian symmetrization keeps the inverse transform real
        n = grid.n_modes
        idx = np.arange(1, n)
        c[idx] = 0.5 * (c[idx] + np.conj(c[n - idx]))
        c[0] = c[0].real
        return cls(grid, c)

    @classmethod
    def from_samples(cls, grid: SpectralGrid, samples: np.ndarray) -> "Field":
        s = np.asarray(samples, dtype=np.float64)
        if s.shape != (grid.n_modes,):
            raise ValueError("sample array has wrong length")
        c = np.fft.fft(s) / grid.n_modes
        c[grid.nyquist_index] = 0.0
        return cls(grid, c, s.copy())

    @classmethod
    def from_function(cls, grid: SpectralGrid, fn) -> "Field":
        return cls.from_samples(grid, fn(grid.x))

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "Field":
        return cls(grid, np.zeros(grid.n_modes, dtype=np.complex128))

    # -- views --------------------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = np.fft.ifft(self._coeffs * self.grid.n_modes).real
        return self._samples

    @property
    def diverged(self) -> bool:
        return not np.all(np.isfinite(self._coeffs))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    # -- arithmetic (pointwise-linear, coefficient level) --------------------

    def _check(self, other: "Field"):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self._coeffs + other._coeffs)

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self._coeffs - other._coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self._coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self._coeffs)

    def copy(self) -> "Field":
        return Field(self.grid, self._coeffs.copy())


# -- multiplier operators ----------------------------------------------------


def apply_multiplier(f: Field, values: np.ndarray) -> Field:
    """Apply a Fourier multiplier given its per-mode values."""
    return Field(f.grid, f.coefficients * values)


def derivative(f: Field) -> Field:
    """Spectral derivative (multiplier ``i xi``); zero mode stays zero."""
    return apply_multiplier(f, f.grid.derivative_symbol)


def hilbert(f: Field) -> Field:
    """Hilbert transform, symbol ``+i sgn(xi)``; annihilates the zero mode."""
    return apply_multiplier(f, f.grid.hilbert_symbol)


def frac_laplacian(f: Field, alpha: float) -> Field:
    """Fractional Laplacian, multiplier ``|xi|^alpha`` for alpha in (0, 2]."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    return apply_multiplier(f, np.abs(f.grid.wavenumbers) ** alpha)


def bessel(f: Field, s: float) -> Field:
    """Bessel potential, multiplier ``(1 + xi^2)^{s/2}``."""
    return apply_multiplier(f, f.grid.sobolev_base ** (0.5 * s))


def transition_bump(z: np.ndarray) -> np.ndarray:
    """Smooth transition ``exp(1 - 1/(1 - z^2))`` on (0,1): 1 at z<=0, 0 at z>=1."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros(z.shape)
    out[z <= 0.0] = 1.0
    mid = (z > 0.0) & (z < 1.0)
    zm = z[mid]
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - zm**2))
    return out


def mollifier_symbol(zeta: np.ndarray) -> np.ndarray:
    """Low-pass symbol: 1 on |zeta|<=1, C-infinity monotone cut, 0 on |zeta|>=2."""
    return transition_bump(np.abs(zeta) - 1.0)


def mollify(f: Field, eps: float) -> Field:
    """Friedrichs-type mollifier: multiply mode ``xi`` by the symbol at ``eps*xi``.

    ``eps = 0`` is the identity.  Commutes exactly with every other multiplier
    operator here, since all of them act diagonally in coefficient space.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return f.copy()
    return apply_multiplier(f, mollifier_symbol(eps * f.grid.wavenumbers))


# -- products and dealiasing --------------------------------------------------


def dealias(f: Field) -> Field:
    """Zero all modes outside the grid's dealias band."""
    return Field(f.grid, np.where(f.grid.dealias_mask, f.coefficients, 0.0))


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product, masked back into the dealias band.

    Alias-free for inputs already inside the band (quadratic nonlinearity under
    the 2/3 rule).
    """
    f._check(g)
    return _dealiased_from_samples(f.grid, f.samples * g.samples)


def _dealiased_from_samples(grid: SpectralGrid, samples: np.ndarray) -> Field:
    c = np.fft.fft(samples) / grid.n_modes
    c[~grid.dealias_mask] = 0.0
    return Field(grid, c)


def multiplier_samples(f: Field, symbols: np.ndarray) -> np.ndarray:
    """Samples of each multiplier row of ``symbols`` applied to ``f``.

    One ``ifft`` along the last axis transforms every row; the coefficients
    are formed as ``(c * symbol) * N``, the order a single multiplier and
    :attr:`Field.samples` use, so each row is bit-identical to
    ``apply_multiplier(f, row).samples``.
    """
    return np.fft.ifft((f.coefficients * symbols) * f.grid.n_modes, axis=-1).real


def transport_product(w: Field) -> Field:
    """Dealiased ``(H w) w_x``: one stacked inverse and one forward transform.

    Bit-identical to ``dealiased_product(hilbert(w), derivative(w))``.
    """
    hw, wx = multiplier_samples(w, w.grid.transport_symbols)
    return _dealiased_from_samples(w.grid, hw * wx)


def pad_field(f: Field, factor: int = 2) -> Field:
    """Zero-pad the spectrum onto a ``factor`` times finer grid (same period).

    Exact products of band-limited fields are computed on padded grids.
    """
    grid2 = f.grid.refine(factor)
    n, m = f.grid.n_modes, grid2.n_modes
    c2 = np.zeros(m, dtype=np.complex128)
    c2[: n // 2] = f.coefficients[: n // 2]
    c2[m - n // 2 + 1:] = f.coefficients[n // 2 + 1:]
    return Field(grid2, c2)


# -- norms and pointwise evaluation -------------------------------------------


@lru_cache(maxsize=256)
def _sobolev_weights(grid: SpectralGrid, s: float) -> np.ndarray:
    # the power over the full mode set dominates the cost of norm evaluation
    # in hot loops; grids hash by their defining parameters
    return _read_only(grid.sobolev_base**s)


def sobolev_norm(f: Field, s: float) -> float:
    """Discrete Parseval H^s norm (see module docstring for normalization)."""
    w = _sobolev_weights(f.grid, float(s))
    return float(np.sqrt(np.sum(w * np.abs(f.coefficients) ** 2) * f.grid.period))


def sobolev_inner(f: Field, g: Field, s: float) -> float:
    """H^s inner product matching :func:`sobolev_norm`."""
    f._check(g)
    w = _sobolev_weights(f.grid, float(s))
    return float(np.sum(w * (f.coefficients * np.conj(g.coefficients)).real) * f.grid.period)


def sup_norms(f: Field) -> tuple[float, float, float]:
    """Return ``(sup|f|, sup|f_x|, sup|H f_x|)``."""
    return (f.max_abs(), *gradient_sups(f)[:2])


def gradient_sups(f: Field) -> tuple[float, float, float]:
    """Return ``(sup|f_x|, sup|H f_x|, max Lam f)`` from one stacked transform.

    ``Lam f = -H f_x``, so ``max Lam f = -min H f_x``; the values equal
    ``derivative(f).max_abs()``, ``hilbert(derivative(f)).max_abs()`` and
    ``max(frac_laplacian(f, 1).samples)`` bit for bit.
    """
    fx, hfx = multiplier_samples(f, f.grid.gradient_symbols)
    # 0.0 - m rather than -m: a zero field gives +0.0, as the max of Lam f does
    return float(np.max(np.abs(fx))), float(np.max(np.abs(hfx))), 0.0 - float(np.min(hfx))


def evaluate_at(f: Field, x) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Direct Fourier summation over retained modes: exponentially accurate
    off-grid, exact on grid points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    c = f.coefficients
    keep = np.abs(c) > 0.0
    xi = f.grid.wavenumbers[keep]
    vals = (np.exp(1j * np.outer(x, xi)) @ c[keep]).real
    return vals if vals.size > 1 else float(vals[0])


def argmax_refined(f: Field) -> float:
    """Location of the global maximum, grid argmax refined by a quadratic fit."""
    s = f.samples
    n = f.grid.n_modes
    j = int(np.argmax(s))
    ym, y0, yp = s[(j - 1) % n], s[j], s[(j + 1) % n]
    denom = ym - 2.0 * y0 + yp
    shift = 0.0 if denom == 0.0 else 0.5 * (ym - yp) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    dx = f.grid.period / n
    return float((j + shift) * dx % f.grid.period)


# -- identity residuals --------------------------------------------------------


def _require_band_limited(f: Field, max_k: int, what: str):
    c = np.abs(f.coefficients)
    outside = c[np.abs(f.grid.k_int) > max_k]
    scale = float(np.max(c)) if c.size else 0.0
    if scale > 0.0 and outside.size and float(np.max(outside)) > 1e-12 * scale:
        raise BandwidthError(f"{what} requires band limit |k| <= {max_k}")


def cotlar_residual(f: Field) -> float:
    """L2 residual of ``2 H(f Hf) = (Hf)^2 - f^2`` up to the zero mode.

    On the periodic domain the identity holds modulo the mean of the right
    side (H annihilates constants); the mean is subtracted before comparing.
    Products are formed on a doubled grid, so they are exact for any field
    inside the dealias band.
    """
    _require_band_limited(f, f.grid.dealias_keep, "cotlar_residual")
    fp = pad_field(f, 2)
    hf = hilbert(fp)
    lhs = 2.0 * hilbert(Field(fp.grid, np.fft.fft(fp.samples * hf.samples) / fp.grid.n_modes))
    rhs = hf.samples**2 - fp.samples**2
    resid = lhs.samples - (rhs - np.mean(rhs))
    return float(np.sqrt(np.mean(resid**2) * f.grid.period))


def lambda_product_residual(f: Field, support_tol: float = 1e-10) -> float:
    """L2 residual of ``Lam(x f) = x Lam f - H f`` with the centered coordinate.

    The input must be effectively supported in the central half of the period
    so that ``x*f`` periodizes cleanly.  Note that even then the residual does
    not vanish to round-off: the sawtooth coordinate times the slowly decaying
    nonlocal tails of ``Lam f`` leaves a defect of order ``|f|_L1 / period``,
    which only decays polynomially as the window grows (see
    :func:`lambda_shift_residual` for the grid-exact form of this identity).
    """
    s = np.abs(f.samples)
    total = float(np.sum(s))
    if total == 0.0:
        return 0.0
    xc = f.grid.x - 0.5 * f.grid.period
    outside = float(np.sum(s[np.abs(xc) > 0.25 * f.grid.period]))
    if outside > support_tol * total:
        raise SupportError("field is not supported in the central half-period")
    fp = pad_field(f, 2)
    xcp = fp.grid.x - 0.5 * fp.grid.period
    g = Field.from_samples(fp.grid, xcp * fp.samples)
    lhs = frac_laplacian(g, 1.0).samples
    rhs = xcp * frac_laplacian(fp, 1.0).samples - hilbert(fp).samples
    return float(np.sqrt(np.mean((lhs - rhs) ** 2) * f.grid.period))


def lambda_shift_residual(f: Field) -> float:
    """L2 residual of the grid-exact modulation form of the ``Lam(x f)`` identity.

    For the minimal modulation ``e(x) = exp(i theta x)`` with ``theta = 2 pi/L``,

        ``Lam(e f) - e Lam f = -i theta e H_half f``,

    where ``H_half`` is the half-shifted Hilbert symbol ``i sgn(xi + theta/2)``.
    Dividing by ``theta`` and letting the period grow recovers
    ``Lam(x f) = x Lam f - H f``; on the grid the modulated form holds to
    round-off for every band-limited field.
    """
    _require_band_limited(f, f.grid.n_modes // 2 - 2, "lambda_shift_residual")
    xi = f.grid.wavenumbers
    theta = 2.0 * np.pi / f.grid.period
    e1 = np.exp(1j * theta * f.grid.x)
    lam = np.abs(xi)

    def apply_c(mult, values):
        return np.fft.ifft(mult * np.fft.fft(values))

    fs = f.samples
    lhs = apply_c(lam, e1 * fs) - e1 * apply_c(lam, fs)
    rhs = -1j * theta * e1 * apply_c(1j * np.sign(xi + 0.5 * theta), fs)
    return float(np.sqrt(np.mean(np.abs(lhs - rhs) ** 2) * f.grid.period))


# -- test-field factory --------------------------------------------------------


def random_band_limited(grid: SpectralGrid, max_mode: int, rng: np.random.Generator,
                        rms: float = 1.0, decay: float = 1.0) -> Field:
    """Random real field with modes ``1..max_mode``, coefficient decay ``k^-decay``."""
    if max_mode >= grid.n_modes // 2:
        raise ValueError("max_mode must stay below the Nyquist mode")
    c = np.zeros(grid.n_modes, dtype=np.complex128)
    k = np.arange(1, max_mode + 1)
    mag = k ** (-float(decay))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=max_mode)
    rad = rng.normal(size=max_mode) * mag
    c[k] = 0.5 * rad * np.exp(1j * phase)
    c[-k] = np.conj(c[k])
    f = Field.from_coefficients(grid, c)
    cur = float(np.sqrt(np.mean(f.samples**2)))
    if cur > 0.0:
        f = f * (rms / cur)
    return f
