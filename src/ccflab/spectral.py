"""Periodic pseudospectral fields and Fourier-multiplier operators.

Everything lives on a uniform periodic grid of N points.  A :class:`Field` is
a real function stored in coefficient space as its half spectrum: the
``N/2 + 1`` normalized DFT coefficients
``c_k = (1/N) sum_j f(x_j) exp(-i xi_k x_j)`` for ``k = 0 .. N/2``, i.e.
``rfft(samples) / N``.  The modes ``-k`` are the conjugates ``conj(c_k)`` and
are not stored.  Samples are cached lazily, and multiplier operators are
single array multiplications.

Conventions:

* wavenumbers ``xi_k = 2 pi k / L`` for ``k = 0 .. N/2``; the DC coefficient
  is real and the Nyquist slot ``k = N/2`` is zero in every field.  Every
  symbol is real or zero at ``k = 0``, since ``irfft`` ignores the imaginary
  parts of the DC and Nyquist slots.
* Hilbert transform has symbol ``+i sgn(xi)`` (kernel ``1/(y-x)``), so
  ``hilbert(derivative(f)) = -frac_laplacian(f)``, where ``frac_laplacian``
  is ``Lam``, the multiplier ``|xi|``.
* products are dealiased by the 2/3 rule: the band keeps ``|k| <= N // 3 - 1``.
* the squared Sobolev norm is ``sum_k p_k (1+xi_k^2)^s |c_k|^2 * L`` over the
  stored modes, with the Parseval factor ``p_k`` (1 at ``k = 0`` and
  ``k = N/2``, 2 in between) counting each mode ``k`` once more for ``-k``.
  For compactly supported data it converges to the line-norm value under the
  unitary-per-length transform normalization.

Multiplier symbols are built once per grid: :class:`SpectralGrid` caches
``i xi``, ``i sgn(xi)`` and ``i xi / (1 + xi^2)`` together with the stack
``step_symbols = [i sgn(xi), i xi, (i xi)(i sgn(xi))]`` (``Hf``, ``f_x`` and
``H f_x``) and its view ``transport_symbols`` (rows 0-1, ``Hw`` and ``w_x``).
Every cached array is read-only, since each grid hands the same array to all
callers.

Transform kernel: every transform of the package is one call of
:func:`rfft`, :func:`irfft`, :func:`fft` or :func:`ifft`.  Each acts on every
row of a stack along the last axis, takes ``out=`` and is normalized forward:
the transform to coefficients applies the ``1/N``, the transform to samples
none; this is the one place the normalization is set.  Each calls
pocketfft's gufunc directly, with the arguments ``np.fft`` passes it under
``norm="forward"`` (scale ``1/n`` forward, 1 inverse), so it equals
``np.fft``'s transform bit for bit without numpy's per-call Python wrapper,
a large share of a call at N = 256.  Call sites look the four functions up
through this module's globals, so wrapping the four names here sees every
transform.  :func:`inverse_samples` (one ``irfft``) and
:func:`dealiased_coefficients` (one ``rfft``) are the transform rules of real
fields, and stacked rows are bit-identical to separate 1-D transforms.

Work-array rule: both transform rules take ``out=``, an array of the caller's
that the transform writes into, bit for bit what it would have allocated.  A
time step allocates its work arrays once per call and writes its stages,
their transforms and its noise into them (:mod:`ccflab.integrate`); what it
returns, and what a field keeps, is a fresh array, and no module holds a
mutable buffer.

A field computes what a time step reads of it once, when first asked for:
``step_rows``, the samples of ``Hf``, ``f_x`` and ``H f_x`` from one inverse
transform, and ``transport_coefficients``, the dealiased ``(Hf) f_x`` from one
forward transform of the first two rows: step rows, then product, 2 calls for
a field that has neither.  :func:`transport_product` and
:func:`gradient_sups` (``sup|f_x|``, ``sup|H f_x|``, ``max Lam f = -min H f_x``)
read these caches.  At small N the per-call overhead of a transform outweighs
its arithmetic, so the number of calls, not their length, sets the cost of a
time step.

Fields are immutable after construction and all operations are pure, so
concurrent evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

__all__ = [
    "rfft",
    "irfft",
    "fft",
    "ifft",
    "SpectralGrid",
    "Field",
    "BandwidthError",
    "apply_multiplier",
    "derivative",
    "hilbert",
    "frac_laplacian",
    "mollifier_symbol",
    "transition_bump",
    "dealias",
    "is_dealiased",
    "dealiased_coefficients",
    "dealiased_product",
    "transport_product",
    "inverse_samples",
    "pad_field",
    "sobolev_norm",
    "sobolev_inner",
    "sup_norms",
    "gradient_sups",
    "evaluate_at",
    "argmax_refined",
    "cotlar_residual",
    "lambda_shift_residual",
    "random_band_limited",
]


class BandwidthError(ValueError):
    """Input field carries spectral content beyond the admissible band."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays are shared by every caller of a grid
    a.setflags(write=False)
    return a


# -- the transform kernel (see the module docstring) -------------------------
#
# The gufunc takes the transform length from ``out``, so a wrong last axis is
# rejected here, as ``np.fft`` rejects it.  An output allocated here is
# C-ordered, as numpy's is for the C-ordered inputs the package transforms.

_AXES = [(-1,), (), (-1,)]


def rfft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of the real rows of ``a``, of even length ``n`` (every
    grid's N is): ``n // 2 + 1`` coefficients."""
    n = a.shape[-1]
    if out is None:
        out = np.empty(a.shape[:-1] + (n // 2 + 1,), np.complex128)
    elif out.shape[-1] != n // 2 + 1:
        raise ValueError("output array has wrong shape")
    return _pocketfft.rfft_n_even(a, 1 / n, axes=_AXES, out=out)


def irfft(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The ``n`` real samples of each half-spectrum row of ``a``."""
    if out is None:
        out = np.empty(a.shape[:-1] + (n,), np.float64)
    elif out.shape[-1] != n:
        raise ValueError("output array has wrong shape")
    return _pocketfft.irfft(a, 1.0, axes=_AXES, out=out)


def fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Spectrum of the complex rows of ``a``."""
    n = a.shape[-1]
    if out is None:
        out = np.empty(a.shape, np.complex128)
    elif out.shape[-1] != n:
        raise ValueError("output array has wrong shape")
    return _pocketfft.fft(a, 1 / n, axes=_AXES, out=out)


def ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Complex samples of each spectrum row of ``a``."""
    if out is None:
        out = np.empty(a.shape, np.complex128)
    elif out.shape[-1] != a.shape[-1]:
        raise ValueError("output array has wrong shape")
    return _pocketfft.ifft(a, 1.0, axes=_AXES, out=out)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid and the half-spectrum wavenumbers ``k = 0..N/2``.

    Parameters
    ----------
    period:
        Domain length L; samples sit at ``x_j = j L / N``.
    n_modes:
        Number of grid points N, a power of two >= 16.
    """

    period: float = 2.0 * np.pi
    n_modes: int = 256

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        if not _is_power_of_two(self.n_modes) or self.n_modes < 16:
            raise ValueError("n_modes must be a power of two >= 16")

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.arange(self.n_modes) * (self.period / self.n_modes))

    @cached_property
    def k_int(self) -> np.ndarray:
        """Integer wavenumbers ``0 .. N/2`` of the stored half spectrum."""
        return _read_only(np.arange(self.n_modes // 2 + 1))

    @cached_property
    def k_fft(self) -> np.ndarray:
        """Integer wavenumbers of all N modes in FFT order, the Nyquist slot
        labelled ``+N/2``: the spectrum of complex samples."""
        k = np.arange(self.n_modes)
        k[self.n_modes // 2 + 1:] -= self.n_modes
        return _read_only(k)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * self.k_int / self.period)

    @cached_property
    def nyquist_index(self) -> int:
        return self.n_modes // 2

    @cached_property
    def dealias_keep(self) -> int:
        """Largest |k| inside the 2/3-rule band, ``floor(2/3 N/2) - 1``, which
        is ``N // 3 - 1`` since 3 divides no power of two."""
        return self.n_modes // 3 - 1

    @cached_property
    def aliased_modes(self) -> slice:
        """The slots outside the dealias band: the tail of the half spectrum,
        Nyquist included."""
        return slice(self.dealias_keep + 1, None)

    @cached_property
    def parseval(self) -> np.ndarray:
        """Parseval factor per stored mode: 1 at ``k = 0`` and ``k = N/2``, 2 in
        between, where the mode ``-k`` is the conjugate of ``k``."""
        p = np.full(self.n_modes // 2 + 1, 2.0)
        p[[0, -1]] = 1.0
        return _read_only(p)

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
    def step_symbols(self) -> np.ndarray:
        """Rows ``i sgn(xi)``, ``i xi`` and ``(i xi)(i sgn(xi))``: ``Hf``,
        ``f_x`` and ``H f_x``, all a time step needs of its start state."""
        return _read_only(np.stack([self.hilbert_symbol, self.derivative_symbol,
                                    self.derivative_symbol * self.hilbert_symbol]))

    @cached_property
    def transport_symbols(self) -> np.ndarray:
        """Rows ``i sgn(xi)`` and ``i xi``: ``Hw`` and ``w_x``."""
        return self.step_symbols[:2]

    def __reduce__(self):
        # pickle the defining fields only: a worker process rebuilds the
        # caches, read-only, instead of receiving writable copies
        return SpectralGrid, (self.period, self.n_modes)


class Field:
    """Real periodic function stored as its half spectrum of normalized DFT
    coefficients, ``N/2 + 1`` of them.

    The DC coefficient is real and the Nyquist mode is held at zero.
    Construct through :meth:`from_samples` or :meth:`from_coefficients`.  The
    samples, the step rows, the gradient sups and the transport product are
    computed once, when first asked for.
    """

    __slots__ = ("grid", "_coeffs", "_samples", "_rows", "_sups", "_transport")

    def __init__(self, grid: SpectralGrid, coeffs: np.ndarray):
        self.grid = grid
        self._coeffs = coeffs
        self._samples = None
        self._rows = None
        self._sups = None
        self._transport = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coefficients(cls, grid: SpectralGrid, coeffs: np.ndarray) -> "Field":
        """The field of the half-spectrum coefficients ``c_0 .. c_{N/2}``; the
        imaginary part of ``c_0`` and the Nyquist coefficient are dropped."""
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.shape != (grid.n_modes // 2 + 1,):
            raise ValueError("coefficient array has wrong length")
        c[0] = c[0].real
        c[grid.nyquist_index] = 0.0
        return cls(grid, c)

    @classmethod
    def from_samples(cls, grid: SpectralGrid, samples: np.ndarray) -> "Field":
        """Samples on ``grid.x``; the Nyquist mode is dropped from both views."""
        s = np.asarray(samples, dtype=np.float64)
        if s.shape != (grid.n_modes,):
            raise ValueError("sample array has wrong length")
        c = rfft(s)
        c[grid.nyquist_index] = 0.0
        return cls(grid, c)

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "Field":
        return cls(grid, np.zeros(grid.n_modes // 2 + 1, dtype=np.complex128))

    # -- views --------------------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = inverse_samples(self.grid, self._coeffs)
        return self._samples

    @property
    def step_rows(self) -> np.ndarray:
        """Samples of ``Hf``, ``f_x`` and ``H f_x``, the rows of
        ``grid.step_symbols`` (read-only), from one inverse transform.  The
        rows are formed as ``c * symbol``, the order a single multiplier uses,
        so each is bit-identical to ``apply_multiplier(f, symbol).samples``."""
        if self._rows is None:
            self._rows = _read_only(inverse_samples(self.grid,
                                                    self._coeffs * self.grid.step_symbols))
        return self._rows

    @property
    def gradient_samples(self) -> np.ndarray:
        """Samples of ``f_x`` and ``H f_x`` (rows 1-2 of :attr:`step_rows`)."""
        return self.step_rows[1:]

    @property
    def transport_coefficients(self) -> np.ndarray:
        """Coefficients of the dealiased ``(Hf) f_x`` (read-only), formed from
        the first two step rows and kept."""
        if self._transport is None:
            hf, fx = self.step_rows[:2]
            self._transport = _read_only(dealiased_coefficients(self.grid, hf * fx))
        return self._transport

    @property
    def diverged(self) -> bool:
        return not np.isfinite(self._coeffs).all()

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


def frac_laplacian(f: Field) -> Field:
    """``Lam = (-d_xx)^{1/2}``, multiplier ``|xi|``: the stored wavenumbers
    ``xi_k >= 0`` themselves."""
    return apply_multiplier(f, f.grid.wavenumbers)


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


# -- products and dealiasing --------------------------------------------------


def dealias(f: Field) -> Field:
    """Zero all modes outside the grid's dealias band."""
    c = f.coefficients.copy()
    c[f.grid.aliased_modes] = 0.0
    return Field(f.grid, c)


def is_dealiased(f: Field) -> bool:
    """Whether every mode of ``f`` outside the dealias band is zero, so that
    ``dealias(f)`` has the coefficients of ``f`` (up to the sign of zeros)."""
    return not f.coefficients[f.grid.aliased_modes].any()


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product, masked back into the dealias band.

    Alias-free for inputs already inside the band (quadratic nonlinearity under
    the 2/3 rule).
    """
    f._check(g)
    return Field(f.grid, dealiased_coefficients(f.grid, f.samples * g.samples))


def dealiased_coefficients(grid: SpectralGrid, samples: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum coefficients of the real ``samples`` masked into the
    dealias band: one :func:`rfft`, written into ``out`` when given (complex,
    ``N/2 + 1`` along the last axis).  Its ``1/N`` is applied in the
    transform; N is a power of two, so this equals ``np.fft.rfft(samples) /
    N`` bit for bit wherever no value is subnormal."""
    c = rfft(samples, out=out)
    c[..., grid.aliased_modes] = 0.0
    return c


def inverse_samples(grid: SpectralGrid, coeffs: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Samples of every row of the half-spectrum stack ``coeffs``: one
    :func:`irfft`, written into ``out`` when given (real, N along the last
    axis), without its ``1/N``, which equals ``np.fft.irfft(coeffs * N)`` bit
    for bit wherever no value is subnormal."""
    return irfft(coeffs, grid.n_modes, out=out)


def transport_product(w: Field) -> Field:
    """Dealiased ``(H w) w_x`` from ``w``'s step rows and one forward
    transform, both kept on ``w``.

    Bit-identical to ``dealiased_product(hilbert(w), derivative(w))``.
    """
    return Field(w.grid, w.transport_coefficients)


def pad_field(f: Field) -> Field:
    """Zero-pad the spectrum onto the grid of twice the points (same period).

    Exact products of band-limited fields are computed on padded grids.
    """
    n = f.grid.n_modes
    grid2 = SpectralGrid(f.grid.period, 2 * n)
    c2 = np.zeros(grid2.n_modes // 2 + 1, dtype=np.complex128)
    c2[: n // 2] = f.coefficients[: n // 2]
    return Field(grid2, c2)


# -- norms and pointwise evaluation -------------------------------------------


@lru_cache(maxsize=256)
def _sobolev_weights(grid: SpectralGrid, s: float) -> np.ndarray:
    # the power over the mode set dominates the cost of norm evaluation in
    # hot loops; grids hash by their defining parameters.  The Parseval
    # factor is folded in (exact: it is 1 or 2).
    return _read_only(grid.parseval * grid.sobolev_base**s)


def sobolev_norm(f: Field, s: float) -> float:
    """Discrete Parseval H^s norm (see module docstring for normalization)."""
    w = _sobolev_weights(f.grid, float(s))
    return float(np.sqrt((w * np.abs(f.coefficients) ** 2).sum() * f.grid.period))


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
    ``max(frac_laplacian(f).samples)`` bit for bit.  The transform is
    ``f.step_rows``, so a field whose rows a step filled costs none, and the
    tuple is kept on ``f`` next to its rows: every later call returns it.
    """
    if f._sups is None:
        rows = f.gradient_samples
        sup_fx, sup_hfx = np.abs(rows).max(axis=-1)
        # 0.0 - m rather than -m: a zero field gives +0.0, as the max of Lam f does
        f._sups = (float(sup_fx), float(sup_hfx), 0.0 - float(rows[1].min()))
    return f._sups


def evaluate_at(f: Field, x) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Direct Fourier summation over retained modes: exponentially accurate
    off-grid, exact on grid points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    c = f.coefficients
    keep = np.abs(c) > 0.0
    xi = f.grid.wavenumbers[keep]
    # mode -k adds the conjugate of mode k: its real part once more
    vals = (np.exp(1j * np.outer(x, xi)) @ (f.grid.parseval * c)[keep]).real
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
    outside = c[f.grid.k_int > max_k]
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
    fp = pad_field(f)
    hf = hilbert(fp)
    lhs = 2.0 * hilbert(Field.from_samples(fp.grid, fp.samples * hf.samples))
    rhs = hf.samples**2 - fp.samples**2
    resid = lhs.samples - (rhs - np.mean(rhs))
    return float(np.sqrt(np.mean(resid**2) * f.grid.period))


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
    # the modulated samples are complex: full FFT-order wavenumbers
    xi = 2.0 * np.pi * f.grid.k_fft / f.grid.period
    theta = 2.0 * np.pi / f.grid.period
    e1 = np.exp(1j * theta * f.grid.x)
    lam = np.abs(xi)

    def apply_c(mult, values):
        return ifft(mult * fft(values))

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
    c = np.zeros(grid.n_modes // 2 + 1, dtype=np.complex128)
    k = np.arange(1, max_mode + 1)
    mag = k ** (-float(decay))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=max_mode)
    rad = rng.normal(size=max_mode) * mag
    c[k] = 0.5 * rad * np.exp(1j * phase)
    f = Field.from_coefficients(grid, c)
    cur = float(np.sqrt(np.mean(f.samples**2)))
    if cur > 0.0:
        f = f * (rms / cur)
    return f
