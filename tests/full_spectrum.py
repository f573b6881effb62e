"""Full-spectrum reference for the half-spectrum core.

A real field is held here as all N of its normalized DFT coefficients in FFT
order, the Nyquist slot labelled ``+N/2`` and held at zero, and transformed
with the complex ``np.fft.fft``/``ifft``: the layout and formulas of the
spectral core before it kept only the ``N/2 + 1`` coefficients of
``rfft(samples) / N``.  Nothing here calls ``rfft``/``irfft`` or a transform,
norm or operator of :mod:`ccflab.spectral`; the stepping loops repeat the
rules of :mod:`ccflab.integrate` and :mod:`ccflab.girsanov` on these arrays.
"""

import numpy as np

from ccflab.noise import (
    GeneralH,
    InstabilityH,
    LinearB,
    StrongAlpha,
    ZeroNoise,
    exp_decay,
    instability_factor,
    wiener_increments,
)
from ccflab.spectral import SpectralGrid, mollifier_symbol


class Full:
    """The full FFT-order layout of one ``SpectralGrid``."""

    def __init__(self, grid):
        n = grid.n_modes
        k = np.arange(n)
        k[n // 2 + 1:] -= n
        self.grid, self.n = grid, n
        self.xi = 2.0 * np.pi * k / grid.period
        self.mask = np.abs(k) <= grid.dealias_keep
        self.d = 1j * self.xi
        self.h = 1j * np.sign(self.xi)
        self.helmholtz = 1j * self.xi / (1.0 + self.xi**2)

    # -- layout and transforms -------------------------------------------------

    def mirror(self, half):
        """The full spectrum of a half spectrum ``c_0 .. c_{N/2}``."""
        n = self.n
        c = np.zeros(n, dtype=np.complex128)
        c[: n // 2] = half[: n // 2]
        c[n // 2 + 1:] = np.conj(half[1: n // 2][::-1])
        return c

    def samples(self, c):
        return np.fft.ifft(c * self.n).real

    def dealiased(self, samples):
        c = np.fft.fft(samples) / self.n
        c[~self.mask] = 0.0
        return c

    # -- operators, norms, evaluation -----------------------------------------

    def sobolev_norm(self, c, s):
        return float(np.sqrt(np.sum((1.0 + self.xi**2) ** s * np.abs(c) ** 2)
                             * self.grid.period))

    def sobolev_inner(self, c, g, s):
        return float(np.sum((1.0 + self.xi**2) ** s * (c * np.conj(g)).real)
                     * self.grid.period)

    def evaluate_at(self, c, x):
        return (np.exp(1j * np.outer(np.atleast_1d(x), self.xi)) @ c).real

    def pad(self, c):
        """``(Full of the grid of twice the points, padded coefficients)``."""
        fine = Full(SpectralGrid(self.grid.period, 2 * self.n))
        n, m = self.n, fine.n
        c2 = np.zeros(m, dtype=np.complex128)
        c2[: n // 2] = c[: n // 2]
        c2[m - n // 2 + 1:] = c[n // 2 + 1:]
        return fine, c2

    def transport(self, c):
        """Dealiased ``(H c) c_x``."""
        return self.dealiased(self.samples(self.h * c) * self.samples(self.d * c))

    def gradient_sups(self, c):
        fx = self.samples(self.d * c)
        hfx = self.samples(self.h * self.d * c)
        return float(np.abs(fx).max()), float(np.abs(hfx).max()), 0.0 - float(hfx.min())

    # -- the equation ------------------------------------------------------------

    def drift(self, c, cfg):
        """``-J[(H J c) (J c)_x]``."""
        j = mollifier_symbol(cfg.eps_mollify * self.xi) if cfg.eps_mollify > 0.0 else 1.0
        return -(self.transport(c * j) * j)

    def gradient_powers(self, c, k, n):
        v = np.where(self.mask, c, 0.0)
        ux, hux = self.samples(self.d * v), self.samples(self.h * self.d * v)
        return self.dealiased(ux**k + hux**n)

    def rate(self, model, t, c):
        """The scalar ``a(t, c)`` of a family ``h = a c``; ``None`` for the
        others."""
        if isinstance(model, StrongAlpha):
            sup_ux, sup_hux, _ = self.gradient_sups(c)
            return model.q * (1.0 + sup_ux + sup_hux) ** model.theta
        if isinstance(model, LinearB):
            return exp_decay(model.b0, model.lam, t)
        return None

    def noise(self, model, t, c):
        """The coefficient ``h(t, c)`` of a field-valued noise family; ``None``
        for none."""
        if isinstance(model, ZeroNoise):
            return None
        if isinstance(model, GeneralH):
            powers = self.gradient_powers(c, model.exponent_k, model.exponent_n)
            return (model.q * model.amplitude) * (self.helmholtz * powers)
        if isinstance(model, InstabilityH):
            factor = model.q * instability_factor(self.sobolev_norm(c, model.sigma0))
            if factor == 0.0:
                return np.zeros_like(c)
            powers = self.gradient_powers(c, model.exponent_k, model.exponent_n)
            return factor * (self.helmholtz * powers)
        raise TypeError(f"no reference for {model!r}")

    def em_step(self, c, t, cfg, dw, dt):
        """RK4 of the drift, then the exact factor ``exp(a dw - a^2 dt / 2)``
        of ``a = rate`` or the increment ``h dw``."""
        out = rk4(lambda y: self.drift(y, cfg), c, dt)
        a = self.rate(cfg.noise, t, c)
        if a is not None:
            return out * np.exp(a * dw - 0.5 * a**2 * dt)
        h = self.noise(cfg.noise, t, c)
        if h is not None:
            out = out + h * dw
        return out

    def simulate_path(self, cfg, c0):
        """The rules of ``simulate_path``: its statuses and records, one step
        per macro step.  A path records every ``record_every``-th state and
        then the state it stopped at, unless that one is the last recorded:
        the horizon state, the blown-up state or the last finite state."""
        n_steps = int(round(cfg.horizon / cfg.dt))
        increments = wiener_increments(cfg.seed, cfg.dt, n_steps)

        times, rows = [], []

        def record(t, c):
            hm1 = self.sobolev_norm(c, cfg.s - 1.0)
            times.append(t)
            rows.append((self.sobolev_norm(c, cfg.s), hm1, self.sobolev_norm(c, cfg.s - 1.5),
                         *self.gradient_sups(c), np.log1p(hm1**2)))

        c = np.where(self.mask, c0, 0.0)
        record(0.0, c)
        status, t, taken = "completed", 0.0, n_steps
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, dw in enumerate(increments):
                new = self.em_step(c, i * cfg.dt, cfg, dw, cfg.dt)
                if not np.isfinite(new).all():
                    status, taken = "diverged", i + 1
                    break
                c, t = new, (i + 1) * cfg.dt
                if (i + 1) % cfg.record_every == 0:
                    record(t, c)
                sup_ux, sup_hux, _ = self.gradient_sups(c)
                if sup_ux + sup_hux >= cfg.blowup_threshold:
                    status, taken = "blewup", i + 1
                    break
            if times[-1] != t:
                record(t, c)
        return {"times": np.array(times), "rows": np.array(rows), "status": status,
                "t_stop": taken * cfg.dt, "increments": increments[:taken]}

    def low_frequency(self, c0, horizon, dt):
        """The states of the RK4 solve of ``u_t + (Hu) u_x = 0``."""
        out = [c0]
        for _ in range(int(round(horizon / dt))):
            out.append(rk4(lambda y: -self.transport(y), out[-1], dt))
        return out

    def random_pde(self, cfg, c0, beta):
        """The recorded states of ``run_random_pde``: frozen-``beta`` RK4
        steps of the drift scaled by ``beta_i``."""
        n_steps = int(round(cfg.horizon / cfg.dt))
        v, out = c0, [c0]
        for i in range(n_steps):
            b_i = beta[i]
            v = rk4(lambda y: b_i * self.drift(y, cfg), v, cfg.dt)
            if (i + 1) % cfg.record_every == 0 or i == n_steps - 1:
                out.append(v)
        return out


def rk4(rhs, y, dt):
    """The textbook RK4 step, out of place, on anything closed under
    addition and scaling by a float: the test references' own, independent
    of the production :func:`ccflab.integrate.rk4` and its work arrays."""
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
