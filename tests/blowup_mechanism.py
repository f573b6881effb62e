"""The blow-up mechanism along a characteristic, as test checks.

For linear noise, ``v = u / beta`` solves the random transport equation
``v_t + beta (Hv) v_x = 0`` (:func:`ccflab.girsanov.run_random_pde`).  Along
the characteristic from the argmax of the initial datum, ``F = Lam v`` obeys
the Riccati bound ``dF/dt >= beta F^2 / 2``, and the max-point identity for
``Hv`` is the step that gives it.  The functions here track that
characteristic through recorded states, score the Riccati bound along the
track and evaluate the identity's residual.  No study runs them; the tests
in ``test_girsanov.py`` hold them to the paper's statements.
"""

from dataclasses import dataclass

import numpy as np

from ccflab.spectral import (
    Field,
    argmax_refined,
    derivative,
    evaluate_at,
    frac_laplacian,
    hilbert,
    pad_field,
)
from full_spectrum import rk4


@dataclass
class CharacteristicTrack:
    """Trajectory of the transported maximum and its monitored quantities.

    ``flagged`` means only that the track left the well-resolved region:
    ``|d_x v|`` at the tracked point rose above a tenth of its sup.
    """

    times: np.ndarray
    positions: np.ndarray       # phi(t, x0)
    f_values: np.ndarray        # Lam v at the tracked point
    beta: np.ndarray
    vx_residual: np.ndarray     # |d_x v| at the tracked point
    flagged: bool               # track left the well-resolved region


def characteristic_track(fields: list[Field], beta: np.ndarray,
                         dt: float) -> CharacteristicTrack:
    """The characteristic of ``v_t + beta (Hv) v_x = 0`` from the argmax of
    ``fields[0]``, the states at ``t_i = i dt`` (``run_random_pde`` with
    ``record_every = 1``), one ``beta`` value for each.  Step i is a
    frozen-field fourth-order step of ``d phi/dt = beta_i Hv_i(phi)``.
    """
    if len(beta) < len(fields):
        raise ValueError(f"beta holds {len(beta)} values for {len(fields)} states")
    phi = argmax_refined(fields[0])
    positions = [phi]
    for b_i, v in zip(beta, fields[:-1]):
        hv = hilbert(v)
        phi = rk4(lambda x: b_i * evaluate_at(hv, x), phi, dt)
        positions.append(phi)
    f_values = [evaluate_at(frac_laplacian(v), x) for v, x in zip(fields, positions)]
    vx = [abs(evaluate_at(derivative(v), x)) for v, x in zip(fields, positions)]
    flagged = any(r > 0.1 * max(derivative(v).max_abs(), 1e-300)
                  for v, r in zip(fields[1:], vx[1:]))
    n = len(fields)
    return CharacteristicTrack(np.arange(n) * dt, np.array(positions), np.array(f_values),
                               np.array(beta[:n]), np.array(vx), flagged)


def identity_sv_residual(v: Field, z0: float | None = None) -> float:
    """Absolute residual of the max-point identity for ``vt = Hv``:

        Lam(vt Lam vt)(z0) + vt(z0) vt_xx(z0)
            = -1/2 (Lam v(z0))^2 - (1/pi) |eta|^2_{Hdot^{1/2}},

    with ``eta(y) = (vt(z0) - vt(y)) / (z0 - y)`` (removable singularity filled
    by the derivative value).  Exact on the line; on the periodic window the
    defect scales like ``1/period^2`` at fixed bump width, so evaluate on a
    wide window.
    """
    grid = v.grid
    if z0 is None:
        z0 = argmax_refined(v)
    vx_at = abs(evaluate_at(derivative(v), z0))
    if vx_at > 1e-6 * max(derivative(v).max_abs(), 1e-300):
        raise ValueError("field has no clean interior maximum")
    # effective support within half a period of the max point
    dist = np.abs((grid.x - z0 + 0.5 * grid.period) % grid.period - 0.5 * grid.period)
    far_mass = float(np.sum(np.abs(v.samples[dist > 0.35 * grid.period])))
    if far_mass > 1e-8 * float(np.sum(np.abs(v.samples)) + 1e-300):
        raise ValueError("field is not concentrated around its maximum")

    vt = hilbert(v)
    vp = pad_field(vt)
    prod = Field.from_samples(vp.grid, vp.samples * frac_laplacian(vp).samples)
    lhs = evaluate_at(frac_laplacian(prod), z0) \
        + evaluate_at(vt, z0) * evaluate_at(derivative(derivative(vt)), z0)

    lam_v0 = evaluate_at(frac_laplacian(v), z0)
    dz = (z0 - grid.x + 0.5 * grid.period) % grid.period - 0.5 * grid.period
    vt_s = vt.samples
    vt0 = evaluate_at(vt, z0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = (vt0 - vt_s) / dz
    on_grid = np.abs(dz) < 1e-9 * grid.period / grid.n_modes
    if np.any(on_grid):
        eta[on_grid] = evaluate_at(derivative(vt), z0)
    eta_f = Field.from_samples(grid, eta)
    hdot_half = float(np.sum(grid.parseval * np.abs(grid.wavenumbers)
                             * np.abs(eta_f.coefficients) ** 2) * grid.period)
    rhs = -0.5 * lam_v0**2 - hdot_half / np.pi
    return abs(lhs - rhs)


def riccati_check(track: CharacteristicTrack, tol: float,
                  f_max: float | None = None) -> tuple[float, bool]:
    """Worst normalized defect of ``dF/dt >= beta F^2 / 2`` along the track.

    Only steps with ``F > 0`` (and, if given, ``F <= f_max``) are scored.
    Returns ``(min_i [(dF_i/dt - beta_i F_i^2/2) / F_i^2], pass)`` with pass
    meaning the worst defect is above ``-tol``.
    """
    t, f, b = track.times, track.f_values, track.beta
    worst = np.inf
    for i in range(len(t) - 1):
        if f[i] <= 0.0 or (f_max is not None and f[i] > f_max):
            continue
        dt = t[i + 1] - t[i]
        resid = ((f[i + 1] - f[i]) / dt - 0.5 * b[i] * f[i] ** 2) / f[i] ** 2
        worst = min(worst, resid)
    if not np.isfinite(worst):
        return 0.0, True
    return float(worst), bool(worst >= -tol)
