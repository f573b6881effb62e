"""Linear-noise study: exponential-martingale change of measure, the random
transport equation it produces, characteristic tracking of the transported
maximum, the max-point identity, the pathwise Riccati bound, and the
first-passage lower bound on the blow-up probability.

For noise ``b(t) u dW`` the process ``beta = exp(int b dW - int b^2/2 dt)`` is
positive and ``v = u / beta`` solves the random PDE ``v_t + beta (Hv) v_x = 0``.
Along the characteristic started at the argmax of the initial datum,
``F = Lam v`` obeys ``dF/dt >= beta F^2 / 2``, which forces finite-time
blow-up once ``F(0)`` beats the noise level.  The scalar first-passage bound
``P{ exp(int_0^t b dW) > K for all t }`` is evaluated by Monte Carlo in
variance space (the law of the stochastic integral depends on ``b`` only
through its cumulative variance) next to the reflection-principle closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .ensemble import SimTask, run_paths, wilson_ci
from .integrate import SimConfig, drift, rk4, simulate_path
from .noise import ExpDecayFn, LinearB, ZeroNoise
from .spectral import (
    Field,
    argmax_refined,
    derivative,
    evaluate_at,
    frac_laplacian,
    hilbert,
    pad_field,
    sobolev_norm,
)

__all__ = [
    "GirsanovSpec",
    "CharacteristicTrack",
    "beta_path",
    "girsanov_residual",
    "run_random_pde",
    "identity_sv_residual",
    "riccati_check",
    "first_passage_oracle",
    "blowup_probability_bound",
    "blowup_ensemble",
]


@dataclass(frozen=True)
class GirsanovSpec:
    """Parameters of the linear-noise blow-up experiment."""

    b_fn: ExpDecayFn
    b_star: float
    threshold_k: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.threshold_k < 1.0:
            raise ValueError("threshold K must lie in (0, 1)")
        if self.b_star <= 0.0 or self.horizon <= 0.0:
            raise ValueError("b_star and horizon must be positive")


def beta_path(b_fn, increments: np.ndarray, dt: float) -> np.ndarray:
    """Exponential martingale on the step grid.

    Left-point Ito sum for ``int b dW`` and trapezoid for ``int b^2/2``;
    ``beta[0] = 1`` and ``beta[i]`` is the value at ``t_i = i dt``.
    """
    n = increments.shape[0]
    ts = np.arange(n) * dt
    b = np.asarray([b_fn(t) for t in ts])
    ito = np.concatenate([[0.0], np.cumsum(b * increments[:, 0])])
    b2 = np.asarray([b_fn(t) ** 2 for t in np.arange(n + 1) * dt])
    quad = np.concatenate([[0.0], np.cumsum(0.5 * (b2[:-1] + b2[1:]) * dt / 2.0)])
    return np.exp(ito - quad)


# -- random transport PDE -------------------------------------------------------


@dataclass
class CharacteristicTrack:
    """Trajectory of the transported maximum and its monitored quantities.

    ``flagged`` means only that the track left the well-resolved region:
    ``|d_x v|`` at the tracked point rose above a tenth of its sup.  A
    non-finite step is not flagged; :func:`run_random_pde` raises on it.
    """

    times: np.ndarray
    positions: np.ndarray       # phi(t, x0)
    f_values: np.ndarray        # Lam v at the tracked point
    beta: np.ndarray
    vx_residual: np.ndarray     # |d_x v| at the tracked point
    flagged: bool               # track left the well-resolved region


def run_random_pde(cfg: SimConfig, u0: Field, beta: np.ndarray, track: bool = False):
    """Integrate ``v_t + beta(t) (Hv) v_x = 0`` with the drift gate of ``cfg``.

    ``beta`` holds one value per step (frozen within the step, matching the
    order of the noise coupling) plus the value at the horizon; a shorter
    ``beta`` is an error.  Returns ``(times, fields, track)``: the fields
    sampled every ``cfg.record_every`` steps and, when ``track`` is set, a
    :class:`CharacteristicTrack` of the characteristic started at the argmax of
    ``u0``, integrated online with the same step size (``None`` otherwise).
    Raises ``ValueError`` naming the time of the first non-finite step
    instead of returning a shortened ``(times, fields)``.
    """
    dt = cfg.dt
    n_steps = int(round(cfg.horizon / dt))
    if len(beta) < n_steps + 1:
        raise ValueError(f"beta holds {len(beta)} values; {n_steps} steps need "
                         f"{n_steps + 1}")
    v = u0
    times, fields = [0.0], [v]
    trk_t, trk_pos, trk_f, trk_beta, trk_vx = [], [], [], [], []
    flagged = False
    if track:
        phi = argmax_refined(v)

        def observe(t, f, pos, beta_i):
            lam_v = frac_laplacian(f, 1.0)
            vx = derivative(f)
            trk_t.append(t)
            trk_pos.append(pos)
            trk_f.append(evaluate_at(lam_v, pos))
            trk_beta.append(beta_i)
            trk_vx.append(abs(evaluate_at(vx, pos)))

        observe(0.0, v, phi, beta[0])

    for i in range(n_steps):
        b_i = beta[i]
        if track:
            # frozen-field 4th-order step of d phi/dt = beta Hv(phi)
            hv = hilbert(v)
            phi = rk4(lambda x: b_i * evaluate_at(hv, x), phi, dt)
        v = rk4(lambda f: b_i * drift(f, cfg), v, dt)
        t = (i + 1) * dt
        if v.diverged:
            raise ValueError(f"random PDE diverged at t={t:.6g}")
        if track:
            observe(t, v, phi, beta[i + 1])
            if trk_vx[-1] > 0.1 * max(derivative(v).max_abs(), 1e-300):
                flagged = True
        if (i + 1) % cfg.record_every == 0 or i == n_steps - 1:
            times.append(t)
            fields.append(v)

    track_obj = None
    if track:
        track_obj = CharacteristicTrack(np.array(trk_t), np.array(trk_pos),
                                        np.array(trk_f), np.array(trk_beta),
                                        np.array(trk_vx), flagged)
    return np.array(times), fields, track_obj


def girsanov_residual(cfg: SimConfig, u0: Field) -> tuple[float, str]:
    """Coupled discrepancy between the linear-noise path and its transformed
    random-PDE twin: ``sup_t |u - beta v|_{H^{s-1}} / (1 + |u|_{H^{s-1}})``.

    Returns ``(residual, status)`` with the status of the linear-noise path.
    Only a ``completed`` path covers the horizon, so any other status gives a
    ``nan`` residual instead of one scored on the prefix the path ran.
    Expected to shrink like ``dt^{1/2}`` under coupled refinement (the noise
    is the only first-order difference between the two discretizations).
    """
    if not isinstance(cfg.noise, LinearB):
        raise ValueError("girsanov_residual needs a LinearB noise model")
    base = replace(cfg, adapt=False, keep_snapshots=True)
    rec = simulate_path(base, u0)
    if rec.status != "completed":
        return float("nan"), rec.status
    beta = beta_path(cfg.noise.b_fn, rec.wiener_increments, cfg.dt)
    _, fields_v, _ = run_random_pde(replace(base, noise=ZeroNoise()), u0, beta)
    worst = 0.0
    for (tu, u), v in zip(rec.snapshots, fields_v):
        bu = beta[int(round(tu / cfg.dt))]
        num = sobolev_norm(u - bu * v, cfg.s - 1.0)
        den = 1.0 + sobolev_norm(u, cfg.s - 1.0)
        worst = max(worst, num / den)
    return worst, rec.status


# -- the max-point identity -------------------------------------------------------


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
    vp = pad_field(vt, 2)
    prod = Field.from_samples(vp.grid, vp.samples * frac_laplacian(vp, 1.0).samples)
    lhs = evaluate_at(frac_laplacian(prod, 1.0), z0) \
        + evaluate_at(vt, z0) * evaluate_at(derivative(derivative(vt)), z0)

    lam_v0 = evaluate_at(frac_laplacian(v, 1.0), z0)
    dz = (z0 - grid.x + 0.5 * grid.period) % grid.period - 0.5 * grid.period
    vt_s = vt.samples
    vt0 = evaluate_at(vt, z0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = (vt0 - vt_s) / dz
    on_grid = np.abs(dz) < 1e-9 * grid.period / grid.n_modes
    if np.any(on_grid):
        eta[on_grid] = evaluate_at(derivative(vt), z0)
    eta_f = Field.from_samples(grid, eta)
    hdot_half = float(np.sum(np.abs(grid.wavenumbers)
                             * np.abs(eta_f.coefficients) ** 2) * grid.period)
    rhs = -0.5 * lam_v0**2 - hdot_half / np.pi
    return abs(lhs - rhs)


# -- Riccati check ------------------------------------------------------------------


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


# -- scalar first-passage bound ------------------------------------------------------


def first_passage_oracle(b0: float, lam: float, K: float) -> float:
    """Closed form for ``P{ int_0^t b dW > ln K for all t }`` with
    ``b = b0 exp(-lam t)``: time-change to Brownian motion run to the total
    variance ``sigma^2 = b0^2/(2 lam)`` and apply the reflection principle,
    ``1 - 2 Phi(ln K / sigma)``."""
    if lam <= 0.0:
        raise ValueError("decay rate must be positive for a square-integrable b")
    sigma = b0 / np.sqrt(2.0 * lam)
    return float(1.0 - 2.0 * ndtr(np.log(K) / sigma))


def _effective_variance(b_fn, horizon0: float) -> float:
    """Cumulative variance ``int_0^T b^2`` with T grown until the next octave
    contributes < 1e-9 of the total; raises when no such T exists (then the
    all-time event has probability 0 by Brownian recurrence)."""

    def chunk(t0, t1):
        ts = np.linspace(t0, t1, 2048)
        return float(np.trapezoid(np.asarray([b_fn(t) ** 2 for t in ts]), ts))

    t_end = max(horizon0, 1.0)
    total = chunk(0.0, t_end)
    if total <= 0.0:
        return 0.0
    for _ in range(24):
        tail = chunk(t_end, 2.0 * t_end)
        if tail <= 1e-9 * total:
            return total
        total += tail
        t_end *= 2.0
    raise ValueError("b(t) is not effectively square-integrable on [0, inf); "
                     "the all-time event would have probability 0 "
                     "(Brownian recurrence)")


def blowup_probability_bound(spec: GirsanovSpec, num_paths: int,
                             rng: np.random.Generator,
                             monitor_points: int = 16384,
                             block: int = 64) -> dict:
    """Monte Carlo estimate of ``P{ int_0^t b dW > ln K for all t }``.

    The law of the integral depends on ``b`` only through its cumulative
    variance, so paths are simulated in variance space on a uniform monitoring
    grid covering all but ``e^{-2 lam T}`` of the total variance; the
    remaining tail enters through the Gaussian tail factor.  Alongside the
    grid frequency (which over-counts survival between monitoring points,
    Wilson interval attached) an unbiased bridge-corrected estimate is
    returned: each increment is weighted by the exact Brownian-bridge
    non-crossing probability.

    Paths are streamed ``block`` at a time through two reused
    ``(block, monitor_points)`` buffers, so memory is
    O(``block * monitor_points``) whatever ``num_paths`` is.  The draws are
    consumed in path order and every reduction is per path, so ``estimate``
    does not depend on ``block``; ``corrected`` only changes in the order its
    per-path weights are summed.
    """
    if num_paths < 1 or monitor_points < 1 or block < 1:
        raise ValueError(f"num_paths, monitor_points and block must be >= 1, got "
                         f"{num_paths}, {monitor_points}, {block}")
    b_fn = spec.b_fn
    sigma2_main = _effective_variance(b_fn, spec.horizon)
    a = float(np.log(spec.threshold_k))   # < 0
    if sigma2_main <= 0.0:
        # b identically zero: the integral is 0 > ln K surely
        return {"estimate": 1.0, "ci_lo": 1.0, "ci_hi": 1.0, "corrected": 1.0,
                "oracle": 1.0, "num_paths": num_paths, "monitor_points": 0}
    if isinstance(b_fn, ExpDecayFn):
        sigma2_total = b_fn.amplitude**2 / (2.0 * b_fn.rate)
        oracle = first_passage_oracle(b_fn.amplitude, b_fn.rate, spec.threshold_k)
    else:
        sigma2_total = sigma2_main
        oracle = None
    d_tau = sigma2_main / monitor_points
    sigma_tail2 = max(sigma2_total - sigma2_main, 0.0)

    rows = min(block, num_paths)
    w_buf = np.empty((rows, monitor_points))
    q_buf = np.empty((rows, monitor_points))
    surv_count = 0
    corrected_sum = 0.0
    done = 0
    while done < num_paths:
        m = min(rows, num_paths - done)
        w, q = w_buf[:m], q_buf[:m]
        rng.standard_normal(out=w)
        w *= np.sqrt(d_tau)
        np.cumsum(w, axis=1, out=w)
        alive = w.min(axis=1) > a
        surv_count += int(np.count_nonzero(alive))
        w -= a                  # from here on w holds w - a
        # bridge correction: P{min of bridge > a} per increment is
        # 1 - exp(-2 (w_prev - a)(w - a) / d_tau), with w_prev = 0 at column 0;
        # scaling by -2 after the product is exact, so no factor changes
        np.multiply(w[:, :-1], w[:, 1:], out=q[:, 1:])
        np.multiply(w[:, 0], -a, out=q[:, 0])
        q *= -2.0
        q /= d_tau
        with np.errstate(over="ignore"):
            np.expm1(q, out=q)
        np.negative(q, out=q)
        np.clip(q, 0.0, 1.0, out=q)
        weights = np.where(alive, np.prod(q, axis=1), 0.0)
        if sigma_tail2 > 0.0:
            tail_keep = np.clip(2.0 * ndtr(w[:, -1] / np.sqrt(sigma_tail2)) - 1.0,
                                0.0, 1.0)
            weights = weights * np.where(alive, tail_keep, 0.0)
        corrected_sum += float(np.sum(weights))
        done += m

    est = surv_count / num_paths
    lo, hi = wilson_ci(surv_count, num_paths)
    return {
        "estimate": est,
        "ci_lo": lo,
        "ci_hi": hi,
        "corrected": corrected_sum / num_paths,
        "oracle": oracle,
        "num_paths": num_paths,
        "monitor_points": monitor_points,
    }


# -- SPDE blow-up ensemble -------------------------------------------------------------


@dataclass
class BlowupEnsembleResult:
    fraction: float
    n_blewup: int
    n_unresolved: int
    n_paths: int
    bound: dict
    passed: bool


def blowup_ensemble(cfg: SimConfig, spec: GirsanovSpec, u0: Field,
                    num_paths: int, mc_paths: int = 100_000,
                    workers: int = 1) -> BlowupEnsembleResult:
    """Fraction of linear-noise paths flagged as blown up, versus the scalar
    Monte Carlo lower bound.  Initial data must satisfy the max-point gradient
    condition ``Lam u0(argmax u0) > b_star / K``."""
    x0 = argmax_refined(u0)
    lam0 = evaluate_at(frac_laplacian(u0, 1.0), x0)
    if not lam0 > spec.b_star / spec.threshold_k:
        raise ValueError(f"initial datum violates the blow-up condition: "
                         f"Lam u0(x0) = {lam0:.4g} <= b*/K = "
                         f"{spec.b_star / spec.threshold_k:.4g}")
    noise = LinearB(b_fn=spec.b_fn, b_star=spec.b_star).validate(cfg.horizon)
    base = replace(cfg, noise=noise)
    bound = blowup_probability_bound(spec, mc_paths, np.random.default_rng(cfg.seed))

    records = run_paths(SimTask(base, u0), base.seed, num_paths, workers=workers)
    n_blew = sum(1 for r in records if r.status == "blewup")
    n_bad = sum(1 for r in records if r.status == "diverged")
    frac = n_blew / num_paths if num_paths else 0.0
    ci_half = 0.5 * (bound["ci_hi"] - bound["ci_lo"])
    passed = bool(num_paths == 0 or frac >= bound["estimate"] - 2.0 * ci_half)
    return BlowupEnsembleResult(frac, n_blew, n_bad, num_paths, bound, passed)
