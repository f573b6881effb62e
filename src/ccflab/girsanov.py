"""Linear-noise study: exponential-martingale change of measure, the random
transport equation it produces, and the first-passage lower bound on the
blow-up probability.

For noise ``b(t) u dW`` the process ``beta = exp(int b dW - int b^2/2 dt)`` is
positive and ``v = u / beta`` solves the random PDE ``v_t + beta (Hv) v_x = 0``,
the deterministic equation on the clock ``theta(t) = int_0^t beta ds``.
Along the characteristic started at the argmax of the initial datum,
``F = Lam v`` obeys ``dF/dt >= beta F^2 / 2``, which forces finite-time
blow-up once ``F(0)`` beats the noise level; the tests track that
characteristic and check the bound and the max-point identity behind it
(``tests/blowup_mechanism.py``).  The scalar
first-passage bound ``P{ exp(int_0^t b dW) > K for all t }`` is evaluated by
Monte Carlo in variance space (the law of the stochastic integral depends on
``b`` only through its cumulative variance) next to the reflection-principle
closed form.  For ``b = b0 exp(-lam t)`` the total variance is
``b0^2 / (2 lam)`` exactly, so the Monte Carlo runs on that interval and takes
no horizon; it samples the first-passage event exactly from each increment's
end values and the minimum of the Brownian bridge between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import run_paths, wilson_ci
from .integrate import SimConfig, simulate_low_frequency, whole_steps
from .noise import LinearB, exp_decay, stream
from .spectral import Field, argmax_refined, evaluate_at, frac_laplacian, sobolev_norm

__all__ = [
    "beta_path",
    "girsanov_residual",
    "run_random_pde",
    "first_passage_oracle",
    "blowup_probability_bound",
    "blowup_ensemble",
]


def beta_path(b0: float, lam: float, increments: np.ndarray, dt: float) -> np.ndarray:
    """Exponential martingale of ``b = b0 exp(-lam t)`` on the step grid.

    ``increments`` holds one Brownian increment per step.  Left-point Ito sum
    for ``int b dW`` and trapezoid for ``int b^2/2``; ``beta[0] = 1`` and
    ``beta[i]`` is the value at ``t_i = i dt``.
    """
    b = exp_decay(b0, lam, np.arange(increments.shape[0] + 1) * dt)
    ito = np.concatenate([[0.0], np.cumsum(b[:-1] * increments)])
    b2 = b**2
    quad = np.concatenate([[0.0], np.cumsum(0.5 * (b2[:-1] + b2[1:]) * dt / 2.0)])
    return np.exp(ito - quad)


# -- random transport PDE -------------------------------------------------------


def run_random_pde(cfg: SimConfig, u0: Field, beta: np.ndarray):
    """Integrate ``v_t + beta(t) (Hv) v_x = 0`` with the mollifier of ``cfg``.

    ``beta`` holds one value per step (frozen within the step, matching the
    order of the noise coupling) plus the value at the horizon; a shorter
    ``beta`` is an error.  Step i is one step of size ``beta_i dt`` of the
    deterministic stream :func:`~ccflab.integrate.simulate_low_frequency`,
    whatever the noise of ``cfg``.  Returns ``(times, fields)``, bare fields
    every ``cfg.record_every`` steps and at the horizon.  Raises
    ``ValueError`` naming the time of the first non-finite step instead of
    returning a shortened ``(times, fields)``.
    """
    n_steps = whole_steps(cfg.horizon, cfg.dt)
    if len(beta) < n_steps + 1:
        raise ValueError(f"beta holds {len(beta)} values; {n_steps} steps need "
                         f"{n_steps + 1}")
    steps = np.asarray(beta[:n_steps]) * cfg.dt
    times, fields = [], []
    for i, v in enumerate(simulate_low_frequency(cfg, u0, steps)):
        if i % cfg.record_every == 0 or i == n_steps:
            times.append(i * cfg.dt)
            fields.append(Field(v.grid, v.coefficients))
    return np.array(times), fields


def girsanov_residual(cfg: SimConfig, u0: Field) -> tuple[float, str]:
    """Coupled discrepancy between the linear-noise path and its transformed
    random-PDE twin: ``sup_t |u - beta v|_{H^{s-1}} / (1 + |u|_{H^{s-1}})``.

    The linear-noise path is path 0 of the study seed ``cfg.seed``, so every
    step size of a refinement runs on the same path seed.
    Returns ``(residual, status)`` with the status of the linear-noise path.
    Only a ``completed`` path covers the horizon, so any other status gives a
    ``nan`` residual instead of one scored on the prefix the path ran.
    The path multiplies step j by ``exp(b_j dW_j - b_j^2 dt / 2)``, ``b``
    frozen at the left point, and a twin on the running product of those
    factors holds ``u = beta v`` to round-off (~1e-15).  The twin here runs
    on :func:`beta_path`, whose ``int b^2/2`` is a trapezoid sum, so the two
    ``log beta`` differ by ``(b(0)^2 - b(t)^2) dt / 4``: the residual
    measures that quadrature mismatch, first order in ``dt`` on one Brownian
    path, not a splitting error.  The step sizes of a refinement share a path
    seed, not a path (each draws its own increments), so its ratios also
    carry path-to-path variation.
    """
    if not isinstance(cfg.noise, LinearB):
        raise ValueError("girsanov_residual needs a LinearB noise model")
    (rec,) = run_paths(replace(cfg, keep_snapshots=True), u0, 1)
    if rec.status != "completed":
        return float("nan"), rec.status
    beta = beta_path(cfg.noise.b0, cfg.noise.lam, rec.wiener_increments, cfg.dt)
    _, fields_v = run_random_pde(cfg, u0, beta)
    worst = 0.0
    for (tu, u), v in zip(rec.snapshots, fields_v):
        bu = beta[int(round(tu / cfg.dt))]
        num = sobolev_norm(u - bu * v, cfg.s - 1.0)
        den = 1.0 + sobolev_norm(u, cfg.s - 1.0)
        worst = max(worst, num / den)
    return worst, rec.status


# -- scalar first-passage bound ------------------------------------------------------


def first_passage_oracle(b0: float, lam: float, K: float) -> float:
    """Closed form for ``P{ int_0^t b dW > ln K for all t }`` with
    ``b = b0 exp(-lam t)``: time-change to Brownian motion run to the total
    variance ``sigma^2 = b0^2/(2 lam)`` and apply the reflection principle,
    ``1 - 2 Phi(ln K / sigma) = -erf(ln K / (sigma sqrt 2))``."""
    if lam <= 0.0:
        raise ValueError("decay rate must be positive for a square-integrable b")
    sigma = abs(b0) / math.sqrt(2.0 * lam)
    return -math.erf(math.log(K) / (sigma * math.sqrt(2.0)))


def _check_threshold(threshold_k: float):
    if not 0.0 < threshold_k < 1.0:
        raise ValueError("threshold K must lie in (0, 1)")


def blowup_probability_bound(b0: float, lam: float, threshold_k: float, num_paths: int,
                             rng: np.random.Generator,
                             monitor_points: int = 1,
                             block: int = 64) -> dict:
    """Monte Carlo estimate of ``P{ int_0^t b dW > ln K for all t }`` for
    ``b = b0 exp(-lam t)``.

    The law of the integral depends on ``b`` only through its cumulative
    variance, so each path is a Brownian motion ``w`` in variance time on the
    exact interval ``[0, b0^2 / (2 lam)]``; no horizon enters.  It takes
    ``monitor_points`` increments of variance ``d_tau``, and between grid
    values ``w_prev`` and ``w`` the bridge minimum is drawn exactly as
    ``(w_prev + w - sqrt((w - w_prev)^2 + 2 d_tau E)) / 2`` with ``E ~ Exp(1)``
    (Glasserman, *Monte Carlo Methods in Financial Engineering*, 2003, 6.4).
    With ``x = w_prev - ln K > 0`` and ``y = w - ln K`` that minimum lies
    above ``ln K`` exactly when ``rate = 2 x y / d_tau`` exceeds ``E``, so
    ``estimate`` is the frequency of the first-passage event itself (Wilson
    interval attached) and every ``monitor_points >= 1`` samples the same law.
    ``corrected`` averages that event's probability given the grid values,
    ``prod (1 - exp(-rate))`` over the increments (0 once ``w <= ln K``).

    Each block of ``block`` paths is one ``(block, 3, monitor_points)``
    normal draw (row 0 the increments, ``E = (z1^2 + z2^2) / 2`` from rows 1
    and 2), so memory is O(``block * monitor_points``) whatever ``num_paths``
    is.  The draws are consumed in path order, so ``estimate`` does not depend
    on ``block``; ``corrected`` only changes in the order its per-path
    weights are summed.
    """
    if num_paths < 1 or monitor_points < 1 or block < 1:
        raise ValueError(f"num_paths, monitor_points and block must be >= 1, got "
                         f"{num_paths}, {monitor_points}, {block}")
    _check_threshold(threshold_k)
    if b0 == 0.0:
        # b identically zero: the integral is 0 > ln K surely
        return {"estimate": 1.0, "ci_lo": 1.0, "ci_hi": 1.0, "corrected": 1.0,
                "oracle": 1.0, "num_paths": num_paths, "monitor_points": 0}
    oracle = first_passage_oracle(b0, lam, threshold_k)
    d_tau = b0**2 / (2.0 * lam) / monitor_points
    a = math.log(threshold_k)   # < 0

    surv_count = 0
    corrected_sum = 0.0
    for start in range(0, num_paths, block):
        z = rng.standard_normal((min(block, num_paths - start), 3, monitor_points))
        y = math.sqrt(d_tau) * np.cumsum(z[:, 0], axis=1) - a
        x = np.concatenate((np.full((len(y), 1), -a), y[:, :-1]), axis=1)
        rate = 2.0 * x * y / d_tau
        # rate > E > 0 at every increment forces y > 0 from x = -a > 0 onwards
        survived = np.all(rate > 0.5 * (z[:, 1] ** 2 + z[:, 2] ** 2), axis=1)
        surv_count += int(np.count_nonzero(survived))
        with np.errstate(over="ignore"):
            keep = np.maximum(-np.expm1(-rate), 0.0)
        corrected_sum += float(np.sum(np.prod(keep, axis=1)))

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
    """Flagged fraction of an SPDE ensemble against the Monte Carlo bound.

    ``n_unresolved`` counts the ``diverged`` paths (the benchmark reads the
    name).
    """

    fraction: float
    n_blewup: int
    n_unresolved: int
    n_paths: int
    bound: dict
    passed: bool


def blowup_ensemble(cfg: SimConfig, threshold_k: float, u0: Field,
                    num_paths: int, mc_paths: int = 100_000,
                    workers: int = 1) -> BlowupEnsembleResult:
    """Fraction of paths under the ``LinearB`` noise of ``cfg`` flagged as
    blown up, versus the scalar Monte Carlo lower bound.  Initial data must
    satisfy the max-point gradient condition ``Lam u0(argmax u0) > b_star / K``.
    The Monte Carlo draws from the stream ``(1,)`` of the study seed
    ``cfg.seed``, path i of ``num_paths >= 1`` on ``path_seed(cfg.seed, i)``."""
    if not isinstance(cfg.noise, LinearB):
        raise ValueError("blowup_ensemble needs a LinearB noise model")
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    _check_threshold(threshold_k)
    noise = cfg.noise.validate()
    x0 = argmax_refined(u0)
    lam0 = evaluate_at(frac_laplacian(u0), x0)
    if not lam0 > noise.b_star / threshold_k:
        raise ValueError(f"initial datum violates the blow-up condition: "
                         f"Lam u0(x0) = {lam0:.4g} <= b*/K = "
                         f"{noise.b_star / threshold_k:.4g}")
    bound = blowup_probability_bound(noise.b0, noise.lam, threshold_k, mc_paths,
                                     stream(cfg.seed, 1))

    records = run_paths(cfg, u0, num_paths, workers=workers)
    n_blew = sum(1 for r in records if r.status == "blewup")
    n_bad = sum(1 for r in records if r.status == "diverged")
    frac = n_blew / num_paths
    ci_half = 0.5 * (bound["ci_hi"] - bound["ci_lo"])
    passed = bool(frac >= bound["estimate"] - 2.0 * ci_half)
    return BlowupEnsembleResult(frac, n_blew, n_bad, num_paths, bound, passed)
