"""Moment inversion: recover (mu, alpha) from a bin-count mean and variance.

Solving the stationary mean equation for mu turns the 2-D system triangular:
mu(alpha) = eta_hat * (1 - alpha) / delta, leaving a single root-find in alpha
for the variance equation. The dispersion ratio sigma^2/eta grows with alpha,
so the objective is increasing on the bracket and bisection finds the unique
root; it is also derivative-free, which matters once the inputs carry Laplace
noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .counts import CountSeries, sample_stats
from .errors import ConfigError, NoCountedEvents, NonConvergence
from .hawkes import HawkesParams, ParamBounds, bin_variance, theoretical_moments

# Fixed solver tolerances: far below Monte-Carlo noise at every relevant scale.
_RESIDUAL_RTOL = 1e-10
_BRACKET_WIDTH = 1e-12
_ALPHA_FLOOR = 1e-6


@dataclass(frozen=True)
class EstimateResult:
    mu_hat: float
    alpha_hat: float
    eta_hat: float
    sigma_sq_hat: float
    converged: bool
    iterations: int
    residual: float
    boundary: str | None = None      # "lower" when the root sits at the bracket edge
    epsilon_total: float | None = None
    gamma_total: float | None = None
    b_mode: str | None = None

    def normalized_errors(self, mu: float, alpha: float) -> tuple[float, float]:
        """|hat - truth| / truth for mu and for alpha."""
        return abs(self.mu_hat - mu) / mu, abs(self.alpha_hat - alpha) / alpha


def invert_moments(eta_hat: float, sigma_sq_hat: float, delta: float,
                   bounds: ParamBounds) -> EstimateResult:
    """Find alpha_hat in the prior bracket, then mu_hat from the mean equation.

    Raises NonConvergence when the target variance is not reachable for any
    alpha in the bracket (a moment that is not finite, a rate mu that is not a
    positive finite float, or a privatized variance at or below the mean); the
    failure is never silently clamped.
    """
    if not (math.isfinite(eta_hat) and math.isfinite(sigma_sq_hat)):
        raise NonConvergence(f"moments {eta_hat:.6g} and {sigma_sq_hat:.6g} are not finite")
    if not eta_hat > 0:
        raise ValueError("eta_hat must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")

    lo = max(bounds.alpha_lower, _ALPHA_FLOOR)
    hi = bounds.alpha_upper

    def g(alpha: float) -> float:
        return bin_variance(eta_hat * (1.0 - alpha) / delta, alpha, delta) - sigma_sq_hat

    # mu(alpha) falls with alpha, so valid params at both ends make every step's valid.
    try:
        g_lo, g_hi = (theoretical_moments(HawkesParams(eta_hat * (1.0 - a) / delta, a),
                                          delta).sigma_sq - sigma_sq_hat for a in (lo, hi))
    except ConfigError as exc:  # the rate eta_hat * (1 - alpha) / delta left float range
        raise NonConvergence(f"moments {eta_hat:.6g} and {sigma_sq_hat:.6g} at delta "
                             f"{delta:.6g}: {exc}") from None
    tol = _RESIDUAL_RTOL * abs(sigma_sq_hat)

    def result(alpha: float, iters: int, res: float, boundary: str | None) -> EstimateResult:
        return EstimateResult(
            mu_hat=eta_hat * (1.0 - alpha) / delta, alpha_hat=alpha, eta_hat=eta_hat,
            sigma_sq_hat=sigma_sq_hat, converged=True, iterations=iters,
            residual=res, boundary=boundary)

    if g_lo >= 0.0:
        # Root at or below the bracket edge. At the dispersion floor the data
        # look Poisson-like (alpha ~ 0); below the mean no alpha in (0,1) fits.
        if sigma_sq_hat >= eta_hat or abs(g_lo) <= tol:
            return result(lo, 0, g_lo, "lower")
        raise NonConvergence(
            f"variance {sigma_sq_hat:.6g} below mean {eta_hat:.6g}: "
            "no alpha in (0, 1) reproduces sub-mean dispersion")
    if g_hi < 0.0:
        if abs(g_hi) <= tol:
            return result(hi, 0, g_hi, "upper")
        raise NonConvergence(
            f"variance {sigma_sq_hat:.6g} exceeds the value attainable at "
            f"alpha_upper={hi}: no root in the bracket")

    iters = 0
    while hi - lo > _BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        iters += 1
        if abs(g_mid) <= tol:
            return result(mid, iters, g_mid, None)
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return result(alpha, iters, g(alpha), None)


def estimate(series: CountSeries, bounds: ParamBounds) -> EstimateResult:
    """invert_moments on the series' statistics; NoCountedEvents when their mean is zero."""
    stats = sample_stats(series)
    if not stats.eta_hat > 0:
        raise NoCountedEvents(f"none of its events falls in the K={stats.k} whole bins")
    return invert_moments(stats.eta_hat, stats.sigma_sq_hat, series.delta, bounds)
