"""Parameter types and closed-form moments of the exponential-kernel process.

The process has background rate ``mu`` and excitation kernel
``alpha * exp(-t)``; the decay rate is fixed to 1 throughout the package.
All logarithms in this package are natural.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .events import EventSequence


@dataclass(frozen=True)
class HawkesParams:
    """Generative parameters: subcritical regime requires 0 < alpha < 1."""

    mu: float
    alpha: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ConfigError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def stationary_rate(self) -> float:
        return self.mu / (1.0 - self.alpha)


@dataclass(frozen=True)
class ParamBounds:
    """Prior box for (mu, alpha); feeds sensitivity and complexity constants."""

    mu_lower: float
    mu_upper: float
    alpha_lower: float
    alpha_upper: float

    def __post_init__(self):
        if not 0 < self.mu_lower <= self.mu_upper < math.inf:
            raise ConfigError("need 0 < mu_lower <= mu_upper < inf")
        if not 0 < self.alpha_lower <= self.alpha_upper < 1:
            raise ConfigError("need 0 < alpha_lower <= alpha_upper < 1")

    def contains(self, mu: float, alpha: float) -> bool:
        return (self.mu_lower <= mu <= self.mu_upper
                and self.alpha_lower <= alpha <= self.alpha_upper)


@dataclass(frozen=True)
class TheoreticalMoments:
    """Stationary mean and variance of one bin count at width delta."""

    eta: float
    sigma_sq: float
    delta: float


def intensity_at(params: HawkesParams, events: EventSequence, t: float) -> float:
    """Conditional intensity mu + sum_{t_i < t} alpha * exp(-(t - t_i))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    ts = events.timestamps
    past = ts[ts < t]
    if past.size == 0:
        return params.mu
    return params.mu + params.alpha * float(np.exp(-(t - past)).sum())


def bin_variance(mu: float, alpha: float, delta: float) -> float:
    """Stationary bin-count variance from plain floats, unchecked: lam_inf*delta/q**2
    - lam_inf*alpha*(2-alpha)*(1-exp(-q*delta))/q**3, where q = 1-alpha, lam_inf = mu/q."""
    q = 1.0 - alpha
    return mu / q * (delta + alpha * (2.0 - alpha) * math.expm1(-q * delta) / q) / q**2


def theoretical_moments(params: HawkesParams, delta: float) -> TheoreticalMoments:
    """Stationary bin-count mean and variance (bin_variance) for bin width delta."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    eta = params.mu / (1.0 - params.alpha) * delta
    return TheoreticalMoments(eta, bin_variance(params.mu, params.alpha, delta), delta)


def transient_moments(params: HawkesParams, lambda0: float, t: float) -> tuple[float, float]:
    """Mean and variance of the count on [0, t] started at intensity lambda0.

    lambda0 = mu/(1-alpha) recovers the stationary bin mean with delta = t; the
    stationary variance adds the start-state term of a random start intensity.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if lambda0 < params.mu:
        raise ValueError("lambda0 must be at least mu")
    a, q = params.alpha, 1.0 - params.alpha
    lam_inf = params.mu / q
    d0 = lambda0 - lam_inf
    e1 = math.exp(-q * t)
    e2 = math.exp(-2.0 * q * t)
    mean = lam_inf * t + d0 * (1.0 - e1) / q
    var = (lam_inf * t / q**2
           + a**2 * (2.0 * lambda0 - lam_inf) * (1.0 - e2) / (2.0 * q**3)
           - 2.0 * a * d0 * t * e1 / q**2
           + ((1.0 + a) * d0 / q**2 - 2.0 * a * lam_inf / q**3) * (1.0 - e1))
    return mean, var
