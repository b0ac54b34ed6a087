"""Parameter types and closed-form moments of the exponential-kernel process.

The process has background rate ``mu`` and excitation kernel
``alpha * exp(-t)``; the decay rate is fixed to 1 throughout the package.
All logarithms in this package are natural.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


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


@dataclass(frozen=True)
class TheoreticalMoments:
    """Stationary mean and variance of one bin count at width delta."""

    eta: float
    sigma_sq: float


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
    return TheoreticalMoments(eta, bin_variance(params.mu, params.alpha, delta))
