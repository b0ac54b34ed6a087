"""Sensitivities, Laplace noise, and the private release of the bin statistics.

Neighboring sequences differ by one tree of events, so the sensitivity of the
sample statistics is driven by the largest tree: either a known cap B
(relation-aware) or the probabilistic 3*log(T)/(1-alpha_upper)^2 progeny bound
(relation-unaware), which requires the horizon SensitivitySpec.min_horizon
(validate_horizon's threshold and T >= e^{1/c2}). One formula serves both: relation-unaware is the
relation-aware mechanism with B = c2*log(T) (SensitivitySpec.tree_cap).
Budgets here are per statistic; the released pair composes to twice the
per-statistic epsilon (PrivacyBudget.for_total halves a total). A release, like its
bound complexity.required_T_private, is requested as (budget, B label), whose one
grammar and meaning are check_b_mode and SensitivitySpec.for_b_mode; every private
estimate in the package goes through private_estimate, the one release path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .counts import CountSeries, SampleStats, sample_stats
from .errors import ConfigError, HorizonTooShort, NonConvergence
from .estimator import EstimateResult, invert_moments
from .hawkes import ParamBounds
from .rng import as_generator


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-statistic epsilon and random-DP failure probability gamma; epsilon =
    inf is the labelled non-private limit, which releases the exact statistics."""

    epsilon: float
    gamma: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")
        if not 0 < self.gamma <= 0.5:
            raise ConfigError("gamma must lie in (0, 1/2]")

    @classmethod
    def for_total(cls, epsilon_total: float, gamma: float) -> "PrivacyBudget":
        """The per-statistic budget of a released pair of total epsilon_total."""
        return cls(epsilon_total / 2.0, gamma)


def check_b_mode(b: str) -> str:
    """The label of a tree cap B as given by the user: 'auto', or a positive
    integer a float holds exactly (at most 2**53, 16 digits) written as
    str(int(b)), so '010' is labelled '10'."""
    if b != "auto" and not (b.isdecimal() and len(b) <= 16 and 1 <= int(b) <= 2**53):
        raise ConfigError(f"B must be a positive integer up to 2**53 or 'auto', got {b!r}")
    return b if b == "auto" else str(int(b))


def c1_constant(bounds: ParamBounds, gamma: float) -> float:
    return math.sqrt(1.1 * bounds.mu_upper / ((1.0 - bounds.alpha_upper) ** 3 * gamma))


def c2_constant(bounds: ParamBounds) -> float:
    return 3.0 / (1.0 - bounds.alpha_upper) ** 2


def horizon_threshold(mu_upper: float, gamma: float) -> float:
    """Smallest horizon at which the relation-unaware progeny bound holds."""
    try:
        return (mu_upper * math.e**2 / gamma) ** 2.5
    except OverflowError:  # past float range: no horizon reaches it
        return math.inf


@dataclass(frozen=True)
class SensitivitySpec:
    """The tree cap plus the constants derived from the prior box and gamma.

    b is a known cap B (relation-aware) or None (relation-unaware), where the
    cap is the progeny bound c2*log(T). The same user-supplied gamma feeds c1
    and the horizon threshold, which is 0 in relation-aware mode (no horizon
    requirement) and at least e^{1/c2} (a cap of one event) otherwise.
    """

    c1: float
    c2: float
    b: int | None
    min_horizon: float

    @classmethod
    def relation_aware(cls, bounds: ParamBounds, gamma: float, b: int) -> "SensitivitySpec":
        # b = 0 is the degenerate identical-sequences case (zero sensitivity)
        if not b >= 0:
            raise ValueError("b must be a nonnegative integer")
        return cls(c1=c1_constant(bounds, gamma), c2=c2_constant(bounds), b=int(b),
                   min_horizon=0.0)

    @classmethod
    def relation_unaware(cls, bounds: ParamBounds, gamma: float) -> "SensitivitySpec":
        c2 = c2_constant(bounds)
        return cls(c1=c1_constant(bounds, gamma), c2=c2, b=None,
                   min_horizon=max(horizon_threshold(bounds.mu_upper, gamma),
                                   math.exp(1.0 / c2)))

    @classmethod
    def for_b_mode(cls, bounds: ParamBounds, gamma: float, b_mode: str) -> "SensitivitySpec":
        """'auto' selects relation-unaware; any other check_b_mode label is a cap B."""
        if check_b_mode(b_mode) == "auto":
            return cls.relation_unaware(bounds, gamma)
        return cls.relation_aware(bounds, gamma, int(b_mode))

    def tree_cap(self, horizon: float) -> float:
        """Largest tree a neighbor may differ by: B, or c2*log(T) when B is unknown."""
        return self.c2 * math.log(horizon) if self.b is None else self.b


def validate_horizon(mu_upper: float, gamma: float, horizon: float) -> bool:
    """The mu_upper/gamma threshold only; relation-unaware also needs T >= e^{1/c2}."""
    return horizon >= horizon_threshold(mu_upper, gamma)


def mean_sensitivity(spec: SensitivitySpec, k: int, horizon: float) -> float:
    if k < 2:
        raise ValueError("k must be at least 2")
    return spec.tree_cap(horizon) / k


def variance_sensitivity(spec: SensitivitySpec, k: int, delta: float, horizon: float) -> float:
    if k < 2:
        raise ValueError("k must be at least 2")
    if not delta > 0:
        raise ValueError("delta must be positive")
    cap = spec.tree_cap(horizon)
    return cap**2 / k + 2.0 * cap**1.5 * math.sqrt(delta) * spec.c1 / (k - 1)


def laplace_samples(scale: float, rng: int | np.random.Generator, size: int) -> np.ndarray:
    """Zero-mean Laplace draws by inverse CDF, one uniform per sample.

    Sign from u < 1/2, magnitude -scale*log(1 - 2|u - 1/2|): reproducible from
    the raw uniform stream. scale 0 is allowed and returns zeros (the uniforms
    are still consumed so the stream position does not depend on the scale).
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    rng = as_generator(rng)
    u = rng.random(size)
    if scale == 0.0:
        return np.zeros(size)
    x = np.maximum(1.0 - 2.0 * np.abs(u - 0.5), 5e-324)
    # math.log, not np.log: numpy's log differs from it in the last bit on some
    # inputs, and the pinned seeded releases are math.log's.
    magnitude = -scale * np.fromiter(map(math.log, x.tolist()), np.float64, count=size)
    return np.where(u < 0.5, -magnitude, magnitude)


def privatize_stats(stats: SampleStats, spec: SensitivitySpec, budget: PrivacyBudget,
                    delta: float, horizon: float,
                    seed: int | np.random.Generator) -> SampleStats:
    """Laplace mechanism on the sample mean and variance (two independent draws).

    Raises HorizonTooShort in relation-unaware mode when the horizon is below
    the progeny-bound threshold (the bound is vacuous there), and ConfigError,
    before any draw, when a noise scale is not a finite float. The returned
    pair carries total budget 2*epsilon by composition.
    """
    if horizon < spec.min_horizon:
        raise HorizonTooShort(
            f"horizon {horizon:.6g} below relation-unaware threshold {spec.min_horizon:.6g}")
    mean_scale = mean_sensitivity(spec, stats.k, horizon) / budget.epsilon
    var_scale = variance_sensitivity(spec, stats.k, delta, horizon) / budget.epsilon
    if not (math.isfinite(mean_scale) and math.isfinite(var_scale)):
        raise ConfigError(f"Laplace scales {mean_scale:.6g} and {var_scale:.6g} are not both "
                          "finite: the prior box, gamma or epsilon is out of float range")
    # Bit for bit two laplace_samples(scale, seed, 1) draws: s*(-log x) == -s*log x.
    mean_noise, var_noise = laplace_samples(1.0, seed, 2).tolist()
    return SampleStats(eta_hat=stats.eta_hat + mean_scale * mean_noise,
                       sigma_sq_hat=stats.sigma_sq_hat + var_scale * var_noise, k=stats.k)


def private_estimate(series: CountSeries, bounds: ParamBounds, budget: PrivacyBudget,
                     b_mode: str, seed: int | np.random.Generator) -> EstimateResult:
    """privatize_stats then invert_moments, labeled with the composed budget.

    The spec is SensitivitySpec.for_b_mode's, so a refused label is a
    ConfigError. Raises HorizonTooShort as privatize_stats does, and
    NonConvergence when the inversion fails or the noise leaves a nonpositive
    mean. Relation-aware release composes to (gamma, 2*epsilon) random-DP;
    relation-unaware to (2*gamma, 2*epsilon).
    """
    spec = SensitivitySpec.for_b_mode(bounds, budget.gamma, b_mode)
    priv = privatize_stats(sample_stats(series), spec, budget, series.delta,
                           series.horizon, seed)
    if not priv.eta_hat > 0:
        raise NonConvergence(f"privatized mean {priv.eta_hat:.6g} is nonpositive")
    result = invert_moments(priv.eta_hat, priv.sigma_sq_hat, series.delta, bounds)
    aware = spec.b is not None
    return replace(result, epsilon_total=2.0 * budget.epsilon,
                   gamma_total=budget.gamma if aware else 2.0 * budget.gamma,
                   b_mode=str(spec.b) if aware else "auto")
