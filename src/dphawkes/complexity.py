"""Sample-complexity calculators for the non-private and private estimators.

The non-private condition is a direct maximum of four terms; the private one
mixes direct bounds with conditions f(T) >= R whose f (T/log T, or the
Laplace tail's T/(sqrt(log T)*cap(T)^2)) is strictly increasing in T on the
solver bracket, so one bisection solves them all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .counts import MAX_BINS
from .errors import ConfigError, PreconditionViolated
from .hawkes import HawkesParams, ParamBounds
from .privacy import PrivacyBudget, SensitivitySpec
from .rng import task_rng
from .simulate import branching_counts
from .tables import read_table, write_table

COMPLEXITY_CSV_HEADER = ("term_label", "value", "binding")


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile on (0, 1): statistics.NormalDist.inv_cdf, which is
    Wichura's AS241 (relative error below 1e-15 down to p = 5e-324)."""
    if not 0.0 < p < 1.0:  # also refuses nan, for which inv_cdf returns nan
        raise ValueError("p must lie strictly between 0 and 1")
    return NormalDist().inv_cdf(p)


def c9_constant(bounds: ParamBounds, constants: str = "theorem") -> float:
    """Estimation-error amplification constant from the prior box.

    constants="theorem" uses the main-text coefficients (8, 4/3);
    constants="appendix" the private-proof variant (10, 10/3).
    """
    q = 1.0 - bounds.alpha_upper
    if constants not in ("theorem", "appendix"):
        raise ValueError(f"unknown constants variant {constants!r}")
    if not bounds.mu_lower * q**2:  # the smallest denominator underflows
        return math.inf
    if constants == "theorem":
        return max(8.0 / (bounds.mu_lower * q),
                   1.0 + 8.0 * bounds.mu_upper / (bounds.mu_lower * q**2) + 4.0 / (3.0 * q))
    return max(10.0 / (bounds.mu_lower * q),
               2.0 + 10.0 * bounds.mu_upper / (bounds.mu_lower * q**2) + 10.0 / (3.0 * q))


@dataclass(frozen=True)
class ComplexityInputs:
    """Inputs common to the complexity conditions.

    eta4 is the fourth central moment of a stationary bin count, supplied by
    the user or by eta4_monte_carlo. c is the Delta = c*log(T) constant and is
    required only by the private calculator; the caller is responsible for
    keeping delta_bin consistent with c at the solved horizon.
    """

    bounds: ParamBounds
    xi: float
    delta_prob: float
    delta_bin: float
    eta4: float
    sigma_sq: float
    c: float | None = None

    def __post_init__(self):
        optional = () if self.c is None else ("c",)
        for name in ("xi", "delta_bin", "eta4", "sigma_sq", *optional):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0 < self.delta_prob <= 1:
            raise ConfigError(f"delta_prob must lie in (0, 1], got {self.delta_prob}")
        if not self.delta_prob / 32.0:
            raise ConfigError(f"delta_prob {self.delta_prob} is out of float range: "
                              "delta_prob/32 underflows to 0")


@dataclass(frozen=True)
class ComplexityReport:
    required_T: float
    binding_term: str
    all_terms: list[tuple[str, float]]


def _check_preconditions(inputs: ComplexityInputs, c9: float) -> None:
    xi_cap = c9 * inputs.bounds.mu_lower / 6.0
    if not inputs.xi < xi_cap:
        raise PreconditionViolated(
            f"xi {inputs.xi:.6g} violates xi < C9*mu_lower/6 = {xi_cap:.6g}")
    denominator = (1.0 - inputs.bounds.alpha_upper) ** 4 * inputs.xi
    delta_floor = 4.0 * c9 * inputs.bounds.mu_upper / denominator if denominator else math.inf
    if not inputs.delta_bin > delta_floor:
        raise PreconditionViolated(
            f"delta_bin {inputs.delta_bin:.6g} violates "
            f"delta_bin > 4*C9*mu_upper/((1-alpha_upper)^4*xi) = {delta_floor:.6g}")


def _report(terms: list[tuple[str, float]]) -> ComplexityReport:
    for label, value in terms:
        if not math.isfinite(value):
            raise ConfigError(f"term {label} is {value}: the inputs are out of float range")
    binding = max(terms, key=lambda kv: kv[1])
    return ComplexityReport(required_T=binding[1], binding_term=binding[0],
                            all_terms=terms)


def required_T_nonprivate(inputs: ComplexityInputs,
                          constants: str = "theorem") -> ComplexityReport:
    """Observation-time lower bound guaranteeing xi-accuracy w.p. 1 - delta_prob."""
    c9 = c9_constant(inputs.bounds, constants)
    _check_preconditions(inputs, c9)
    xi, d, delta = inputs.xi, inputs.delta_prob, inputs.delta_bin
    psi_8 = -inverse_normal_cdf(d / 8.0)
    psi_16 = -inverse_normal_cdf(d / 16.0)
    pref = inputs.sigma_sq / xi
    terms = [
        ("mean_clt", pref * c9**2 * psi_8**2 / (xi * delta)),
        ("var_fourth_moment",
         pref * 9.0 * c9**2 * psi_16**2 * (inputs.eta4 - inputs.sigma_sq) / (xi * delta)),
        ("var_mean_square", pref * 3.0 * c9 * psi_16**2),
        ("var_markov", pref * 24.0 * c9 / d),
    ]
    return _report(terms)


_SOLVE_LO = math.exp(3.0)
_SOLVE_HI = 1e30
_SOLVE_RTOL = 1e-9


def _solve_increasing(f, rhs: float) -> float:
    """Smallest T on [e^3, 1e30] with f(T) >= rhs, for f strictly increasing there.

    Returns the upper end of the final bisection bracket so the inequality
    holds at the reported T.
    """
    lo, hi = _SOLVE_LO, _SOLVE_HI
    if f(lo) >= rhs:
        return lo
    if f(hi) < rhs:
        raise ConfigError(f"condition f(T) >= {rhs:.3g} unsolvable below 1e30")
    while hi - lo > _SOLVE_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) >= rhs:
            hi = mid
        else:
            lo = mid
    return hi


def _t_over_log(t: float) -> float:
    return t / math.log(t)


def required_T_private(inputs: ComplexityInputs, budget: PrivacyBudget,
                       b_mode: str = "auto",
                       constants: str = "theorem") -> ComplexityReport:
    """Private-estimator horizon bound under Delta = c*log(T).

    b_mode is the release's tree-cap label ('auto' or a positive integer B)
    and builds the release's SensitivitySpec: the Laplace-tail condition reads
    the cap from spec.tree_cap, and the release's horizon floor
    spec.min_horizon (0 when relation-aware) is a term.
    """
    if inputs.c is None:
        raise ConfigError("inputs.c (the Delta = c*log T constant) is required")
    c9 = c9_constant(inputs.bounds, constants)
    _check_preconditions(inputs, c9)
    b = inputs.bounds
    spec = SensitivitySpec.for_b_mode(b, budget.gamma, b_mode)
    xi, d, c = inputs.xi, inputs.delta_prob, inputs.c
    q = 1.0 - b.alpha_upper
    psi_16 = -inverse_normal_cdf(d / 16.0)
    psi_32 = -inverse_normal_cdf(d / 32.0)

    base12 = c9**2 * b.mu_upper / (q**3 * xi**2)
    base13 = c * b.mu_upper / (q**3 * xi)
    tail_rhs = (4.0 * math.sqrt(c) * spec.c1 * c9 * math.log(4.0 / d)
                / (budget.epsilon * xi))
    terms = [
        ("mean_clt", base12 * psi_16**2),
        ("var_fourth_moment",
         base12 * 9.0 * c9**2 * psi_32**2 * (inputs.eta4 - inputs.sigma_sq)),
        ("var_mean_square", _solve_increasing(_t_over_log, base13 * 3.0 * c9 * psi_32**2)),
        ("var_markov", _solve_increasing(_t_over_log, base13 * 48.0 * c9 / d)),
        ("laplace_tail", _solve_increasing(
            lambda t: t / (math.sqrt(math.log(t)) * spec.tree_cap(t) ** 2), tail_rhs)),
        ("min_horizon", spec.min_horizon),
    ]
    return _report(terms)


@dataclass(frozen=True)
class Eta4Estimate:
    value: float
    std_error: float
    num_bins: int


def eta4_monte_carlo(params: HawkesParams, delta: float, num_bins: int,
                     seed: int) -> Eta4Estimate:
    """Monte-Carlo fourth central moment of stationary bin counts.

    Bins are simulated in independent warmed-up series; centering uses the
    known theoretical mean, and the standard error comes from per-series block
    means (bins within a series are dependent, series are not).
    """
    if not 10_000 <= num_bins <= MAX_BINS:
        raise ConfigError(f"num_bins must lie in [1e4, {MAX_BINS:.0e}], got {num_bins}")
    eta = params.mu * delta / (1.0 - params.alpha)
    bins_per = min(5000, num_bins // 20)
    n_series = math.ceil(num_bins / bins_per)
    block_means = np.empty(n_series)
    for s in range(n_series):
        counts = branching_counts(params, bins_per * delta, task_rng(seed, s), delta).counts
        block_means[s] = float(np.mean((counts - eta) ** 4))
    value = float(block_means.mean())
    se = float(block_means.std(ddof=1) / math.sqrt(n_series))
    return Eta4Estimate(value=value, std_error=se, num_bins=bins_per * n_series)


def write_complexity_csv(report: ComplexityReport, path) -> None:
    write_table(path, COMPLEXITY_CSV_HEADER,
                ((label, value, label == report.binding_term)
                 for label, value in report.all_terms))


def read_complexity_csv(path) -> ComplexityReport:
    rows = read_table(path, COMPLEXITY_CSV_HEADER)
    terms = [(label, float(value)) for label, value, _ in rows]
    binding = next((label for label, _, flag in reversed(rows) if flag == "1"), None)
    if binding is None:
        raise ValueError(f"{path}: no binding term marked")
    return ComplexityReport(required_T=dict(terms)[binding], binding_term=binding,
                            all_terms=terms)
