import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dphawkes import (ConfigError, EventSequence, HawkesParams, ParamBounds,
                      simulate_branching, theoretical_moments)
from dphawkes.hawkes import bin_variance


# Oracles of the paper's side formulas; the package itself needs neither.

def intensity_at(params: HawkesParams, events: EventSequence, t: float) -> float:
    """Conditional intensity mu + sum_{t_i < t} alpha * exp(-(t - t_i))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    ts = events.timestamps
    past = ts[ts < t]
    if past.size == 0:
        return params.mu
    return params.mu + params.alpha * float(np.exp(-(t - past)).sum())


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


def test_params_validation():
    with pytest.raises(ValueError):
        HawkesParams(mu=0.0, alpha=0.5)
    with pytest.raises(ValueError):
        HawkesParams(mu=-1.0, alpha=0.5)
    with pytest.raises(ValueError):
        HawkesParams(mu=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        HawkesParams(mu=1.0, alpha=0.0)
    assert HawkesParams(1.0, 0.5).stationary_rate == pytest.approx(2.0)


def test_bounds_validation():
    with pytest.raises(ValueError):
        ParamBounds(2.0, 1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        ParamBounds(1.0, 2.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        ParamBounds(1.0, 2.0, 0.1, 1.0)


def test_intensity_empty_history():
    ev = EventSequence(np.array([]), horizon=10.0)
    assert intensity_at(HawkesParams(1.0, 0.5), ev, 3.0) == 1.0


def test_intensity_single_event():
    ev = EventSequence(np.array([0.0]), horizon=2.0)
    expected = 1.0 + 0.5 * math.exp(-1.0)
    assert intensity_at(HawkesParams(1.0, 0.5), ev, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.18394, abs=5e-6)


def test_intensity_two_events():
    ev = EventSequence(np.array([0.0, 1.0]), horizon=2.0)
    expected = 2.0 + 0.3 * math.exp(-2.0) + 0.3 * math.exp(-1.0)
    got = intensity_at(HawkesParams(2.0, 0.3), ev, 2.0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(2.15096, abs=1e-5)


def test_intensity_excludes_future_events_and_floors_at_mu():
    ev = EventSequence(np.array([1.0, 5.0]), horizon=10.0)
    p = HawkesParams(1.0, 0.5)
    assert intensity_at(p, ev, 0.5) == 1.0
    assert intensity_at(p, ev, 2.0) >= p.mu


def test_theoretical_moments_example():
    m = theoretical_moments(HawkesParams(1.0, 0.5), 10.0)
    assert m.eta == pytest.approx(20.0, abs=1e-12)
    # direct evaluation of the stationary variance, term by term:
    # lam_inf*delta/q^2 = 2*10/0.25 and lam_inf*alpha*(2-alpha)/q^3 = 2*0.5*1.5/0.125
    expected = 10.0 * 2.0 / 0.25 - 2.0 * 0.5 * 1.5 / 0.125 * (1.0 - math.exp(-5.0))
    assert m.sigma_sq == pytest.approx(expected, rel=1e-14)
    assert m.sigma_sq == pytest.approx(68.0809, abs=5e-5)


def test_theoretical_moments_poisson_limit():
    m = theoretical_moments(HawkesParams(1.0, 1e-8), 10.0)
    assert abs(m.sigma_sq - m.eta) < 1e-6
    assert m.eta == pytest.approx(10.0, rel=1e-7)


@given(mu=st.floats(0.01, 5.0), alpha=st.floats(0.001, 0.95),
       delta=st.floats(0.1, 100.0))
def test_moments_positive(mu, alpha, delta):
    m = theoretical_moments(HawkesParams(mu, alpha), delta)
    assert m.eta > 0
    assert m.sigma_sq > 0


@given(mu=st.floats(1e-3, 1e3), alpha=st.floats(1e-6, 0.999), delta=st.floats(1e-3, 1e4))
def test_bin_variance_is_theoretical_moments_bit_for_bit(mu, alpha, delta):
    # the one formula: the bisection's plain-float steps and the checked moments agree exactly,
    # and both keep the rounding order lam_inf*(...)/q**2 with lam_inf = mu/q
    sigma_sq = theoretical_moments(HawkesParams(mu, alpha), delta).sigma_sq
    q = 1.0 - alpha
    lam_inf = mu / q
    assert bin_variance(mu, alpha, delta) == sigma_sq
    assert sigma_sq == lam_inf * (delta + alpha * (2.0 - alpha) * math.expm1(-q * delta) / q) / q**2


def test_transient_stationary_start_collapses():
    p = HawkesParams(1.0, 0.5)
    mean, var = transient_moments(p, lambda0=2.0, t=10.0)
    assert mean == pytest.approx(20.0, abs=1e-12)
    # A stationary start intensity is random (mean lam_inf, variance
    # alpha^2*lam_inf/(2q)); by the law of total variance the stationary
    # variance is the variance from the fixed start lam_inf plus
    # Var(E[N | lambda0]) = ((1 - e^{-q t})/q)^2 * alpha^2*lam_inf/(2q).
    q, lam_inf = 0.5, 2.0
    start_state = ((1.0 - math.exp(-q * 10.0)) / q) ** 2 * 0.25 * lam_inf / (2.0 * q)
    m = theoretical_moments(p, 10.0)
    assert var + start_state == pytest.approx(m.sigma_sq, rel=1e-12)


def test_transient_validation():
    p = HawkesParams(1.0, 0.5)
    with pytest.raises(ValueError):
        transient_moments(p, lambda0=0.5, t=10.0)  # below mu
    with pytest.raises(ValueError):
        transient_moments(p, lambda0=2.0, t=0.0)


def test_transient_empty_start_matches_simulation():
    # warmup=0 branching starts with empty history, i.e. lambda0 = mu
    p = HawkesParams(1.0, 0.5)
    t = 10.0
    mean, var = transient_moments(p, lambda0=p.mu, t=t)
    n_sims = 3000
    counts = np.empty(n_sims)
    for i in range(n_sims):
        counts[i] = len(simulate_branching(p, t, seed=90_000 + i, warmup=0.0))
    se_mean = counts.std(ddof=1) / math.sqrt(n_sims)
    assert abs(counts.mean() - mean) < 4 * se_mean
    sq = (counts - counts.mean()) ** 2
    se_var = sq.std(ddof=1) / math.sqrt(n_sims)
    assert abs(counts.var(ddof=1) - var) < 6 * se_var


def test_non_finite_parameters_are_config_errors():
    for mu in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="mu must be positive and finite"):
            HawkesParams(mu, 0.5)
    with pytest.raises(ConfigError):
        HawkesParams(1.0, math.nan)
    for mu_upper in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            ParamBounds(0.5, mu_upper, 0.1, 0.75)
