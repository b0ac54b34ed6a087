import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dphawkes import (CountSeries, HawkesParams, NonConvergence, ParamBounds,
                      bin_events, branching_counts, estimate, invert_moments,
                      simulate_branching, theoretical_moments)

WIDE = ParamBounds(0.01, 10.0, 0.01, 0.95)
PAPER = ParamBounds(0.5, 2.0, 0.1, 0.75)


def test_invert_recovers_known_moments():
    m = theoretical_moments(HawkesParams(1.0, 0.5), 10.0)
    r = invert_moments(m.eta, m.sigma_sq, 10.0, WIDE)
    assert r.converged
    assert r.mu_hat == pytest.approx(1.0, abs=1e-8)
    assert r.alpha_hat == pytest.approx(0.5, abs=1e-8)
    # round-trip: the recovered pair reproduces the inputs
    back = theoretical_moments(HawkesParams(r.mu_hat, r.alpha_hat), 10.0)
    assert back.eta == pytest.approx(m.eta, rel=1e-10)
    assert back.sigma_sq == pytest.approx(m.sigma_sq, rel=1e-9)


def test_invert_spec_decimals():
    # four-decimal stationary moments of (mu, alpha) = (1, 0.5) at delta = 10
    r = invert_moments(20.0, 68.0809, 10.0, WIDE)
    assert (r.mu_hat, r.alpha_hat) == pytest.approx((1.0, 0.5), abs=1e-4)


def test_poisson_case_reports_lower_boundary():
    r = invert_moments(10.0, 10.0, 10.0, WIDE)
    assert r.converged
    assert r.boundary == "lower"
    assert r.alpha_hat <= WIDE.alpha_lower + 1e-6 + 1e-12


def test_sub_mean_variance_raises():
    with pytest.raises(NonConvergence):
        invert_moments(20.0, 15.0, 10.0, WIDE)


def test_unreachable_high_variance_raises():
    hi = theoretical_moments(HawkesParams(20.0 * (1 - 0.75) / 10.0, 0.75), 10.0)
    with pytest.raises(NonConvergence):
        invert_moments(20.0, hi.sigma_sq * 1.5, 10.0, PAPER)


def test_precondition_errors():
    with pytest.raises(ValueError):
        invert_moments(0.0, 10.0, 10.0, WIDE)
    with pytest.raises(ValueError):
        invert_moments(10.0, 10.0, 0.0, WIDE)


def test_root_at_alpha_upper_converges():
    m = theoretical_moments(HawkesParams(2.0 * (1 - 0.75) / 10.0 * 10.0, 0.75), 10.0)
    r = invert_moments(m.eta, m.sigma_sq, 10.0, PAPER)
    assert r.converged
    assert r.alpha_hat == pytest.approx(0.75, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.5, 2.0), alpha=st.floats(0.1, 0.75), delta=st.floats(1.0, 20.0))
def test_round_trip_property(mu, alpha, delta):
    m = theoretical_moments(HawkesParams(mu, alpha), delta)
    r = invert_moments(m.eta, m.sigma_sq, delta, PAPER)
    assert r.converged
    assert abs(r.mu_hat - mu) < 1e-8
    assert abs(r.alpha_hat - alpha) < 1e-8


@pytest.mark.parametrize("eta_hat", [1.0, 20.0])
@pytest.mark.parametrize("delta", [1.0, 5.0, 10.0, 20.0])
@pytest.mark.parametrize("alpha_upper", [0.75, 0.9])
def test_objective_strictly_increasing(eta_hat, delta, alpha_upper):
    # dispersion grows with alpha: unique-root bisection is justified
    alphas = np.linspace(1e-6, alpha_upper, 512)
    values = [theoretical_moments(HawkesParams(eta_hat * (1 - a) / delta, a), delta).sigma_sq
              for a in alphas]
    assert np.all(np.diff(values) > 0)


def test_estimate_outside_the_box_is_not_projected():
    m = theoretical_moments(HawkesParams(3.0, 0.5), 10.0)
    r = invert_moments(m.eta, m.sigma_sq, 10.0,
                       ParamBounds(0.5, 2.0, 0.1, 0.75))
    assert r.converged  # mu_hat = 3 lies outside the box (0.5, 2) and is returned as is
    assert r.mu_hat == pytest.approx(3.0, rel=1e-6)
    assert r.alpha_hat == pytest.approx(0.5, rel=1e-6)


def test_estimate_synthetic_within_five_percent():
    for seed, (mu, alpha) in ((31, (1.0, 0.5)), (32, (1.5, 0.3))):
        p = HawkesParams(mu, alpha)
        series = bin_events(simulate_branching(p, 100000.0, seed=seed), 10.0)
        r = estimate(series, PAPER)
        assert abs(r.mu_hat - mu) / mu < 0.05
        assert abs(r.alpha_hat - alpha) / alpha < 0.05


def test_estimate_all_zero_series_rejected():
    with pytest.raises(ValueError):
        estimate(CountSeries(np.zeros(10, dtype=int), 1.0), WIDE)


def test_consistency_error_shrinks_with_horizon():
    p = HawkesParams(1.0, 0.5)
    errs = {10_000.0: [], 1_000_000.0: []}
    for t in errs:
        for seed in range(20):
            # the counts of bin_events(simulate_branching(...)), bit for bit
            series = branching_counts(p, t, 600 + seed, 10.0)
            r = estimate(series, PAPER)
            errs[t].append(abs(r.alpha_hat - p.alpha))
    assert np.median(errs[1_000_000.0]) < np.median(errs[10_000.0])


@pytest.mark.parametrize("eta, var", [(20.0, -math.inf), (20.0, math.inf), (20.0, math.nan),
                                      (math.inf, 66.0), (math.nan, 66.0)])
def test_non_finite_moments_never_converge(eta, var):
    # an infinite target once passed the edge test with tol = 1e-10*|var| = inf
    with pytest.raises(NonConvergence, match="not finite"):
        invert_moments(eta, var, 10.0, PAPER)


def test_invert_builds_params_only_at_the_bracket_ends(monkeypatch):
    m = theoretical_moments(HawkesParams(1.0, 0.5), 10.0)
    built = []
    check = HawkesParams.__post_init__
    monkeypatch.setattr(HawkesParams, "__post_init__", lambda self: (built.append(self),
                                                                      check(self)))
    r = invert_moments(m.eta, m.sigma_sq * 1.01, 10.0, PAPER)
    assert r.iterations > 20  # a bisection ran
    assert [p.alpha for p in built] == [PAPER.alpha_lower, PAPER.alpha_upper]


@pytest.mark.parametrize("eta, var, delta, got", [(1e308, 1.5e308, 1e-10, "inf"),
                                                  (5e-324, 1e-323, 1e300, "0.0"),
                                                  (1e300, 2e300, 1e-10, "inf"),
                                                  (5e-324, 1e-323, 10.0, "0.0")])
def test_invert_refuses_a_mean_out_of_float_range(eta, var, delta, got):
    # mu(alpha) = eta*(1-alpha)/delta overflows or underflows at the bracket ends: no
    # estimate, so a sweep records converged=0 and the CLI exits 4
    where = re.escape(f"moments {eta:.6g} and {var:.6g} at delta {delta:.6g}")
    with pytest.raises(NonConvergence, match=rf"^{where}: mu must be positive and finite, "
                                             rf"got {got}$"):
        invert_moments(eta, var, delta, PAPER)
