import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dphawkes import (HawkesParams, HorizonTooShort, ParamBounds, PrivacyBudget,
                      SampleStats, SensitivitySpec, bin_events, estimate,
                      laplace_samples, mean_sensitivity,
                      privatize_stats, private_estimate, sample_stats,
                      simulate_branching, tree_sizes, validate_horizon,
                      variance_sensitivity)
from dphawkes import ConfigError, NonConvergence

PAPER = ParamBounds(0.5, 2.0, 0.1, 0.75)
GAMMA = 0.05


def spec_aware(b):  # any b, 0 (identical sequences, zero sensitivity) included
    return dataclasses.replace(SensitivitySpec.for_b_mode(PAPER, GAMMA, "1"), b=b)


def spec_unaware():
    return SensitivitySpec.for_b_mode(PAPER, GAMMA, "auto")


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=0.0, gamma=0.05)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, gamma=0.6)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, gamma=0.0)


def test_constants_exact_construction():
    s = spec_unaware()
    assert s.c1 == pytest.approx(math.sqrt(1.1 * 2.0 / (0.25**3 * GAMMA)), rel=1e-14)
    assert s.c1 == pytest.approx(53.066, abs=5e-4)
    assert s.c2 == pytest.approx(3.0 / 0.25**2, rel=1e-14)
    assert s.c2 == 48.0


def test_tree_bound_examples():
    def tree_cap(alpha_upper, horizon):  # the relation-unaware progeny bound
        bounds = ParamBounds(1.0, 1.0, alpha_upper, alpha_upper)
        return SensitivitySpec.for_b_mode(bounds, GAMMA, "auto").tree_cap(horizon)
    assert tree_cap(0.5, 100000.0) == pytest.approx(3 * math.log(1e5) / 0.25, rel=1e-12)
    assert tree_cap(0.5, 100000.0) == pytest.approx(138.155, abs=5e-3)
    assert tree_cap(1e-12, math.e) == pytest.approx(3.0, rel=1e-9)
    assert tree_cap(0.75, 100000.0) == pytest.approx(552.62, abs=5e-2)


def test_validate_horizon_examples():
    assert validate_horizon(1.0, 1.0, math.e**5)  # threshold is exactly e^5
    assert not validate_horizon(1.0, 1.0, math.e**5 * 0.999)
    assert not validate_horizon(2.0, 0.05, 1e5)
    threshold = (2.0 * math.e**2 / 0.05) ** 2.5
    assert threshold == pytest.approx(1.50e6, rel=5e-3)
    assert validate_horizon(2.0, 0.05, 1e7)


def test_mean_sensitivity():
    assert mean_sensitivity(spec_aware(10), 10000, 1e5) == pytest.approx(0.001)
    assert mean_sensitivity(spec_aware(1), 2, 10.0) == pytest.approx(0.5)
    unaware = mean_sensitivity(spec_unaware(), 10000, 1e5)
    assert unaware == pytest.approx(48 * math.log(1e5) / 10000, rel=1e-12)
    assert unaware == pytest.approx(0.055262, abs=5e-6)
    with pytest.raises(ValueError):
        mean_sensitivity(spec_aware(10), 1, 1e5)


def test_variance_sensitivity_aware():
    c1 = spec_aware(10).c1
    expected = 100 / 10000 + 2 * 10**1.5 * math.sqrt(10.0) * c1 / 9999
    got = variance_sensitivity(spec_aware(10), 10000, 10.0, 1e5)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.0713, abs=2e-4)
    assert variance_sensitivity(spec_aware(0), 10000, 10.0, 1e5) == 0.0


def test_variance_sensitivity_unaware():
    s = spec_unaware()
    log_t = math.log(1e5)
    k = 10000
    expected = (s.c2**2 * log_t**2
                + 2 * s.c2**1.5 * s.c1 * (k / (k - 1)) * log_t**1.5 * math.sqrt(10.0)) / k
    got = variance_sensitivity(s, k, 10.0, 1e5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_sensitivity_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 10_000))
        t = float(rng.uniform(10.0, 1e6))
        delta = float(rng.uniform(1.0, 50.0))
        b = int(rng.integers(1, 200))
        # nondecreasing in B
        assert mean_sensitivity(spec_aware(b + 1), k, t) >= mean_sensitivity(spec_aware(b), k, t)
        assert (variance_sensitivity(spec_aware(b + 1), k, delta, t)
                >= variance_sensitivity(spec_aware(b), k, delta, t))
        # nondecreasing in log T (unaware), decreasing in K
        s = spec_unaware()
        assert mean_sensitivity(s, k, t * 2) >= mean_sensitivity(s, k, t)
        assert variance_sensitivity(s, k, delta, t * 2) >= variance_sensitivity(s, k, delta, t)
        assert mean_sensitivity(s, k + 1, t) < mean_sensitivity(s, k, t)
        assert variance_sensitivity(s, k + 1, delta, t) < variance_sensitivity(s, k, delta, t)


class _FixedUniform:
    """Minimal Generator stand-in returning a scripted uniform."""

    def __init__(self, u):
        self._u = u

    def random(self, size=None):
        return self._u if size is None else np.full(size, self._u)


def test_laplace_median_is_zero():
    assert laplace_samples(2.0, _FixedUniform(0.5), 1)[0] == 0.0


def test_laplace_sign_convention():
    assert laplace_samples(1.0, _FixedUniform(0.25), 1)[0] == pytest.approx(math.log(0.5))
    assert laplace_samples(1.0, _FixedUniform(0.75), 1)[0] == pytest.approx(-math.log(0.5))


def test_laplace_zero_scale():
    rng = np.random.default_rng(0)
    assert laplace_samples(0.0, rng, 1)[0] == 0.0


def test_laplace_scalar_vector_same_stream():
    scalar = laplace_samples(1.5, np.random.default_rng(9), 1)[0]
    vector = laplace_samples(1.5, np.random.default_rng(9), 4)
    assert scalar == vector[0]


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1.0, 3.7e5, 1e300])
def test_laplace_vector_draws_are_successive_scalar_draws(scale):
    for seed in (3, 2024):
        vector_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        vector = laplace_samples(scale, vector_rng, 5000)
        scalar = np.array([laplace_samples(scale, scalar_rng, 1)[0] for _ in range(5000)])
        assert vector.tobytes() == scalar.tobytes()
        assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_laplace_floor_is_the_same_in_both_draws():
    # u = 0 puts 1 - 2|u - 1/2| at 0, so the 5e-324 floor sets the magnitude
    scalar = laplace_samples(2.0, _FixedUniform(0.0), 1)[0]
    assert scalar == 2.0 * math.log(5e-324)
    assert laplace_samples(2.0, _FixedUniform(0.0), 3).tobytes() == np.full(3, scalar).tobytes()


def test_laplace_variance_and_tails():
    b = 1.0
    draws = laplace_samples(b, np.random.default_rng(12), 1_000_000)
    assert abs(draws.var() - 2 * b**2) / (2 * b**2) < 0.02
    for p in (0.1, 0.01):
        t = math.log(1.0 / p)
        freq = float(np.mean(np.abs(draws) >= b * t))
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(freq - p) < 3 * se


def _stats(k=10000, eta=20.0, var=66.0):
    return SampleStats(eta_hat=eta, sigma_sq_hat=var, k=k)


def test_privatize_infinite_budget_is_identity():
    budget = PrivacyBudget(epsilon=math.inf, gamma=GAMMA)
    out = privatize_stats(_stats(), spec_aware(10), budget, 10.0, 1e5, seed=4)
    assert abs(out.eta_hat - 20.0) < 1e-12
    assert abs(out.sigma_sq_hat - 66.0) < 1e-12


def test_privatize_noise_distribution():
    budget = PrivacyBudget(epsilon=1.0, gamma=GAMMA)
    scale = mean_sensitivity(spec_aware(10), 10000, 1e5) / budget.epsilon
    assert scale == pytest.approx(0.001)
    diffs = np.array([
        privatize_stats(_stats(), spec_aware(10), budget, 10.0, 1e5, seed=s).eta_hat - 20.0
        for s in range(4000)])
    assert abs(diffs.var() - 2 * scale**2) / (2 * scale**2) < 0.1
    assert abs(float(np.mean(np.abs(diffs) >= scale * math.log(2))) - 0.5) < 0.03


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64), b=st.sampled_from([0, 1, 10, 100, 10**6]),
       epsilon=st.sampled_from([1e-3, 0.05, 1.0, 25.0, math.inf]))
def test_privatize_is_two_successive_laplace_draws(seed, b, epsilon):
    # one two-uniform draw scaled by (mean, variance) scale, bit for bit; b = 0 and
    # epsilon = inf give scale 0
    spec, budget = spec_aware(b), PrivacyBudget(epsilon=epsilon, gamma=GAMMA)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    out = privatize_stats(_stats(), spec, budget, 10.0, 1e5, seed=rng)
    eta = 20.0 + laplace_samples(mean_sensitivity(spec, 10000, 1e5) / epsilon, ref, 1)[0]
    var = 66.0 + laplace_samples(variance_sensitivity(spec, 10000, 10.0, 1e5) / epsilon,
                                 ref, 1)[0]
    assert (out.eta_hat, out.sigma_sq_hat) == (eta, var)
    assert type(out.eta_hat) is float and type(out.sigma_sq_hat) is float
    assert rng.bit_generator.state == ref.bit_generator.state


def test_privatize_unaware_requires_horizon():
    budget = PrivacyBudget(epsilon=1.0, gamma=GAMMA)
    with pytest.raises(HorizonTooShort):
        privatize_stats(_stats(), spec_unaware(), budget, 10.0, 1e5, seed=1)
    out = privatize_stats(_stats(), spec_unaware(), budget, 10.0, 2e6, seed=1)
    assert out.k == 10000


def test_private_estimate_metadata_and_limit():
    p = HawkesParams(1.0, 0.5)
    series = bin_events(simulate_branching(p, 100000.0, seed=41), 10.0)
    base = estimate(series, PAPER)
    budget = PrivacyBudget(epsilon=math.inf, gamma=GAMMA)
    priv = private_estimate(series, PAPER, budget, "10", seed=2)
    assert priv.mu_hat == pytest.approx(base.mu_hat, abs=1e-10)
    assert priv.alpha_hat == pytest.approx(base.alpha_hat, abs=1e-10)
    assert priv.epsilon_total == math.inf
    assert priv.gamma_total == GAMMA  # relation-aware keeps gamma
    assert priv.b_mode == "10"

    # gamma = 0.5 pulls the relation-unaware threshold below T = 1e5
    priv = private_estimate(series, PAPER, PrivacyBudget(epsilon=5.0, gamma=0.5), "auto",
                            seed=2)
    assert priv.gamma_total == 1.0
    assert priv.epsilon_total == 10.0
    assert priv.b_mode == "auto"


def test_private_estimate_nonpositive_mean_is_nonconvergence():
    series = bin_events(simulate_branching(HawkesParams(1.0, 0.5), 1000.0, seed=1), 10.0)
    budget = PrivacyBudget(epsilon=0.005, gamma=GAMMA)
    priv = privatize_stats(sample_stats(series), spec_aware(100), budget,
                           series.delta, series.horizon, seed=2)
    assert priv.eta_hat == pytest.approx(-108.979, abs=1e-3)
    with pytest.raises(NonConvergence, match="nonpositive"):
        private_estimate(series, PAPER, budget, "100", seed=2)


@pytest.mark.parametrize("b_mode", ["0", "-1", "+7", " 7", "ten", ""])
def test_private_estimate_refuses_the_labels_its_bound_refuses(b_mode):
    # as required_T_private does; "0" once released the exact statistics
    # labelled as a noisy release
    series = bin_events(simulate_branching(HawkesParams(1.0, 0.5), 1000.0, seed=1), 10.0)
    with pytest.raises(ConfigError, match="B must be a positive integer"):
        private_estimate(series, PAPER, PrivacyBudget(0.05, 0.05), b_mode, seed=9)


def test_private_estimate_labels_the_canonical_b_and_the_total_budget():
    series = bin_events(simulate_branching(HawkesParams(1.0, 0.5), 10000.0, seed=41), 10.0)
    budget = PrivacyBudget.for_total(0.3, GAMMA)
    assert budget == PrivacyBudget(0.3 / 2.0, GAMMA)
    priv = private_estimate(series, PAPER, budget, "007", seed=2)
    assert (priv.b_mode, priv.epsilon_total) == ("7", 0.3)
    assert priv == private_estimate(series, PAPER, budget, "7", seed=2)


def test_spec_for_b_mode_and_horizon_threshold():
    # the paper's box (the first complexity box) and the other two complexity boxes
    for bounds in (PAPER, ParamBounds(0.9, 1.1, 0.3, 0.6), ParamBounds(1.0, 2.0, 0.2, 0.5)):
        for gamma in (GAMMA, 0.5):
            q, mu = 1.0 - bounds.alpha_upper, bounds.mu_upper
            c1, c2 = math.sqrt(1.1 * mu / (q**3 * gamma)), 3.0 / q**2
            for label, b in (("25", 25), ("007", 7)):
                assert SensitivitySpec.for_b_mode(bounds, gamma, label) == \
                    SensitivitySpec(c1, c2, b, min_horizon=0.0)
            assert SensitivitySpec.for_b_mode(bounds, gamma, "auto") == SensitivitySpec(
                c1, c2, None, max((mu * math.e**2 / gamma) ** 2.5, math.exp(1.0 / c2)))
    threshold = spec_unaware().min_horizon
    assert threshold == (2.0 * math.e**2 / GAMMA) ** 2.5
    assert validate_horizon(2.0, GAMMA, threshold)
    assert not validate_horizon(2.0, GAMMA, math.nextafter(threshold, 0.0))
    budget = PrivacyBudget(epsilon=1.0, gamma=GAMMA)
    privatize_stats(_stats(), spec_unaware(), budget, 10.0, threshold, seed=1)
    with pytest.raises(HorizonTooShort):
        privatize_stats(_stats(), spec_unaware(), budget, 10.0,
                        math.nextafter(threshold, 0.0), seed=1)


def test_private_estimate_small_budget_often_fails():
    p = HawkesParams(1.0, 0.5)
    series = bin_events(simulate_branching(p, 100000.0, seed=43), 10.0)
    budget = PrivacyBudget(epsilon=0.25, gamma=GAMMA)
    failures = 0
    for seed in range(100):
        try:
            private_estimate(series, PAPER, budget, "100", seed=seed)
        except NonConvergence:
            failures += 1
    assert failures >= 20


def test_tree_deletion_containment_smoke():
    # reduced version of the acceptance criterion (200 trials here)
    p = HawkesParams(1.0, 0.5)
    b, delta, k = 10, 10.0, 500
    spec = spec_aware(b)
    rng = np.random.default_rng(77)
    var_ok = 0
    trials = 200
    for i in range(trials):
        seq = simulate_branching(p, k * delta, seed=10_000 + i, warmup=0.0)
        series = bin_events(seq, delta)
        stats = sample_stats(series)
        sizes = tree_sizes(seq)
        eligible = np.flatnonzero(sizes.sizes <= b)
        tree_ids = np.unique(seq.tree_id)[eligible]
        victim = tree_ids[rng.integers(0, tree_ids.size)]
        keep = seq.tree_id != victim
        kept_counts = np.bincount(
            np.floor_divide(seq.timestamps[keep], delta).astype(int), minlength=k)[:k]
        eta2 = kept_counts.mean()
        var2 = kept_counts.var(ddof=1)
        assert abs(eta2 - stats.eta_hat) <= mean_sensitivity(spec, k, series.horizon) + 1e-12
        if abs(var2 - stats.sigma_sq_hat) <= variance_sensitivity(spec, k, delta, series.horizon):
            var_ok += 1
    assert var_ok / trials >= 1 - GAMMA


def test_dp_likelihood_ratio_smoke():
    # fixed neighboring series differing by one size-B tree
    k, b, eps = 100, 5, 1.0
    rng = np.random.default_rng(5)
    y = rng.poisson(20.0, k).astype(float)
    placement = np.bincount(rng.integers(0, k, b), minlength=k)
    eta1 = y.mean()
    eta2 = (y + placement).mean()
    scale = (b / k) / eps
    n = 100_000
    draws1 = eta1 + laplace_samples(scale, np.random.default_rng(101), n)
    draws2 = eta2 + laplace_samples(scale, np.random.default_rng(202), n)
    lo = min(draws1.min(), draws2.min())
    hi = max(draws1.max(), draws2.max())
    bins = np.linspace(lo, hi, 60)
    h1, _ = np.histogram(draws1, bins)
    h2, _ = np.histogram(draws2, bins)
    mask = (h1 >= 100) & (h2 >= 100)
    ratio_slack = 3.0 * np.sqrt(1.0 / h1[mask] + 1.0 / h2[mask])
    assert np.all(h1[mask] <= math.exp(eps) * h2[mask] * (1 + ratio_slack))
    assert np.all(h2[mask] <= math.exp(eps) * h1[mask] * (1 + ratio_slack))


def test_budget_refusals_are_config_errors_and_infinity_is_the_limit():
    for eps in (math.nan, -math.inf, 0.0):
        with pytest.raises(ConfigError, match="epsilon"):
            PrivacyBudget(epsilon=eps, gamma=GAMMA)
    with pytest.raises(ConfigError, match="gamma"):
        PrivacyBudget(epsilon=1.0, gamma=math.nan)
    assert PrivacyBudget(epsilon=math.inf, gamma=GAMMA).epsilon == math.inf


class _NoDraws:
    """A generator stand-in that fails the test if a draw is made."""

    def random(self, *args):
        raise AssertionError("noise drawn")


@pytest.mark.parametrize("spec, epsilon", [
    (SensitivitySpec.for_b_mode(ParamBounds(0.5, 1e308, 0.1, 0.75), GAMMA, "10"), 0.5),
    (SensitivitySpec.for_b_mode(PAPER, 1e-320, "10"), 0.5),
    (SensitivitySpec.for_b_mode(PAPER, GAMMA, "10"), 5e-321),
], ids=["mu_upper", "gamma", "epsilon"])
def test_privatize_refuses_non_finite_noise_scale_before_drawing(spec, epsilon):
    budget = PrivacyBudget(epsilon=epsilon, gamma=GAMMA)
    with pytest.raises(ConfigError, match="not both finite"):
        privatize_stats(_stats(), spec, budget, 10.0, 1e5, seed=_NoDraws())


def test_relation_unaware_threshold_past_float_range_is_infinite():
    spec = SensitivitySpec.for_b_mode(ParamBounds(0.5, 1e300, 0.1, 0.75), GAMMA, "auto")
    assert spec.min_horizon == math.inf


def test_relation_unaware_refuses_a_cap_under_one_event():
    # mu_upper = 0.01 and gamma = 0.5 put the mu/gamma threshold at 0.0084 < 1
    bounds = ParamBounds(0.01, 0.01, 0.1, 0.75)
    spec = SensitivitySpec.for_b_mode(bounds, 0.5, "auto")
    assert validate_horizon(0.01, 0.5, 0.5)
    assert spec.min_horizon == math.exp(1.0 / spec.c2)
    assert spec.tree_cap(spec.min_horizon) == pytest.approx(1.0)
    budget = PrivacyBudget(epsilon=1.0, gamma=0.5)
    for horizon in (0.45, 1.0, math.nextafter(spec.min_horizon, 0.0)):
        with pytest.raises(HorizonTooShort):
            privatize_stats(_stats(k=4), spec, budget, 0.1, horizon, seed=1)
    privatize_stats(_stats(k=4), spec, budget, 0.1, spec.min_horizon, seed=1)


def test_tree_cap_is_b_or_the_progeny_bound():
    assert spec_aware(25).tree_cap(1e5) == 25
    assert spec_unaware().tree_cap(1e5) == 48.0 * math.log(1e5)


@pytest.mark.parametrize("k, delta, horizon", [(2, 10.0, 1e5), (10000, 10.0, 1e5),
                                               (333, 0.7, 2e6), (99999, 25.0, 1e9)])
def test_one_sensitivity_formula_keeps_both_modes(k, delta, horizon):
    # the per-mode formulas the shared one replaced
    c1, c2 = spec_unaware().c1, spec_unaware().c2
    for b in (0, 1, 10, 25, 100, 2**53):
        assert mean_sensitivity(spec_aware(b), k, horizon) == b / k
        assert variance_sensitivity(spec_aware(b), k, delta, horizon) == (
            b**2 / k + 2.0 * b**1.5 * math.sqrt(delta) * c1 / (k - 1))
    log_t = math.log(horizon)
    assert mean_sensitivity(spec_unaware(), k, horizon) == c2 * log_t / k
    unaware = (c2**2 * log_t**2
               + 2.0 * c2**1.5 * c1 * (k / (k - 1)) * log_t**1.5 * math.sqrt(delta)) / k
    # equal in exact arithmetic; the rounding may differ by a few ulps
    assert variance_sensitivity(spec_unaware(), k, delta, horizon) == pytest.approx(
        unaware, rel=2e-15)
