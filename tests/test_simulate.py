import hashlib
import math

import numpy as np
import pytest

from dphawkes import (HawkesParams, bin_events, branching_counts, default_warmup,
                      sample_stats, simulate_branching, simulate_thinning,
                      theoretical_moments, tree_sizes)
from dphawkes.errors import ConfigError
from dphawkes.simulate import MAX_EXPECTED_EVENTS, _generations
from tests.test_hawkes import transient_moments


@pytest.mark.parametrize("simulate", [simulate_thinning, simulate_branching])
def test_determinism(simulate):
    p = HawkesParams(1.0, 0.5)
    a = simulate(p, 1000.0, seed=42)
    b = simulate(p, 1000.0, seed=42)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    c = simulate(p, 1000.0, seed=43)
    assert a.timestamps.shape != c.timestamps.shape or not np.array_equal(a.timestamps, c.timestamps)


@pytest.mark.parametrize("simulate", [simulate_thinning, simulate_branching])
def test_rejects_bad_horizon(simulate):
    p = HawkesParams(1.0, 0.5)
    with pytest.raises(ValueError):
        simulate(p, 0.0, seed=1)
    with pytest.raises(ValueError):
        simulate(p, 100.0, seed=1, warmup=-1.0)


def test_invalid_params_rejected_at_construction():
    with pytest.raises(ValueError):
        HawkesParams(1.0, 1.5)
    with pytest.raises(ValueError):
        HawkesParams(-0.5, 0.5)


def test_thinning_stationary_rate():
    p = HawkesParams(1.0, 0.5)
    t = 100000.0
    seq = simulate_thinning(p, t, seed=7)
    # SD of count/T from the stationary variance rate mu/(1-alpha)^3
    sd = math.sqrt(p.mu / (1 - p.alpha) ** 3 / t)
    assert abs(len(seq) / t - p.stationary_rate) < 4 * sd
    assert seq.timestamps[0] >= 0 and seq.timestamps[-1] <= t


@pytest.mark.parametrize("mu,alpha,horizon,seed,n,digest", [
    (1.0, 0.5, 3000.0, 11, 6058,
     "195e4a6e2fd39c95915159fb5b0d5a8337acdb61113a8099aa786c0a11554835"),
    (0.3, 0.95, 2000.0, 12, 15933,  # its candidates span more than one uniform block
     "7dcff110de96b276c5e5911dd140948079225287153f0fdd023f3b51991fffa8"),
    (5.0, 0.1, 500.0, 13, 2789,
     "54b82d5aece1853d7b51a7ca31ef0933602f1c02068b4a0b3f6125c426cd35fb"),
])
def test_thinning_timestamps_are_pinned(mu, alpha, horizon, seed, n, digest):
    seq = simulate_thinning(HawkesParams(mu, alpha), horizon, seed)
    assert len(seq) == n
    assert hashlib.sha256(seq.timestamps.tobytes()).hexdigest() == digest


def test_thinning_poisson_limit():
    p = HawkesParams(1.0, 1e-9)
    t = 10000.0
    seq = simulate_thinning(p, t, seed=3)
    sd = math.sqrt(1.0 / t)
    assert abs(len(seq) / t - 1.0) < 4 * sd


def test_branching_poisson_limit_trees_are_singletons():
    seq = simulate_branching(HawkesParams(1.0, 1e-9), 5000.0, seed=5, warmup=0.0)
    sizes = tree_sizes(seq)
    assert sizes.max() == 1
    assert sizes.size == len(seq)


def test_branching_offspring_mean():
    p = HawkesParams(1.0, 0.5)
    t = 100000.0
    seq = simulate_branching(p, t, seed=13, warmup=0.0)
    # direct children per event, restricted to parents whose offspring window
    # fits in the horizon (exponential delays beyond 40 are negligible)
    children = np.bincount(seq.parent_idx[seq.parent_idx >= 0], minlength=len(seq))
    parents = seq.timestamps <= t - 40.0
    mean_offspring = children[parents].mean()
    se = math.sqrt(p.alpha / parents.sum())
    assert abs(mean_offspring - p.alpha) < 4 * se


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_offspring_counts_are_poisson(alpha):
    # one Poisson total per generation, spread over uniform parents, must give
    # each parent a Poisson(alpha) count; parents 50 before T lose no child
    from scipy import stats as sps
    horizon = 250_000.0
    gens = _generations(HawkesParams(1.0, alpha), horizon, np.random.default_rng(5),
                        0.0, True)
    parents, _ = next(gens)
    _, parent = next(gens)
    children = np.bincount(parent, minlength=parents.size)[parents <= horizon - 50.0]
    assert children.size >= 200_000
    law = sps.poisson(alpha)
    top = int(law.isf(5.0 / children.size))  # counts >= top pool into one bin, >= 5 expected
    observed = np.bincount(np.minimum(children, top), minlength=top + 1)
    expected = children.size * np.append(law.pmf(np.arange(top)), law.sf(top - 1))
    assert sps.chisquare(observed, expected).pvalue > 0.01


def test_warmup_default_restores_stationary_first_bin():
    # with warmup the first bin has the stationary mean; without it, the
    # transient mean from an empty start
    p = HawkesParams(1.0, 0.5)
    t = 10.0
    n = 3000
    warm = np.empty(n)
    cold = np.empty(n)
    for i in range(n):
        warm[i] = len(simulate_branching(p, t, seed=50_000 + i))
        cold[i] = len(simulate_branching(p, t, seed=50_000 + i, warmup=0.0))
    stationary = theoretical_moments(p, t).eta
    transient = transient_moments(p, lambda0=p.mu, t=t)[0]
    assert stationary > transient + 1.5
    for sample, target in ((warm, stationary), (cold, transient)):
        se = sample.std(ddof=1) / math.sqrt(n)
        assert abs(sample.mean() - target) < 4 * se


def test_default_warmup_value():
    assert default_warmup(0.5) == pytest.approx(40.0)


@pytest.mark.parametrize("simulate", [simulate_thinning, simulate_branching])
def test_sim_theory_agreement_smoke(simulate):
    # light version of the 200-series acceptance check
    p = HawkesParams(1.0, 0.5)
    delta, k, n_series = 10.0, 500, 60
    m = theoretical_moments(p, delta)
    means = np.empty(n_series)
    variances = np.empty(n_series)
    for i in range(n_series):
        seq = simulate(p, k * delta, seed=1000 + i)
        stats = sample_stats(bin_events(seq, delta))
        means[i] = stats.eta_hat
        variances[i] = stats.sigma_sq_hat
    se_mean = means.std(ddof=1) / math.sqrt(n_series)
    se_var = variances.std(ddof=1) / math.sqrt(n_series)
    assert abs(means.mean() - m.eta) < 4 * se_mean
    assert abs(variances.mean() - m.sigma_sq) < 6 * se_var


def test_thinning_branching_agree_in_distribution():
    p = HawkesParams(1.0, 0.5)
    t, delta = 100000.0, 10.0
    s_thin = sample_stats(bin_events(simulate_thinning(p, t, seed=101), delta))
    s_branch = sample_stats(bin_events(simulate_branching(p, t, seed=202), delta))
    k = s_thin.k
    m = theoretical_moments(p, delta)
    se_eta = math.sqrt(2.0 * m.sigma_sq / k)  # both runs combined
    assert abs(s_thin.eta_hat - s_branch.eta_hat) < 3 * se_eta
    # variance of the sample variance via the normal-ish fourth-moment proxy
    se_var = math.sqrt(2.0 * 2.0 * m.sigma_sq**2 / k)
    assert abs(s_thin.sigma_sq_hat - s_branch.sigma_sq_hat) < 3 * se_var


@pytest.mark.parametrize("simulate", [simulate_thinning, simulate_branching])
def test_non_finite_horizon_or_warmup_is_config_error(simulate):
    p = HawkesParams(1.0, 0.5)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="horizon"):
            simulate(p, horizon, seed=1)
    with pytest.raises(ConfigError, match="warmup"):
        simulate(p, 100.0, seed=1, warmup=math.inf)


@pytest.mark.parametrize("simulate", [simulate_thinning, simulate_branching])
def test_expected_event_count_above_cap_is_refused_before_simulating(simulate):
    p = HawkesParams(1.0, 0.5)  # 2 events per unit time
    with pytest.raises(ConfigError, match="events"):
        simulate(p, MAX_EXPECTED_EVENTS / 2.0, seed=1)
    # the paper's largest horizon, at the largest rate of its prior box, is admitted
    p_max = HawkesParams(2.0, 0.75)
    assert p_max.stationary_rate * (1e6 + default_warmup(p_max.alpha)) < MAX_EXPECTED_EVENTS


# --- counts-only branching sampler --------------------------------------------

# (mu, alpha, horizon, delta): horizons that are and are not multiples of delta
EQUIVALENCE_CASES = [(1.0, 0.5, 2000.0, 10.0), (0.7, 0.74, 1234.5, 7.3),
                     (2.0, 0.1, 500.0, 3.0), (0.5, 1e-9, 300.0, 0.7)]


@pytest.mark.parametrize("mu,alpha,horizon,delta", EQUIVALENCE_CASES)
@pytest.mark.parametrize("warmup", [None, 0.0])
def test_branching_counts_equal_binned_labeled_sequence(mu, alpha, horizon, delta, warmup):
    p = HawkesParams(mu, alpha)
    for seed in range(200):
        want = bin_events(simulate_branching(p, horizon, seed, warmup), delta)
        got = branching_counts(p, horizon, seed, delta, warmup)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert (got.delta, got.horizon) == (want.delta, want.horizon)


def test_branching_counts_take_a_generator_as_the_labeled_sampler_does():
    p = HawkesParams(1.0, 0.5)
    for seed in range(20):
        want = bin_events(simulate_branching(p, 1000.0, np.random.default_rng(seed)), 10.0)
        got = branching_counts(p, 1000.0, np.random.default_rng(seed), 10.0)
        np.testing.assert_array_equal(got.counts, want.counts)


@pytest.mark.parametrize("horizon,delta,warmup,error", [
    (100.0, 0.0, None, ValueError),  # delta <= 0
    (100.0, -1.0, None, ValueError),
    (100.0, 60.0, None, ValueError),  # fewer than 2 bins
    (MAX_EXPECTED_EVENTS, 10.0, None, ConfigError),  # expected-event cap
    (0.0, 10.0, None, ConfigError),
    (100.0, 10.0, -1.0, ConfigError),
])
def test_branching_counts_refuse_what_the_labeled_path_refuses(horizon, delta, warmup, error):
    p = HawkesParams(1.0, 0.5)
    with pytest.raises(error) as labeled:
        bin_events(simulate_branching(p, horizon, 1, warmup), delta)
    with pytest.raises(error) as counts:
        branching_counts(p, horizon, 1, delta, warmup)
    assert type(counts.value) is type(labeled.value)
    assert str(counts.value) == str(labeled.value)
