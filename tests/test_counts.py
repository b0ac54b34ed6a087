import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dphawkes import (CountSeries, EventSequence, HawkesParams, bin_events,
                      sample_stats, simulate_thinning, theoretical_moments)
from dphawkes.counts import BIN_BLOCK, MAX_BINS, bin_count, bin_times


def test_bin_events_example():
    seq = EventSequence(np.array([0.5, 1.5, 1.7]), horizon=3.0)
    series = bin_events(seq, 1.0)
    assert series.counts.tolist() == [1, 2, 0]
    assert series.horizon == 3.0


def test_bin_events_empty():
    seq = EventSequence(np.array([]), horizon=5.0)
    assert bin_events(seq, 1.0).counts.tolist() == [0, 0, 0, 0, 0]


def test_bin_events_discards_partial_bin():
    seq = EventSequence(np.array([0.5, 2.4]), horizon=2.5)
    series = bin_events(seq, 1.0)
    assert series.k == 2
    assert series.counts.tolist() == [1, 0]  # the 2.4 event falls past K*delta
    assert series.horizon == 2.0


def test_bin_events_needs_two_bins():
    seq = EventSequence(np.array([0.5]), horizon=1.5)
    with pytest.raises(ValueError):
        bin_events(seq, 1.0)


@pytest.mark.parametrize("horizon, delta", [(1000.0, 1e-320), (1e308, 1e-10)])
def test_bin_count_refuses_a_quotient_past_float_range(horizon, delta):
    # refused like any other K outside the range, not converted
    with pytest.raises(ValueError, match=r"yields inf bin\(s\)"):
        bin_count(horizon, delta)


def test_bin_count_takes_both_ends_of_the_range():
    assert bin_count(2.0, 1.0) == 2
    assert bin_count(float(MAX_BINS), 1.0) == MAX_BINS


def test_bin_boundary_left_closed():
    seq = EventSequence(np.array([0.0, 1.0, 1.5]), horizon=2.0)
    assert bin_events(seq, 1.0).counts.tolist() == [1, 2]


@pytest.mark.parametrize("delta", [10.0, 5.0, 7.5, 0.1, 0.3, 1e-3])
def test_bin_index_equals_floor_division_at_every_edge(delta):
    k = 8000
    end = k * delta
    edges = np.arange(k + 1) * delta
    near = [edges]
    for _ in range(2):  # both neighbours, then the next ones out
        near = [np.nextafter(near[0], -np.inf), *near, np.nextafter(near[-1], np.inf)]
    ts = np.concatenate(near)
    ts = ts[(ts >= 0.0) & (ts < end)]
    assert np.nextafter(end, 0.0) in ts
    # a truncated quotient alone misses where delta is not a binary fraction
    misses = np.count_nonzero((ts / delta).astype(np.int64) != np.floor_divide(ts, delta))
    assert (misses > 0) == (delta in (0.1, 0.3, 1e-3))
    rand = np.random.default_rng(11).uniform(-delta, end + delta, 3 * BIN_BLOCK + 7)
    got = bin_times([ts, rand, np.array([-0.0, end])], end, delta)
    kept = np.concatenate([ts, rand[(rand >= 0.0) & (rand < end)], [-0.0]])
    want = np.bincount(np.floor_divide(kept, delta).astype(np.int64), minlength=k)
    np.testing.assert_array_equal(got.counts, want)


def test_count_series_validation():
    with pytest.raises(ValueError):
        CountSeries(np.array([1]), 1.0)
    with pytest.raises(ValueError):
        CountSeries(np.array([1, -2]), 1.0)


def test_sample_stats_example():
    stats = sample_stats(CountSeries(np.array([1, 2, 0]), 1.0))
    assert stats.eta_hat == pytest.approx(1.0)
    assert stats.sigma_sq_hat == pytest.approx(1.0)
    assert stats.k == 3


def test_sample_stats_constant_series():
    stats = sample_stats(CountSeries(np.array([4, 4, 4, 4]), 1.0))
    assert stats.sigma_sq_hat == 0.0
    assert stats.eta_hat == 4.0


@given(st.lists(st.integers(0, 50), min_size=2, max_size=40), st.integers(0, 20))
def test_shift_property(counts, c):
    base = sample_stats(CountSeries(np.array(counts), 1.0))
    shifted = sample_stats(CountSeries(np.array(counts) + c, 1.0))
    assert shifted.eta_hat == pytest.approx(base.eta_hat + c, rel=1e-12, abs=1e-12)
    assert shifted.sigma_sq_hat == pytest.approx(base.sigma_sq_hat, rel=1e-12, abs=1e-12)


def _frac_mean(values):
    return sum(values, Fraction(0)) / len(values)


def _frac_var(values):
    m = _frac_mean(values)
    return sum(((v - m) ** 2 for v in values), Fraction(0)) / (len(values) - 1)


def test_mean_shift_identity_exact():
    # appending B events spread over bins moves the mean by exactly B/K
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(2, 51))
        b = int(rng.integers(0, 11))
        y = [Fraction(int(v)) for v in rng.poisson(5.0, k)]
        extra = np.bincount(rng.integers(0, k, b), minlength=k)
        y2 = [v + int(e) for v, e in zip(y, extra)]
        assert _frac_mean(y2) - _frac_mean(y) == Fraction(b, k)


def test_variance_perturbation_bound_exact():
    # |var(y + b) - var(y)| <= B^2/K + (2/(K-1)) * sum b_i |y_i - ybar|
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(2, 51))
        b = int(rng.integers(0, 11))
        y = [Fraction(int(v)) for v in rng.poisson(5.0, k)]
        extra = [int(e) for e in np.bincount(rng.integers(0, k, b), minlength=k)]
        y2 = [v + e for v, e in zip(y, extra)]
        ybar = _frac_mean(y)
        cap = Fraction(b * b, k) + Fraction(2, k - 1) * sum(
            (e * abs(v - ybar) for v, e in zip(y, extra)), Fraction(0))
        assert abs(_frac_var(y2) - _frac_var(y)) <= cap


def test_float_pipeline_matches_identities():
    rng = np.random.default_rng(3)
    k, b = 40, 8
    y = rng.poisson(5.0, k)
    extra = np.bincount(rng.integers(0, k, b), minlength=k)
    s1 = sample_stats(CountSeries(y, 1.0))
    s2 = sample_stats(CountSeries(y + extra, 1.0))
    assert s2.eta_hat - s1.eta_hat == pytest.approx(b / k, rel=1e-12)


def test_simulated_series_matches_theory():
    p = HawkesParams(1.0, 0.5)
    series = bin_events(simulate_thinning(p, 100000.0, seed=17), 10.0)
    assert series.k == 10000
    stats = sample_stats(series)
    m = theoretical_moments(p, 10.0)
    se_eta = math.sqrt(m.sigma_sq / series.k)
    assert abs(stats.eta_hat - m.eta) < 4 * se_eta
    centered_sq = (series.counts - stats.eta_hat) ** 2
    se_var = centered_sq.std(ddof=1) / math.sqrt(series.k)
    assert abs(stats.sigma_sq_hat - m.sigma_sq) < 6 * se_var
    assert stats.sigma_sq_hat >= 0


def test_sum_counts_equals_events_in_window():
    p = HawkesParams(1.0, 0.5)
    seq = simulate_thinning(p, 1000.0, seed=23)
    series = bin_events(seq, 7.0)
    in_window = (seq.timestamps < series.horizon).sum()
    assert series.counts.sum() == in_window


def test_more_bins_than_a_series_may_hold_is_refused():
    # np.bincount raised OverflowError for a horizon this long
    seq = EventSequence(np.array([1.0]), horizon=1e300)
    with pytest.raises(ValueError, match="bin"):
        bin_events(seq, 10.0)
