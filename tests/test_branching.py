import math

import numpy as np
import pytest

from dphawkes import (HawkesParams, ParamBounds, PreconditionViolated, borel_pmf,
                      discrepancy_bound, simulate_branching, theoretical_moments, tree_sizes)
from dphawkes.branching import read_tree_csv, write_tree_csv
from dphawkes.counts import bin_events
from dphawkes.events import EventSequence
from dphawkes.privacy import c1_constant


# Oracles of the paper's progeny-tail and largest-tree bounds; the package needs neither.

def progeny_tail_bound(nu: float, d: float) -> float:
    """P(progeny > d) <= e^2 exp(-(nu - 1 - log nu) d), for d beyond the mean 1/(1-nu)."""
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0, 1)")
    if not d > 1.0 / (1.0 - nu):
        raise ValueError("d must exceed the mean progeny 1/(1-nu)")
    rate = nu - 1.0 - math.log(nu)
    return math.exp(2.0 - rate * d)


def largest_tree_prob_bound(mu: float, alpha: float, horizon: float, a: float) -> float:
    """Lower bound on P(largest tree observed by the horizon has <= a/(1-alpha) members)."""
    if not a > 1:
        raise ValueError("a must exceed 1")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    return math.exp(-mu * horizon * math.e**2 * math.exp(-(10.0 * a / 21.0) * (1.0 - alpha)))


def test_borel_pmf_examples():
    assert borel_pmf(0.5, 1) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert borel_pmf(0.5, 1) == pytest.approx(0.606531, abs=5e-7)
    assert borel_pmf(0.5, 2) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    assert borel_pmf(0.5, 2) == pytest.approx(0.183940, abs=5e-7)
    assert borel_pmf(0.0, 1) == 1.0
    assert borel_pmf(0.0, 5) == 0.0


def test_borel_pmf_validation():
    with pytest.raises(ValueError):
        borel_pmf(1.0, 3)
    with pytest.raises(ValueError):
        borel_pmf(-0.1, 3)
    with pytest.raises(ValueError):
        borel_pmf(0.5, 0)


def test_borel_pmf_large_j_no_overflow():
    val = borel_pmf(0.75, 10_000)
    assert 0.0 <= val < 1.0
    assert math.isfinite(val)


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.75])
def test_borel_normalization(nu):
    partial = math.fsum(borel_pmf(nu, j) for j in range(1, 10_001))
    bound = progeny_tail_bound(nu, 10_000)
    # 5e-13 slack: the inequality is exact-arithmetic, the 1e4-term float sum is not
    assert partial >= 1.0 - bound - 5e-13
    assert partial <= 1.0 + 5e-13


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.75])
def test_borel_mean(nu):
    mean = math.fsum(j * borel_pmf(nu, j) for j in range(1, 10_001))
    assert abs(mean - 1.0 / (1.0 - nu)) < 1e-6


def test_progeny_tail_bound_example():
    rate = 0.5 - 1.0 - math.log(0.5)
    assert rate == pytest.approx(0.193147, abs=5e-7)
    expected = math.exp(2.0) * math.exp(-rate * 20.0)
    got = progeny_tail_bound(0.5, 20.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.15521, abs=5e-5)


def test_progeny_tail_bound_vanishes():
    assert progeny_tail_bound(0.5, 5000.0) < 1e-300


def test_progeny_tail_bound_validation():
    with pytest.raises(ValueError):
        progeny_tail_bound(0.5, 1.5)  # below the mean 2
    with pytest.raises(ValueError):
        progeny_tail_bound(1.2, 10.0)


@pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_tail_bound_dominates_exact_tail(nu):
    mean = 1.0 / (1.0 - nu)
    for d in (mean + 1.0, 2 * mean + 1.0, 20.0, 50.0, 120.0):
        if d <= mean:
            continue
        exact_tail = 1.0 - math.fsum(borel_pmf(nu, j) for j in range(1, int(d) + 1))
        assert progeny_tail_bound(nu, d) >= exact_tail - 1e-12


def test_largest_tree_prob_bound_examples():
    assert largest_tree_prob_bound(1.0, 0.5, 100.0, 1e9) == pytest.approx(1.0)
    expected = math.exp(-100.0 * math.e**2 * math.exp(-(10.0 * 50.0 / 21.0) * 0.5))
    got = largest_tree_prob_bound(1.0, 0.5, 100.0, 50.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.99500, abs=2e-4)
    with pytest.raises(ValueError):
        largest_tree_prob_bound(1.0, 0.5, 100.0, 0.5)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("horizon", [1e3, 1e5])
@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("alpha", [0.3, 0.75])
def test_bound_at_calibrated_a_covers_gamma(mu, horizon, gamma, alpha):
    a = 2.1 * math.log(mu * math.e**2 * horizon / gamma) / (1.0 - alpha)
    assert largest_tree_prob_bound(mu, alpha, horizon, a) >= 1.0 - gamma


def test_largest_tree_bound_empirical():
    mu, alpha, horizon, a = 1.0, 0.5, 100.0, 50.0
    cap = a / (1.0 - alpha)
    bound = largest_tree_prob_bound(mu, alpha, horizon, a)
    n = 1000
    ok = 0
    for i in range(n):
        seq = simulate_branching(HawkesParams(mu, alpha), horizon, seed=30_000 + i,
                                 warmup=0.0)
        sizes = tree_sizes(seq)
        if sizes.size == 0 or sizes.max() <= cap:
            ok += 1
    se = math.sqrt(bound * (1 - bound) / n)
    assert ok / n >= bound - 3 * se - 1e-9


def test_tree_sizes_singletons():
    seq = EventSequence(np.array([1.0, 2.0, 3.0]), horizon=5.0,
                        tree_id=np.array([0, 1, 2]),
                        parent_idx=np.array([-1, -1, -1]))
    sizes = tree_sizes(seq)
    assert sorted(sizes.tolist()) == [1, 1, 1]
    assert sizes.size == 3


def test_tree_sizes_requires_labels():
    seq = EventSequence(np.array([1.0]), horizon=2.0)
    with pytest.raises(ValueError):
        tree_sizes(seq)


def test_tree_sizes_sum_matches_events():
    seq = simulate_branching(HawkesParams(1.0, 0.5), 2000.0, seed=9, warmup=0.0)
    assert tree_sizes(seq).sum() == len(seq)


def borel_chi_square_pvalue(sizes: np.ndarray, alpha: float, max_j: int = 60) -> float:
    """Chi-square fit of observed tree sizes against the exact progeny law,
    pooling tail cells below expected mass 5."""
    from scipy import stats as sps
    n = sizes.size
    observed = np.bincount(np.minimum(sizes, max_j + 1), minlength=max_j + 2)[1:].astype(float)
    head = [borel_pmf(alpha, j) * n for j in range(1, max_j + 1)]
    expected = np.array(head + [n - math.fsum(head)])
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    result = sps.chisquare(observed, expected * observed.sum() / expected.sum())
    return float(result.pvalue)


def test_empirical_sizes_match_borel_chi_square():
    # smoke version of the acceptance-scale test; trees rooted near the horizon
    # are excluded because their in-window sizes are truncated
    alpha = 0.5
    horizon = 20000.0
    seq = simulate_branching(HawkesParams(1.0, alpha), horizon, seed=71, warmup=0.0)
    sizes = np.bincount(seq.tree_id)
    root_time = np.full(sizes.size, np.inf)
    roots = seq.parent_idx < 0
    root_time[seq.tree_id[roots]] = seq.timestamps[roots]
    keep = root_time <= horizon - 80.0
    assert borel_chi_square_pvalue(sizes[keep & (sizes > 0)], alpha) > 0.01


def test_empirical_mean_tree_size():
    alpha = 0.5
    seq = simulate_branching(HawkesParams(1.0, alpha), 20000.0, seed=72, warmup=0.0)
    sizes = tree_sizes(seq)
    se = sizes.std(ddof=1) / math.sqrt(sizes.size)
    assert abs(sizes.mean() - 1.0 / (1.0 - alpha)) < 4 * se


def test_discrepancy_bound_value():
    bounds = ParamBounds(0.5, 2.0, 0.1, 0.75)
    c1 = c1_constant(bounds, 0.05)
    got = discrepancy_bound(bounds, 0.05, 1, 12.0)
    assert got == pytest.approx(1.0 * math.sqrt(12.0) * c1, rel=1e-14)
    # the spec's worked value uses C1 = 53.066 at sqrt(Delta)=sqrt(10); verify
    # the same arithmetic at an admissible bracket via the formula pieces
    assert 1.0 * math.sqrt(10.0) * c1 == pytest.approx(167.80, abs=2e-2)


def test_discrepancy_bound_boundary_strict():
    bounds = ParamBounds(0.5, 2.0, 0.1, 0.75)
    threshold = 10 * 0.75**2 / (2 * 0.25)
    with pytest.raises(PreconditionViolated):
        discrepancy_bound(bounds, 0.05, 5, threshold)
    assert discrepancy_bound(bounds, 0.05, 5, threshold + 1e-9) > 0


def test_discrepancy_bound_empirical():
    # true (1, 0.5) inside a tighter box that admits delta = 10
    bounds = ParamBounds(0.5, 2.0, 0.1, 0.6)
    gamma = 0.05
    p = HawkesParams(1.0, 0.5)
    delta, k, b = 10.0, 50, 5
    cap = discrepancy_bound(bounds, gamma, b, delta)
    eta = theoretical_moments(p, delta).eta
    rng = np.random.default_rng(400)
    ok = 0
    trials = 2000
    for i in range(trials):
        seq = simulate_branching(p, k * delta, seed=40_000 + i)
        counts = bin_events(seq, delta).counts
        picks = rng.choice(k, size=b, replace=False)
        if np.abs(counts[picks] - eta).sum() < cap:
            ok += 1
    se = math.sqrt(gamma * (1 - gamma) / trials)
    assert ok / trials >= (1 - gamma) - 3 * se


def test_tree_csv_round_trip(tmp_path):
    path = tmp_path / "trees.csv"
    write_tree_csv(np.array([1, 1, 2, 2, 2, 7]), path)
    sizes, counts = read_tree_csv(path)
    assert sizes.tolist() == [1, 2, 7]
    assert counts.tolist() == [2, 3, 1]


def test_empty_sequence_holds_no_trees_labelled_or_not():
    sizes = tree_sizes(EventSequence(np.zeros(0), horizon=0.0))
    assert sizes.size == 0 and sizes.dtype == np.int64
