"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.

Criterion 1 checks theoretical_moments, which returns the exact stationary
bin variance lambda_inf*Delta/q^2 - lambda_inf*alpha*(2-alpha)*(1-e^{-q*Delta})/q^3
with q = 1-alpha and lambda_inf = mu/q. It equals the three-term expression
evaluated at the fixed start intensity lambda_inf (the conditional variance)
plus the start-state term ((1-e^{-q*Delta})/q)^2 * alpha^2*lambda_inf/(2*q),
which the random stationary start intensity contributes. The simulated series
reject the three-term expression alone by tens of standard errors;
test_simulators_match_corrected_variance checks the same 600 series against
the sum of the two parts.
"""
import math

import numpy as np
import pytest
from scipy import stats as sps

from dphawkes import (ComplexityInputs, HawkesParams, NonConvergence, ParamBounds,
                      PrivacyBudget, bin_events, branching_counts, c9_constant, estimate,
                      invert_moments, laplace_samples, mean_sensitivity,
                      required_T_nonprivate, required_T_private, sample_stats,
                      simulate_branching, theoretical_moments, tree_sizes,
                      validate_horizon, variance_sensitivity)
from dphawkes.config import ExperimentConfig
from dphawkes.experiments import run_sweep, run_time_to_threshold, summarize_sweep
from dphawkes.privacy import SensitivitySpec
from dphawkes.rng import as_generator
from dphawkes.simulate import _generations, default_warmup

from tests.test_branching import borel_chi_square_pvalue
from tests.test_complexity import (GOLDEN_NONPRIVATE, GOLDEN_PRIVATE, inputs_a,
                                   inputs_b, inputs_c)

PAPER_BOUNDS = ParamBounds(0.5, 2.0, 0.1, 0.75)
GAMMA = 0.05


def _report(n, detail):
    print(f"\ncriterion {n}: PASS — {detail}")


MOMENT_CONFIGS = [(1.0, 0.5, 10.0), (1.5, 0.3, 10.0), (2.0, 0.75, 5.0)]


@pytest.fixture(scope="module")
def moment_series_stats():
    """Per-series sample means/variances, 200 series of 5000 bins per config."""
    n_series, k = 200, 5000
    out = {}
    for ci, (mu, alpha, delta) in enumerate(MOMENT_CONFIGS):
        p = HawkesParams(mu, alpha)
        means = np.empty(n_series)
        variances = np.empty(n_series)
        for i in range(n_series):
            # bit-identical to binning simulate_branching (tests/test_simulate.py)
            stats = sample_stats(branching_counts(p, k * delta, 100_000 + 1000 * ci + i, delta))
            means[i] = stats.eta_hat
            variances[i] = stats.sigma_sq_hat
        out[(mu, alpha, delta)] = (means, variances)
    return out


def _conditional_variance(mu, alpha, delta):
    # three-term bin variance from the fixed start intensity lambda_inf
    q = 1.0 - alpha
    return (mu * delta / q**3
            + alpha**2 * mu * (1.0 - math.exp(-2.0 * q * delta)) / (2.0 * q**4)
            - 2.0 * alpha * mu * (1.0 - math.exp(-q * delta)) / q**4)


def _start_state_variance_term(mu, alpha, delta):
    # law-of-total-variance contribution of the random start intensity
    q = 1.0 - alpha
    lam_inf = mu / q
    kappa = (1.0 - math.exp(-q * delta)) / q
    return kappa**2 * alpha**2 * lam_inf / (2.0 * q)


def test_criterion_01_moment_correctness(moment_series_stats):
    details = []
    failures = []
    for mu, alpha, delta in MOMENT_CONFIGS:
        means, variances = moment_series_stats[(mu, alpha, delta)]
        m = theoretical_moments(HawkesParams(mu, alpha), delta)
        n_series = means.size
        se_mean = means.std(ddof=1) / math.sqrt(n_series)
        se_var = variances.std(ddof=1) / math.sqrt(n_series)
        dev_mean = abs(means.mean() - m.eta) / se_mean
        dev_var = (variances.mean() - m.sigma_sq) / se_var
        assert dev_mean < 4.0, (mu, alpha, delta, dev_mean)
        detail = f"({mu},{alpha},{delta:g}): mean {dev_mean:.2f}se, var {dev_var:+.1f}se"
        details.append(detail)
        if abs(dev_var) >= 6.0:
            failures.append(detail)
    if failures:
        pytest.fail(
            "criterion 1: FAIL (variance half) — " + "; ".join(details)
            + ". theoretical_moments should return the exact stationary "
            "variance, the three-term conditional variance plus the "
            "start-state term (module docstring); compare "
            "test_simulators_match_corrected_variance.")
    _report(1, "; ".join(details))


def test_simulators_match_corrected_variance(moment_series_stats):
    """Diagnostic companion to criterion 1 (not itself a criterion): the same
    600 series match the three-term conditional variance plus the start-state
    term within 6 SE, and theoretical_moments returns that sum."""
    for mu, alpha, delta in MOMENT_CONFIGS:
        means, variances = moment_series_stats[(mu, alpha, delta)]
        corrected = (_conditional_variance(mu, alpha, delta)
                     + _start_state_variance_term(mu, alpha, delta))
        m = theoretical_moments(HawkesParams(mu, alpha), delta)
        assert m.sigma_sq == pytest.approx(corrected, rel=1e-10)
        se_var = variances.std(ddof=1) / math.sqrt(variances.size)
        dev = abs(variances.mean() - corrected) / se_var
        assert dev < 6.0, (mu, alpha, delta, dev, corrected)


def test_criterion_02_estimator_round_trip():
    worst = 0.0
    for delta in (5.0, 10.0, 20.0):
        for mu in np.linspace(0.5, 2.0, 20):
            for alpha in np.linspace(0.1, 0.75, 20):
                m = theoretical_moments(HawkesParams(mu, alpha), delta)
                r = invert_moments(m.eta, m.sigma_sq, delta, PAPER_BOUNDS)
                assert r.converged
                worst = max(worst, abs(r.mu_hat - mu), abs(r.alpha_hat - alpha))
    assert worst < 1e-8
    _report(2, f"20x20x3 grid, worst deviation {worst:.2e} < 1e-8")


def test_criterion_03_nonprivate_accuracy():
    details = []
    for ci, (mu, alpha) in enumerate([(1.0, 0.5), (1.5, 0.3)]):
        p = HawkesParams(mu, alpha)
        errs_mu, errs_alpha = [], []
        for seed in range(20):
            # the counts of bin_events(simulate_branching(...)), bit for bit
            series = branching_counts(p, 100000.0, 200_000 + 100 * ci + seed, 10.0)
            r = estimate(series, PAPER_BOUNDS)
            errs_mu.append(abs(r.mu_hat - mu) / mu)
            errs_alpha.append(abs(r.alpha_hat - alpha) / alpha)
        med_mu, med_alpha = np.median(errs_mu), np.median(errs_alpha)
        assert med_mu <= 0.05, (mu, alpha, med_mu)
        assert med_alpha <= 0.05, (mu, alpha, med_alpha)
        details.append(f"({mu},{alpha}): med E_mu {med_mu:.4f}, med E_alpha {med_alpha:.4f}")
    _report(3, "; ".join(details))


def test_criterion_04_privacy_utility_monotonicity():
    cfg = ExperimentConfig(mu=1.0, alpha=0.5, horizon=1e5, repetitions=50,
                           b_values=("10", "25"), seed=2026)
    summary = summarize_sweep(run_sweep(cfg))
    b10 = {r["epsilon"]: r["mean_err_alpha"] for r in summary if r["b_mode"] == "10"}
    b25 = {r["epsilon"]: r["mean_err_alpha"] for r in summary if r["b_mode"] == "25"}
    eps = sorted(b10)
    rho = sps.spearmanr(eps, [b10[e] for e in eps])
    assert rho.statistic < 0 and rho.pvalue < 0.05, (rho.statistic, rho.pvalue)
    assert b10[5.0] < b25[5.0], (b10[5.0], b25[5.0])
    _report(4, f"spearman rho={rho.statistic:.3f} (p={rho.pvalue:.2e}); "
               f"at eps=5: B10 {b10[5.0]:.4f} < B25 {b25[5.0]:.4f}")


def test_criterion_05_time_to_threshold_ordering():
    cfg = ExperimentConfig(mu=1.0, alpha=0.5, repetitions=10,
                           epsilons=(1.0, 5.0, 10.0), b_values=("10", "25"),
                           seed=2027)
    cells = run_time_to_threshold(cfg, threshold=0.1, t_min=12500.0, t_max=1e6)
    t = {(c.epsilon, c.b_mode): (math.inf if c.capped else c.required_t) for c in cells}
    for b in ("10", "25"):
        assert t[(1.0, b)] >= t[(5.0, b)] >= t[(10.0, b)], (b, t)
    for e in (1.0, 5.0, 10.0):
        assert t[(e, "10")] <= t[(e, "25")], (e, t)
    _report(5, "required T: " + ", ".join(
        f"(eps={e:g},B={b})->{t[(e, b)]:g}" for e in (1.0, 5.0, 10.0) for b in ("10", "25")))


def branching_tree_sizes(params, horizon, seed, warmup=None):
    """tree_sizes(simulate_branching(params, horizon, seed, warmup)), in tree-id
    order, from the sampler's generations: no labels, sort or EventSequence."""
    warmup = default_warmup(params.alpha) if warmup is None else warmup
    in_window = []
    for times, parent in _generations(params, horizon, as_generator(seed), warmup,
                                      with_parents=True):
        # immigrant i roots tree i; each child joins its parent's tree
        tree = np.arange(times.size, dtype=np.int32) if parent is None else tree[parent]
        in_window.append(tree[times >= 0])
    sizes = np.bincount(np.concatenate(in_window))
    return sizes[sizes > 0]


@pytest.mark.parametrize("warmup", [0.0, 7.5, None])
def test_branching_tree_sizes_equal_the_labeled_sequences(warmup):
    for i in range(40):
        params = HawkesParams(0.5 + 0.05 * i, 0.1 + 0.02 * i)
        args = (params, 500.0 + 50 * i, 28_000 + i, warmup)
        want = tree_sizes(simulate_branching(*args))
        np.testing.assert_array_equal(branching_tree_sizes(*args), want)


def test_criterion_06_borel_oracle():
    alpha = 0.5
    sizes = branching_tree_sizes(HawkesParams(1.0, alpha), 100000.0, seed=606, warmup=0.0)
    assert sizes.size >= 10_000
    pvalue = borel_chi_square_pvalue(sizes, alpha)
    assert pvalue > 0.01, pvalue
    se = sizes.std(ddof=1) / math.sqrt(sizes.size)
    dev = abs(sizes.mean() - 1.0 / (1.0 - alpha)) / se
    assert dev < 4.0, dev
    _report(6, f"{sizes.size} trees, chi-square p={pvalue:.3f}, mean size off by {dev:.2f}se")


def test_criterion_07_lemma2_containment():
    mu, alpha = 1.0, 0.5
    horizon = 270000.0
    assert validate_horizon(mu, GAMMA, horizon)
    spec = SensitivitySpec.for_b_mode(ParamBounds(mu, mu, alpha, alpha), GAMMA, "auto")
    cap = spec.tree_cap(horizon)
    n_runs = 500
    exceed = 0
    for i in range(n_runs):
        sizes = branching_tree_sizes(HawkesParams(mu, alpha), horizon,
                                     seed=300_000 + i, warmup=0.0)
        if sizes.max() > cap:
            exceed += 1
    frac = exceed / n_runs
    limit = GAMMA + 3 * math.sqrt(GAMMA * (1 - GAMMA) / n_runs)
    assert frac <= limit, (frac, limit)
    _report(7, f"{exceed}/{n_runs} runs exceeded the {cap:.1f}-member bound "
               f"(limit {limit:.3f})")


def test_criterion_08_sensitivity_containment():
    p = HawkesParams(1.0, 0.5)
    b, delta, k = 10, 10.0, 500
    horizon = k * delta
    spec = SensitivitySpec.for_b_mode(PAPER_BOUNDS, GAMMA, str(b))
    mean_cap = mean_sensitivity(spec, k, horizon)
    var_cap = variance_sensitivity(spec, k, delta, horizon)
    rng = np.random.default_rng(808)
    trials, var_ok = 1000, 0
    for i in range(trials):
        seq = simulate_branching(p, horizon, seed=400_000 + i, warmup=0.0)
        series = bin_events(seq, delta)
        stats = sample_stats(series)
        sizes = np.bincount(seq.tree_id)
        eligible = np.flatnonzero((sizes > 0) & (sizes <= b))
        victim = eligible[rng.integers(0, eligible.size)]
        keep = seq.tree_id != victim
        counts = np.bincount(np.floor_divide(seq.timestamps[keep], delta).astype(int),
                             minlength=k)[:k]
        assert abs(counts.mean() - stats.eta_hat) <= mean_cap + 1e-12
        if abs(counts.var(ddof=1) - stats.sigma_sq_hat) <= var_cap:
            var_ok += 1
    assert var_ok / trials >= 1 - GAMMA, var_ok
    _report(8, f"mean shift always within B/K; variance within bound in "
               f"{var_ok}/{trials} trials (need >= {int((1 - GAMMA) * trials)})")


def test_criterion_09_laplace_mechanism_statistics():
    draws = laplace_samples(1.0, np.random.default_rng(909), 1_000_000)
    var_rel = abs(draws.var() - 2.0) / 2.0
    assert var_rel < 0.02
    tail_devs = []
    for t in (2.3, 4.6):
        p = math.exp(-t)
        freq = float(np.mean(np.abs(draws) >= t))
        se = math.sqrt(p * (1 - p) / draws.size)
        tail_devs.append(abs(freq - p) / se)
        assert abs(freq - p) < 3 * se, (t, freq, p)

    # likelihood-ratio smoke test on fixed neighboring series
    k, b, eps = 100, 5, 1.0
    rng = np.random.default_rng(5)
    y = rng.poisson(20.0, k).astype(float)
    eta1 = y.mean()
    eta2 = eta1 + b / k  # one size-B tree appended
    scale = (b / k) / eps
    n = 100_000
    d1 = eta1 + laplace_samples(scale, np.random.default_rng(111), n)
    d2 = eta2 + laplace_samples(scale, np.random.default_rng(222), n)
    bins = np.linspace(min(d1.min(), d2.min()), max(d1.max(), d2.max()), 60)
    h1, _ = np.histogram(d1, bins)
    h2, _ = np.histogram(d2, bins)
    mask = (h1 >= 100) & (h2 >= 100)
    assert mask.sum() >= 10
    slack = 3.0 * np.sqrt(1.0 / h1[mask] + 1.0 / h2[mask])
    assert np.all(h1[mask] <= math.exp(eps) * h2[mask] * (1 + slack))
    assert np.all(h2[mask] <= math.exp(eps) * h1[mask] * (1 + slack))
    _report(9, f"variance off by {var_rel:.3%}; tail deviations "
               f"{tail_devs[0]:.2f}/{tail_devs[1]:.2f}se; "
               f"DP ratio bound held on {mask.sum()} bins")


def test_criterion_10_complexity_calculators():
    # golden values frozen at first direct evaluation
    budget = PrivacyBudget(epsilon=1.0, gamma=GAMMA)
    for name, make in (("A", inputs_a), ("B", inputs_b), ("C", inputs_c)):
        rn = required_T_nonprivate(make())
        assert rn.required_T == pytest.approx(GOLDEN_NONPRIVATE[name][0], rel=1e-9)
        assert rn.binding_term == GOLDEN_NONPRIVATE[name][1]
        rp = required_T_private(make(), budget)
        assert rp.required_T == pytest.approx(GOLDEN_PRIVATE[name][0], rel=1e-6)
        assert rp.binding_term == GOLDEN_PRIVATE[name][1]

    # monotonicity over a randomized admissible grid
    rng = np.random.default_rng(1010)
    for _ in range(20):
        a_up = float(rng.uniform(0.3, 0.75))
        bounds = ParamBounds(0.5, 2.0, 0.1, a_up)
        c9 = c9_constant(bounds)
        xi2 = 0.8 * c9 * 0.5 / 6.0
        xi1 = 0.5 * xi2
        delta_bin = (4 * c9 * 2.0 / ((1 - a_up) ** 4 * xi1)) * 1.2
        sigma_sq = 0.8 * delta_bin
        def make_inp(xi, d):
            return ComplexityInputs(bounds=bounds, xi=xi, delta_prob=d,
                                    delta_bin=delta_bin, eta4=3 * sigma_sq**2,
                                    sigma_sq=sigma_sq, c=3.0)
        for solver in (required_T_nonprivate, lambda i: required_T_private(i, budget)):
            ref = solver(make_inp(xi1, 0.05)).required_T
            assert math.isfinite(ref) and ref > 0
            assert solver(make_inp(xi2, 0.05)).required_T <= ref
            assert solver(make_inp(xi1, 0.2)).required_T <= ref

    # Theorem conservativeness at a desk-scale configuration
    bounds = ParamBounds(0.4, 1.0, 0.3, 0.6)
    truth = HawkesParams(0.5, 0.5)
    xi, delta_prob, delta = 2.0, 0.05, 11000.0
    sigma_sq = theoretical_moments(truth, delta).sigma_sq
    report = required_T_nonprivate(ComplexityInputs(
        bounds=bounds, xi=xi, delta_prob=delta_prob, delta_bin=delta,
        eta4=3 * sigma_sq**2, sigma_sq=sigma_sq))
    horizon = min(report.required_T, 1e6)
    n_seeds, failures = 200, 0
    for seed in range(n_seeds):
        # the counts of bin_events(simulate_branching(...)), bit for bit
        # (tests/test_simulate.py), without the labeled sequence
        series = branching_counts(truth, horizon, 500_000 + seed, delta)
        try:
            r = estimate(series, bounds)
            if abs(r.alpha_hat - truth.alpha) > xi:
                failures += 1
        except NonConvergence:
            failures += 1
    limit = delta_prob + 3 * math.sqrt(delta_prob * (1 - delta_prob) / n_seeds)
    assert failures / n_seeds <= limit, failures
    _report(10, f"goldens and monotonicity OK; conservativeness: "
                f"{failures}/{n_seeds} failures at T={horizon:g} "
                f"(bound gave {report.required_T:.3g}, capped)")
