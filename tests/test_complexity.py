import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sps

from dphawkes import (ComplexityInputs, ConfigError, HawkesParams, ParamBounds,
                      PreconditionViolated, PrivacyBudget, c9_constant,
                      eta4_monte_carlo, inverse_normal_cdf,
                      required_T_nonprivate, required_T_private)
from dphawkes.complexity import _solve_increasing, write_complexity_csv
from dphawkes.counts import MAX_BINS
from dphawkes.privacy import SensitivitySpec

BOX_A = ParamBounds(0.5, 2.0, 0.1, 0.75)
BOX_B = ParamBounds(0.9, 1.1, 0.3, 0.6)
BOX_C = ParamBounds(1.0, 2.0, 0.2, 0.5)


# Fixed calculator inputs: the sigma_sq values below are the ones the
# complexity goldens were frozen with, kept as literals so the goldens check
# the calculators alone and not the moment formula.

def inputs_a():
    return ComplexityInputs(bounds=BOX_A, xi=40.0, delta_prob=0.05, delta_bin=30000.0,
                            eta4=1.8e11,
                            sigma_sq=239986.0,
                            c=100.0)


def inputs_b():
    return ComplexityInputs(bounds=BOX_B, xi=8.0, delta_prob=0.1, delta_bin=1500.0,
                            eta4=4.5e8,
                            sigma_sq=11986.0,
                            c=30.0)


def inputs_c():
    return ComplexityInputs(bounds=BOX_C, xi=10.0, delta_prob=0.01, delta_bin=1000.0,
                            eta4=1.5e8,
                            sigma_sq=6936.111111111112,
                            c=25.0)


# --- inverse normal CDF ---------------------------------------------------

def test_quantile_examples():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_quantile_matches_high_precision_oracle():
    ps = np.concatenate([np.logspace(-12, -0.31, 80), [0.5],
                         1.0 - np.logspace(-12, -0.31, 80)])
    for p in ps:
        assert abs(inverse_normal_cdf(float(p)) - sps.norm.ppf(p)) < 1e-9


@pytest.mark.parametrize("p", [1e-300, 5e-324, 1.0 - 2.0**-53])
def test_quantile_matches_oracle_in_the_far_tail(p):
    assert abs(inverse_normal_cdf(p) - sps.norm.ppf(p)) < 1e-12


@pytest.mark.parametrize("x", [0.01, 0.2, 0.4])
def test_quantile_symmetry(x):
    assert inverse_normal_cdf(1.0 - x) == pytest.approx(-inverse_normal_cdf(x), rel=1e-12)


def test_quantile_domain():
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)


def test_quantile_refuses_nan():
    # statistics.NormalDist.inv_cdf returns nan for nan; the domain check must not
    with pytest.raises(ValueError):
        inverse_normal_cdf(math.nan)


# --- constants -------------------------------------------------------------

def test_c9_first_example():
    c9 = c9_constant(ParamBounds(1.0, 1.0, 0.1, 0.5))
    assert c9 == pytest.approx(max(16.0, 1 + 32 + 8.0 / 3.0), rel=1e-14)
    assert c9 == pytest.approx(35.667, abs=5e-4)


def test_c9_second_example_recomputed():
    # direct evaluation of the printed formula; the square on (1-alpha_upper)
    # makes the middle term 8*2/(2*0.0625) = 128, not 32
    c9 = c9_constant(ParamBounds(2.0, 2.0, 0.1, 0.75))
    assert c9 == pytest.approx(max(8 / (2 * 0.25), 1 + 128 + 16.0 / 3.0), rel=1e-14)
    assert c9 == pytest.approx(134.3333333, rel=1e-9)


def test_c9_nonincreasing_in_mu_lower():
    lows = np.linspace(0.1, 2.0, 25)
    vals = [c9_constant(ParamBounds(lo, 2.0, 0.1, 0.75)) for lo in lows]
    assert np.all(np.diff(vals) <= 0)


def test_c9_appendix_variant():
    b = ParamBounds(1.0, 1.0, 0.1, 0.5)
    expected = max(10 / 0.5, 2 + 10 / 0.25 + 10 / 1.5)
    assert c9_constant(b, constants="appendix") == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        c9_constant(b, constants="nonsense")


# --- required_T_mean --------------------------------------------------------
# An oracle of the paper's mean-only bound; the package needs only the full ones.

def required_T_mean(sigma_sq: float, xi: float, delta_prob: float,
                    delta_bin: float) -> float:
    """Horizon bound for the sample mean alone: sigma^2 Psi(1-delta/4)^2 / (xi^2 Delta)."""
    if not (sigma_sq > 0 and xi > 0 and delta_bin > 0):
        raise ValueError("sigma_sq, xi and delta_bin must be positive")
    if not 0 < delta_prob <= 1:
        raise ValueError("delta_prob must lie in (0, 1]")
    psi = inverse_normal_cdf(1.0 - delta_prob / 4.0)
    return sigma_sq * psi**2 / (xi**2 * delta_bin)


def test_required_t_mean_value():
    got = required_T_mean(66.1077, 0.1, 0.05, 10.0)
    oracle = 66.1077 * inverse_normal_cdf(0.9875) ** 2 / (0.1**2 * 10.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(3321.1756, abs=1e-3)


def test_required_t_mean_monotone():
    base = required_T_mean(66.1077, 0.1, 0.05, 10.0)
    assert required_T_mean(66.1077, 0.1, 0.05, 20.0) < base
    assert required_T_mean(66.1077, 0.1, 0.01, 10.0) > base


# --- golden values ----------------------------------------------------------

GOLDEN_NONPRIVATE = {
    "A": (1.6270150050730336e+16, "var_fourth_moment"),
    "B": (13510596315373.006, "var_fourth_moment"),
    "C": (4465149608965.754, "var_fourth_moment"),
}
GOLDEN_PRIVATE = {
    "A": (8.169678931230364e+22, "var_fourth_moment"),
    "B": (1.491700068352671e+17, "var_fourth_moment"),
    "C": (5.298083165319168e+16, "var_fourth_moment"),
}
GOLDEN_PRIVATE_TERMS_A = {
    "mean_clt": 160702.42856045323,
    "var_fourth_moment": 8.169678931230364e+22,
    "var_mean_square": 79024951.45815977,
    "var_markov": 3499253034.442463,
    "laplace_tail": 1126541531712.564,
    "min_horizon": 1501835.5760162983,
}
# laplace_tail for a known tree cap B, per input set
GOLDEN_LAPLACE_TAIL_AWARE = {
    ("A", "1"): 434271.8491458808,
    ("A", "10"): 50770552.19305352,
    ("A", "100"): 5712989614.139394,
    ("B", "1"): 41944.00149469178,
    ("B", "10"): 5050914.502887402,
    ("B", "100"): 577448124.7669127,
    ("C", "1"): 50042.057667247565,
    ("C", "10"): 6010304.135591431,
    ("C", "100"): 686208366.3312509,
}
INPUTS = {"A": inputs_a, "B": inputs_b, "C": inputs_c}


@pytest.mark.parametrize("name,make", [("A", inputs_a), ("B", inputs_b), ("C", inputs_c)])
def test_golden_nonprivate(name, make):
    report = required_T_nonprivate(make())
    value, binding = GOLDEN_NONPRIVATE[name]
    assert report.required_T == pytest.approx(value, rel=1e-9)
    assert report.binding_term == binding
    assert report.required_T == max(v for _, v in report.all_terms)


@pytest.mark.parametrize("name,make", [("A", inputs_a), ("B", inputs_b), ("C", inputs_c)])
def test_golden_private(name, make):
    report = required_T_private(make(), PrivacyBudget(epsilon=1.0, gamma=0.05))
    value, binding = GOLDEN_PRIVATE[name]
    assert report.required_T == pytest.approx(value, rel=1e-6)
    assert report.binding_term == binding
    for label, v in report.all_terms:
        if name == "A":
            assert v == pytest.approx(GOLDEN_PRIVATE_TERMS_A[label], rel=1e-6)


@pytest.mark.parametrize("name,b", sorted(GOLDEN_LAPLACE_TAIL_AWARE))
def test_golden_private_relation_aware(name, b):
    report = required_T_private(INPUTS[name](), PrivacyBudget(epsilon=1.0, gamma=0.05),
                                b_mode=b)
    terms = dict(report.all_terms)
    assert terms["laplace_tail"] == pytest.approx(GOLDEN_LAPLACE_TAIL_AWARE[name, b],
                                                  rel=1e-6)
    assert terms["min_horizon"] == 0.0


def test_private_bound_names_no_horizon_the_release_refuses():
    # the T/log T terms alone gave 1.83e4 (var_markov), where the relation-unaware
    # release refuses every horizon below (mu_upper*e^2/gamma)^2.5 = 2.65e5
    bounds = ParamBounds(1.0, 1.0, 0.1, 0.3)
    c9 = c9_constant(bounds)
    xi = 0.9 * c9 / 6.0
    floor = 4.0 * c9 * bounds.mu_upper / ((1.0 - bounds.alpha_upper) ** 4 * xi)
    inp = ComplexityInputs(bounds=bounds, xi=xi, delta_prob=0.5, delta_bin=1.01 * floor,
                           eta4=1.0 + 1e-9, sigma_sq=1.0, c=1.0)
    budget = PrivacyBudget(epsilon=1e3, gamma=0.05)
    report = required_T_private(inp, budget)
    spec = SensitivitySpec.for_b_mode(bounds, budget.gamma, "auto")
    assert report.binding_term == "min_horizon"
    assert report.required_T == spec.min_horizon == pytest.approx(2.65e5, rel=1e-2)


def test_private_bound_refuses_the_labels_the_release_refuses():
    for b in ("0", "-1", "ten", ""):
        with pytest.raises(ConfigError, match="B must be a positive integer"):
            required_T_private(inputs_a(), PrivacyBudget(epsilon=1.0, gamma=0.05), b_mode=b)


# --- structural properties ---------------------------------------------------

def test_preconditions_named():
    good = inputs_a()
    with pytest.raises(PreconditionViolated, match="xi"):
        required_T_nonprivate(ComplexityInputs(
            bounds=good.bounds, xi=50.0, delta_prob=0.05, delta_bin=1e9,
            eta4=good.eta4, sigma_sq=good.sigma_sq))
    with pytest.raises(PreconditionViolated, match="delta_bin"):
        required_T_nonprivate(ComplexityInputs(
            bounds=good.bounds, xi=40.0, delta_prob=0.05, delta_bin=100.0,
            eta4=good.eta4, sigma_sq=good.sigma_sq))


def test_private_requires_c():
    inp = ComplexityInputs(bounds=BOX_A, xi=40.0, delta_prob=0.05, delta_bin=30000.0,
                           eta4=1.8e11, sigma_sq=239986.0)
    with pytest.raises(ValueError):
        required_T_private(inp, PrivacyBudget(epsilon=1.0, gamma=0.05))


@pytest.mark.parametrize("delta_prob", [1e-10, 1e-16])
def test_tail_quantiles_hold_for_a_small_delta_prob(delta_prob):
    # 1 - 1e-16/8 rounds to 1.0, which no quantile takes; the lower tail keeps every digit
    inp = dataclasses.replace(inputs_a(), delta_prob=delta_prob)
    b, c9 = inp.bounds, c9_constant(inp.bounds)
    psi = {m: sps.norm.isf(delta_prob / m) for m in (8, 16, 32)}
    nonprivate = dict(required_T_nonprivate(inp).all_terms)
    assert nonprivate["mean_clt"] == pytest.approx(
        inp.sigma_sq / inp.xi * c9**2 * psi[8]**2 / (inp.xi * inp.delta_bin), rel=1e-12)
    assert nonprivate["var_mean_square"] == pytest.approx(
        inp.sigma_sq / inp.xi * 3.0 * c9 * psi[16]**2, rel=1e-12)
    private = dict(required_T_private(inp, PrivacyBudget(epsilon=1.0, gamma=0.05)).all_terms)
    base12 = c9**2 * b.mu_upper / ((1.0 - b.alpha_upper)**3 * inp.xi**2)
    assert private["mean_clt"] == pytest.approx(base12 * psi[16]**2, rel=1e-12)
    assert private["var_fourth_moment"] == pytest.approx(
        base12 * 9.0 * c9**2 * psi[32]**2 * (inp.eta4 - inp.sigma_sq), rel=1e-12)


def test_small_delta_prob_binds_markov():
    inp = inputs_a()
    small = ComplexityInputs(bounds=inp.bounds, xi=inp.xi, delta_prob=1e-10,
                             delta_bin=inp.delta_bin, eta4=inp.sigma_sq**2,
                             sigma_sq=inp.sigma_sq, c=inp.c)
    report = required_T_nonprivate(small)
    assert report.binding_term == "var_markov"  # only 1/delta growth is unbounded


def test_halving_xi_quadruples_mean_term():
    # delta_bin large enough to stay admissible at both xi and xi/2
    def make(xi):
        return ComplexityInputs(bounds=BOX_A, xi=xi, delta_prob=0.05,
                                delta_bin=120000.0, eta4=1.8e11,
                                sigma_sq=239986.0, c=100.0)
    t1 = dict(required_T_nonprivate(make(40.0)).all_terms)["mean_clt"]
    t2 = dict(required_T_nonprivate(make(20.0)).all_terms)["mean_clt"]
    assert t2 == pytest.approx(4.0 * t1, rel=1e-12)


def test_epsilon_infinity_unbinds_laplace_tail():
    inp = inputs_a()
    report = required_T_private(inp, PrivacyBudget(epsilon=math.inf, gamma=0.05))
    terms = dict(report.all_terms)
    assert terms["laplace_tail"] == pytest.approx(math.exp(3.0))  # solver floor
    finite = {k: v for k, v in terms.items() if k != "laplace_tail"}
    assert report.required_T == max(finite.values())


def test_monotone_in_xi_and_delta():
    rng = np.random.default_rng(8)
    budget = PrivacyBudget(epsilon=2.0, gamma=0.05)
    for _ in range(40):
        mu_low = float(rng.uniform(0.3, 1.0))
        mu_up = mu_low + float(rng.uniform(0.1, 1.5))
        a_up = float(rng.uniform(0.3, 0.8))
        bounds = ParamBounds(mu_low, mu_up, 0.1, a_up)
        c9 = c9_constant(bounds)
        xi2 = float(rng.uniform(0.2, 0.9)) * c9 * mu_low / 6.0
        xi1 = xi2 * float(rng.uniform(0.3, 0.95))
        delta_bin = (4 * c9 * mu_up / ((1 - a_up) ** 4 * xi1)) * float(rng.uniform(1.05, 3.0))
        sigma_sq = float(rng.uniform(0.5, 2.0)) * delta_bin
        eta4 = sigma_sq**2 * float(rng.uniform(2.5, 4.0))
        d2 = float(rng.uniform(0.05, 0.9))
        d1 = d2 * float(rng.uniform(0.1, 0.9))
        def make(xi, d):
            return ComplexityInputs(bounds=bounds, xi=xi, delta_prob=d,
                                    delta_bin=delta_bin, eta4=eta4,
                                    sigma_sq=sigma_sq, c=5.0)
        for solver in (required_T_nonprivate,
                       lambda inp: required_T_private(inp, budget)):
            t_ref = solver(make(xi1, d1)).required_T
            assert t_ref > 0 and math.isfinite(t_ref)
            assert solver(make(xi2, d1)).required_T <= t_ref  # nonincreasing in xi
            assert solver(make(xi1, d2)).required_T <= t_ref  # nonincreasing in delta


def test_private_dominates_nonprivate():
    rng = np.random.default_rng(15)
    budget = PrivacyBudget(epsilon=1.0, gamma=0.05)
    for _ in range(25):
        a_up = float(rng.uniform(0.3, 0.75))
        bounds = ParamBounds(0.5, 2.0, 0.1, a_up)
        c9 = c9_constant(bounds)
        xi = 0.5 * c9 * 0.5 / 6.0
        delta_bin = (4 * c9 * 2.0 / ((1 - a_up) ** 4 * xi)) * 1.5
        sigma_sq = 0.9 * delta_bin
        inp = ComplexityInputs(bounds=bounds, xi=xi, delta_prob=0.1,
                               delta_bin=delta_bin, eta4=3.0 * sigma_sq**2,
                               sigma_sq=sigma_sq, c=2.0)
        t_non = required_T_nonprivate(inp).required_T
        t_priv = required_T_private(inp, budget).required_T
        assert t_priv >= t_non


def test_bisection_satisfies_inequality_tightly():
    for power, rhs in ((1.0, 3.7e6), (2.5, 8.9e9), (0.5, 123456.0)):
        def f(t):
            return t / math.log(t) ** power
        t = _solve_increasing(f, rhs)
        assert f(t) >= rhs
        assert f(t * (1 - 1e-6)) < rhs


# --- eta4 Monte Carlo ---------------------------------------------------------

def test_eta4_poisson_oracle():
    est = eta4_monte_carlo(HawkesParams(1.0, 1e-9), 10.0, 20000, seed=1)
    lam = 10.0
    truth = 3 * lam**2 + lam  # Poisson fourth central moment
    assert abs(est.value - truth) < 4 * est.std_error


def test_eta4_requires_enough_bins():
    with pytest.raises(ValueError):
        eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, 5000, seed=1)


def test_eta4_se_shrinks_with_doubling():
    # 80 vs 160 series: with 20 each, the band missed for 8 of seeds 3-32
    e1 = eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, 400_000, seed=3)
    e2 = eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, 800_000, seed=3)
    ratio = e1.std_error / e2.std_error
    assert 1.1 < ratio < 1.9  # ~sqrt(2) up to SE-of-SE noise


def test_eta4_golden_regression():
    est = eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, 1_000_000, seed=2024)
    assert est.value == pytest.approx(18461.982447, rel=1e-9)
    assert est.std_error == pytest.approx(118.48820005886019, rel=1e-6)
    # the golden of the per-parent offspring draws, 18212.07271 (SE 125.86):
    # one Poisson total per generation is the same law, so it must agree
    assert abs(est.value - 18212.07271) < 3 * 125.8600551789477


def test_eta4_seeded_output_is_pinned():
    # Series s of a seed-7 estimate draws from the key [7, s]: these bits are that stream's.
    est = eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, 10_000, seed=7)
    assert (est.value, est.std_error, est.num_bins) == (18421.3057, 1041.8478724558315, 10_000)


def test_complexity_csv(tmp_path):
    report = required_T_nonprivate(inputs_a())
    path = tmp_path / "report.csv"
    write_complexity_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "term_label,value,binding"
    assert sum(line.endswith(",1") for line in lines[1:]) == 1


def test_complexity_csv_round_trip(tmp_path):
    from dphawkes.complexity import read_complexity_csv
    report = required_T_nonprivate(inputs_a())
    path = tmp_path / "report.csv"
    write_complexity_csv(report, path)
    back = read_complexity_csv(path)
    assert back.binding_term == report.binding_term
    assert back.required_T == pytest.approx(report.required_T, rel=1e-15)
    assert [l for l, _ in back.all_terms] == [l for l, _ in report.all_terms]


@pytest.mark.parametrize("field, value", [
    ("eta4", math.inf), ("eta4", 0.0), ("xi", math.inf), ("delta_bin", math.nan),
    ("sigma_sq", math.inf), ("c", math.inf), ("c", 0.0), ("delta_prob", math.nan),
])
def test_complexity_inputs_refuse_non_finite_or_nonpositive(field, value):
    good = dict(bounds=BOX_A, xi=40.0, delta_prob=0.05, delta_bin=30000.0,
                eta4=1.8e11, sigma_sq=239986.0, c=1.0)
    with pytest.raises(ConfigError, match=field):
        ComplexityInputs(**{**good, field: value})


def test_overflowing_term_or_unsolvable_condition_is_config_error():
    inp = ComplexityInputs(bounds=BOX_A, xi=40.0, delta_prob=0.05, delta_bin=30000.0,
                           eta4=1e300, sigma_sq=239986.0, c=1.0)
    with pytest.raises(ConfigError, match="var_fourth_moment"):
        required_T_nonprivate(inp)
    with pytest.raises(ConfigError, match="unsolvable"):
        _solve_increasing(lambda t: t / math.log(t), 1e300)


def test_eta4_monte_carlo_refuses_infinite_bins():
    with pytest.raises(ConfigError):
        eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, math.inf, seed=1)


def test_eta4_monte_carlo_refuses_more_bins_than_a_series_may_hold():
    # refused before anything is allocated or simulated
    with pytest.raises(ConfigError, match="num_bins"):
        eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, MAX_BINS + 1, seed=1)
    with pytest.raises(ConfigError, match="num_bins"):
        eta4_monte_carlo(HawkesParams(1.0, 0.5), 10.0, 10**15, seed=1)
