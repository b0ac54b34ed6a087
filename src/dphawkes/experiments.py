"""Experiment harness on simulated processes: sweeps and time-to-threshold.

Experiment design: one simulated sequence per repetition is shared across the
(epsilon, B) grid so comparisons between cells are paired; Laplace noise is
drawn independently per cell from a seed derived from the cell coordinates.
The time-to-threshold search observes one process per repetition (a probe
reads a prefix) and reuses the noise uniforms across cells at fixed (T, rep),
which makes |noise| pointwise monotone in the noise scale and keeps the
required-time orderings stable at small repetition counts. Everything is a
pure function of the base seed.
"""
from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, delta_from_rule
# bin_events, ingest_timestamps, invert_moments, privatize_stats, the sensitivity helpers and
# simulate_branching are unused here, but they stay bound: the traced benchmark
# (perfbench/spans.py) wraps them by module attribute. Simulated series come from branching_counts.
from .counts import CountSeries, bin_count, bin_events, sample_stats
from .errors import ConfigError, HorizonTooShort, NonConvergence
from .estimator import EstimateResult, estimate, invert_moments
from .ingest import ingest_timestamps
from .privacy import (PrivacyBudget, mean_sensitivity, private_estimate, privatize_stats,
                      validate_horizon, variance_sensitivity)
from .rng import derived_seed
from .simulate import branching_counts, simulate_branching
from .tables import opt_float, read_table, write_table

SWEEP_CSV_HEADER = ("epsilon", "b_mode", "rep", "seed", "mu_hat", "alpha_hat",
                    "err_mu", "err_alpha", "converged", "wall_ms")
SUMMARY_CSV_HEADER = ("epsilon", "b_mode", "n", "n_converged",
                      "mean_err_mu", "mean_err_alpha",
                      "err_mu_p2_5", "err_mu_p97_5",
                      "err_alpha_p2_5", "err_alpha_p97_5")
TTT_CSV_HEADER = ("epsilon", "b_mode", "required_t", "capped", "median_err_alpha")

BASELINE_B_MODE = "none"


@dataclass(frozen=True)
class SweepRecord:
    epsilon: float
    b_mode: str
    rep: int
    seed: int
    mu_hat: float | None
    alpha_hat: float | None
    err_mu: float | None
    err_alpha: float | None
    converged: bool
    wall_ms: float


def _release(config: ExperimentConfig, series: CountSeries, eps_total: float,
             b_mode: str, seed: int) -> EstimateResult | None:
    """The private estimate of one (epsilon, B) cell, or None when it fails."""
    budget = PrivacyBudget.for_total(eps_total, config.gamma)
    try:
        return private_estimate(series, config.bounds, budget, b_mode, seed)
    except (NonConvergence, HorizonTooShort):
        return None


def _record(epsilon: float, b_mode: str, rep: int, seed: int, result: EstimateResult | None,
            truth: tuple[float, float], wall_ms: float) -> SweepRecord:
    """A sweep row; a failed estimate (result None) has converged=0 and no values."""
    if result is None:
        return SweepRecord(epsilon, b_mode, rep, seed, None, None, None, None, False, wall_ms)
    return SweepRecord(epsilon, b_mode, rep, seed, result.mu_hat, result.alpha_hat,
                       *result.normalized_errors(*truth), True, wall_ms)


def _sweep_rep(config: ExperimentConfig, rep: int) -> list[SweepRecord]:
    """All records for one repetition: one privatized row per (epsilon, b_mode)
    cell in grid order, then the baseline row of the shared simulated series."""
    sim_seed = derived_seed(config.seed, 0, rep)
    series = branching_counts(config.params, config.horizon, sim_seed, config.delta)
    sample_stats(series)  # outside the time of every row that reads the statistics
    t0 = time.perf_counter()
    base = estimate(series, config.bounds)
    base_ms = (time.perf_counter() - t0) * 1000.0
    truth = (config.mu, config.alpha)

    records: list[SweepRecord] = []
    for ei, eps_total in enumerate(config.epsilons):
        for bi, b_mode in enumerate(config.b_values):
            cell_seed = derived_seed(config.seed, 1, rep, ei, bi)
            t0 = time.perf_counter()
            result = _release(config, series, eps_total, b_mode, cell_seed)
            records.append(_record(eps_total, b_mode, rep, cell_seed, result, truth,
                                   (time.perf_counter() - t0) * 1000.0))
    records.append(_record(math.inf, BASELINE_B_MODE, rep, sim_seed, base, truth, base_ms))
    return records


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[SweepRecord]:
    """Full (epsilon x B x repetition) grid plus a non-private baseline per rep.

    Records come back in deterministic cell order (epsilon, then B, then rep),
    baselines last, regardless of worker completion order.
    """
    if not workers >= 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    job = functools.partial(_sweep_rep, config)
    reps = range(config.repetitions)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(job, reps))
    else:
        per_rep = list(map(job, reps))
    # each rep's list is the grid in order with its baseline last
    return [records[i] for i in range(len(per_rep[0])) for records in per_rep]


def summarize_sweep(records: list[SweepRecord]) -> list[dict]:
    """Mean and empirical 2.5/97.5 percentile bands per (epsilon, b_mode).

    Percentiles rather than Gaussian bands: the error distribution is skewed
    near the non-convergence regime. Failed cells are excluded from the
    statistics and reported through n_converged.
    """
    groups: dict[tuple, list[SweepRecord]] = {}  # in first-seen order
    for rec in records:
        groups.setdefault((rec.epsilon, rec.b_mode), []).append(rec)
    rows = []
    for (epsilon, b_mode), recs in groups.items():
        ok = [r for r in recs if r.converged]
        row = {"epsilon": epsilon, "b_mode": b_mode, "n": len(recs), "n_converged": len(ok)}
        for name in ("err_mu", "err_alpha"):
            vals = np.array([getattr(r, name) for r in ok])
            row[f"mean_{name}"], row[f"{name}_p2_5"], row[f"{name}_p97_5"] = (
                (float(vals.mean()), *map(float, np.percentile(vals, [2.5, 97.5])))
                if ok else (None, None, None))
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ThresholdCell:
    epsilon: float
    b_mode: str
    required_t: float | None
    capped: bool
    median_err_alpha: float | None


def run_time_to_threshold(config: ExperimentConfig, threshold: float,
                          t_min: float = 12500.0, t_max: float = 1e6) -> list[ThresholdCell]:
    """Doubling search over T until the median alpha error drops below threshold.

    Each repetition is one process simulated once to t_max (seed
    derived_seed(seed, 3, rep)) and binned at the gcd of the probes' widths;
    probe T sums its first bins, which is bit for bit the t_max sequence binned
    at T and in law a process run to T. An early stop still pays for t_max. The
    series and noise uniforms of a probe are shared across all (epsilon, B)
    cells; only the noise scale differs. The first passing probe is reported;
    cells still failing at t_max are marked capped. Non-converged repetitions
    count as infinite error.
    """
    if not threshold > 0:
        raise ConfigError("threshold must be positive")
    if not 0 < t_min <= t_max < math.inf:
        raise ConfigError("need 0 < t_min <= t_max < inf")
    probes: list[float] = []
    t = t_min
    while t <= t_max:
        probes.append(t)
        t *= 2.0
    if probes[-1] < t_max:
        probes.append(t_max)
    deltas = [delta_from_rule(config.delta_mode, horizon) for horizon in probes]
    bins = [bin_count(horizon, delta) for horizon, delta in zip(probes, deltas)]  # before simulating
    base = deltas[0] if len(set(deltas)) == 1 else float(math.gcd(*map(int, deltas)))
    fine = [branching_counts(config.params, t_max, derived_seed(config.seed, 3, rep), base).counts
            for rep in range(config.repetitions)]

    cells = {(eps, b_mode): ThresholdCell(epsilon=eps, b_mode=b_mode, required_t=None,
                                          capped=True, median_err_alpha=None)
             for eps in config.epsilons for b_mode in config.b_values}
    for pi, (horizon, delta, k) in enumerate(zip(probes, deltas, bins)):
        pending = [cell for cell in cells.values() if cell.capped]
        if not pending:
            break
        m = round(delta / base)
        # One int noise seed per rep: every cell redraws the same two noise uniforms.
        reps = [(CountSeries(counts[:k * m].reshape(k, m).sum(1), delta, k * delta),
                 derived_seed(config.seed, 4, pi, rep)) for rep, counts in enumerate(fine)]
        for cell in pending:
            errs = []
            for series, noise_seed in reps:
                result = _release(config, series, cell.epsilon, cell.b_mode, noise_seed)
                errs.append(math.inf if result is None
                            else result.normalized_errors(config.mu, config.alpha)[1])
            median = float(np.median(errs))
            if median <= threshold:
                cells[cell.epsilon, cell.b_mode] = replace(
                    cell, required_t=horizon, capped=False, median_err_alpha=median)
    return list(cells.values())


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    write_table(path, SWEEP_CSV_HEADER,
                ([getattr(r, k) for k in SWEEP_CSV_HEADER] for r in records))


def read_sweep_csv(path) -> list[SweepRecord]:
    rows = read_table(path, SWEEP_CSV_HEADER)
    return [SweepRecord(float(eps), b_mode, int(rep), int(seed), *map(opt_float, estimates),
                        bool(int(ok)), float(wall_ms))
            for eps, b_mode, rep, seed, *estimates, ok, wall_ms in rows]


def write_summary_csv(rows: list[dict], path) -> None:
    write_table(path, SUMMARY_CSV_HEADER, ([row[k] for k in SUMMARY_CSV_HEADER] for row in rows))


def read_summary_csv(path) -> list[dict]:
    rows = read_table(path, SUMMARY_CSV_HEADER)
    return [{"epsilon": float(eps), "b_mode": b_mode, "n": int(n), "n_converged": int(n_ok),
             **{k: opt_float(v) for k, v in zip(SUMMARY_CSV_HEADER[4:], rest)}}
            for eps, b_mode, n, n_ok, *rest in rows]


def write_threshold_csv(cells: list[ThresholdCell], path) -> None:
    write_table(path, TTT_CSV_HEADER, ([getattr(c, k) for k in TTT_CSV_HEADER] for c in cells))


def read_threshold_csv(path) -> list[ThresholdCell]:
    rows = read_table(path, TTT_CSV_HEADER)
    return [ThresholdCell(epsilon=float(eps), b_mode=b_mode, required_t=opt_float(t),
                          capped=bool(int(capped)), median_err_alpha=opt_float(median))
            for eps, b_mode, t, capped, median in rows]


PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot the privacy-utility sweep from sweep_summary.csv (this directory)."""
import csv
import math
from collections import defaultdict

import matplotlib.pyplot as plt

groups = defaultdict(list)
baseline = None
with open("sweep_summary.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        if not row["mean_err_alpha"]:
            continue
        eps = float(row["epsilon"])
        point = (eps, float(row["mean_err_alpha"]),
                 float(row["err_alpha_p2_5"]), float(row["err_alpha_p97_5"]))
        if row["b_mode"] == "none":
            baseline = point
        else:
            groups[row["b_mode"]].append(point)

fig, ax = plt.subplots(figsize=(7, 4.5))
for b_mode, pts in sorted(groups.items()):
    pts.sort()
    xs = [p[0] for p in pts]
    ax.plot(xs, [p[1] for p in pts], marker="o", label=f"B = {b_mode}")
    ax.fill_between(xs, [p[2] for p in pts], [p[3] for p in pts], alpha=0.2)
if baseline is not None:
    ax.axhline(baseline[1], color="black", linestyle="--", label="non-private")
ax.set_xscale("log")
ax.set_yscale("log")
ax.set_xlabel("privacy budget (total epsilon)")
ax.set_ylabel("normalized alpha error")
ax.legend()
fig.tight_layout()
fig.savefig("sweep_plot.png", dpi=150)
print("wrote sweep_plot.png")
'''


def emit_plot_script(path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(PLOT_SCRIPT)
