import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from dphawkes import (ConfigError, NoCountedEvents, NonConvergence, bin_events,
                      branching_counts, estimate, sample_stats, simulate_branching)
from dphawkes import experiments
from dphawkes.config import ExperimentConfig, delta_from_rule
from dphawkes.counts import bin_times
from dphawkes.experiments import (BASELINE_B_MODE, read_sweep_csv, run_sweep,
                                  run_time_to_threshold, summarize_sweep,
                                  write_sweep_csv, SWEEP_CSV_HEADER)
from dphawkes.rng import derived_seed


def small_config(**kw):
    defaults = dict(mu=1.0, alpha=0.5, horizon=20000.0, repetitions=4,
                    epsilons=(1.0, 10.0), b_values=("10", "25"), seed=77,
                    delta_mode="10")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_sweep_structure():
    cfg = small_config()
    records = run_sweep(cfg)
    grid = [r for r in records if r.b_mode != BASELINE_B_MODE]
    baseline = [r for r in records if r.b_mode == BASELINE_B_MODE]
    assert len(grid) == 2 * 2 * 4
    assert len(baseline) == 4
    # deterministic cell-major order
    assert [(r.epsilon, r.b_mode, r.rep) for r in grid] == [
        (e, b, rep) for e in (1.0, 10.0) for b in ("10", "25") for rep in range(4)]
    assert all(math.isinf(r.epsilon) for r in baseline)


def test_sweep_deterministic_up_to_walltime():
    cfg = small_config()
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    for ra, rb in zip(a, b):
        assert dataclasses.replace(ra, wall_ms=0.0) == dataclasses.replace(rb, wall_ms=0.0)


def test_sweep_shares_simulation_within_rep():
    records = run_sweep(small_config(epsilons=(1e12,)))
    # at an astronomically large budget every cell matches its baseline
    base = {r.rep: r for r in records if r.b_mode == BASELINE_B_MODE}
    for r in records:
        if r.b_mode != BASELINE_B_MODE:
            assert r.mu_hat == pytest.approx(base[r.rep].mu_hat, rel=1e-6)


def test_sweep_baselines_equal_estimates_of_the_labeled_sequences():
    cfg = small_config(epsilons=(1.0,), b_values=("10",))
    baseline = [r for r in run_sweep(cfg) if r.b_mode == BASELINE_B_MODE]
    assert [r.rep for r in baseline] == list(range(cfg.repetitions))
    for r in baseline:
        want = estimate(bin_events(simulate_branching(cfg.params, cfg.horizon, r.seed),
                                   cfg.delta), cfg.bounds)
        assert r.seed == derived_seed(cfg.seed, 0, r.rep)
        assert (r.mu_hat, r.alpha_hat) == (want.mu_hat, want.alpha_hat)


def test_seed_derivation_is_pinned():
    # Every simulation stream, noise draw and the sweep's seed column hang on
    # this key; changing it changes all seeded outputs.
    assert derived_seed(12345, 0, 0) == 2688385916
    assert derived_seed(7, 1, 2, 3, 4) == 3620624238
    assert np.random.default_rng([7, 1]).random() == 0.7701409510034741  # eta4's key
    records = run_sweep(small_config(repetitions=1, epsilons=(1.0,), b_values=("10",)))
    assert [r.seed for r in records] == [derived_seed(77, 1, 0, 0, 0), derived_seed(77, 0, 0)]


def test_sweep_csv_round_trip(tmp_path):
    records = run_sweep(small_config(repetitions=2))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_CSV_HEADER)  # bit-exact contract
    back = read_sweep_csv(path)
    assert back == records


def test_summary_excludes_failures():
    cfg = small_config(epsilons=(0.01,), b_values=("100",), repetitions=6)
    records = run_sweep(cfg)
    rows = summarize_sweep(records)
    cell = [r for r in rows if r["b_mode"] == "100"][0]
    assert cell["n"] == 6
    assert cell["n_converged"] <= 6
    if cell["n_converged"] == 0:
        assert cell["mean_err_alpha"] is None


def test_unaware_cells_fail_below_horizon_threshold():
    records = run_sweep(small_config(b_values=("auto",), repetitions=2))
    auto = [r for r in records if r.b_mode == "auto"]
    assert auto and all(not r.converged for r in auto)


def test_threshold_infinite_passes_first_probe():
    cfg = small_config(repetitions=2, epsilons=(1.0,), b_values=("10",))
    cells = run_time_to_threshold(cfg, threshold=math.inf, t_min=5000.0, t_max=40000.0)
    assert cells[0].required_t == 5000.0
    assert not cells[0].capped


def test_threshold_impossible_reports_cap():
    cfg = small_config(repetitions=2, epsilons=(1.0,), b_values=("10",))
    cells = run_time_to_threshold(cfg, threshold=1e-12, t_min=5000.0, t_max=20000.0)
    assert cells[0].capped
    assert cells[0].required_t is None


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: (calls.append(a), fn(*a, **kw))[1])
    return calls


def test_sweep_computes_each_series_statistics_once(monkeypatch):
    from dphawkes import counts
    computed = _counting(monkeypatch, counts, "SampleStats")
    records = run_sweep(small_config(repetitions=3))
    assert len(records) == 3 * (2 * 2 + 1)
    assert len(computed) == 3  # one per repetition, shared by its 5 rows


def test_summary_and_threshold_csv_round_trip(tmp_path):
    from dphawkes.experiments import (read_summary_csv, read_threshold_csv,
                                      write_summary_csv, write_threshold_csv)
    cfg = small_config(repetitions=2)
    rows = summarize_sweep(run_sweep(cfg))
    spath = tmp_path / "summary.csv"
    write_summary_csv(rows, spath)
    assert read_summary_csv(spath) == rows

    cells = run_time_to_threshold(cfg, threshold=0.5, t_min=5000.0, t_max=20000.0)
    tpath = tmp_path / "ttt.csv"
    write_threshold_csv(cells, tpath)
    assert read_threshold_csv(tpath) == cells


def test_parallel_workers_match_serial():
    cfg = small_config(repetitions=3)
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    for a, b in zip(serial, parallel):
        assert dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)


# At alpha = 0.74 and T = 2000 the sample variance of some simulated series
# exceeds the variance alpha_upper = 0.75 attains: their baselines do not invert.
FAILING_BASELINES = dict(mu=1.0, alpha=0.74, horizon=2000.0, repetitions=10,
                         epsilons=(1.0,), b_values=("10",), seed=12345)


def test_failed_baselines_are_converged_zero_rows():
    cfg = ExperimentConfig(**FAILING_BASELINES)
    records = run_sweep(cfg)
    assert len(records) == 2 * cfg.repetitions
    baseline = [r for r in records if r.b_mode == BASELINE_B_MODE]
    assert [r.rep for r in baseline] == list(range(cfg.repetitions))
    failed = [r for r in baseline if not r.converged]
    assert 0 < len(failed) < len(baseline)
    for r in failed:
        assert (r.mu_hat, r.alpha_hat, r.err_mu, r.err_alpha) == (None, None, None, None)
        series = branching_counts(cfg.params, cfg.horizon, r.seed, cfg.delta)
        with pytest.raises(NonConvergence, match="alpha_upper"):
            estimate(series, cfg.bounds)


# mu * T = 0.1: none of these series holds an event in a whole bin, so no
# baseline has a sample mean to invert and every private release fails too.
ZERO_COUNT_SERIES = dict(mu=0.001, mu_lower=0.0001, alpha=0.5, horizon=100.0,
                         delta_mode="10", repetitions=5, epsilons=(1.0,), b_values=("10",))


def test_series_with_no_counted_event_are_converged_zero_rows():
    cfg = ExperimentConfig(**ZERO_COUNT_SERIES)
    records = run_sweep(cfg)
    assert len(records) == 2 * cfg.repetitions
    assert not any(r.converged for r in records)
    for r in records:
        if r.b_mode == BASELINE_B_MODE:
            series = branching_counts(cfg.params, cfg.horizon, r.seed, cfg.delta)
            with pytest.raises(NoCountedEvents):
                estimate(series, cfg.bounds)


def test_parallel_workers_match_serial_with_failed_baselines():
    cfg = ExperimentConfig(**FAILING_BASELINES)
    serial, parallel = (run_sweep(cfg, workers=w) for w in (1, 2))
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in serial]
            == [dataclasses.replace(r, wall_ms=0.0) for r in parallel])


def test_sweep_refuses_fewer_than_one_worker():
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(small_config(repetitions=1), workers=workers)


def test_threshold_search_refuses_infinite_t_max():
    # t *= 2 reaches inf and inf <= inf would append probes without end
    with pytest.raises(ConfigError, match="t_max"):
        run_time_to_threshold(small_config(), threshold=0.1, t_min=5000.0, t_max=math.inf)


def _probe_series(monkeypatch, cfg, t_min, t_max):
    """{(probe index, rep): series} that a search hands to the release; the
    release is skipped and every cell fails, so the search runs every probe."""
    seen = []
    monkeypatch.setattr(experiments, "_release",
                        lambda config, series, eps, b_mode, seed: seen.append((series, seed)))
    run_time_to_threshold(cfg, threshold=1.0, t_min=t_min, t_max=t_max)
    where = {derived_seed(cfg.seed, 4, pi, rep): (pi, rep)
             for pi in range(16) for rep in range(cfg.repetitions)}
    return {where[seed]: series for series, seed in seen}


@pytest.mark.parametrize("delta_mode,t_min,t_max", [("log", 2500.0, 80000.0),
                                                    ("7.5", 3000.0, 50000.0)])
def test_threshold_probes_are_prefixes_of_one_sequence(monkeypatch, delta_mode, t_min, t_max):
    # 'log' widths are 5 up to T = 5000 and 10 after, so later probes sum base bins
    cfg = small_config(repetitions=20, epsilons=(1.0,), b_values=("10",), seed=5,
                       delta_mode=delta_mode)
    probes = [min(t_min * 2**pi, t_max) for pi in range(6)]
    series = _probe_series(monkeypatch, cfg, t_min, t_max)
    assert len(series) == 20 * len(probes)
    for rep in range(20):
        seq = simulate_branching(cfg.params, t_max, derived_seed(cfg.seed, 3, rep))
        for pi, horizon in enumerate(probes):
            got = series[pi, rep]
            want = bin_times((seq.timestamps,), horizon, got.delta)
            assert got.delta == delta_from_rule(delta_mode, horizon)
            assert got.horizon == want.horizon
            assert np.array_equal(got.counts, want.counts), (rep, horizon)


def test_threshold_prefixes_have_the_law_of_shorter_runs(monkeypatch):
    # the first T of a run to t_max against independent runs to T
    from scipy import stats as sps
    cfg = small_config(repetitions=200, epsilons=(1.0,), b_values=("10",), seed=9,
                       delta_mode="log")
    prefix = [s for (pi, _), s in _probe_series(monkeypatch, cfg, 2000.0, 8000.0).items()
              if pi == 0]
    fresh = [branching_counts(cfg.params, 2000.0, derived_seed(91, i), prefix[0].delta)
             for i in range(200)]
    assert len(prefix) == 200 and prefix[0].horizon == 2000.0
    for name in ("eta_hat", "sigma_sq_hat"):
        a, b = ([getattr(sample_stats(s), name) for s in group] for group in (prefix, fresh))
        assert sps.ks_2samp(a, b).pvalue > 0.01, name


@pytest.mark.parametrize("threshold", [math.inf, 1e-12])
def test_threshold_search_simulates_each_rep_once(monkeypatch, threshold):
    # the first probe meets an infinite threshold, no probe meets 1e-12
    calls = []
    simulate = experiments.branching_counts

    def recording(params, horizon, seed, delta):
        calls.append(horizon)
        return simulate(params, horizon, seed, delta)

    monkeypatch.setattr(experiments, "branching_counts", recording)
    cfg = small_config(repetitions=3, epsilons=(1.0,), b_values=("10",))
    run_time_to_threshold(cfg, threshold=threshold, t_min=5000.0, t_max=40000.0)
    assert calls == [40000.0] * 3


def test_sweep_and_threshold_outputs_are_pinned(tmp_path):
    # gamma = 0.5 and mu_upper = 0.6 put the relation-unaware threshold near
    # T = 234, so 'auto' cells converge and the hashes pin both sensitivity
    # modes, the sweep rows (wall_ms aside), the summary and the search
    from dphawkes.experiments import write_summary_csv, write_threshold_csv
    cfg = ExperimentConfig(mu=0.5, alpha=0.5, mu_lower=0.3, mu_upper=0.6, gamma=0.5,
                           horizon=20000.0, repetitions=6, epsilons=(1.0, 10.0, 50.0),
                           b_values=("10", "auto"), delta_mode="10", seed=3)
    records = run_sweep(cfg)
    assert sum(r.converged for r in records if r.b_mode == "auto") == 11
    write_sweep_csv([dataclasses.replace(r, wall_ms=0.0) for r in records],
                    tmp_path / "sweep.csv")
    write_summary_csv(summarize_sweep(records), tmp_path / "sweep_summary.csv")
    cells = run_time_to_threshold(cfg, threshold=0.3, t_min=2500.0, t_max=80000.0)
    assert [c.required_t for c in cells if c.b_mode == "auto"] == [None, 40000.0, 5000.0]
    write_threshold_csv(cells, tmp_path / "time_to_threshold.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "sweep_summary.csv", "time_to_threshold.csv")}
    assert digests == {
        "sweep.csv": "f990d4e062680f380a4e3f49f1dff5917c872227f82de0b6df07ccf1788f508d",
        "sweep_summary.csv": "ae310da1d4881206a6ce0d8bf96de9ac413d9ac06b1332975e1f6aebbe9642d6",
        "time_to_threshold.csv":
            "fe90d6a905b85af7241a254ae3d54e41431752cded4a84a242c218546fb24d22",
    }


def test_sweep_and_threshold_label_b_by_its_integer(tmp_path):
    # privatize --b 010 labels its row 10; the grid outputs must agree
    from dphawkes.experiments import write_threshold_csv
    cfg = small_config(repetitions=1, epsilons=(10.0,), b_values=("010", "auto"))
    assert cfg.b_values == ("10", "auto")
    write_sweep_csv(run_sweep(cfg), tmp_path / "sweep.csv")
    cells = run_time_to_threshold(cfg, threshold=math.inf, t_min=5000.0, t_max=5000.0)
    write_threshold_csv(cells, tmp_path / "time_to_threshold.csv")
    for name in ("sweep.csv", "time_to_threshold.csv"):
        lines = (tmp_path / name).read_text().splitlines()[1:]
        labels = [line.split(",")[1] for line in lines]
        assert set(labels) - {BASELINE_B_MODE} == {"10", "auto"}, (name, labels)


def test_baseline_wall_ms_excludes_simulate_time(monkeypatch):
    # a baseline row times the estimate only, as a private row times its release
    simulate = experiments.branching_counts

    def slow_simulate(*args, **kwargs):
        time.sleep(0.3)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, "branching_counts", slow_simulate)
    records = run_sweep(small_config(repetitions=1, epsilons=(1.0,), b_values=("10",)))
    baseline = [r for r in records if r.b_mode == BASELINE_B_MODE]
    assert len(baseline) == 1 and baseline[0].wall_ms < 300.0



@pytest.mark.parametrize("workers, repetitions, pool_sizes", [
    (500, 2, [2]), (8, 1, []), (3, 4, [3])])
def test_sweep_starts_no_more_workers_than_repetitions(monkeypatch, workers, repetitions,
                                                       pool_sizes):
    # a pool forked every one of its workers at the first task, however few tasks there were
    sizes = []

    class InlinePool:  # records its size and runs the tasks in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    cfg = small_config(repetitions=repetitions, horizon=2000.0)
    records = run_sweep(cfg, workers=workers)
    assert sizes == pool_sizes
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in records]
            == [dataclasses.replace(r, wall_ms=0.0) for r in run_sweep(cfg)])
