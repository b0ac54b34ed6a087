import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from dphawkes import ConfigError, bin_events, estimate, simulate_branching
from dphawkes import experiments
from dphawkes.config import ExperimentConfig
from dphawkes.experiments import (BASELINE_B_MODE, read_sweep_csv, run_sweep,
                                  run_time_to_threshold, summarize_sweep,
                                  write_sweep_csv, SWEEP_CSV_HEADER)
from dphawkes.rng import derived_seed, task_rng


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
    assert task_rng(7, 1).random() == 0.7701409510034741
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


def test_threshold_requires_synthetic_truth(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("1\n2\n3\n")
    cfg = ExperimentConfig(mu=None, alpha=None, dataset=str(raw))
    with pytest.raises(ConfigError):
        run_time_to_threshold(cfg, threshold=0.1)


def test_real_data_sweep_uses_nonprivate_truth(tmp_path):
    rng = np.random.default_rng(1)
    # a plausibly clustered synthetic "real" file
    from dphawkes import HawkesParams, simulate_branching
    seq = simulate_branching(HawkesParams(1.0, 0.5), 20000.0, seed=5)
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(f"{t:.17g}" for t in seq.timestamps) + "\n")
    cfg = ExperimentConfig(mu=None, alpha=None, dataset=str(raw),
                           epsilons=(10.0,), b_values=("10",), repetitions=3,
                           delta_mode="10", seed=3)
    records = run_sweep(cfg)
    base = [r for r in records if r.b_mode == BASELINE_B_MODE]
    # baseline errors vanish: the non-private estimate is the ground truth
    assert all(r.err_mu == 0.0 and r.err_alpha == 0.0 for r in base)
    grid = [r for r in records if r.b_mode != BASELINE_B_MODE]
    assert all(r.converged for r in grid)
    assert any(r.err_alpha > 0 for r in grid)


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


def test_sweep_refuses_fewer_than_one_worker():
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(small_config(repetitions=1), workers=workers)


def test_threshold_search_refuses_infinite_t_max():
    # t *= 2 reaches inf and inf <= inf would append probes without end
    with pytest.raises(ConfigError, match="t_max"):
        run_time_to_threshold(small_config(), threshold=0.1, t_min=5000.0, t_max=math.inf)


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
        "sweep.csv": "ff383daf22921db72576b9478cd205782ff9d06afd3bcf4ee654cfa3cffc983e",
        "sweep_summary.csv": "3374543c3ae28b35946cf9c36782ad4d765448dee263ab12f36e1695ff72976e",
        "time_to_threshold.csv":
            "bbd2db90417908b20ffbd773f49879b307eee9aa4ca093adf0af57c902adb076",
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
