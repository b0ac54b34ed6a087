import hashlib
import os
import runpy
import sys
import types
import warnings

import numpy as np
import pytest

from dphawkes import (ComplexityInputs, HawkesParams, ParamBounds, eta4_monte_carlo,
                      required_T_nonprivate)
from dphawkes.cli import (EXIT_ALL_FAILED, EXIT_CONFIG, EXIT_ESTIMATION, EXIT_IO,
                          EXIT_OK, main)
from dphawkes.complexity import read_complexity_csv
from dphawkes.experiments import read_summary_csv, read_sweep_csv


def run(*argv):
    return main(list(argv))


def test_simulate_writes_contract_header(tmp_path):
    out = tmp_path / "ev.csv"
    code = run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "1000",
               "--seed", "1", "--out_dir", str(tmp_path), "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp,tree_id,parent_idx"
    assert os.path.exists(str(out) + ".meta")


def test_simulate_out_makes_no_out_dir(tmp_path):
    out_dir = tmp_path / "never" / "made"
    assert run("simulate", "--horizon", "100", "--seed", "1", "--out", str(tmp_path / "ev.csv"),
               "--out_dir", str(out_dir)) == EXIT_OK
    assert (tmp_path / "ev.csv").exists() and not out_dir.parent.exists()


def test_simulate_byte_identical_rerun(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "2000",
                   "--seed", "9", "--out_dir", str(tmp_path), "--out", str(out)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_zero_horizon_is_config_error(tmp_path):
    code = run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "0",
               "--out_dir", str(tmp_path))
    assert code == EXIT_CONFIG


def test_estimate_flow(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "100000",
        "--seed", "4", "--out_dir", str(tmp_path), "--out", str(out))
    result = tmp_path / "result.csv"
    code = run("estimate", str(out), "--mu", "1", "--alpha", "0.5",
               "--out_dir", str(tmp_path), "--out", str(result))
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "mu_hat=" in printed and "E_alpha=" in printed
    header, row = result.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert abs(float(fields["err_mu"])) < 0.05
    assert abs(float(fields["err_alpha"])) < 0.05


def test_estimate_with_privacy_budget(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "100000",
        "--seed", "4", "--out_dir", str(tmp_path), "--out", str(out))
    result = tmp_path / "result.csv"
    code = run("privatize", str(out), "--epsilon", "10", "--b", "10", "--seed", "12345",
               "--out_dir", str(tmp_path), "--out", str(result))
    assert code == EXIT_OK
    header, row = result.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["epsilon_total"]) == 10.0  # total budget echoed back
    assert float(fields["gamma_total"]) == 0.05
    assert fields["b_mode"] == "10"


def test_estimate_missing_file_is_io_error(tmp_path):
    assert run("estimate", str(tmp_path / "nope.csv"),
               "--out_dir", str(tmp_path)) == EXIT_IO


def test_estimate_underdispersed_input_exits_estimation(tmp_path):
    path = tmp_path / "regular.csv"
    rows = "\n".join(f"{0.5 + i},," for i in range(200))
    path.write_text("timestamp,tree_id,parent_idx\n" + rows + "\n")
    code = run("estimate", str(path), "--delta_mode", "10", "--out_dir", str(tmp_path))
    assert code == EXIT_ESTIMATION  # constant bins: variance below mean


def test_estimate_notes_a_root_at_the_bracket_edge(tmp_path, capsys):
    # bins of 2, 0, 2, 0, ...: dispersion above the mean, below any alpha >= 0.5
    path = tmp_path / "even.csv"
    rows = "\n".join(f"{20 * i + j},," for i in range(10) for j in (1, 2))
    path.write_text("timestamp,tree_id,parent_idx\n" + rows + "\n")
    assert run("estimate", str(path), "--horizon", "200", "--delta_mode", "10",
               "--alpha_lower", "0.5") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "note: root at lower bracket edge"


def test_estimate_single_event_binning_failure(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("timestamp,tree_id,parent_idx\n1.0,,\n")
    code = run("estimate", str(path), "--delta_mode", "10", "--out_dir", str(tmp_path))
    assert code == EXIT_IO  # degenerate horizon rejected before estimation


def test_zero_horizon_under_the_log_rule_is_an_input_error(tmp_path, capsys):
    # one ingested row gives horizon 0, which the default 'log' bin width cannot take
    raw, events = tmp_path / "one.csv", tmp_path / "one_ev.csv"
    raw.write_text("timestamp\n1700000000.5\n")
    assert run("ingest", str(raw), "--out", str(events)) == EXIT_OK
    capsys.readouterr()
    for command, extra in (("estimate", ()), ("privatize", ("--epsilon", "1", "--seed", "1"))):
        assert run(command, str(events), *extra) == EXIT_IO
        assert "input error: horizon 0 has no 'log' bin width" in capsys.readouterr().err


def test_privatize_requires_epsilon(tmp_path, capsys):
    path = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "5000",
        "--seed", "4", "--out_dir", str(tmp_path), "--out", str(path))
    with pytest.raises(SystemExit) as refused:  # argparse's usage error
        run("privatize", str(path), "--out_dir", str(tmp_path))
    assert refused.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1] == \
        "dphawkes privatize: error: the following arguments are required: --epsilon"
    assert run("privatize", str(path), "--epsilon", "5", "--seed", "12345",
               "--out_dir", str(tmp_path)) == EXIT_OK


def test_privatize_prints_no_exact_statistics(tmp_path, capsys):
    path = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "5000",
        "--seed", "4", "--out_dir", str(tmp_path), "--out", str(path))
    capsys.readouterr()
    assert run("estimate", str(path), "--out_dir", str(tmp_path)) == EXIT_OK
    bins, exact = capsys.readouterr().out.splitlines()[0].split("  ")
    assert bins.startswith("bins K=") and exact.startswith("eta_hat=")
    assert run("privatize", str(path), "--epsilon", "5", "--seed", "12345",
               "--out_dir", str(tmp_path)) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == bins  # K and delta are public
    assert printed.splitlines()[1].startswith("private stats: eta_hat=")
    for value in exact.split():
        assert value not in printed


def test_estimate_with_no_event_in_a_whole_bin_names_the_file(tmp_path, capsys):
    path = tmp_path / "late.csv"
    path.write_text("timestamp,tree_id,parent_idx\n25,,\n")
    flags = ("--horizon", "29", "--delta_mode", "10", "--out_dir", str(tmp_path))
    assert run("estimate", str(path), *flags) == EXIT_ESTIMATION
    assert f"{path}: none of its events falls in the K=2 whole bins" in capsys.readouterr().err
    # privatize decides nothing on the exact statistics: it releases, here into a failure
    assert run("privatize", str(path), "--epsilon", "10", "--seed", "1", *flags) \
        == EXIT_ESTIMATION
    assert "estimation failed" in capsys.readouterr().err


def _result_row(path) -> dict:
    header, row = path.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_estimate_with_no_counted_event_fails_like_every_estimate(tmp_path, capsys):
    # refused once, by estimator.estimate: exit 4 and a converged=0 row
    path, out = tmp_path / "late.csv", tmp_path / "r.csv"
    path.write_text("timestamp,tree_id,parent_idx\n25,,\n")
    assert run("estimate", str(path), "--horizon", "29", "--delta_mode", "10",
               "--out", str(out)) == EXIT_ESTIMATION
    assert capsys.readouterr().err.splitlines() == [
        f"estimation failed: {path}: none of its events falls in the K=2 whole bins"]
    assert _result_row(out)["converged"] == "0"


@pytest.mark.parametrize("command", [["estimate"], ["privatize", "--epsilon", "1", "--seed", "1"]])
def test_a_rate_beyond_float_range_is_an_estimation_failure(tmp_path, capsys, command):
    # eta_hat / delta overflows at delta = 1e-307: exit 4, not a configuration error
    path = tmp_path / "flat.csv"
    path.write_text("timestamp,tree_id,parent_idx\n"
                    + "".join(f"{(i + 1) * 1e-309!r},,\n" for i in range(3000)))
    code = run(command[0], str(path), "--delta_mode", "1e-307", *command[1:],
               "--out", str(tmp_path / "r.csv"))
    assert code == EXIT_ESTIMATION
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"estimation failed: {path}: moments ")
    assert line.endswith("mu must be positive and finite, got inf")


def test_bin_count_past_float_range_is_an_input_error(tmp_path, capsys):
    # horizon / delta overflows to inf, which int() cannot take (the flag table
    # tries --delta_mode 1e-320 on every binning command)
    path = tmp_path / "ev.csv"
    path.write_text("timestamp,tree_id,parent_idx\n25,,\n")
    assert run("estimate", str(path), "--horizon", "1e308", "--delta_mode", "1e-10") == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [
        "input error: horizon 1e+308 yields inf bin(s) of width 1e-10; need 2 to 1e+08"]


def test_unseeded_release_draws_fresh_noise(tmp_path):
    # the default seed is public: noise drawn from it could be subtracted again
    events = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "100000",
        "--seed", "4", "--out_dir", str(tmp_path), "--out", str(events))
    release = ("privatize", str(events), "--epsilon", "1", "--b", "10", "--out_dir", str(tmp_path))
    out = {name: tmp_path / f"{name}.csv" for name in ("exact", "a", "b", "s1", "s2")}
    assert run("estimate", str(events), "--out_dir", str(tmp_path),
               "--out", str(out["exact"])) == EXIT_OK
    for name in ("a", "b"):
        assert run(*release, "--out", str(out[name])) == EXIT_OK
    for name in ("s1", "s2"):
        assert run(*release, "--seed", "12345", "--out", str(out[name])) == EXIT_OK
    assert out["s1"].read_bytes() == out["s2"].read_bytes()
    assert out["a"].read_bytes() != out["b"].read_bytes()
    exact, seeded = _result_row(out["exact"]), _result_row(out["s1"])
    for name in ("a", "b"):
        row = _result_row(out[name])
        for key in ("eta_hat", "sigma_sq_hat"):
            noise = float(seeded[key]) - float(exact[key])
            assert float(row[key]) - noise != float(exact[key])


def test_privatize_nonpositive_private_mean_exits_estimation(tmp_path, capsys):
    path = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "1000",
        "--seed", "1", "--out_dir", str(tmp_path), "--out", str(path))
    result = tmp_path / "result.csv"
    code = run("privatize", str(path), "--epsilon", "0.01", "--b", "100", "--seed", "2",
               "--delta_mode", "10", "--out_dir", str(tmp_path), "--out", str(result))
    assert code == EXIT_ESTIMATION  # the noise drives the mean to -108.979
    assert "nonpositive" in capsys.readouterr().err
    header, row = result.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["converged"] == "0"


def _run_plot_script(script, cwd):
    """Run the emitted plot script in cwd against a recording matplotlib.pyplot;
    returns the (method, args, kwargs) calls made on the figure and the axes."""
    calls = []

    class Recorder:
        def __getattr__(self, name):
            return lambda *args, **kwargs: calls.append((name, args, kwargs))

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (Recorder(), Recorder())
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    saved = {k: sys.modules.get(k) for k in ("matplotlib", "matplotlib.pyplot")}
    sys.modules.update({"matplotlib": matplotlib, "matplotlib.pyplot": pyplot})
    cwd_before = os.getcwd()
    try:
        os.chdir(cwd)
        runpy.run_path(str(script), run_name="__main__")
    finally:
        os.chdir(cwd_before)
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return calls


def test_sweep_cli_and_all_failed(tmp_path):
    code = run("sweep", "--mu", "1", "--alpha", "0.5", "--horizon", "20000",
               "--repetitions", "2", "--epsilons", "1,10", "--b_values", "10",
               "--seed", "2", "--delta_mode", "10", "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep_summary.csv").exists()
    script = tmp_path / "plot_sweep.py"
    assert script.exists()
    calls = _run_plot_script(script, tmp_path)
    b_labels = [k["label"] for name, _, k in calls if name == "plot"]
    assert b_labels == ["B = 10"]
    assert ("savefig", ("sweep_plot.png",), {"dpi": 150}) in calls

    # relation-unaware cells all fail below the horizon threshold
    code = run("sweep", "--mu", "1", "--alpha", "0.5", "--horizon", "20000",
               "--repetitions", "2", "--epsilons", "1", "--b_values", "auto",
               "--seed", "2", "--delta_mode", "10", "--out_dir", str(tmp_path))
    assert code == EXIT_ALL_FAILED


def test_sweep_with_failed_baselines_exits_on_the_grid_cells(tmp_path, capsys):
    # some of these baselines do not invert (tests/test_experiments.py FAILING_BASELINES)
    code = run("sweep", "--mu", "1", "--alpha", "0.74", "--horizon", "2000",
               "--repetitions", "10", "--epsilons", "1", "--b_values", "10",
               "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    baseline = [r for r in read_sweep_csv(tmp_path / "sweep.csv") if r.b_mode == "none"]
    assert len(baseline) == 10
    assert any(not r.converged for r in baseline)
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line.startswith("inf,none,")]
    assert any(",,,,0," in line for line in rows)
    summary = {row["b_mode"]: row for row in read_summary_csv(tmp_path / "sweep_summary.csv")}
    assert summary["none"]["n_converged"] < summary["none"]["n"] == 10


def test_sweep_with_no_counted_event_writes_every_row(tmp_path):
    # no event falls in a whole bin (tests/test_experiments.py ZERO_COUNT_SERIES)
    code = run("sweep", "--mu", "0.001", "--mu_lower", "0.0001", "--alpha", "0.5",
               "--horizon", "100", "--delta_mode", "10", "--repetitions", "5",
               "--epsilons", "1", "--b_values", "10", "--out_dir", str(tmp_path))
    assert code == EXIT_ALL_FAILED
    records = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(records) == 10
    assert not any(r.converged for r in records)


@pytest.mark.parametrize("flag, value", [("--epsilons", "10,10"), ("--b_values", "10,010")])
def test_repeated_grid_value_is_config_error(tmp_path, capsys, flag, value):
    code = run("sweep", "--mu", "1", "--alpha", "0.5", "--horizon", "20000",
               "--repetitions", "2", "--epsilons", "1,10", "--b_values", "10",
               "--seed", "3", "--delta_mode", "10", flag, value, "--out_dir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "must not repeat" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_time_to_threshold_cli(tmp_path):
    code = run("time-to-threshold", "--mu", "1", "--alpha", "0.5",
               "--repetitions", "2", "--epsilons", "5", "--b_values", "10",
               "--seed", "2", "--threshold", "0.5", "--t_min", "5000",
               "--t_max", "20000", "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "time_to_threshold.csv").read_text().splitlines()
    assert lines[0] == "epsilon,b_mode,required_t,capped,median_err_alpha"


def test_time_to_threshold_refuses_a_short_probe_before_simulating(tmp_path, capsys,
                                                                    monkeypatch):
    from dphawkes import experiments

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the bin counts were checked")

    monkeypatch.setattr(experiments, "branching_counts", no_simulation)
    code = run("time-to-threshold", "--delta_mode", "10", "--threshold", "0.5",
               "--t_min", "15", "--t_max", "40", "--out_dir", str(tmp_path))
    assert code == EXIT_IO
    assert capsys.readouterr().err.strip() == \
        "input error: horizon 15 yields 1 bin(s) of width 10; need 2 to 1e+08"
    assert not (tmp_path / "time_to_threshold.csv").exists()


def test_complexity_cli(tmp_path, capsys):
    code = run("complexity", "--mu_lower", "0.5", "--mu_upper", "2",
               "--alpha_lower", "0.1", "--alpha_upper", "0.75",
               "--xi", "40", "--delta_prob", "0.05", "--delta_bin", "30000",
               "--sigma_sq", "239986", "--eta4", "1.8e11",
               "--out", str(tmp_path / "report.csv"), "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    assert "required T" in capsys.readouterr().out
    assert (tmp_path / "report.csv").read_text().startswith("term_label,value,binding")


@pytest.mark.parametrize("b, laplace_tail, min_horizon", [
    (None, "1.12654e+12", "1.50184e+06"), ("10", "5.07706e+07", "0")])
def test_complexity_private_takes_the_release_b_label(tmp_path, capsys, b, laplace_tail,
                                                     min_horizon):
    # --epsilon is the total budget: 2 gives the goldens' per-statistic epsilon 1
    code = run("complexity", "--epsilon", "2", "--c", "100",
               *(("--b", b) if b else ()),
               "--xi", "40", "--delta_prob", "0.05", "--delta_bin", "30000",
               "--sigma_sq", "239986", "--eta4", "1.8e11", "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "required T = 8.16968e+22 (binding term: var_fourth_moment)"
    assert f"  {'laplace_tail':<20} {laplace_tail}" in out
    assert f"  {'min_horizon':<20} {min_horizon}" in out


def test_complexity_estimates_eta4_by_monte_carlo(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert run("complexity", "--mu", "1", "--alpha", "0.05", "--mu_lower", "1", "--mu_upper", "1",
               "--alpha_lower", "0.05", "--alpha_upper", "0.1", "--xi", "2",
               "--delta_prob", "0.05", "--delta_bin", "40", "--sigma_sq", "50",
               "--eta4_bins", "10000", "--seed", "1", "--out", str(report)) == EXIT_OK
    est = eta4_monte_carlo(HawkesParams(1.0, 0.05), 40.0, 10000, 1)
    assert capsys.readouterr().out.startswith(f"eta4 Monte-Carlo estimate: {est.value:.6g}")
    inputs = ComplexityInputs(bounds=ParamBounds(1.0, 1.0, 0.05, 0.1), xi=2.0, delta_prob=0.05,
                              delta_bin=40.0, eta4=est.value, sigma_sq=50.0)
    assert read_complexity_csv(report).required_T == required_T_nonprivate(inputs).required_T


def test_complexity_private_bound_requires_epsilon(capsys):
    # the private bound's inputs without --epsilon, the one flag that asks for it
    assert run("complexity", "--b", "10", "--c", "100", "--xi", "40", "--delta_prob", "0.05",
               "--delta_bin", "30000", "--sigma_sq", "239986", "--eta4", "1.8e11") == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: --b, --c and --gamma apply to "
                                       "the private bound only; add --epsilon\n")


def test_complexity_inadmissible_is_config_error(tmp_path):
    code = run("complexity", "--xi", "40", "--delta_prob", "0.05",
               "--delta_bin", "10", "--sigma_sq", "100", "--eta4", "1e4",
               "--out_dir", str(tmp_path))
    assert code == EXIT_CONFIG


def test_tree_stats_cli(tmp_path):
    out = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "2000",
        "--seed", "6", "--out_dir", str(tmp_path), "--out", str(out))
    code = run("tree-stats", str(out), "--out", str(tmp_path / "trees.csv"),
               "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "trees.csv").read_text().startswith("tree_size,count")


def test_tree_stats_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "2000",
        "--seed", "6", "--out_dir", str(tmp_path), "--out", str(out))
    trees = tmp_path / "trees.csv"
    capsys.readouterr()
    assert run("tree-stats", str(out), "--out", str(trees), "--out_dir", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().out == f"2008 trees, mean in-window size 2.005; wrote {trees}\n"
    assert hashlib.sha256(trees.read_bytes()).hexdigest() == (
        "733fcbffbe244552f516a1d61991df8b3923712cfd8a36d4bdaab969bbd8c749")


def test_ingest_cli_round_trip(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("100\n160\n220\n")
    out = tmp_path / "events.csv"
    code = run("ingest", str(raw), "--scale", str(1 / 60), "--out", str(out),
               "--out_dir", str(tmp_path))
    assert code == EXIT_OK
    from dphawkes import read_events_csv
    seq = read_events_csv(out)
    np.testing.assert_allclose(seq.timestamps, [0.0, 1.0, 2.0])


def test_ingest_refuses_non_finite_rows_naming_the_file(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    out = tmp_path / "events.csv"
    for rows, lines in (("1\nnan\n3\n7\n", "lines 2"), ("1\n2\ninf\n", "lines 3")):
        raw.write_text(rows)
        assert run("ingest", str(raw), "--out", str(out), "--out_dir", str(tmp_path)) == EXIT_IO
        err = capsys.readouterr().err
        assert str(raw) in err and lines in err
    assert not out.exists()


def test_ingest_refuses_a_scale_that_overflows_naming_the_file(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0\n5e9\n1e10\n")
    out = tmp_path / "events.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert run("ingest", str(raw), "--scale", "1e300", "--out", str(out),
                   "--out_dir", str(tmp_path)) == EXIT_IO
    err = capsys.readouterr().err
    assert str(raw) in err and "1e+300" in err
    assert not out.exists()


def test_bad_flag_value_is_config_error_like_the_file(tmp_path):
    # A flag goes through the same value parser as the --config file.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epsilons = 1,abc\n")
    common = ("--horizon", "2000", "--out_dir", str(tmp_path))
    assert run("sweep", "--config", str(cfg), "--repetitions", "1", *common) == EXIT_CONFIG
    assert run("sweep", "--epsilons", "1,abc", "--repetitions", "1", *common) == EXIT_CONFIG
    assert run("simulate", "--seed", "1.5", *common) == EXIT_CONFIG


def test_estimate_truth_from_config_file_fills_errors(tmp_path):
    events = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "20000",
        "--seed", "3", "--out_dir", str(tmp_path), "--out", str(events))
    cfg = tmp_path / "truth.cfg"
    cfg.write_text("mu = 1\nalpha = 0.5\n")
    rows = {}
    for name, extra in (("truth", ("--config", str(cfg))), ("none", ())):
        out = tmp_path / f"{name}.csv"
        assert run("estimate", str(events), *extra, "--out_dir", str(tmp_path),
                   "--out", str(out)) == EXIT_OK
        header, row = out.read_text().splitlines()
        rows[name] = dict(zip(header.split(","), row.split(",")))
    assert float(rows["truth"]["err_mu"]) >= 0 and float(rows["truth"]["err_alpha"]) >= 0
    assert rows["none"]["err_mu"] == rows["none"]["err_alpha"] == ""
    assert rows["truth"]["alpha_hat"] == rows["none"]["alpha_hat"]


def test_half_of_the_truth_is_scored_with_the_default_other_half(tmp_path, capsys):
    # --mu alone printed no errors and left both err_* columns empty
    events = tmp_path / "ev.csv"
    run("simulate", "--horizon", "20000", "--seed", "3", "--out_dir", str(tmp_path),
        "--out", str(events))
    rows = {}
    for name, truth in (("mu", ("--mu", "2")), ("alpha", ("--alpha", "0.3")),
                        ("mu_pair", ("--mu", "2", "--alpha", "0.5")),
                        ("alpha_pair", ("--mu", "1", "--alpha", "0.3"))):
        out = tmp_path / f"{name}.csv"
        assert run("estimate", str(events), *truth, "--out_dir", str(tmp_path),
                   "--out", str(out)) == EXIT_OK
        assert " E_mu=" in capsys.readouterr().out
        rows[name] = _result_row(out)
    assert rows["mu"] == rows["mu_pair"] and rows["alpha"] == rows["alpha_pair"]
    assert rows["mu"]["err_mu"] != rows["alpha"]["err_mu"] != ""


@pytest.mark.parametrize("command, extra", [
    ("estimate", ()), ("privatize", ("--epsilon", "10", "--b", "10", "--seed", "1")),
    ("tree-stats", ()),
])
def test_config_file_horizon_is_read_like_the_flag(tmp_path, capsys, command, extra):
    # a horizon line in the file was ignored and the .meta horizon (1000) used
    events = tmp_path / "ev.csv"
    run("simulate", "--horizon", "1000", "--seed", "1", "--out_dir", str(tmp_path),
        "--out", str(events))
    cfg = tmp_path / "short.cfg"
    cfg.write_text("horizon = 500\n")
    capsys.readouterr()
    for horizon in (("--horizon", "500"), ("--config", str(cfg))):
        assert run(command, str(events), *extra, *horizon,
                   "--out_dir", str(tmp_path)) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "timestamps must lie in [0, horizon]" in err[0], err


def test_one_config_file_drives_a_whole_pipeline(tmp_path):
    # the file takes every key on every command, although each command's flags
    # are only the keys it reads
    cfg = tmp_path / "all.cfg"
    cfg.write_text("mu = 1\nalpha = 0.5\nmu_lower = 0.5\nmu_upper = 2\nalpha_lower = 0.1\n"
                   "alpha_upper = 0.75\ngamma = 0.05\nepsilons = 10\nb_values = 10\n"
                   "delta_mode = 10\nhorizon = 2000\nrepetitions = 1\nseed = 3\n"
                   f"out_dir = {tmp_path}\n")
    raw = tmp_path / "raw.csv"
    raw.write_text("100\n160\n220\n")
    events = str(tmp_path / "events.csv")
    for argv in (("simulate",), ("estimate", events), ("privatize", events, "--epsilon", "10"),
                 ("tree-stats", events), ("ingest", str(raw))):
        assert run(*argv, "--config", str(cfg)) == EXIT_OK, argv
    assert {"events.csv", "tree_stats.csv", "ingested.csv"} <= set(os.listdir(tmp_path))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_config_file_is_read_once(tmp_path):
    # a pipe, as given by --config <(gen_cfg), yields its text to one reader only
    read_end, write_end = os.pipe()
    os.write(write_end, b"mu = 2\nalpha = 0.25\nseed = 7\n")
    os.close(write_end)
    out = tmp_path / "ev.csv"
    try:
        code = run("simulate", "--config", f"/dev/fd/{read_end}", "--horizon", "100",
                   "--out_dir", str(tmp_path), "--out", str(out))
    finally:
        os.close(read_end)
    assert code == EXIT_OK
    meta = (tmp_path / "ev.csv.meta").read_text().splitlines()
    assert {"mu=2", "alpha=0.25", "horizon=100", "seed=7"} <= set(meta)


def test_invalid_b_is_config_error_and_writes_nothing(tmp_path):
    events = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "2000",
        "--seed", "1", "--out_dir", str(tmp_path), "--out", str(events))
    out = tmp_path / "result.csv"
    for b in ("0", "ten", "-1"):
        # B = 0 would release the exact statistics under a privacy label
        assert run("privatize", str(events), "--epsilon", "0.001", "--b", b,
                   "--out_dir", str(tmp_path), "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()
    assert run("complexity", "--epsilon", "1", "--b", "0", "--c", "1",
               "--xi", "40", "--delta_prob", "0.05", "--delta_bin", "30000",
               "--sigma_sq", "239986", "--eta4", "1.8e11",
               "--out_dir", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("flag, value", [
    ("--mu_upper", "1e308"), ("--epsilon", "1e-320"), ("--gamma", "1e-320"),
    ("--b", "1" + "0" * 399),
], ids=["mu_upper", "epsilon", "gamma", "b"])
def test_private_release_refuses_non_finite_noise(tmp_path, capsys, flag, value):
    # an infinite noise scale released sigma_sq_hat=-inf as converged=1, or crashed
    events = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "2000",
        "--seed", "1", "--out_dir", str(tmp_path), "--out", str(events))
    capsys.readouterr()
    out = tmp_path / "result.csv"
    code = run("privatize", str(events), "--epsilon", "1", "--b", "10", flag, value,
               "--out_dir", str(tmp_path), "--out", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    reason = "B must be a positive integer up to 2**53" if flag == "--b" else "not both finite"
    assert len(err) == 1 and reason in err[0]
    assert not out.exists()


def test_b_past_float_range_is_config_error_for_the_bound(tmp_path):
    assert run("complexity", "--epsilon", "1", "--b", "1" + "0" * 399,
               "--c", "1", "--xi", "40", "--delta_prob", "0.05", "--delta_bin", "30000",
               "--sigma_sq", "239986", "--eta4", "1.8e11",
               "--out_dir", str(tmp_path)) == EXIT_CONFIG


def test_empty_events_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("timestamp,tree_id,parent_idx\n")
    assert run("estimate", str(path), "--out_dir", str(tmp_path)) == EXIT_IO
    assert f"{path}: the file holds no events" in capsys.readouterr().err
    assert run("tree-stats", str(path), "--out_dir", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().out.startswith("0 trees")


@pytest.mark.parametrize("horizon, reason", [
    ("abc", "horizon=abc is not a number"),
    ("10", "horizon=10 does not fit the events"),
    ("nan", "horizon=nan does not fit the events"),
])
def test_meta_horizon_refusals_name_the_meta_file(tmp_path, capsys, horizon, reason):
    events = tmp_path / "ev.csv"
    run("simulate", "--mu", "1", "--alpha", "0.5", "--horizon", "100",
        "--seed", "1", "--out_dir", str(tmp_path), "--out", str(events))
    meta = tmp_path / "ev.csv.meta"
    meta.write_text(f"horizon={horizon}\n")
    capsys.readouterr()
    for command in ("estimate", "tree-stats"):
        assert run(command, str(events), "--out_dir", str(tmp_path)) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{meta}: {reason}" in err[0]


def test_events_file_fault_is_not_blamed_on_the_meta_file(tmp_path, capsys):
    events = tmp_path / "ev.csv"
    events.write_text("timestamp,tree_id,parent_idx\n2,,\n1,,\n")
    (tmp_path / "ev.csv.meta").write_text("horizon=10\n")
    assert run("estimate", str(events), "--out_dir", str(tmp_path)) == EXIT_IO
    err = capsys.readouterr().err
    assert f"{events}: timestamps must be strictly increasing" in err and ".meta" not in err


def test_tree_stats_on_unlabeled_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "unlabeled.csv"
    path.write_text("timestamp,tree_id,parent_idx\n1,,\n2,,\n")
    assert run("tree-stats", str(path), "--out_dir", str(tmp_path)) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert err == [f"input error: {path}: sequence carries no tree labels"]


def test_tree_stats_counts_a_tree_with_a_large_id(tmp_path, capsys):
    # sizes are counted per distinct id, not in a counter array as long as the largest id
    path = tmp_path / "ev.csv"
    path.write_text("timestamp,tree_id,parent_idx\n1.5,9999999999999999,\n")
    assert run("tree-stats", str(path), "--out", str(tmp_path / "trees.csv")) == EXIT_OK
    assert capsys.readouterr().out.startswith("1 trees, mean in-window size 1;")
    assert (tmp_path / "trees.csv").read_text() == "tree_size,count\n1,1\n"


@pytest.mark.parametrize("command, text, place", [
    ("estimate", b"timestamp,tree_id,parent_idx\n1.5,0,\r\n2\r,0,0\n",
     "row 2: could not convert string to float: '2\\r'"),
    ("tree-stats", b"timestamp,tree_id,parent_idx\n1.5,99999999999999999999,\n",
     "row 1: an id outside int64"),
    ("ingest", b"t\n1.5\r\r\n2.5\n", "unparsable or non-finite timestamps at lines 2"),
], ids=["lone-cr", "long-id", "ingest-lone-cr"])
def test_fallback_refusals_name_the_row(tmp_path, capsys, command, text, place):
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    assert run(command, str(path), "--out_dir", str(tmp_path)) == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [f"input error: {path}: {place}"]


def test_relation_unaware_release_below_one_event_cap_is_refused(tmp_path, capsys):
    # T = 0.45 < 1 makes the cap c2*log(T) negative; mu_upper = 0.01 and
    # gamma = 0.5 put the mu/gamma threshold below T, so only the e^{1/c2}
    # floor refuses it
    path = tmp_path / "ev.csv"
    path.write_text("timestamp,tree_id,parent_idx\n0.05,,\n0.12,,\n0.33,,\n0.45,,\n")
    code = run("privatize", str(path), "--epsilon", "2", "--b", "auto",
               "--mu_lower", "0.01", "--mu_upper", "0.01", "--gamma", "0.5",
               "--delta_mode", "0.1", "--out_dir", str(tmp_path))
    assert code == EXIT_ESTIMATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "below relation-unaware threshold" in err[0]
