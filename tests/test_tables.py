"""Byte-exact goldens for the six record tables, and their readers' checks.

Each writer gets a tiny fixed input covering the format's cases: a None
field (empty), a bool (0/1), epsilon = inf, a float that needs 17
significant digits, a numpy integer, and the CLI's failure row.
"""
import math

import numpy as np
import pytest

from dphawkes import cli
from dphawkes.branching import read_tree_csv, write_tree_csv
from dphawkes.complexity import ComplexityReport, read_complexity_csv, write_complexity_csv
from dphawkes.estimator import EstimateResult
from dphawkes.experiments import (SweepRecord, ThresholdCell, read_summary_csv,
                                  read_sweep_csv, read_threshold_csv, write_summary_csv,
                                  write_sweep_csv, write_threshold_csv)

THIRD = 0.1 + 0.2  # 0.30000000000000004 needs all 17 digits

SWEEP = [
    SweepRecord(epsilon=0.5, b_mode="10", rep=np.int64(1), seed=4294967295, mu_hat=THIRD,
                alpha_hat=0.5, err_mu=1e-300, err_alpha=2.0 / 3.0, converged=True,
                wall_ms=1.25),
    SweepRecord(epsilon=2.0, b_mode="auto", rep=0, seed=7, mu_hat=None, alpha_hat=None,
                err_mu=None, err_alpha=None, converged=False, wall_ms=0.0),
    SweepRecord(epsilon=math.inf, b_mode="none", rep=0, seed=3, mu_hat=1.0, alpha_hat=0.25,
                err_mu=0.0, err_alpha=0.5, converged=True, wall_ms=12.0),
]
SUMMARY = [
    {"epsilon": 1.0, "b_mode": "25", "n": 3, "n_converged": np.int64(2),
     "mean_err_mu": THIRD, "mean_err_alpha": 0.125, "err_mu_p2_5": 1e-5,
     "err_mu_p97_5": 123456789.0, "err_alpha_p2_5": -0.0, "err_alpha_p97_5": 1.0 / 3.0},
    {"epsilon": math.inf, "b_mode": "none", "n": 2, "n_converged": 0,
     "mean_err_mu": None, "mean_err_alpha": None, "err_mu_p2_5": None,
     "err_mu_p97_5": None, "err_alpha_p2_5": None, "err_alpha_p97_5": None},
]
THRESHOLD = [
    ThresholdCell(epsilon=10.0, b_mode="10", required_t=12500.0, capped=False,
                  median_err_alpha=THIRD),
    ThresholdCell(epsilon=math.inf, b_mode="auto", required_t=None, capped=True,
                  median_err_alpha=None),
]
PRIVATE_RESULT = EstimateResult(
    mu_hat=THIRD, alpha_hat=0.5, eta_hat=20.0, sigma_sq_hat=68.08090795, converged=True,
    iterations=np.int64(41), residual=1e-12, boundary=None, epsilon_total=math.inf,
    gamma_total=0.1, b_mode="10")
PLAIN_RESULT = EstimateResult(
    mu_hat=1.0, alpha_hat=0.25, eta_hat=5.0, sigma_sq_hat=9.5, converged=True,
    iterations=3, residual=0.0, boundary="lower")
TREES = np.array([1, 3, 1, 7, 1, 3])
REPORT = ComplexityReport(required_T=2.5e7, binding_term="variance",
                          all_terms=[("mean", THIRD), ("variance", 2.5e7),
                                     ("noise", math.inf)])

RESULT_HEADER = (b"mu_hat,alpha_hat,eta_hat,sigma_sq_hat,converged,iterations,residual,"
                 b"boundary,epsilon_total,gamma_total,b_mode,err_mu,err_alpha\n")

# name -> (write(path), exact file bytes)
GOLDEN = {
    "sweep": (lambda p: write_sweep_csv(SWEEP, p),
              b"epsilon,b_mode,rep,seed,mu_hat,alpha_hat,err_mu,err_alpha,converged,wall_ms\n"
              b"0.5,10,1,4294967295,0.30000000000000004,0.5,1e-300,0.66666666666666663,1,1.25\n"
              b"2,auto,0,7,,,,,0,0\n"
              b"inf,none,0,3,1,0.25,0,0.5,1,12\n"),
    "summary": (lambda p: write_summary_csv(SUMMARY, p),
                b"epsilon,b_mode,n,n_converged,mean_err_mu,mean_err_alpha,"
                b"err_mu_p2_5,err_mu_p97_5,err_alpha_p2_5,err_alpha_p97_5\n"
                b"1,25,3,2,0.30000000000000004,0.125,1.0000000000000001e-05,123456789,"
                b"-0,0.33333333333333331\n"
                b"inf,none,2,0,,,,,,\n"),
    "threshold": (lambda p: write_threshold_csv(THRESHOLD, p),
                  b"epsilon,b_mode,required_t,capped,median_err_alpha\n"
                  b"10,10,12500,0,0.30000000000000004\n"
                  b"inf,auto,,1,\n"),
    "result_private": (lambda p: cli._write_result_csv(p, PRIVATE_RESULT, None, 2.0 / 3.0),
                       RESULT_HEADER +
                       b"0.30000000000000004,0.5,20,68.080907949999997,1,41,"
                       b"9.9999999999999998e-13,,inf,0.10000000000000001,10,,"
                       b"0.66666666666666663\n"),
    "result_plain": (lambda p: cli._write_result_csv(p, PLAIN_RESULT, 0.5, 0.125),
                     RESULT_HEADER + b"1,0.25,5,9.5,1,3,0,lower,,,,0.5,0.125\n"),
    "result_failed": (lambda p: cli._write_result_csv(p, None, None, None),
                      RESULT_HEADER + b",,,,0,,,,,,,,\n"),
    "trees": (lambda p: write_tree_csv(TREES, p),
              b"tree_size,count\n1,3\n3,2\n7,1\n"),
    "complexity": (lambda p: write_complexity_csv(REPORT, p),
                   b"term_label,value,binding\n"
                   b"mean,0.30000000000000004,0\nvariance,25000000,1\nnoise,inf,0\n"),
}

READERS = {
    "sweep": read_sweep_csv,
    "summary": read_summary_csv,
    "threshold": read_threshold_csv,
    "trees": read_tree_csv,
    "complexity": read_complexity_csv,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_bytes(tmp_path, name):
    write, expected = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == expected


def test_tables_read_back(tmp_path):
    for name in READERS:
        GOLDEN[name][0](tmp_path / f"{name}.csv")
    assert read_sweep_csv(tmp_path / "sweep.csv") == SWEEP
    assert read_summary_csv(tmp_path / "summary.csv") == SUMMARY
    assert read_threshold_csv(tmp_path / "threshold.csv") == THRESHOLD
    sizes, counts = read_tree_csv(tmp_path / "trees.csv")
    np.testing.assert_array_equal(sizes, [1, 3, 7])
    np.testing.assert_array_equal(counts, [3, 2, 1])
    assert read_complexity_csv(tmp_path / "complexity.csv") == REPORT


@pytest.mark.parametrize("name", sorted(READERS))
def test_wrong_header_raises(tmp_path, name):
    lines = GOLDEN[name][1].splitlines(keepends=True)
    lines[0] = b"x" + lines[0]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="expected header"):
        READERS[name](path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_lines_are_skipped(tmp_path, name):
    header, *rows = GOLDEN[name][1].splitlines(keepends=True)
    plain, blank = tmp_path / f"{name}.csv", tmp_path / f"{name}_blank.csv"
    plain.write_bytes(GOLDEN[name][1])
    blank.write_bytes(header + b"\n" + b"  \r\n".join(rows) + b"\n")  # rows end in "\n"
    assert str(READERS[name](blank)) == str(READERS[name](plain))


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_wrong_field_count_raises(tmp_path, name, change):
    lines = GOLDEN[name][1].splitlines(keepends=True)
    fields = lines[1].rstrip(b"\n").split(b",")
    fields = fields[:-1] if change == "short" else fields + [b"1"]
    lines[1] = b",".join(fields) + b"\n"
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=path.name):
        READERS[name](path)


def test_complexity_table_without_a_binding_term_raises(tmp_path):
    path = tmp_path / "complexity.csv"
    path.write_text("term_label,value,binding\nmean_clt,1.5,0\nvar_markov,2.5,0\n")
    with pytest.raises(ValueError, match="no binding term marked"):
        read_complexity_csv(path)
