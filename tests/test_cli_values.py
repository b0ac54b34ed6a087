"""Every numeric flag of every subcommand, given each kind of bad value.

Each case calls cli.main in process. It must end with its documented exit code
and, when it fails, a one-line reason on stderr; no traceback. Text that
argparse cannot convert (a CLI-only flag given "" or "abc") ends in argparse's
SystemExit(2) usage error, whose last line is the reason; so does every value
of a config flag the command does not read, which argparse refuses as an
unrecognized argument before any work runs. Every other refusal is returned
by main. An accepted value runs to the end, so the base arguments
keep each run small: horizon 1000, one repetition, one epsilon, one B, and a
time-to-threshold threshold that the first probe meets.
"""
import argparse

import pytest

from dphawkes.cli import (EXIT_ALL_FAILED, EXIT_CONFIG, EXIT_ESTIMATION, EXIT_IO,
                          EXIT_OK, build_parser, main)
from dphawkes.config import CONFIG_KEYS

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-320", "5e-324", "", "abc")

BASE = {
    "simulate": ("simulate", "--horizon", "1000", "--seed", "1"),
    "estimate": ("estimate", "{events}"),
    "privatize": ("privatize", "{events}", "--epsilon", "10", "--b", "10", "--seed", "12345"),
    "sweep": ("sweep", "--horizon", "1000", "--repetitions", "1", "--epsilons", "10",
              "--b_values", "10", "--seed", "2"),
    "time-to-threshold": ("time-to-threshold", "--repetitions", "1", "--epsilons", "10",
                          "--b_values", "10", "--seed", "1", "--threshold", "100",
                          "--t_min", "1000", "--t_max", "1000"),
    "complexity": ("complexity", "--epsilon", "1", "--b", "10", "--c", "1",
                   "--xi", "40", "--delta_prob", "0.05", "--delta_bin", "30000",
                   "--sigma_sq", "239986", "--eta4", "1.8e11"),
    "tree-stats": ("tree-stats", "{events}"),
    "ingest": ("ingest", "{raw}", "--scale", "1"),
}

# The config keys each command reads, and so takes as flags. --config files take
# every key on every command, and --out_dir is on every command.
BOX = ("mu_lower", "mu_upper", "alpha_lower", "alpha_upper")
CONFIG_FLAGS = {
    "simulate": ("mu", "alpha", "horizon", "seed"),
    "estimate": ("mu", "alpha", *BOX, "delta_mode", "horizon"),
    "privatize": ("mu", "alpha", *BOX, "delta_mode", "horizon", "gamma", "seed"),
    "sweep": tuple(k for k in CONFIG_KEYS if k != "out_dir"),
    "time-to-threshold": tuple(k for k in CONFIG_KEYS if k not in ("out_dir", "horizon")),
    "complexity": ("mu", "alpha", *BOX, "gamma", "seed"),
    "tree-stats": ("horizon",),
    "ingest": (),
}

CLI_FLAGS = {
    "simulate": ("warmup",),
    "estimate": (),
    "privatize": ("epsilon", "b"),
    "sweep": ("workers",),
    "time-to-threshold": ("threshold", "t_min", "t_max"),
    "complexity": ("xi", "delta_prob", "delta_bin", "sigma_sq", "eta4", "eta4_bins", "c",
                   "epsilon", "b"),
    "tree-stats": (),
    "ingest": ("scale",),
}

# The flags that take no number: a file, a switch or a fixed choice.
UNVALUED_FLAGS = {
    "simulate": ("out", "algorithm"),
    "estimate": ("out",),
    "privatize": ("out",),
    "sweep": (),
    "time-to-threshold": (),
    "complexity": ("constants", "out"),
    "tree-stats": ("out",),
    "ingest": ("out",),
}

# Every case not listed here is refused with exit 2. Listed: (flag, value) ->
# (exit code, {command: exit code where it differs}).
NOT_REFUSED = {
    # a nonnegative seed; an infinite (the labelled non-private limit) or huge budget.
    # complexity's base passes --eta4, which refuses --seed and --mu: only the
    # Monte-Carlo eta4 estimate reads them
    ("seed", "0"): (EXIT_OK, {"complexity": EXIT_CONFIG}),
    ("epsilons", "inf"): (EXIT_OK, {}),
    ("epsilons", "1e300"): (EXIT_OK, {}),
    ("epsilon", "inf"): (EXIT_OK, {}),
    ("epsilon", "1e300"): (EXIT_OK, {}),
    ("warmup", "0"): (EXIT_OK, {}),
    ("threshold", "inf"): (EXIT_OK, {}),  # met by any error, at the first probe
    ("threshold", "1e300"): (EXIT_OK, {}),
    # the search simulates t_max once, so every probe's bins are checked first:
    # the far probes hold more bins than a series may (an input error)
    ("t_max", "1e300"): (EXIT_IO, {}),
    ("scale", "1e300"): (EXIT_OK, {}),
    ("delta_bin", "1e300"): (EXIT_OK, {}),  # a wider bin only lowers the bound
    # a simulation would exceed the event cap (complexity: beside --eta4, as above)
    ("mu", "1e300"): (EXIT_OK, dict.fromkeys(("simulate", "sweep", "time-to-threshold",
                                              "complexity"), EXIT_CONFIG)),
    # the event cap; more bins than a series may hold; a wide window for the trees
    ("horizon", "1e300"): (EXIT_CONFIG, {"estimate": EXIT_IO, "privatize": EXIT_IO,
                                         "tree-stats": EXIT_OK}),
    # a valid prior box whose variance noise (scale ~1e151) defeats every release
    ("mu_upper", "1e300"): (EXIT_OK, {"privatize": EXIT_ESTIMATION,
                                      "sweep": EXIT_ALL_FAILED,
                                      "complexity": EXIT_CONFIG}),
    # a bin wider than the horizon leaves fewer than two bins (an input error)
    ("delta_mode", "1e300"): (EXIT_OK, dict.fromkeys(
        ("estimate", "privatize", "sweep", "time-to-threshold"), EXIT_IO)),
    # tiny positive values. A truth or prior-box value is valid, though no sweep
    # cell then converges and the complexity preconditions fail at mu_lower 1e-320
    ("mu", "1e-320"): (EXIT_OK, {"sweep": EXIT_ALL_FAILED, "complexity": EXIT_CONFIG}),
    ("alpha", "1e-320"): (EXIT_OK, {"sweep": EXIT_ALL_FAILED, "complexity": EXIT_CONFIG}),
    ("mu_lower", "1e-320"): (EXIT_OK, {"complexity": EXIT_CONFIG}),
    ("alpha_lower", "1e-320"): (EXIT_OK, {}),
    ("warmup", "1e-320"): (EXIT_OK, {}),
    ("threshold", "1e-320"): (EXIT_OK, {}),  # never met: every cell is capped
    ("scale", "1e-320"): (EXIT_OK, {}),
    ("sigma_sq", "1e-320"): (EXIT_OK, {}),
    ("eta4", "1e-320"): (EXIT_CONFIG, {}),  # refused: below sigma_sq**2
    ("c", "1e-320"): (EXIT_OK, {}),
    # a horizon or first probe that leaves no bins, or that the events do not fit;
    # simulate writes an empty sequence
    ("horizon", "1e-320"): (EXIT_IO, {"simulate": EXIT_OK}),
    ("t_min", "1e-320"): (EXIT_IO, {}),
    # a bin so narrow that the horizon / delta quotient overflows to inf bins
    ("delta_mode", "1e-320"): (EXIT_IO, {}),
}
# the smallest double fares as 1e-320 does (the raw log's gaps of 60 stay distinct)
NOT_REFUSED.update({(flag, "5e-324"): outcome for (flag, value), outcome in NOT_REFUSED.items()
                    if value == "1e-320"})

CASES = [(command, flag) for command in BASE
         for flag in (*(k for k in CONFIG_KEYS if k != "out_dir"), *CLI_FLAGS[command])]
# (command, config key) pairs whose flag the command does not take
DROPPED = {(c, f) for c, f in CASES if f in CONFIG_KEYS and f not in CONFIG_FLAGS[c]}


def test_value_table_names_every_flag():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(BASE)
    for command, parser in commands.items():
        defined = {s[2:] for a in parser._actions for s in a.option_strings if s[:2] == "--"}
        assert defined == {"help", "config", "out_dir", *CONFIG_FLAGS[command],
                           *CLI_FLAGS[command], *UNVALUED_FLAGS[command]}, command
    assert len(DROPPED) == 48


def expected_code(command, flag, value):
    code, by_command = NOT_REFUSED.get((flag, value), (EXIT_CONFIG, {}))
    return by_command.get(command, code)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("values")
    events, raw = root / "input.csv", root / "raw.csv"
    assert main(["simulate", "--horizon", "1000", "--seed", "1", "--out_dir", str(root),
                 "--out", str(events)]) == EXIT_OK
    raw.write_text("100\n160\n220\n")
    return {"events": str(events), "raw": str(raw), "out_dir": str(root / "out")}


def _outcome(argv, capsys):
    """(exit code, stderr lines, how it ended) of one in-process run."""
    try:
        code, how = main(argv), "returned"
    except SystemExit as exc:
        code, how = exc.code, "SystemExit"
    except Exception as exc:  # any other escape fails the case
        code, how = None, f"raised {exc!r}"
    return code, capsys.readouterr().err.strip().splitlines(), how


@pytest.mark.parametrize("command,flag", CASES, ids=[f"{c}--{f}" for c, f in CASES])
def test_numeric_flag_values(command, flag, inputs, capsys):
    base = [arg.format(**inputs) for arg in BASE[command]]
    if flag == "eta4_bins":  # the Monte-Carlo estimate runs only without --eta4
        base = base[:base.index("--eta4")] + base[base.index("--eta4") + 2:]
    wrong = []
    for value in VALUES:
        want = expected_code(command, flag, value)
        code, err, how = _outcome([*base, "--out_dir", inputs["out_dir"],
                                   f"--{flag}={value}"], capsys)
        if (command, flag) in DROPPED:  # refused while parsing, so nothing ran
            ok = (code, how) == (EXIT_CONFIG, "SystemExit") and err and \
                err[-1] == f"dphawkes: error: unrecognized arguments: --{flag}={value}"
        elif how == "SystemExit":  # argparse: usage lines, then one "error:" line
            ok = code == want == EXIT_CONFIG and err and \
                err[-1].startswith(f"dphawkes {command}: error: argument --{flag}")
        else:
            ok = how == "returned" and code == want and len(err) == (want != EXIT_OK)
        if not ok:
            wrong.append(f"--{flag}={value!r}: want {want}, got {code} ({how}) {err}")
    assert not wrong, "\n".join(wrong)


COMPLEXITY_NONPRIVATE = ("complexity", "--xi", "40", "--delta_prob", "0.05",
                         "--delta_bin", "30000", "--sigma_sq", "239986", "--eta4", "1.8e11")


# --epsilon asks for the private bound and its budget is checked. The other
# private-only flags are refused without it, valid values too: the non-private
# bound would ignore them (it printed 1.63e16 for --gamma 0.3, as for the default
# 0.05, and for --epsilon 1 --b 10, where the private bound is 8.17e22)
@pytest.mark.parametrize("flags", [("--epsilon", "nan"), ("--epsilon", "0"), ("--b", "abc"),
                                   ("--b", "0"), ("--epsilon", "nan", "--b", "abc"),
                                   ("--epsilon", "1", "--b", "10"), ("--epsilon", "1"),
                                   ("--b", "10"), ("--c", "1"), ("--c", "nan"),
                                   ("--b", "10", "--c", "1", "--gamma", "0.05"),
                                   ("--gamma", "0.3")])
def test_complexity_checks_budget_flags_without_epsilon(flags, capsys):
    code, err, how = _outcome([*COMPLEXITY_NONPRIVATE, *flags], capsys)
    assert (code, how, len(err)) == (EXIT_CONFIG, "returned", 1), err


def test_complexity_refuses_eta4_bins_beside_eta4(capsys):
    # the Monte-Carlo bins were ignored when eta4 itself was given
    code, err, how = _outcome([*COMPLEXITY_NONPRIVATE, "--eta4_bins", "1000"], capsys)
    assert (code, how) == (EXIT_CONFIG, "SystemExit"), err
    assert err[-1] == ("dphawkes complexity: error: argument --eta4_bins: "
                       "not allowed with argument --eta4")


def test_complexity_requires_eta4_or_eta4_bins(capsys):
    code, err, how = _outcome(list(COMPLEXITY_NONPRIVATE[:-2]), capsys)
    assert (code, how) == (EXIT_CONFIG, "SystemExit"), err
    assert err[-1] == ("dphawkes complexity: error: one of the arguments "
                       "--eta4 --eta4_bins is required")


# --mu 2 --seed 2 printed the same required T as --mu 1 --seed 1: only the
# Monte-Carlo eta4 estimate reads them, and --eta4 replaces it
@pytest.mark.parametrize("flags", [("--mu", "2"), ("--alpha", "0.3"), ("--seed", "2"),
                                   ("--mu", "1", "--alpha", "0.5", "--seed", "1")])
def test_complexity_refuses_estimator_flags_beside_eta4(flags, capsys):
    code, err, how = _outcome([*COMPLEXITY_NONPRIVATE, *flags], capsys)
    assert (code, how, len(err)) == (EXIT_CONFIG, "returned", 1), err
    assert all(flag in err[0] for flag in flags[::2]), err


def test_complexity_takes_estimator_keys_from_a_shared_config_file(tmp_path, capsys):
    # one --config file drives a whole pipeline, so its mu, alpha and seed stay accepted
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("mu = 2\nalpha = 0.3\nseed = 2\n")
    code, err, how = _outcome([*COMPLEXITY_NONPRIVATE, "--config", str(cfg)], capsys)
    assert (code, how, err) == (EXIT_OK, "returned", [])


def test_complexity_takes_gamma_from_a_shared_config_file(tmp_path, capsys):
    # a privatize budget's gamma in the shared file does not make the bound private
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("gamma = 0.3\n")
    code, err, how = _outcome([*COMPLEXITY_NONPRIVATE, "--config", str(cfg)], capsys)
    assert (code, how, err) == (EXIT_OK, "returned", [])


# a prefix named another flag: --epsilon became --epsilons, --alpha_u became --alpha_upper
@pytest.mark.parametrize("argv", [
    ("estimate", "{events}", "--epsilon", "10", "--b", "10"),
    ("sweep", "--horizon", "1000", "--repetitions", "1", "--epsilon", "1", "--b_values", "10"),
    ("simulate", "--horizon", "1000", "--alpha_u", "0.9"),
], ids=["estimate", "sweep", "simulate"])
def test_flags_must_be_spelled_in_full(argv, inputs, capsys):
    code, err, how = _outcome([*(arg.format(**inputs) for arg in argv),
                               "--out_dir", inputs["out_dir"]], capsys)
    assert (code, how) == (EXIT_CONFIG, "SystemExit")
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1].startswith("dphawkes: error: unrecognized arguments: --")


def test_complexity_refuses_more_eta4_bins_than_a_series_may_hold(capsys):
    base = COMPLEXITY_NONPRIVATE[:-2]
    code, err, how = _outcome([*base, "--eta4_bins", "1000000000000000"], capsys)
    assert (code, how, len(err)) == (EXIT_CONFIG, "returned", 1), err
    assert "num_bins" in err[0]
