"""Command-line front end.

Every subcommand takes --config, a flat key=value file that accepts every
config key (one file serves a whole pipeline), --out_dir, and a flag for each
config key it reads; any other config flag is an unrecognized argument.

Exit codes: 0 success, 2 configuration error, 3 I/O or input-data error,
4 estimation failure (non-convergence, a privatized mean at or below zero, no
event in any whole bin, or horizon below the relation-unaware threshold), 5 all
sweep cells failed. Any out-of-range or non-finite parameter, from a flag, a
--config file or a library type, is a ConfigError and exits 2; epsilon = inf
(the labelled non-private limit) and an infinite --threshold are accepted.
A missing or conflicting flag exits 2 through argparse's usage error.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import secrets
import sys

from .branching import tree_sizes, write_tree_csv
from .complexity import (ComplexityInputs, eta4_monte_carlo, required_T_nonprivate,
                         required_T_private, write_complexity_csv)
from .config import (CONFIG_KEYS, ExperimentConfig, delta_from_rule, parse_config_file,
                     parse_value)
from .counts import bin_events, sample_stats
from .errors import ConfigError, EstimationFailed, PreconditionViolated
# invert_moments and privatize_stats are unused here but stay bound: the traced
# benchmark (perfbench/spans.py) wraps them by module attribute.
from .estimator import EstimateResult, estimate, invert_moments
from .events import read_events_csv, write_events_csv
from .ingest import ingest_timestamps
from .privacy import PrivacyBudget, check_b_mode, private_estimate, privatize_stats
from .experiments import (BASELINE_B_MODE, emit_plot_script, run_sweep,
                          run_time_to_threshold, summarize_sweep,
                          write_summary_csv, write_sweep_csv, write_threshold_csv)
from .simulate import simulate_branching, simulate_thinning
from .tables import cell, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4
EXIT_ALL_FAILED = 5

RESULT_CSV_HEADER = ("mu_hat", "alpha_hat", "eta_hat", "sigma_sq_hat", "converged",
                     "iterations", "residual", "boundary", "epsilon_total",
                     "gamma_total", "b_mode", "err_mu", "err_alpha")


_FLAG_HELP = {"epsilons": "comma-separated total budgets",
              "b_values": "comma-separated tree caps or 'auto'",
              "delta_mode": "'log' or a fixed bin width"}


def _add_config_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """--config (every key), --out_dir and a flag for each key the command reads."""
    parser.add_argument("--config", help="flat key=value configuration file")
    for key in CONFIG_KEYS:
        if key in keys or key == "out_dir":
            parser.add_argument(f"--{key}", help=_FLAG_HELP.get(key))


def _config_from_args(args) -> tuple[ExperimentConfig, set]:
    """The config from --config and the command's flags over it, and the keys given."""
    flags = {}
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            try:
                flags[key] = parse_value(key, getattr(args, key))
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from exc
    values = {**(parse_config_file(args.config) if args.config else {}), **flags}
    return ExperimentConfig(**values), set(values)


def _ensure_out_dir(config: ExperimentConfig) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return config.out_dir


def _write_meta(path, entries: dict) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key}={cell(value)}\n" for key, value in entries.items())


def _read_meta(path) -> dict:
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, value = line.split("=", 1)
                entries[key] = value
    return entries


def cmd_simulate(args, config: ExperimentConfig, given: set) -> int:
    out = args.out or os.path.join(_ensure_out_dir(config), "events.csv")
    simulate = simulate_thinning if args.algorithm == "thinning" else simulate_branching
    events = simulate(config.params, config.horizon, config.seed, warmup=args.warmup)
    write_events_csv(events, out)
    _write_meta(out + ".meta", {
        "mu": config.mu, "alpha": config.alpha, "horizon": config.horizon,
        "warmup": "default" if args.warmup is None else args.warmup,
        "seed": config.seed, "algorithm": args.algorithm})
    print(f"wrote {len(events)} events to {out}")
    return EXIT_OK


def _load_events(args, config: ExperimentConfig, given: set):
    """The input events; the horizon is the given one (flag or file), else the
    .meta file's, else the last timestamp. A .meta horizon's refusal names it."""
    path, meta_path = args.input, args.input + ".meta"
    if "horizon" in given:
        return read_events_csv(path, horizon=config.horizon)
    raw = _read_meta(meta_path).get("horizon") if os.path.exists(meta_path) else None
    if raw is None:
        return read_events_csv(path)
    try:
        horizon = float(raw)
    except ValueError:
        raise ValueError(f"{meta_path}: horizon={raw} is not a number") from None
    try:
        return read_events_csv(path, horizon=horizon)
    except ValueError as exc:
        read_events_csv(path)  # a fault of the events file itself is reported as such
        raise ValueError(f"{meta_path}: horizon={raw} does not fit the events: {exc}") from None


def _write_result_csv(path, result: EstimateResult | None, err_mu, err_alpha) -> None:
    """One result row; a failed estimate (result None) fills only converged=0."""
    if result is None:
        row = [False if key == "converged" else None for key in RESULT_CSV_HEADER]
    else:
        row = [getattr(result, key) for key in RESULT_CSV_HEADER[:11]] + [err_mu, err_alpha]
    write_table(path, RESULT_CSV_HEADER, [row])


def cmd_estimate(args, config: ExperimentConfig, given: set) -> int:
    """estimate, or privatize: the release draws its noise from the given seed,
    else from fresh entropy, never from the default seed."""
    budget = None
    if args.command == "privatize":
        b_mode = check_b_mode(args.b)
        budget = PrivacyBudget.for_total(args.epsilon, config.gamma)
    events = _load_events(args, config, given)
    if not len(events):
        raise ValueError(f"{args.input}: the file holds no events")
    delta = delta_from_rule(config.delta_mode, events.horizon)
    series = bin_events(events, delta)
    stats = sample_stats(series)
    # the exact statistics are printed by estimate only, never beside a release
    exact = f"  eta_hat={stats.eta_hat:.6g} sigma_sq_hat={stats.sigma_sq_hat:.6g}"
    print(f"bins K={stats.k} delta={delta:g}{exact if budget is None else ''}")

    try:
        if budget is not None:
            seed = config.seed if "seed" in given else secrets.randbits(128)
            result = private_estimate(series, config.bounds, budget, b_mode, seed)
            print(f"private stats: eta_hat={result.eta_hat:.6g} "
                  f"sigma_sq_hat={result.sigma_sq_hat:.6g} (total budget {args.epsilon:g})")
        else:
            result = estimate(series, config.bounds)
    except EstimationFailed as exc:
        if args.out:
            _write_result_csv(args.out, None, None, None)
        raise type(exc)(f"{args.input}: {exc}") from None

    err_mu = err_alpha = None
    truth_given = "mu" in given or "alpha" in given
    if truth_given:
        err_mu, err_alpha = result.normalized_errors(config.mu, config.alpha)
    print(f"mu_hat={result.mu_hat:.6g} alpha_hat={result.alpha_hat:.6g}"
          + (f"  E_mu={err_mu:.4g} E_alpha={err_alpha:.4g}" if truth_given else ""))
    if result.boundary:
        print(f"note: root at {result.boundary} bracket edge")
    if args.out:
        _write_result_csv(args.out, result, err_mu, err_alpha)
    return EXIT_OK


def cmd_sweep(args, config: ExperimentConfig, given: set) -> int:
    out_dir = _ensure_out_dir(config)
    records = run_sweep(config, workers=args.workers)
    sweep_path = os.path.join(out_dir, "sweep.csv")
    write_sweep_csv(records, sweep_path)
    summary = summarize_sweep(records)
    write_summary_csv(summary, os.path.join(out_dir, "sweep_summary.csv"))
    emit_plot_script(os.path.join(out_dir, "plot_sweep.py"))
    grid = [r for r in records if r.b_mode != BASELINE_B_MODE]
    n_ok = sum(r.converged for r in grid)
    print(f"wrote {len(records)} records to {sweep_path} "
          f"({n_ok}/{len(grid)} grid cells converged)")
    for row in summary:
        eps = "inf" if math.isinf(row["epsilon"]) else f"{row['epsilon']:g}"
        mean = "-" if row["mean_err_alpha"] is None else f"{row['mean_err_alpha']:.4g}"
        print(f"  eps={eps:<6} B={row['b_mode']:<5} converged={row['n_converged']:>3}"
              f"/{row['n']:<3} mean E_alpha={mean}")
    if grid and n_ok == 0:
        print("all sweep cells failed", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


def cmd_time_to_threshold(args, config: ExperimentConfig, given: set) -> int:
    out_dir = _ensure_out_dir(config)
    cells = run_time_to_threshold(config, args.threshold,
                                  t_min=args.t_min, t_max=args.t_max)
    path = os.path.join(out_dir, "time_to_threshold.csv")
    write_threshold_csv(cells, path)
    print(f"wrote {len(cells)} cells to {path}")
    for c in cells:
        status = "capped" if c.capped else f"T={c.required_t:g}"
        print(f"  eps={c.epsilon:<6g} B={c.b_mode:<5} {status}")
    return EXIT_OK


def cmd_complexity(args, config: ExperimentConfig, given: set) -> int:
    b_mode = check_b_mode(args.b)
    budget = (None if args.epsilon is None
              else PrivacyBudget.for_total(args.epsilon, config.gamma))
    if budget is None and (b_mode != "auto" or args.c is not None or args.gamma is not None):
        raise ConfigError("--b, --c and --gamma apply to the private bound only; add --epsilon")
    eta4 = args.eta4
    # flags as parsed: a --config file is shared between commands, so its keys stay accepted
    mc_flags = [f"--{k}" for k in ("mu", "alpha", "seed") if getattr(args, k) is not None]
    if eta4 is not None and mc_flags:
        raise ConfigError(f"the eta4 Monte-Carlo estimate reads {', '.join(mc_flags)}, "
                          "but --eta4 replaces it; give one or the other")
    if eta4 is None:
        est = eta4_monte_carlo(config.params, args.delta_bin, args.eta4_bins, config.seed)
        eta4 = est.value
        print(f"eta4 Monte-Carlo estimate: {est.value:.6g} (se {est.std_error:.3g})")
    inputs = ComplexityInputs(bounds=config.bounds, xi=args.xi,
                              delta_prob=args.delta_prob, delta_bin=args.delta_bin,
                              eta4=eta4, sigma_sq=args.sigma_sq, c=args.c)
    report = (required_T_private(inputs, budget, b_mode, constants=args.constants)
              if budget is not None else required_T_nonprivate(inputs, constants=args.constants))
    print(f"required T = {report.required_T:.6g} (binding term: {report.binding_term})")
    for label, value in report.all_terms:
        print(f"  {label:<20} {value:.6g}")
    if args.out:
        write_complexity_csv(report, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_tree_stats(args, config: ExperimentConfig, given: set) -> int:
    events = _load_events(args, config, given)
    try:
        sizes = tree_sizes(events)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    out = args.out or os.path.join(_ensure_out_dir(config), "tree_stats.csv")
    write_tree_csv(sizes, out)
    mean_size = float(sizes.mean()) if sizes.size else float("nan")
    print(f"{sizes.size} trees, mean in-window size {mean_size:.4g}; wrote {out}")
    return EXIT_OK


def cmd_ingest(args, config: ExperimentConfig, given: set) -> int:
    events = ingest_timestamps(args.input, time_unit_scale=args.scale)
    out = args.out or os.path.join(_ensure_out_dir(config), "ingested.csv")
    write_events_csv(events, out)
    _write_meta(out + ".meta", {"source": args.input, "scale": args.scale,
                                "horizon": events.horizon})
    print(f"ingested {len(events)} events, horizon {events.horizon:g}; wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # flags must be spelled in full: a prefix would silently name another flag
    parser = argparse.ArgumentParser(
        prog="dphawkes", allow_abbrev=False,
        description="Hawkes simulation, moment estimation, and private release")
    box = ("mu_lower", "mu_upper", "alpha_lower", "alpha_upper")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("simulate", help="simulate an event sequence to CSV")
    _add_config_flags(p, "mu", "alpha", "horizon", "seed")
    p.add_argument("--out", help="output events CSV (default <out_dir>/events.csv)")
    p.add_argument("--algorithm", choices=("branching", "thinning"), default="branching")
    p.add_argument("--warmup", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    for name, release_keys in (("estimate", ()), ("privatize", ("gamma", "seed"))):
        p = sub.add_parser(name, help=f"{name} parameters from an events CSV")
        _add_config_flags(p, "mu", "alpha", *box, "delta_mode", "horizon", *release_keys)
        p.add_argument("input", help="events CSV (header timestamp,tree_id,parent_idx)")
        if name == "privatize":
            p.add_argument("--epsilon", type=float, required=True,
                           help="total privacy budget (halved per statistic)")
            p.add_argument("--b", default="10",
                           help="maximum tree size, or 'auto' for relation-unaware")
        p.add_argument("--out", help="write a one-row result CSV here")
        p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="privacy-utility sweep over (epsilon, B)")
    _add_config_flags(p, *CONFIG_KEYS)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("time-to-threshold",
                       help="doubling search for the horizon reaching an error target")
    _add_config_flags(p, *(k for k in CONFIG_KEYS if k != "horizon"))  # probes: --t_min..--t_max
    p.add_argument("--threshold", type=float, required=True,
                   help="target normalized alpha error")
    p.add_argument("--t_min", type=float, default=12500.0)
    p.add_argument("--t_max", type=float, default=1e6)
    p.set_defaults(func=cmd_time_to_threshold)

    p = sub.add_parser("complexity", help="evaluate the sample-complexity bounds")
    _add_config_flags(p, "mu", "alpha", *box, "gamma", "seed")  # mu, alpha, seed: --eta4_bins
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--delta_prob", type=float, required=True)
    p.add_argument("--delta_bin", type=float, required=True)
    p.add_argument("--sigma_sq", type=float, required=True)
    eta4 = p.add_mutually_exclusive_group(required=True)
    eta4.add_argument("--eta4", type=float)
    eta4.add_argument("--eta4_bins", type=int, help="Monte-Carlo bins for an eta4 estimate")
    p.add_argument("--c", type=float, default=None, help="Delta = c*log(T) constant")
    p.add_argument("--epsilon", type=float, default=None,
                   help="total privacy budget; asks for the private bound")
    p.add_argument("--b", default="auto",
                   help="known maximum tree size, or 'auto' (default) for relation-unaware")
    p.add_argument("--constants", choices=("theorem", "appendix"), default="theorem")
    p.add_argument("--out", help="write the term table CSV here")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("tree-stats", help="tree-size histogram of a labeled CSV")
    _add_config_flags(p, "horizon")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tree_stats)

    p = sub.add_parser("ingest", help="normalize a raw timestamp CSV")
    _add_config_flags(p)
    p.add_argument("input")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, given = _config_from_args(args)
        return args.func(args, config, given)
    except (ConfigError, PreconditionViolated) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EstimationFailed as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
