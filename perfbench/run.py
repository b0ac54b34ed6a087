"""dphawkes benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from its src/.
The workload runs in this process as a closed loop with one caller: each
iteration starts when the previous one has finished. An iteration is a few
steps (CLI or API calls), each timed on its own; best_wall_s is the sum over
the steps of each step's fastest time in the run. With --trace 0 the last
line of stdout is a JSON object carrying the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from a run
that alternates untraced and traced iterations. Human-readable lines,
including the environment, go before it, and the full result is also written
to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5

# One BLAS thread: the library is single-threaded numpy code, and a pinned
# pool keeps the runs comparable. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "llc": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(cls, seed: int, workdir: Path) -> tuple[object, list[float]]:
    """Set the workload up SETUP_REPEATS times; return the last one and the
    time of each: interpreter start and import (in a child interpreter),
    input generation, and a warm-up pass of the same pipeline at tiny sizes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dphawkes.cli"], env=env,
                       cwd=ROOT, check=True)
        workload = cls(workdir, seed)
        workload.generate()
        twin = cls(workdir / "warmup", seed, small=True)
        twin.generate()
        twin.run_iteration()
        times.append(time.perf_counter() - t0)
    return workload, times


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it, when that
    percentile lies above the median (more than 20 samples)."""
    n = len(samples)
    if n <= 20:
        return None
    pct = 100 * (n - 10) // n
    return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "dphawkes" / "__init__.py").is_file():
        fail(f"no library sources at {SRC / 'dphawkes'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import dphawkes
    if Path(dphawkes.__file__).resolve().parent != SRC / "dphawkes":
        fail(f"dphawkes imported from {dphawkes.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    env = environment()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, setup_times = measure_setup(WORKLOADS[args.workload], args.seed, workdir)
        result = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = statistics.median(setup_times)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall = result["best_wall_s"]
    values = {"setup_s": result["setup_s"], "best_wall_s": wall,
              "events_per_s": workload.events / wall,
              "cells_per_s": workload.cells / wall,
              "sim_horizon_per_s": workload.sim_horizon / wall,
              "peak_rss_mb": result["peak_rss_mb"]}
    values.update(result.get("layers", {}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    baseline_path = ROOT / "perfbench" / "baseline.json"
    digests = json.loads(baseline_path.read_text()).get("digests", {}) \
        if baseline_path.exists() else {}
    known = digests.get(args.workload, {}).get(str(args.seed))
    digest_match = "no baseline for this seed" if known is None \
        else ("match" if known == result["digest"] else "DIFFERS")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "setup_times_s": setup_times, "wall_samples_s": result["walls"],
              "tail": tail_percentile(result["walls"]),
              "step_samples_s": result["step_walls"], "digest": result["digest"],
              "digest_vs_baseline": digest_match, "attempted": result["attempted"],
              "failed": result["failed"], "failures": result["failures"],
              "quality": result["quality"], "metrics": values,
              "work_per_iteration": {"events": workload.events, "cells": workload.cells,
                                     "sim_horizon": workload.sim_horizon}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print_report(report, wanted)
    print(json.dumps({"correct": result["failed"] == 0 and result["deterministic"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))


def measure(workload, args) -> dict:
    """Iterate until args.seconds have passed. The first iteration runs the
    full-size pipeline once untimed, so that allocations and the page cache
    are warm, and carries the read-back checks. Untraced iterations give
    wall_s (their median) and best_wall_s (the sum of each step's fastest
    time); with --trace 1 every other iteration is traced and gives the
    layers."""
    from workloads import output_digest
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    walls, traced_walls, layer_rows, failures = [], [], [], []
    step_walls: dict[str, list[float]] = {}
    attempted = failed = 0
    digest, deterministic, quality = None, True, None
    t_end, last = math.inf, 0.0
    i = 0
    # Start an iteration only if one more, as long as the last, still ends
    # within --seconds, so the measured period does not overrun.
    while (i == 0 or not walls or (tracer and not traced_walls)
           or time.perf_counter() + last <= t_end):
        traced = tracer is not None and i > 0 and i % 2 == 0
        if traced:
            tracer.install()
            root = tracer.begin("bench.iteration")
        t0 = time.perf_counter()
        steps = workload.run_iteration()
        dt = last = time.perf_counter() - t0
        if traced:
            tracer.end(root)
            tracer.uninstall()
            row = tracer.iteration_metrics(root)
            row["events.validate_s"] = tracer.validate_probe()
            layer_rows.append(row)
            traced_walls.append(dt)
        elif i > 0:
            walls.append(dt)
            for s in steps:
                step_walls.setdefault(s.name, []).append(s.seconds)

        attempted += len(steps)
        bad = {s.name: (s.error.strip().splitlines()[-1] if s.error
                        else f"exit code {s.rc}: {s.stderr.strip()}")
               for s in steps if s.error is not None or s.rc not in (None, 0)}
        if not bad:
            by_name = {s.name: s for s in steps}
            try:
                for step, ok, what in workload.check(by_name, i == 0):
                    if not ok:
                        bad.setdefault(step, what)
                quality = workload.quality(by_name)
            except Exception:
                bad[steps[-1].name] = "output check raised: " + traceback.format_exc()
            d = output_digest(workload.outputs())
            deterministic &= digest is None or d == digest
            digest = digest or d
        failed += len(bad)
        failures += [f"iteration {i} {k}: {v}" for k, v in bad.items()]
        if i == 0:
            t_end = time.perf_counter() + args.seconds
        i += 1

    out = {"walls": walls, "wall_s": statistics.median(walls),
           "step_walls": step_walls,
           "best_wall_s": sum(min(v) for v in step_walls.values()),
           "attempted": attempted,
           "failed": failed, "failures": failures, "digest": digest,
           "deterministic": deterministic,
           "quality": None if quality is None else
           {"converged_share": quality[0], "err_alpha_median": quality[1]}}
    if tracer is not None:
        layers = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        layers["trace.untraced_wall_s"] = out["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - out["wall_s"]
        layers["trace.iterations"] = float(len(layer_rows))
        if quality is not None:
            layers["quality.converged_share"], layers["quality.err_alpha_median"] = quality
        out["layers"] = layers
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.csv")
    return out


def print_report(report: dict, wanted: list[dict]) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  {report['seconds']:g} s")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    walls = report["wall_samples_s"]
    tail = report["tail"]
    print(f"wall_s samples n={len(walls)}: median {statistics.median(walls):.4f} s; "
          + (f"{tail[0]} {tail[1]:.4f} s" if tail else
             "no percentile above the median has >=10 samples beyond it"))
    for name, v in report["step_samples_s"].items():
        print(f"  step {name:<20} fastest {min(v):.4f} s  median "
              f"{statistics.median(v):.4f} s  slowest {max(v):.4f} s")
    for m in wanted:
        print(f"  {m['name']:<32} {report['metrics'][m['name']]:>16.6g} {m['unit']}")
    q = report["quality"] or {}
    print(f"quality: converged_share={q.get('converged_share')} "
          f"err_alpha_median={q.get('err_alpha_median')}")
    share = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"operations: {report['attempted']} attempted, {report['failed']} failed "
          f"(failed_share {share:g})")
    for line in report["failures"][:20]:
        print("  FAILED " + line)
    print(f"output digest {report['digest']} ({report['digest_vs_baseline']})")


if __name__ == "__main__":
    main()
