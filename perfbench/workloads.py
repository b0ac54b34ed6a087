"""The benchmark workloads: seeded inputs, the timed pipeline, output checks.

Four pipelines are defined here, and a workload runs two of them in turn:
``release`` is ``cli_roundtrip`` then ``ingest_thinning``, and
``experiments`` is ``paper_sweep`` then ``time_to_threshold``.

Every workload is a fixed amount of work whatever the seed: fixed horizons,
grids and repetition counts. The seed only changes which random numbers are
drawn, so run time and counters stay comparable across seeds.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dphawkes import cli, experiments
from dphawkes.config import DEFAULT_B_VALUES, DEFAULT_EPSILONS, ExperimentConfig
from dphawkes.events import read_events_csv
from dphawkes.hawkes import HawkesParams
from dphawkes.ingest import ingest_timestamps
from dphawkes.simulate import simulate_branching

MU, ALPHA = 1.0, 0.5
# Normalized alpha error allowed for a non-private estimate at T = 1.25e5 or a
# sweep's median at T = 1e5. The moment bias is ~+1.8% and the sampling error
# a few percent, so 10% holds for any seed.
ALPHA_TOL = 0.10
TRUTH = ["--mu", str(MU), "--alpha", str(ALPHA)]


def nominal_events(horizon: float) -> float:
    return MU * horizon / (1.0 - ALPHA)


def count_within_5_sigma(n: int, horizon: float) -> bool:
    """Stationary count variance over a long window is mu*T/(1-alpha)^3."""
    sigma = math.sqrt(MU * horizon / (1.0 - ALPHA) ** 3)
    return abs(n - nominal_events(horizon)) <= 5.0 * sigma


def derived_seed(seed: int, *coords: int) -> int:
    return int(np.random.SeedSequence([int(seed), *coords]).generate_state(1)[0])


@dataclass
class Step:
    """One operation of an iteration: a CLI call or an API call."""

    name: str
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    warnings: list[str] = field(default_factory=list)
    error: str | None = None       # traceback of an escaped exception
    value: object = None           # return value of an API call
    seconds: float = 0.0           # wall time of the call


def call(name: str, fn, *args) -> Step:
    """Run fn(*args) with stdout, stderr and warnings captured.

    An escaped exception is recorded on the step; the caller stops the
    iteration there, because later steps read this step's files.
    """
    step = Step(name)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            step.value = fn(*args)
        except SystemExit as exc:  # argparse rejects the command line
            step.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            step.error = traceback.format_exc()
        step.seconds = time.perf_counter() - t0
    step.stdout, step.stderr = out.getvalue(), err.getvalue()
    step.warnings = [str(w.message) for w in caught]
    if isinstance(step.value, int):  # a CLI exit code
        step.rc = step.value
    return step


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def output_digest(paths: list[Path]) -> str:
    """sha256 over the output CSVs; sweep.csv's wall_ms column is left out."""
    h = hashlib.sha256()
    for path in sorted(paths):
        data = path.read_bytes()
        if path.name == "sweep.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Workload:
    """A pipeline with seeded inputs. Subclasses set the work per iteration:

    events      nominal events carried through the pipeline
    cells       estimation results produced
    sim_horizon sum of simulated horizons
    """

    name = ""
    events = cells = sim_horizon = 0.0

    def __init__(self, workdir: Path, seed: int, small: bool = False):
        """small=True builds the warm-up twin: same code paths, tiny sizes."""
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def generate(self) -> None:
        """Build the input files; most workloads take only command lines."""

    def steps(self):
        """Yield the iteration's operations in order as (name, fn, *args)."""
        raise NotImplementedError

    def check(self, steps: dict[str, Step], first: bool) -> list[tuple[str, bool, str]]:
        """(step name, passed, description) for each output check.

        Called only when every step ran and exited 0. On the first iteration
        it also checks that the events CSV reads back bit for bit.
        """
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def quality(self, steps: dict[str, Step]) -> tuple[float, float]:
        """(share of estimates that converged, median normalized alpha error)."""
        raise NotImplementedError

    def run_iteration(self) -> list[Step]:
        done = []
        for name, fn, *args in self.steps():
            step = call(name, fn, *args)
            done.append(step)
            if step.error is not None:
                break
        return done

    def _file(self, name: str) -> str:
        return str(self.dir / name)


def _result_row(path: str) -> dict:
    rows = read_rows(Path(path))
    return rows[0] if len(rows) == 1 else {}


def _estimate_ok(step: str, path: str) -> tuple[str, bool, str]:
    row = _result_row(path)
    ok = row.get("converged") == "1" and float(row["err_alpha"]) <= ALPHA_TOL
    return (step, ok, f"{Path(path).name}: converged with err_alpha <= {ALPHA_TOL} "
            f"(got converged={row.get('converged')}, err_alpha={row.get('err_alpha')})")


def _estimates_quality(paths: list[str]) -> tuple[float, float]:
    rows = [_result_row(p) for p in paths]
    errs = [float(r["err_alpha"]) for r in rows if r.get("converged") == "1"]
    return len(errs) / len(rows), float(np.median(errs)) if errs else math.nan


def _events_written(step: Step, pattern: str) -> int:
    m = re.search(pattern, step.stdout)
    return int(m.group(1)) if m else -1


class CliRoundtrip(Workload):
    name = "cli_roundtrip"

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.horizon = 2000.0 if small else 1.25e5
        self.sim_seed = derived_seed(seed, 1)
        self.events = nominal_events(self.horizon)
        self.cells = 2
        self.sim_horizon = self.horizon

    def steps(self):
        ev, d = self._file("events.csv"), ["--out_dir", str(self.dir)]
        yield ("simulate", cli.main, ["simulate", *TRUTH, "--horizon", f"{self.horizon:g}",
                                      "--seed", str(self.sim_seed), "--out", ev, *d])
        yield ("estimate", cli.main, ["estimate", ev, *TRUTH, "--out",
                                      self._file("estimate.csv"), *d])
        yield ("privatize", cli.main, ["privatize", ev, *TRUTH, "--epsilon", "10",
                                       "--b", "10", "--seed", str(self.sim_seed),
                                       "--out", self._file("privatize.csv"), *d])
        yield ("tree-stats", cli.main, ["tree-stats", ev, "--out",
                                        self._file("trees.csv"), *d])

    def outputs(self):
        return [self.dir / n for n in ("events.csv", "estimate.csv", "privatize.csv",
                                       "trees.csv")]

    def check(self, steps, first):
        checks = []
        n = _events_written(steps["simulate"], r"wrote (\d+) events")
        checks.append(("simulate", count_within_5_sigma(n, self.horizon),
                       f"{n} events within 5 sigma of mu*T/(1-alpha)"))
        checks.append(_estimate_ok("estimate", self._file("estimate.csv")))
        checks.append(_estimate_ok("privatize", self._file("privatize.csv")))
        trees = read_rows(self.dir / "trees.csv")
        covered = sum(int(r["tree_size"]) * int(r["count"]) for r in trees)
        checks.append(("tree-stats", covered == n,
                       f"tree sizes cover all {n} events (got {covered})"))
        if first:
            ref = simulate_branching(HawkesParams(MU, ALPHA), self.horizon, self.sim_seed)
            back = read_events_csv(self._file("events.csv"))
            same = (np.array_equal(ref.timestamps, back.timestamps)
                    and np.array_equal(ref.tree_id, back.tree_id)
                    and np.array_equal(ref.parent_idx, back.parent_idx))
            checks.append(("simulate", same, "events CSV reads back bit for bit"))
        return checks

    def quality(self, steps):
        return _estimates_quality([self._file("estimate.csv"), self._file("privatize.csv")])


class PaperSweep(Workload):
    name = "paper_sweep"

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.horizon = 2000.0 if small else 1e5
        self.reps = 2 if small else 50
        self.sim_seed = derived_seed(seed, 2)
        self.records = (len(DEFAULT_EPSILONS) * len(DEFAULT_B_VALUES) + 1) * self.reps
        self.events = self.reps * nominal_events(self.horizon)
        self.cells = self.records
        self.sim_horizon = self.reps * self.horizon

    def steps(self):
        yield ("sweep", cli.main, ["sweep", *TRUTH, "--horizon", f"{self.horizon:g}",
                                   "--repetitions", str(self.reps), "--seed",
                                   str(self.sim_seed), "--workers", "1",
                                   "--out_dir", str(self.dir)])

    def outputs(self):
        return [self.dir / "sweep.csv", self.dir / "sweep_summary.csv"]

    def check(self, steps, first):
        checks = []
        rows = read_rows(self.dir / "sweep.csv")
        checks.append(("sweep", len(rows) == self.records,
                       f"{self.records} sweep records (got {len(rows)})"))
        base = [r for r in rows if r["b_mode"] == experiments.BASELINE_B_MODE]
        base_err = [float(r["err_alpha"]) for r in base if r["converged"] == "1"]
        ok = len(base_err) == self.reps and float(np.median(base_err)) <= ALPHA_TOL
        checks.append(("sweep", ok, f"all {self.reps} non-private estimates converged, "
                                    f"median err_alpha <= {ALPHA_TOL}"))
        auto = [r for r in rows if r["b_mode"] == "auto"]
        checks.append(("sweep", all(r["converged"] == "0" for r in auto),
                       "relation-unaware cells refused below the horizon threshold"))
        good = all(r["alpha_hat"] and math.isfinite(float(r["alpha_hat"]))
                   for r in rows if r["converged"] == "1")
        checks.append(("sweep", good, "every converged record carries a finite alpha_hat"))
        summary = read_rows(self.dir / "sweep_summary.csv")
        checks.append(("sweep", len(summary) == self.records // self.reps,
                       "one summary row per (epsilon, B) cell and the baseline"))
        return checks

    def quality(self, steps):
        rows = [r for r in read_rows(self.dir / "sweep.csv")
                if r["b_mode"] != experiments.BASELINE_B_MODE]
        errs = [float(r["err_alpha"]) for r in rows if r["converged"] == "1"]
        return len(errs) / len(rows), float(np.median(errs)) if errs else math.nan


class TimeToThreshold(Workload):
    name = "time_to_threshold"
    THRESHOLD = 0.02

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.t_min, self.t_max = (500.0, 2000.0) if small else (12500.0, 1e6)
        self.reps = 2 if small else 5
        self.config = ExperimentConfig(
            mu=MU, alpha=ALPHA, epsilons=(1.0, 10.0), b_values=("10", "auto"),
            repetitions=self.reps, seed=derived_seed(seed, 3), out_dir=str(self.dir))
        # The relation-unaware cell is refused below T ~ 1.5e6, so every probe
        # of the doubling ladder runs, whatever the seed.
        self.probes = []
        t = self.t_min
        while t <= self.t_max:
            self.probes.append(t)
            t *= 2.0
        if self.probes[-1] < self.t_max:
            self.probes.append(self.t_max)
        self.sim_horizon = self.reps * sum(self.probes)
        self.events = nominal_events(self.sim_horizon)
        self.cells = len(self.config.epsilons) * len(self.config.b_values)

    def _search_and_write(self):
        cells = experiments.run_time_to_threshold(self.config, self.THRESHOLD,
                                                  t_min=self.t_min, t_max=self.t_max)
        experiments.write_threshold_csv(cells, self._file("time_to_threshold.csv"))
        return cells

    def steps(self):
        yield ("time-to-threshold", self._search_and_write)

    def outputs(self):
        return [self.dir / "time_to_threshold.csv"]

    def check(self, steps, first):
        checks = []
        cells = steps["time-to-threshold"].value or []
        checks.append(("time-to-threshold", len(cells) == self.cells,
                       f"{self.cells} threshold cells"))
        auto = [c for c in cells if c.b_mode == "auto"]
        checks.append(("time-to-threshold", all(c.capped for c in auto),
                       "relation-unaware cells capped below the horizon threshold"))
        ok = all(c.required_t in self.probes and c.median_err_alpha <= self.THRESHOLD
                 for c in cells if not c.capped)
        checks.append(("time-to-threshold", ok,
                       "resolved cells name a probed T and meet the threshold"))
        return checks

    def quality(self, steps):
        cells = steps["time-to-threshold"].value
        errs = [c.median_err_alpha for c in cells if not c.capped]
        return len(errs) / len(cells), float(np.median(errs)) if errs else math.nan


class IngestThinning(Workload):
    name = "ingest_thinning"
    EPOCH_US = 1_600_000_000 * 10**6
    SCALE = 1.0 / 60.0  # Unix seconds to the minutes the raw data were made in

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.horizon = 2000.0 if small else 1.25e5
        self.n_dup = 20 if small else 1000
        self.block = 50 if small else 2000
        self.sim_seed = derived_seed(seed, 4)
        self.raw_seed = derived_seed(seed, 5)
        self.events = 2 * nominal_events(self.horizon)
        self.cells = 2
        self.sim_horizon = self.horizon
        self.distinct = -1

    def generate(self):
        """Raw call log in Unix seconds with microsecond digits: a header row,
        one block of rows moved out of order and n_dup repeated rows.

        The times come from this file's own branching sampler, so the input
        does not change when the library's simulators do.
        """
        rng = np.random.default_rng(self.raw_seed)
        minutes = branching_times(rng, MU, ALPHA, self.horizon, warmup=40.0)
        us = np.unique(self.EPOCH_US + np.round(minutes * 60e6).astype(np.int64))
        self.distinct = int(us.size)
        rows = np.insert(us, np.sort(rng.choice(us.size, self.n_dup, replace=False)),
                         us[rng.choice(us.size, self.n_dup, replace=False)])
        a, b = us.size // 4, us.size // 2  # move rows[b:b+block] up to position a
        rows = np.concatenate([rows[:a], rows[b:b + self.block], rows[a:b],
                               rows[b + self.block:]])
        lines = [f"{v // 10**6}.{v % 10**6:06d}" for v in rows.tolist()]
        with open(self.dir / "raw_calls.csv", "w") as fh:
            fh.write("timestamp_unix\n" + "\n".join(lines) + "\n")

    def steps(self):
        th, ing = self._file("thinning.csv"), self._file("ingested.csv")
        d = ["--out_dir", str(self.dir)]
        yield ("simulate-thinning", cli.main, [
            "simulate", "--algorithm", "thinning", *TRUTH, "--horizon",
            f"{self.horizon:g}", "--seed", str(self.sim_seed), "--out", th, *d])
        yield ("estimate-thinning", cli.main, [
            "estimate", th, *TRUTH, "--out", self._file("estimate_thinning.csv"), *d])
        yield ("ingest", cli.main, ["ingest", self._file("raw_calls.csv"), "--scale",
                                    repr(self.SCALE), "--out", ing, *d])
        yield ("estimate-ingested", cli.main, [
            "estimate", ing, *TRUTH, "--out", self._file("estimate_ingested.csv"), *d])

    def outputs(self):
        return [self.dir / n for n in ("thinning.csv", "estimate_thinning.csv",
                                       "ingested.csv", "estimate_ingested.csv")]

    def check(self, steps, first):
        checks = []
        n = _events_written(steps["simulate-thinning"], r"wrote (\d+) events")
        checks.append(("simulate-thinning", count_within_5_sigma(n, self.horizon),
                       f"{n} events within 5 sigma of mu*T/(1-alpha)"))
        checks.append(_estimate_ok("estimate-thinning", self._file("estimate_thinning.csv")))
        ingest = steps["ingest"]
        dropped = [int(m.group(1)) for w in ingest.warnings
                   for m in [re.search(r"dropped (\d+) duplicate", w)] if m]
        checks.append(("ingest", any("not sorted" in w for w in ingest.warnings),
                       "unsorted-input warning"))
        checks.append(("ingest", dropped == [self.n_dup],
                       f"dropped exactly the {self.n_dup} injected duplicates (got {dropped})"))
        got = _events_written(ingest, r"ingested (\d+) events")
        checks.append(("ingest", got == self.distinct,
                       f"{self.distinct} distinct timestamps kept (got {got})"))
        checks.append(_estimate_ok("estimate-ingested", self._file("estimate_ingested.csv")))
        if first:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = ingest_timestamps(self._file("raw_calls.csv"), self.SCALE)
            back = read_events_csv(self._file("ingested.csv"))
            checks.append(("ingest", np.array_equal(ref.timestamps, back.timestamps)
                           and not back.labeled,
                           "unlabeled events CSV reads back bit for bit"))
        return checks

    def quality(self, steps):
        return _estimates_quality([self._file("estimate_thinning.csv"),
                                   self._file("estimate_ingested.csv")])


def branching_times(rng: np.random.Generator, mu: float, alpha: float,
                    horizon: float, warmup: float) -> np.ndarray:
    """Sorted event times on [0, horizon] of a Hawkes process with kernel
    alpha*exp(-t), by the immigrant-birth construction."""
    span = horizon + warmup
    gen = -warmup + span * rng.random(rng.poisson(mu * span))
    parts = [gen]
    while gen.size:
        kids = np.repeat(gen, rng.poisson(alpha, gen.size))
        gen = kids + rng.exponential(1.0, kids.size)
        gen = gen[gen <= horizon]
        parts.append(gen)
    times = np.sort(np.concatenate(parts))
    return times[times >= 0.0]


class Combined(Workload):
    """Runs its parts one after another in every iteration. Each part keeps
    its own directory, inputs, steps, outputs and checks."""

    PARTS: tuple[type[Workload], ...] = ()

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.parts = [cls(workdir / cls.name, seed, small) for cls in self.PARTS]
        self.events = sum(p.events for p in self.parts)
        self.cells = sum(p.cells for p in self.parts)
        self.sim_horizon = sum(p.sim_horizon for p in self.parts)

    def generate(self):
        for part in self.parts:
            part.generate()

    def steps(self):
        for part in self.parts:
            yield from part.steps()

    def outputs(self):
        return [path for part in self.parts for path in part.outputs()]

    def check(self, steps, first):
        return [c for part in self.parts for c in part.check(steps, first)]


class Release(Combined):
    """The user's release pipelines through the CLI, on labeled simulated
    events and on an ingested raw call log."""

    name = "release"
    PARTS = (CliRoundtrip, IngestThinning)

    def quality(self, steps):
        roundtrip, thinning = self.parts
        return _estimates_quality([
            roundtrip._file("estimate.csv"), roundtrip._file("privatize.csv"),
            thinning._file("estimate_thinning.csv"), thinning._file("estimate_ingested.csv")])


class Experiments(Combined):
    """The paper's two experiments: the privacy-utility sweep and the
    time-to-threshold search. Quality is the sweep's."""

    name = "experiments"
    PARTS = (PaperSweep, TimeToThreshold)

    def quality(self, steps):
        return self.parts[0].quality(steps)


WORKLOADS = {w.name: w for w in (Release, Experiments)}
