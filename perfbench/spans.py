"""Spans and counters for the traced run, recorded from outside the library.

Each public function is wrapped where the calling module binds it (for
example ``dphawkes.cli.read_events_csv``), so the library itself is not
changed. A span's name is ``<layer>.<operation>``, where the layer is the
module that defines the function. Spans are kept in memory and written out
once, when the run ends.
"""
from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

from dphawkes import cli, estimator, experiments
from dphawkes.errors import HorizonTooShort, NonConvergence
from dphawkes.events import EventSequence

LAYERS = ("bench", "cli", "experiments", "simulate", "events", "ingest", "counts",
          "privacy", "estimator", "hawkes", "branching")

# Inclusive time per iteration of these spans, reported as <metric>.
TIMED = {
    "simulate.branching": "simulate.branching_s",
    "simulate.thinning": "simulate.thinning_s",
    "events.write_csv": "events.write_csv_s",
    "events.read_csv": "events.read_csv_s",
    "ingest.timestamps": "ingest.s",
    "counts.bin": "counts.bin_s",
    "counts.stats": "counts.stats_s",
    "privacy.privatize": "privacy.privatize_s",
    "estimator.invert": "estimator.invert_s",
    "branching.tree_sizes": "branching.tree_sizes_s",
    "branching.write_tree_csv": "branching.write_tree_csv_s",
}

COUNTERS = ("simulate.branching_events", "simulate.thinning_events",
            "events.csv_bytes_written", "events.csv_bytes_read",
            "events.array_bytes_computed", "ingest.bytes_read", "ingest.rows",
            "ingest.dropped_duplicates", "privacy.calls", "privacy.horizon_too_short",
            "estimator.calls", "estimator.converged", "estimator.nonconvergence",
            "estimator.iterations", "hawkes.moments_calls")


class Tracer:
    """Installs the wrappers for one traced iteration at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [trace_id, span_id, parent_id, name, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.largest: EventSequence | None = None  # biggest sequence of the iteration
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.trace_id = -1

    def begin(self, name: str) -> list:
        rec = [self.trace_id, len(self.spans), self._stack[-1] if self._stack else -1,
               name, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        return rec

    def end(self, rec: list) -> None:
        rec[5] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, module, attr: str, name, observe=None) -> None:
        """Replace module.attr by a spanning wrapper; name may be a function of
        the call's arguments. observe(args, result, exc) updates counters."""
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))

        def wrapper(*args, **kwargs):
            rec = self.begin(name(args) if callable(name) else name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.end(rec)
                if observe is not None:
                    observe(args, result, exc)

        setattr(module, attr, wrapper)

    def install(self) -> None:
        self.trace_id += 1
        self.counts.clear()
        self.largest = None
        c = self.counts

        def sequence(key):
            def observe(args, result, exc):
                if result is not None:
                    c[key] += len(result)
                    self._saw(result)
            return observe

        def written(args, result, exc):
            c["events.csv_bytes_written"] += os.path.getsize(args[1])

        def read(args, result, exc):
            c["events.csv_bytes_read"] += os.path.getsize(args[0])
            if result is not None:
                self._saw(result)

        def ingested(args, result, exc):
            c["ingest.bytes_read"] += os.path.getsize(args[0])
            if result is not None:
                self._saw(result)
                with open(args[0], "rb") as fh:
                    rows = fh.read().count(b"\n") - 1  # less the header row
                c["ingest.rows"] += rows
                c["ingest.dropped_duplicates"] += rows - len(result)

        def privatized(args, result, exc):
            c["privacy.calls"] += 1
            c["privacy.horizon_too_short"] += isinstance(exc, HorizonTooShort)

        def horizon_checked(args, result, exc):
            c["privacy.horizon_too_short"] += result is False

        def inverted(args, result, exc):
            c["estimator.calls"] += 1
            c["estimator.nonconvergence"] += isinstance(exc, NonConvergence)
            if result is not None:
                c["estimator.converged"] += 1
                c["estimator.iterations"] += result.iterations

        def moments(args, result, exc):
            c["hawkes.moments_calls"] += 1

        self.wrap(cli, "main", lambda args: f"cli.{args[0][0]}")
        for module in (cli, experiments):
            self.wrap(module, "simulate_branching", "simulate.branching",
                      sequence("simulate.branching_events"))
            self.wrap(module, "bin_events", "counts.bin")
            self.wrap(module, "sample_stats", "counts.stats")
            self.wrap(module, "estimate", "estimator.estimate")
            self.wrap(module, "invert_moments", "estimator.invert", inverted)
            self.wrap(module, "privatize_stats", "privacy.privatize", privatized)
            self.wrap(module, "ingest_timestamps", "ingest.timestamps", ingested)
        self.wrap(cli, "simulate_thinning", "simulate.thinning",
                  sequence("simulate.thinning_events"))
        self.wrap(cli, "write_events_csv", "events.write_csv", written)
        self.wrap(cli, "read_events_csv", "events.read_csv", read)
        self.wrap(cli, "tree_sizes", "branching.tree_sizes")
        self.wrap(cli, "write_tree_csv", "branching.write_tree_csv")
        for attr in ("run_sweep", "write_sweep_csv", "summarize_sweep",
                     "write_summary_csv", "emit_plot_script"):
            self.wrap(cli, attr, f"experiments.{attr}")
        for attr in ("run_time_to_threshold", "write_threshold_csv"):
            self.wrap(experiments, attr, f"experiments.{attr}")
        self.wrap(experiments, "mean_sensitivity", "privacy.mean_sensitivity")
        self.wrap(experiments, "variance_sensitivity", "privacy.variance_sensitivity")
        self.wrap(experiments, "validate_horizon", "privacy.validate_horizon",
                  horizon_checked)
        self.wrap(estimator, "sample_stats", "counts.stats")
        self.wrap(estimator, "invert_moments", "estimator.invert", inverted)
        self.wrap(estimator, "theoretical_moments", "hawkes.theoretical_moments", moments)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _saw(self, events: EventSequence) -> None:
        arrays = [events.timestamps]
        if events.labeled:
            arrays += [events.tree_id, events.parent_idx]
        self.counts["events.array_bytes_computed"] += sum(a.nbytes for a in arrays)
        if self.largest is None or len(events) > len(self.largest):
            self.largest = events

    def iteration_metrics(self, root: list) -> dict[str, float]:
        """Per-layer numbers of the iteration whose root span is root."""
        spans = [s for s in self.spans if s[0] == root[0]]
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            if s[2] >= 0:
                child_ns[s[2]] += s[5] - s[4]
        self_s = {layer: 0.0 for layer in LAYERS}
        timed = {metric: 0.0 for metric in TIMED.values()}
        for s in spans:
            dur = s[5] - s[4]
            self_s[s[3].split(".", 1)[0]] += (dur - child_ns[s[1]]) / 1e9
            if s[3] in TIMED:
                timed[TIMED[s[3]]] += dur / 1e9
        out = {f"{layer}.self_s": v for layer, v in self_s.items()}
        out.update(timed)
        out.update({k: float(self.counts[k]) for k in COUNTERS})
        calls = self.counts["estimator.calls"]
        out["estimator.converged_ratio"] = self.counts["estimator.converged"] / calls \
            if calls else 0.0
        out["trace.wall_s"] = (root[5] - root[4]) / 1e9
        out["trace.self_sum_s"] = sum(self_s.values())
        out["trace.spans"] = float(len(spans))
        return out

    def validate_probe(self) -> float:
        """Seconds to construct (and so validate) an EventSequence on the
        iteration's largest event arrays."""
        ev = self.largest
        if ev is None:
            return 0.0
        t0 = time.perf_counter()
        EventSequence(ev.timestamps, ev.horizon, ev.tree_id, ev.parent_idx)
        return time.perf_counter() - t0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("trace_id,span_id,parent_id,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(",".join(map(str, s)) + "\n")
