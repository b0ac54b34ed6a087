"""Summarize untraced runs kept in perfbench/out/ and optionally record them
as the baseline.

    python3 perfbench/summarize.py [--write-baseline]

For each workload and end-to-end metric it prints the median and quartiles
over the seeds that were run, and the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json. --write-baseline stores these medians
and every run's output digest in perfbench/baseline.json; run.py compares
later digests for the same workload and seed against it.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    runs = defaultdict(list)
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        report = json.loads(path.read_text())
        runs[report["workload"]].append(report)

    baseline = {"environment": None, "medians": {}, "digests": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        reports = runs.get(workload, [])
        if not reports:
            continue
        baseline["environment"] = reports[0]["environment"]
        baseline["digests"][workload] = {str(r["seed"]): r["digest"] for r in reports}
        medians = baseline["medians"][workload] = {}
        failed = sum(r["failed"] for r in reports)
        print(f"{workload}: {len(reports)} runs, seeds "
              f"{sorted(r['seed'] for r in reports)}, {failed} failed operations")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in reports]
            med = statistics.median(values)
            medians[m["name"]] = med
            if len(values) < 2:
                print(f"  {m['name']:<20} median {med:.6g} {m['unit']}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<20} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f} (bound {m['bound']}) {verdict}")
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")


if __name__ == "__main__":
    main()
