"""Median and quartile spread of benchmark result files.

    python3 perfbench/summarize.py perfbench/out/*.json [--write summary.json]

Groups the result files that run.py writes by workload and trace mode and,
for each metric, prints the run count, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median, which is what the metric's bound in BENCHMARK.json is
compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarize(paths) -> dict:
    groups = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        if "descriptors" not in record:     # a summary written by --write
            continue
        d = record["descriptors"]
        key = f"{d['workload']}/trace{d['trace']}"
        runs[key].append({"seed": d["seed"], "correct": record["correct"],
                          "attempted": record["attempted"], "failed": record["failed"]})
        for name, m in record["metrics"].items():
            groups[key][name].append(m["value"])
    out = {}
    for key, metrics in sorted(groups.items()):
        rows = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
        out[key] = {"runs": runs[key], "metrics": rows}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--write", metavar="PATH", help="also write the summary as JSON")
    args = parser.parse_args()
    summary = summarize(args.paths)
    for key, group in summary.items():
        runs = group["runs"]
        print(f"{key}: {len(runs)} runs, seeds {sorted(r['seed'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name, row in group["metrics"].items():
            print(f"  {name:<30} median {row['median']:14.6g}  q1 {row['q1']:14.6g}  "
                  f"q3 {row['q3']:14.6g}  spread {row['spread']:7.2%}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
