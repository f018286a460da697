#!/usr/bin/env python3
"""Summarize benchmark results: per workload and metric, the median over runs
and the spread (distance between the first and third quartile, as a share of
the median), as the acceptance rule for the benchmark computes it.

    python3 perfbench/summarize.py perfbench/out/result-*-trace0.json
    python3 perfbench/summarize.py --json baseline.json perfbench/out/result-*.json

Each argument is a result record written by run.py.
"""

import argparse
import json
import statistics
from collections import defaultdict


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def summarize(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs[(rec["inputs"]["workload"], rec["trace"])].append(rec)
    table = {}
    for (workload, trace), recs in sorted(runs.items()):
        rows = {}
        for name, m in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "min": min(values), "max": max(values), "unit": m["unit"],
                          "runs": len(values)}
        table[f"{workload}/trace{trace}"] = {
            "seeds": sorted(r["inputs"]["seed"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "metrics": rows,
        }
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+")
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()
    table = summarize(args.results)
    for key, block in table.items():
        print(f"{key}: seeds {block['seeds']}, failed {block['failed']}/{block['attempted']}")
        for name, row in block["metrics"].items():
            print(f"  {name:<26} median {row['median']:<12.6g} spread {row['spread']:<8.4f}"
                  f" [{row['min']:.6g}, {row['max']:.6g}] {row['unit']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
