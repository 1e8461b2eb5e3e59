#!/usr/bin/env python3
"""Compare two sets of perfbench results, refusing mixed hosts or builds.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by perfbench/run.py (under
.bench_build/perfbench/results/) or directories of them. For every
workload and metric present on both sides it prints the median of each
side and the relative change. Results only compare when they share one
host/build fingerprint (CPU model, core and pool-thread counts,
compiler, build type and flags, GEO_CHECK_BOUNDS, GEO_TRACE); if any
record's fingerprint differs, nothing is compared and the exit status
is 2.
"""

import json
import os
import statistics
import sys


def load(path):
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    records = []
    for p in paths:
        try:
            with open(p) as fh:
                record = json.load(fh)
        except (OSError, ValueError) as err:
            sys.exit(f"compare: cannot read {p}: {err}")
        if record.get("schema") != "perfbench-result-1":
            sys.exit(f"compare: {p} is not a perfbench result")
        records.append(record)
    if not records:
        sys.exit(f"compare: no results under {path}")
    return records


def medians(records):
    values = {}
    for r in records:
        for name, metric in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            values.setdefault(key, (metric["unit"], []))[1].append(
                metric["value"])
    return {key: (unit, statistics.median(v))
            for key, (unit, v) in values.items()}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    reference = base[0]["fingerprint"]
    for record in base + new:
        if record["fingerprint"] != reference:
            print("compare: refused, results come from different "
                  "fingerprints:", file=sys.stderr)
            print(f"  {json.dumps(reference, sort_keys=True)}",
                  file=sys.stderr)
            print(f"  {json.dumps(record['fingerprint'], sort_keys=True)}",
                  file=sys.stderr)
            return 2
    base_m, new_m = medians(base), medians(new)
    print(f"{'workload':14s} {'metric':40s} {'base':>14s} {'new':>14s} "
          f"{'change':>8s}")
    for key in sorted(base_m.keys() & new_m.keys()):
        unit, b = base_m[key]
        n = new_m[key][1]
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{key[0]:14s} {key[2]:40s} {b:14.6g} {n:14.6g} {change:>8s}"
              f" {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
