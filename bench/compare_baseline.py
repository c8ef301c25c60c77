#!/usr/bin/env python3
"""Compares a BENCH_*.json report with its checked-in baseline.

    python3 bench/compare_baseline.py BENCH_table4.json bench/baseline/table4.json

Both files have the exp::BenchReport shape: {"name", "notes", "results":
[{"bench", "metric", "value", "unit"}]}. Rows in the "wall" bench group are
host timings: they are printed, never compared. Every other row is a
simulated (seed-deterministic) value and must equal the baseline's exactly,
and the two files must hold the same set of them. Exits nonzero on any
difference. Standard library only.
"""
import json
import sys

WALL = "wall"


def load(path):
    with open(path) as f:
        report = json.load(f)
    rows = {}
    for row in report["results"]:
        key = (row["bench"], row["metric"])
        if key in rows:
            sys.exit("%s: duplicate row %s/%s" % (path, key[0], key[1]))
        rows[key] = row["value"]
    return report["name"], rows


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: compare_baseline.py REPORT BASELINE")
    name, report = load(argv[1])
    base_name, baseline = load(argv[2])
    if name != base_name:
        sys.exit("report '%s' does not match baseline '%s'" % (name, base_name))

    failures = []
    gated = sorted(k for k in set(report) | set(baseline) if k[0] != WALL)
    for key in gated:
        label = "%s/%s" % key
        if key not in report:
            failures.append("%s: missing from the report" % label)
        elif key not in baseline:
            failures.append("%s: not in the baseline (value %r)" %
                            (label, report[key]))
        elif report[key] != baseline[key]:
            failures.append("%s: %r, baseline %r" %
                            (label, report[key], baseline[key]))

    for key in sorted(k for k in report if k[0] == WALL):
        print("%-28s %10.3f s" % ("%s/%s" % key, report[key]))
    if failures:
        print("%s: %d of %d simulated values differ from %s:" %
              (argv[1], len(failures), len(gated), argv[2]))
        for line in failures:
            print("  " + line)
        return 1
    print("%s: all %d simulated values equal %s" %
          (argv[1], len(gated), argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
