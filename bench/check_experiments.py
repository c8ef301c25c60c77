#!/usr/bin/env python3
"""Checks EXPERIMENTS.md's bench-backed tables against BENCH reports.

    python3 bench/check_experiments.py EXPERIMENTS.md \\
        BENCH_table4.json BENCH_topk_studies.json

A checked table follows a marker that names the report row ("bench") of
each table row and the metric of each column; an empty metric leaves a
column (labels, paper values) unchecked:

    <!-- checked: rows=kube_default,random columns=,top1,top2 -->

A cell must print its report value at the cell's own precision ("0.170" is
compared with "%.3f"); bold and a trailing "s" are ignored. Exits nonzero on
any mismatch, on a table whose shape differs from its marker, and on a
marked cell with no report row. Standard library only.
"""
import json
import re
import sys

MARKER = re.compile(r"^<!-- checked: rows=(\S+) columns=(\S*) -->$")
CELL = re.compile(r"^(-?\d+(?:\.(\d+))?)(?: ?s)?$")


def load_reports(paths):
    values = {}
    for path in paths:
        with open(path) as f:
            for row in json.load(f)["results"]:
                key = (row["bench"], row["metric"])
                if key[0] == "wall":
                    continue
                if key in values:
                    sys.exit("%s: %s/%s is in two reports" % ((path,) + key))
                values[key] = row["value"]
    return values


def check_table(where, rows, columns, lines, values):
    """Yields one message per problem of one marked table."""
    table = [[c.strip() for c in line.strip().strip("|").split("|")]
             for line in lines]
    body = table[2:]
    if len(body) != len(rows) or any(len(r) != len(columns) for r in table):
        yield "%s: table is not %d rows by %d columns" % (
            where, len(rows), len(columns))
        return
    for bench, cells in zip(rows, body):
        for metric, cell in zip(columns, cells):
            if not metric:
                continue
            cell_at = "%s: %s/%s" % (where, bench, metric)
            match = CELL.match(cell.replace("**", ""))
            if (bench, metric) not in values:
                yield cell_at + ": no report row"
            elif not match:
                yield cell_at + ": %r is not a number" % cell
            else:
                printed, decimals = match.group(1), len(match.group(2) or "")
                expected = "%.*f" % (decimals, values[(bench, metric)])
                if printed != expected:
                    yield cell_at + ": table says %s, report %s" % (
                        printed, expected)


def main(argv):
    if len(argv) < 3:
        sys.exit("usage: check_experiments.py MARKDOWN REPORT...")
    values = load_reports(argv[2:])
    with open(argv[1]) as f:
        lines = f.read().splitlines()
    failures, tables, cells = [], 0, 0
    for i, line in enumerate(lines):
        marker = MARKER.match(line.strip())
        if not marker:
            continue
        rows, columns = marker.group(1).split(","), marker.group(2).split(",")
        start = i + 1
        while start < len(lines) and not lines[start].strip():
            start += 1
        end = start
        while end < len(lines) and lines[end].lstrip().startswith("|"):
            end += 1
        failures += check_table("%s:%d" % (argv[1], i + 1), rows, columns,
                                lines[start:end], values)
        tables += 1
        cells += len(rows) * sum(1 for c in columns if c)
    if tables == 0:
        failures.append("%s: no checked tables" % argv[1])
    for failure in failures:
        print(failure)
    if failures:
        return 1
    print("%s: %d cells in %d tables match the reports" %
          (argv[1], cells, tables))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
