#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload table4 --seed 0 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the library sources plus the driver, Release) into .bench_build/;
later runs rebuild incrementally. The driver's metrics are checked against
BENCHMARK.json's metric lists, and on seed 0 its simulator-only outputs are
checked against expected.json. The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The exit code is 0 only when every check passed.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_dir = BUILD / "perfbench"
    log_path = BUILD / "perfbench-build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return build_dir / "lts_perfbench"


def run_driver(binary, args):
    trace_dir = BUILD / "perfbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / ("%s-seed%d.csv" % (args.workload, args.seed))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: driver exited %d without a result"
                 % proc.returncode)
    return proc.returncode, json.loads(lines[-1][len("RESULT "):])


def check_metrics(metrics, spec, require_nonzero):
    """Names and units must match BENCHMARK.json exactly."""
    errors = []
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        errors.append("metric names differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (sorted(set(want) - set(metrics)),
                                    sorted(set(metrics) - set(want))))
    for name, m in metrics.items():
        value = m.get("value")
        if name in want and m.get("unit") != want[name]:
            errors.append("%s: unit %s, expected %s"
                          % (name, m.get("unit"), want[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: value %r is not a finite number"
                          % (name, value))
        elif require_nonzero and value == 0:
            errors.append("%s: value is 0" % name)
    return errors


def check_expected(workload, sim):
    """Simulator-only outputs on seed 0 must equal the recorded values:
    no scheduler change can move them."""
    want = json.loads((HERE / "expected.json").read_text())[workload]
    return ["seed 0: %s = %r, recorded %r" % (k, sim.get(k), v)
            for k, v in sorted(want.items()) if sim.get(k) != v]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table4", "live_stream"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    returncode, result = run_driver(binary, args)

    info = result["info"]
    print("perfbench: %s seed=%d trace=%d | %s %s (%s) | nproc=%s "
          "thread_pool=%s | decisions=%s passes=%s"
          % (args.workload, args.seed, args.trace, info["compiler"],
             info["build_type"], info["flags"].strip(), info["nproc"],
             info["thread_pool"], info["decisions"], info["passes"]))
    errors = list(result["errors"])
    if returncode != 0 and not errors:
        errors.append("driver exited %d" % returncode)
    if args.trace:
        metrics = result["per_layer"]
        errors += check_metrics(metrics, spec["per_layer"], False)
    else:
        metrics = result["end_to_end"]
        errors += check_metrics(metrics, spec["end_to_end"], True)
    if args.seed == 0:
        errors += check_expected(args.workload, result["sim"])
    for e in errors:
        print("perfbench: FAILED: %s" % e)

    correct = not errors and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]) if correct else
                  max(int(result["failed"]), 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
