#!/usr/bin/env python3
"""Runs one benchmark command and checks its result line.

    check_output.py --benchmark BENCHMARK.json --trace 0|1 -- <command...>

The command must exit 0 and end its stdout with one JSON object holding
exactly correct, attempted, failed and metrics, with correct true, at least
one attempt, and every metric that BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1) present once, with its
declared unit and a finite numeric value; end-to-end values must be non-zero.
"""

import argparse
import json
import math
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    with open(args.benchmark) as f:
        bench = json.load(f)
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]

    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"command exited {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("no output", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"keys: {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        errors.append("failed must be a whole number >= 0")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        errors.append(f"metrics missing {missing}, unexpected {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r} is not a finite number")
        elif not args.trace and value == 0:
            errors.append(f"{m['name']}: end-to-end value is 0")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
