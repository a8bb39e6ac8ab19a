#!/usr/bin/env python3
"""Checks the result line of one perfbench run.

Usage: perfbench ... --trace T | result_line.py --trace T

Echoes the run's stdout (read on stdin) and checks its last line:

* it is one JSON object with "correct": true and "failed": 0;
* its metric names are exactly BENCHMARK.json's "end_to_end" names for an
  untraced run (--trace 0), or its "per_layer" names for a traced one
  (--trace 1);
* every metric value is a finite number (perfbench prints a non-finite
  value as null).

Exits 1 with the reason when a check fails. Standard library only.
"""

import json
import math
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def fail(reason):
    print(f"result_line.py: {reason}", file=sys.stderr)
    sys.exit(1)


def reject_constant(token):
    fail(f"non-finite value {token}")


def main(argv):
    if len(argv) != 3 or argv[1] != "--trace" or argv[2] not in ("0", "1"):
        fail("usage: result_line.py --trace 0|1")
    section = "per_layer" if argv[2] == "1" else "end_to_end"
    expected = {m["name"] for m in json.loads(BENCHMARK.read_text())[section]}

    lines = sys.stdin.read().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines))
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1], parse_constant=reject_constant)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {lines[-1]!r}")
    if not isinstance(result, dict):
        fail("last line is not a JSON object")
    if result.get("correct") is not True:
        fail(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0 or isinstance(result.get("failed"), bool):
        fail(f"failed is {result.get('failed')!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        fail("no metrics object")
    missing, extra = expected - metrics.keys(), metrics.keys() - expected
    if missing or extra:
        fail(f"{section} names differ: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, metric in sorted(metrics.items()):
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"{name} has no numeric value: {metric!r}")
        if not math.isfinite(value):
            fail(f"{name} is not finite: {value!r}")
    print(f"result_line.py: ok ({len(metrics)} {section} metrics, correct, failed 0)")


if __name__ == "__main__":
    main(sys.argv)
