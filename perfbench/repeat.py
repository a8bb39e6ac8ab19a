#!/usr/bin/env python3
"""Repeat mode: run one workload N times and report how steady it is.

    python3 perfbench/repeat.py --workload store_query --runs 10 [--first-seed 1]
                                [--seconds S] [--trace 0|1] [-- extra benchmark args]

Runs the command from BENCHMARK.json once per seed (first-seed, first-seed+1,
...), from the repository root, and prints for every metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) as a
share of the median. A spread above a tenth is flagged; for an end-to-end
metric the spread is also compared with a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("extra", nargs="*", help="extra benchmark arguments (after --)")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ] + args.extra
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':48} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        flags = []
        if spread > 0.1:
            flags.append("SPREAD>0.1")
        bound = bounds.get(name)
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flags.append(f"SPREAD>bound/3 ({bound})")
        print(f"{name:48} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {units[name]} {' '.join(flags)}")


if __name__ == "__main__":
    main()
