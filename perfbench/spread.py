#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]

Runs the workload once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per metric, the median and the distance between the first and
third quartiles as a share of the median, next to the metric's bound. A
spread at or above a third of the bound is marked.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if not lines:
            print("seed %d printed no result: %s" % (seed, out.stderr.strip()[-500:]))
            continue
        result = json.loads(lines[-1])
        if out.returncode != 0 or not result["correct"]:
            print("seed %d failed: %s" % (seed, out.stdout.strip().splitlines()[-2]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in bounds)), flush=True)

    for name, bound in bounds.items():
        spread = metrics.quartile_spread(values[name])
        flag = "" if spread < bound / 3 else "  <-- at or above a third of the bound"
        print("%-18s median %-12.6g spread %.4f bound %.2f%s"
              % (name, statistics.median(values[name]), spread, bound, flag))


if __name__ == "__main__":
    main()
