#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds sfn_perfbench from the
checkout's sources into .bench_build/ (the project's own CMake build, only
the targets the benchmark links); later runs reuse it. The workload runs on
code defaults: every SFN_* and SMARTFLUIDNET_* variable is removed from its
environment. serve_open runs with OMP_NUM_THREADS=1, one OpenMP thread per
concurrent session. The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1). The line before it holds the details: ladder hash,
tail percentile and sample counts, quality figures, provenance and any
correctness failures. The exit status is 0 only when every check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "sfn_perfbench"
WORKLOADS = ("surrogate_solo", "pcg_exact", "serve_open")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources at %s; run from a full checkout" % ROOT, 3)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "perfbench_build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_smartfluidnet_INCLUDE=%s"
                      % (HERE / "perfbench.cmake")])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "sfn_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-20:]
                fail("build failed (%s):\n%s" % (" ".join(cmd[:2]), "\n".join(tail)), 3)


def run_binary(args, budget_s):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SFN_", "SMARTFLUIDNET_"))}
    if args.workload == "serve_open":
        # The server already runs nproc sessions at once; an OpenMP team of
        # nproc in each would oversubscribe the cores.
        env["OMP_NUM_THREADS"] = "1"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=budget_s)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %.0f s" % budget_s, 4)
    if proc.returncode != 0:
        fail("sfn_perfbench exited with %d:\n%s" % (proc.returncode, proc.stderr[-2000:]), 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("sfn_perfbench printed nothing", 4)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        fail("--seconds must be in [1, 600] and --seed non-negative", 2)

    started = time.monotonic()
    build()
    # A run that had to build gets the full run budget after the build.
    if time.monotonic() - started > 60:
        started = time.monotonic()
    raw = run_binary(args, RUN_TIMEOUT_S - (time.monotonic() - started))

    attempted, failed, reasons = metrics.failures(raw)
    values = metrics.per_layer(raw) if args.trace else metrics.end_to_end(raw)
    units = {**metrics.END_TO_END, **metrics.PER_LAYER}
    for name, value in values.items():
        if not metrics.valid_metric_name(name) or not math.isfinite(value):
            reasons.append("metric %s=%r is invalid" % (name, value))
            values[name] = 0.0
            failed += 1
    summary = metrics.job_summary(raw["windows"][0])
    details = {
        "workload": args.workload,
        "ladder_hash": raw["setups"][0]["ladder_hash"],
        "model": raw["model"],
        "q": raw["q"],
        "job_tail_percentile": summary["tail_percentile"] if summary else None,
        "job_samples": summary["samples"] if summary else 0,
        "quality": metrics.quality(raw),
        "failed_frac": failed / attempted if attempted else 1.0,
        "provenance": raw["provenance"],
        "failures": reasons,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()},
    }))
    sys.exit(0 if not reasons else 1)


if __name__ == "__main__":
    main()
